// Command perfbench is the repository's end-to-end benchmark. It drives
// the system only through the public entry points its CLIs call —
// core.NewStudy/Study.Run (slumreport's default study),
// core.RunLongitudinalStudy (slumreport -epochs) and serve.APIHandler
// (slumserve's scan API) — and checks every output it measures.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-report --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --record perfbench/golden.json
//
// Every input is derived from --seed: the study seeds, the scan pool and
// the URL schedule. --trace 0 measures the end-to-end metrics with all
// instrumentation off. --trace 1 repeats that untraced phase, then runs a
// traced phase of the same length and reports the per-layer metrics (see
// README.md for the layer map). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Progress and
// failure details go to standard error.
//
// --record re-derives the report hashes the study workloads check against
// (golden.json) and writes them to the named file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// endToEndUnits is every end-to-end metric with its unit; each workload
// reports all of them and BENCHMARK.json lists the same set.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"records_per_s":    "records/s",
	"latency_p50_ms":   "ms",
	"latency_p95_ms":   "ms",
	"alloc_b_per_item": "B",
	"peak_rss_mb":      "MB",
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the command-line arguments every workload takes.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// scratch is a directory the run owns and removes at exit.
	scratch string
	log     io.Writer
}

// outcome is what a workload reports: operations attempted and failed,
// problems found by its checks (failed operations or a run that is
// invalid as a whole), and its metrics.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	endToEnd  metrics
	perLayer  metrics
}

// fail records a failed check. At most a few problems are kept for the
// log; every one still counts.
func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*outcome, error){
	"paper-report": func(o options) (*outcome, error) { return runStudies(paperReport, o) },
	"longitudinal": func(o options) (*outcome, error) { return runStudies(longitudinal, o) },
	"scan-api":     runScanAPI,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-report, longitudinal or scan-api")
	seed := fs.Uint64("seed", 1, "workload seed every input is derived from")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: add a traced phase and report the per-layer metrics")
	record := fs.String("record", "", "write the study report hashes to this file and exit")
	scratch := fs.String("scratch", filepath.Join(".bench_build", "perfbench", "tmp"), "parent directory for run-scoped files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if *record == "" && (!ok || *seconds <= 0 || (*trace != 0 && *trace != 1)) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-report, longitudinal, scan-api), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if *record != "" {
		if err := recordGoldens(*record, dir, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	out, err := w(options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		scratch: dir,
		log:     stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	res := result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.endToEnd,
	}
	want := endToEndUnits
	if *trace == 1 {
		res.Metrics, want = out.perLayer, perLayerUnits
	}
	for metricName, unit := range want {
		if m, ok := res.Metrics[metricName]; !ok || m.Unit != unit || len(res.Metrics) != len(want) {
			fmt.Fprintf(stderr, "perfbench: %s reported %d metrics, want %d including %s in %s\n",
				*name, len(res.Metrics), len(want), metricName, unit)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
