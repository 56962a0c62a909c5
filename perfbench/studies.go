package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/shortener"
)

// The study workloads run whole studies back to back until the timed
// phase has lasted --seconds. Each study is built (timed as set-up), then
// run and rendered (timed), then checked: its report blocks must hash to
// the values recorded in golden.json for that seed, and its
// overall malicious share (all epochs) must stay within the tolerance
// EXPERIMENTS.md states.

const (
	// studyScale is slumreport's default -scale.
	studyScale = 20
	// maliceTarget and maliceTolerance bound the overall malicious share
	// (the paper's 26.7%; the seed-sweep test's tolerance).
	maliceTarget    = 0.267
	maliceTolerance = 0.07
)

// studyKind is one study workload.
type studyKind struct {
	name string
	// seeds are the study seeds golden.json records hashes for.
	seeds []uint64
	// config is the workload's study configuration (epoch 0).
	config func(seed uint64, tr *tracing) core.StudyConfig
	// build constructs what run executes; its wall time is set-up.
	build func(seed uint64, tr *tracing) (*core.Study, error)
	// run executes the study and renders its report blocks.
	run func(seed uint64, st *core.Study, tr *tracing, scratch string) (studyOutput, error)
}

// studyOutput is one executed study: crawled records folded, the report
// blocks whose hashes are checked, and the malicious and regular URL
// counts its overall malicious share is taken from (all epochs).
type studyOutput struct {
	records, malicious, regular int
	blocks                      [][]byte
	// after, when set, runs once the study's timing has stopped.
	after func() error
}

// finish runs the study's untimed follow-up, if any, and returns runErr
// or else the follow-up's error.
func (res studyOutput) finish(runErr error) error {
	if res.after == nil {
		return runErr
	}
	if err := res.after(); runErr == nil {
		return err
	}
	return runErr
}

func seedRange(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

func paperConfig(seed uint64, tr *tracing) core.StudyConfig {
	cfg := core.DefaultStudyConfig()
	cfg.Seed = seed
	cfg.Scale = studyScale
	if tr != nil {
		cfg.Metrics, cfg.Tracer = tr.reg, tr.tracer
	}
	return cfg
}

func longitudinalConfig(seed uint64, tr *tracing) core.StudyConfig {
	cfg := paperConfig(seed, tr)
	cfg.Epochs = 8
	cfg.ChurnFrac = 0.05
	cfg.BlacklistLag = 1
	return cfg
}

// paperReport is slumreport's default run: one batch study, every section.
var paperReport = studyKind{
	name:   "paper-report",
	seeds:  seedRange(40),
	config: paperConfig,
	build: func(seed uint64, tr *tracing) (*core.Study, error) {
		st, err := core.NewStudy(paperConfig(seed, tr))
		if err == nil && tr != nil {
			tr.decorateDetector(st.Detector)
		}
		return st, err
	},
	run: func(_ uint64, st *core.Study, tr *tracing, _ string) (studyOutput, error) {
		if err := st.Run(); err != nil {
			return studyOutput{}, err
		}
		a := st.Analysis
		var buf bytes.Buffer
		renderSections(&buf, a, a.ShortURLStats(st.Universe.Shorteners), tr)
		return studyOutput{
			records:   a.TotalCrawled,
			malicious: a.TotalMalicious,
			regular:   a.TotalRegular,
			blocks:    [][]byte{buf.Bytes()},
		}, nil
	},
}

// longitudinal is slumreport -epochs 8 -churn 0.05 -blacklist-lag 1 with
// a delta directory. Its set-up builds the epoch-0 study the runner
// starts from, on its own: the runner constructs every study internally.
var longitudinal = studyKind{
	name:   "longitudinal",
	seeds:  seedRange(16),
	config: longitudinalConfig,
	build: func(seed uint64, tr *tracing) (*core.Study, error) {
		return core.NewStudy(longitudinalConfig(seed, tr))
	},
	run: func(seed uint64, _ *core.Study, tr *tracing, scratch string) (studyOutput, error) {
		cfg := longitudinalConfig(seed, tr)
		deltaDir, err := os.MkdirTemp(scratch, "delta-")
		if err != nil {
			return studyOutput{}, err
		}
		out := studyOutput{after: func() error {
			defer os.RemoveAll(deltaDir)
			if tr == nil {
				return nil
			}
			return tr.measureDeltas(cfg, deltaDir)
		}}
		res, err := core.RunLongitudinalStudy(cfg, core.LongitudinalOptions{DeltaDir: deltaDir})
		if err != nil {
			return out, err
		}
		for _, e := range res.Epochs {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "%s\n\n", report.EpochHeader(e.Epoch))
			renderSections(&buf, e.Analysis, e.ShortStats, tr)
			out.blocks = append(out.blocks, buf.Bytes())
			out.records += e.Analysis.TotalCrawled
			out.malicious += e.Analysis.TotalMalicious
			out.regular += e.Analysis.TotalRegular
		}
		var buf bytes.Buffer
		for _, section := range []func(*core.LongitudinalResult) string{
			report.LongitudinalOverview, report.LongitudinalIntel, report.LongitudinalBursts,
		} {
			fmt.Fprintln(&buf, tr.timeRender(func() string { return section(res) }))
		}
		out.blocks = append(out.blocks, buf.Bytes())
		return out, nil
	},
}

// renderSections prints the per-study report block exactly as slumreport
// does with no -table/-figure selection.
func renderSections(w io.Writer, a *core.Analysis, short []shortener.HitStats, tr *tracing) {
	for _, section := range []func() string{
		func() string { return report.Headline(a) },
		func() string { return report.Table1(a) },
		func() string { return report.Table2(a) },
		func() string { return report.Table3(a) },
		func() string { return report.Table4(short) },
		func() string { return report.Figure2(a) },
		func() string { return report.Figure3(a) },
		func() string { return report.Figure5(a) },
		func() string { return report.Figure6(a) },
		func() string { return report.Figure7(a) },
		func() string { return report.CrawlHealthReport(a) },
	} {
		fmt.Fprintln(w, tr.timeRender(section))
	}
}

const (
	// setupBuilds studies are built, and not run, before the warm-up, so
	// setup_s is a median over many builds rather than one per timed study.
	setupBuilds = 32
	// warmUp is how long studies run, checked but untimed, before the
	// timed phase: the heap grows for several studies before it settles.
	warmUp = 2 * time.Second
)

// studyPhase is one timed phase of a study workload.
type studyPhase struct {
	setup     []time.Duration // one build per study
	latency   []time.Duration // run + render, per study
	rates     []float64       // records per second, per study
	timed     time.Duration
	records   int
	allocated float64
	runtime   runtimeSample
	studies   int
	failed    int
}

// runPhase runs studies from seeds[next:] (wrapping) until the timed time
// reaches dur, checking each, and returns the index after the last one.
func runPhase(k studyKind, seeds []uint64, next int, dur time.Duration, tr *tracing, o options, out *outcome) (studyPhase, int) {
	var ph studyPhase
	rt0 := readRuntime()
	for ph.timed < dur || ph.studies == 0 {
		seed := seeds[next%len(seeds)]
		next++
		t0 := time.Now()
		st, err := k.build(seed, tr)
		ph.setup = append(ph.setup, time.Since(t0))
		if err != nil {
			// A failed build adds no timed time, so the phase ends here.
			out.fail("%s seed %d: build: %v", k.name, seed, err)
			ph.failed++
			ph.studies++
			break
		}
		a0 := readRuntime().allocBytes
		t1 := time.Now()
		res, err := k.run(seed, st, tr, o.scratch)
		lat := time.Since(t1)
		ph.allocated += readRuntime().allocBytes - a0
		ph.studies++
		ph.timed += lat
		ph.latency = append(ph.latency, lat)
		if err := res.finish(err); err != nil {
			out.fail("%s seed %d: %v", k.name, seed, err)
			ph.failed++
			continue
		}
		ph.records += res.records
		ph.rates = append(ph.rates, float64(res.records)/lat.Seconds())
		fmt.Fprintf(o.log, "%s seed %d: %d records in %.3fs\n", k.name, seed, res.records, lat.Seconds())
		if !checkStudy(k.name, seed, res, out) {
			ph.failed++
		}
	}
	ph.runtime = readRuntime().sub(rt0)
	return ph, next
}

// checkStudy compares a study's report hashes with golden.json and its
// malicious shares with the paper's, recording every mismatch.
func checkStudy(workload string, seed uint64, res studyOutput, out *outcome) bool {
	ok := true
	want := goldens[workload][strconv.FormatUint(seed, 10)]
	got := hashBlocks(res.blocks)
	if len(want) != len(got) {
		out.fail("%s seed %d: %d report blocks, golden.json records %d", workload, seed, len(got), len(want))
		ok = false
	} else {
		for i := range got {
			if got[i] != want[i] {
				out.fail("%s seed %d: report block %d hashes to %s, want %s", workload, seed, i, got[i], want[i])
				ok = false
			}
		}
	}
	if m := ratio(float64(res.malicious), float64(res.regular)); math.Abs(m-maliceTarget) > maliceTolerance {
		out.fail("%s seed %d: malicious share %.3f outside %.3f±%.2f", workload, seed, m, maliceTarget, maliceTolerance)
		ok = false
	}
	return ok
}

func hashBlocks(blocks [][]byte) []string {
	out := make([]string, len(blocks))
	for i, b := range blocks {
		sum := sha256.Sum256(b)
		out[i] = hex.EncodeToString(sum[:8])
	}
	return out
}

// runStudies runs one study workload: set-up builds, a warm-up, the
// untraced timed phase, and with --trace 1 a traced phase of the same
// length.
func runStudies(k studyKind, o options) (*outcome, error) {
	if len(goldens[k.name]) == 0 {
		return nil, fmt.Errorf("golden.json records no %s hashes", k.name)
	}
	out := &outcome{endToEnd: metrics{}, perLayer: metrics{}}
	seeds := studySeeds(o.seed, k.name, k.seeds)
	var setup []time.Duration
	for i := 0; i < setupBuilds; i++ {
		t0 := time.Now()
		if _, err := k.build(seeds[i%len(seeds)], nil); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0))
	}
	// Warm-up: studies run, checked but untimed, so the heap has grown and
	// memory is faulted in before anything is timed.
	warm, next := runPhase(k, seeds, 0, warmUp, nil, o, out)
	out.attempted += warm.studies
	out.failed += warm.failed

	ph, next := runPhase(k, seeds, next, o.seconds, nil, o, out)
	out.attempted += ph.studies
	out.failed += ph.failed
	fmt.Fprintf(o.log, "%s: %d studies, %d records in %.2fs timed\n", k.name, ph.studies, ph.records, ph.timed.Seconds())
	// The median study's throughput: a study slowed by a burst of outside
	// load moves it less than it moves the total.
	rate := percentile(ph.rates, 0.5)
	e := out.endToEnd
	e.set("setup_s", percentile(seconds(append(setup, ph.setup...)), 0.5), "s")
	e.set("records_per_s", rate, "records/s")
	e.set("latency_p50_ms", 1e3*percentile(seconds(ph.latency), 0.5), "ms")
	e.set("latency_p95_ms", 1e3*percentile(seconds(ph.latency), 0.95), "ms")
	e.set("alloc_b_per_item", ratio(ph.allocated, float64(ph.records)), "B")
	e.set("peak_rss_mb", peakRSSMB(), "MB")
	if !o.trace {
		return out, nil
	}

	tr := newTracing()
	tph, _ := runPhase(k, seeds, next, o.seconds, tr, o, out)
	out.attempted += tph.studies
	out.failed += tph.failed
	if k.name == longitudinal.name {
		// Replay the runner's universe chain for the last seed to time the
		// per-epoch advance it performs internally.
		if err := tr.replayAdvance(k.config(seeds[(next+tph.studies-1)%len(seeds)], nil)); err != nil {
			return nil, err
		}
	}
	if err := tr.replayDetectors(k.config(seeds[next%len(seeds)], nil)); err != nil {
		return nil, err
	}
	l := out.perLayer
	busy := tr.report(l, tph.setup)
	l.set("trace.items", float64(tph.records), "count")
	l.set("trace.overhead_pct", 100*(rate/percentile(tph.rates, 0.5)-1), "%")
	setRuntimeLayer(l, ph.runtime)
	setShares(l, busy, tph.timed)
	fillIdleLayers(l)
	return out, nil
}

// goldenFile holds, per study workload and study seed, the hashes of the
// report blocks the study renders (one per epoch, then the longitudinal
// sections).
//
//go:embed golden.json
var goldenFile []byte

var goldens = func() map[string]map[string][]string {
	var g map[string]map[string][]string
	if err := json.Unmarshal(goldenFile, &g); err != nil {
		panic("perfbench: golden.json: " + err.Error())
	}
	return g
}()

// recordGoldens runs every recorded seed of both study workloads and
// writes their report hashes to path.
func recordGoldens(path, scratch string, log io.Writer) error {
	g := map[string]map[string][]string{}
	for _, k := range []studyKind{paperReport, longitudinal} {
		g[k.name] = map[string][]string{}
		for _, seed := range k.seeds {
			st, err := k.build(seed, nil)
			if err != nil {
				return err
			}
			res, err := k.run(seed, st, nil, scratch)
			if err := res.finish(err); err != nil {
				return err
			}
			g[k.name][strconv.FormatUint(seed, 10)] = hashBlocks(res.blocks)
			fmt.Fprintf(log, "%s seed %d: malicious share %.4f\n", k.name, seed, ratio(float64(res.malicious), float64(res.regular)))
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
