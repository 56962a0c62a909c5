package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// TestGoldenReportStreaming locks in the engine's streaming guarantee at
// the CLI level: a run that writes periodic shard checkpoints as it
// crawls emits the exact golden bytes, clean and faulty alike, and
// leaves its checkpoint directory empty.
func TestGoldenReportStreaming(t *testing.T) {
	for _, tc := range []struct {
		golden string
		extra  []string
	}{
		{"report.golden", nil},
		{"report_faulty.golden", []string{"-faults", "hostile"}},
	} {
		dir := t.TempDir()
		testutil.CheckGolden(t, tc.golden, captureReport(t, append([]string{"-checkpoint", dir, "-checkpoint-every", "97"}, tc.extra...)...))
		if left, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt")); len(left) != 0 {
			t.Errorf("%s: shard checkpoints left behind: %v", tc.golden, left)
		}
	}
}

// TestGoldenReportKillResume kills a checkpointed run partway (the
// -abort-after testing hook stands in for SIGKILL: the run stops with
// only the last periodic shard checkpoints on disk) and reruns the same
// command under a different worker count; the resumed report must be
// byte-identical to the golden file, clean and faulty alike, and the
// checkpoint directory must be empty afterwards.
func TestGoldenReportKillResume(t *testing.T) {
	for _, tc := range []struct {
		golden string
		extra  []string
	}{
		{"report.golden", nil},
		{"report_faulty.golden", []string{"-faults", "hostile"}},
	} {
		dir := t.TempDir()
		args := append([]string{"-checkpoint", dir, "-checkpoint-every", "37"}, tc.extra...)
		var buf bytes.Buffer
		killed := append(append(append([]string{}, goldenArgs...), args...), "-workers", "2", "-abort-after", "700")
		if err := run(killed, &buf); err == nil {
			t.Fatalf("%s: aborted run returned nil error", tc.golden)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt")); len(left) == 0 {
			t.Fatalf("%s: no shard checkpoints on disk after the kill", tc.golden)
		}
		testutil.CheckGolden(t, tc.golden, captureReport(t, append(args, "-workers", "8")...))
		if left, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt")); len(left) != 0 {
			t.Errorf("%s: shard checkpoints left behind: %v", tc.golden, left)
		}
	}
}

// TestKillResumeByteIdentical kills a checkpointed flaky run with
// -abort-after, resumes under a different worker count, and requires the
// exact bytes of an uninterrupted run — with the checkpoint directory
// cleaned up afterwards.
func TestKillResumeByteIdentical(t *testing.T) {
	want := captureReport(t, "-workers", "4", "-faults", "flaky")
	dir := t.TempDir()
	args := []string{"-faults", "flaky", "-checkpoint", dir, "-checkpoint-every", "37"}
	var buf bytes.Buffer
	if err := run(append(append(append([]string{}, goldenArgs...), args...), "-workers", "2", "-abort-after", "200"), &buf); err == nil {
		t.Fatal("aborted run returned nil error")
	}
	if got := captureReport(t, append(args, "-workers", "8")...); !bytes.Equal(got, want) {
		t.Error("kill + resume output differs from uninterrupted run")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt")); len(left) != 0 {
		t.Errorf("shard checkpoints left behind: %v", left)
	}
}

// TestStreamFlagValidation covers the checkpoint flag edges: the removed
// mode flags are refused, and a checkpoint directory with nothing in it
// is a fresh start.
func TestStreamFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	for _, gone := range []string{"-stream", "-resume", "-fleet=4"} {
		if err := run([]string{gone}, &buf); err == nil {
			t.Errorf("removed flag %s accepted", gone)
		}
	}
	dir := filepath.Join(t.TempDir(), "never-written")
	base := captureReport(t)
	if got := captureReport(t, "-checkpoint", dir); !bytes.Equal(got, base) {
		t.Error("-checkpoint with no checkpoint on disk diverged from a fresh run")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("completed run left %d entries in the checkpoint dir (err %v)", len(entries), err)
	}
}
