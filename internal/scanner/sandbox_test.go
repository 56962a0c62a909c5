package scanner

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/jsengine"
	"repro/internal/obs"
)

// Regression for the bare-error-string era: jsengine.Execute used to
// return unstructured errors, and scanScript dropped them on the floor.
// A try/catch-wrapped infinite loop therefore burned the whole step
// budget and walked away labeled benign — the scanner could not tell "the
// script outran the sandbox" from "the script had a typo". With
// structured codes the trip is a malice signal in its own right.
func TestTryCatchInfiniteLoopClassified(t *testing.T) {
	h := NewHeuristic()
	h.Metrics = obs.NewRegistry()
	body := `<html><body>
<script>
try { while (true) { var i = 1; } } catch (e) { var c = 1; }
</script>
</body></html>`

	start := time.Now()
	f := h.ScanPage("http://bomb.example/", "text/html", []byte(body))
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("scan of an infinite loop took %s; the sandbox is not bounding it", elapsed)
	}

	if len(f.SandboxTripped) != 1 || f.SandboxTripped[0] != string(jsengine.CodeFuelExhausted) {
		t.Fatalf("SandboxTripped = %v, want [%s]", f.SandboxTripped, jsengine.CodeFuelExhausted)
	}
	if !f.Malicious() {
		t.Fatal("a sandbox-tripping page scanned as benign")
	}
	found := false
	for _, l := range f.Labels {
		if l == LabelResourceBomb {
			found = true
		}
	}
	if !found {
		t.Fatalf("labels %v missing %s", f.Labels, LabelResourceBomb)
	}
	if got := h.Metrics.Counter("jsengine.sandbox.fuel_exhausted").Value(); got != 1 {
		t.Fatalf("jsengine.sandbox.fuel_exhausted = %d, want 1", got)
	}
}

// A merely broken script must NOT become a malice signal: EVAL_ERROR is a
// structured code but not a resource violation, so benign pages with
// unparseable scripts keep scanning clean.
func TestBrokenScriptNotFlagged(t *testing.T) {
	h := NewHeuristic()
	h.Metrics = obs.NewRegistry()
	body := `<html><body><script>this is not javascript @@@ %%%</script></body></html>`
	f := h.ScanPage("http://typo.example/", "text/html", []byte(body))
	if len(f.SandboxTripped) != 0 {
		t.Fatalf("SandboxTripped = %v for a plain parse failure", f.SandboxTripped)
	}
	if f.Malicious() {
		t.Fatal("an unparseable (not hostile) script scanned as malicious")
	}
	if got := h.Metrics.Counter("jsengine.sandbox.eval_error").Value(); got != 1 {
		t.Fatalf("jsengine.sandbox.eval_error = %d, want 1 (the failure should still be counted)", got)
	}
}

// The scanner's budget override flows through to the engine: a tighter
// heap budget flips the same page's verdict from clean to tripped.
func TestHeuristicBudgetOverride(t *testing.T) {
	body := `<html><body><script>var s = "aaaaaaaaaaaaaaaa"; var t = s + s;</script></body></html>`

	h := NewHeuristic()
	if f := h.ScanPage("http://ok.example/", "text/html", []byte(body)); len(f.SandboxTripped) != 0 {
		t.Fatalf("default budget tripped on a trivial script: %v", f.SandboxTripped)
	}

	tight := NewHeuristic()
	tight.Budget = jsengine.Budget{HeapBytes: 8}
	f := tight.ScanPage("http://tight.example/", "text/html", []byte(body))
	if len(f.SandboxTripped) != 1 || f.SandboxTripped[0] != string(jsengine.CodeHeapLimit) {
		t.Fatalf("SandboxTripped = %v, want [%s]", f.SandboxTripped, jsengine.CodeHeapLimit)
	}
}

// A page's scripts draw from one sandbox allowance: a page of a hundred
// infinite loops runs only as many of them as the allowance holds, spends
// no more fuel than it in total, and records the trip.
func TestPageFuelAllowance(t *testing.T) {
	page := "<html><body>" + strings.Repeat("<script>for(;;);</script>", 100) + "</body></html>"
	h := NewHeuristic()
	h.Metrics = obs.NewRegistry()
	f, spent := h.scan("http://loops.example/", "text/html", []byte(page))

	allowance := pageFuelScripts * jsengine.DefaultBudget().Fuel
	if spent <= 0 || spent > allowance {
		t.Fatalf("page spent %d fuel, want 1..%d", spent, allowance)
	}
	if !slices.Contains(f.SandboxTripped, string(jsengine.CodeFuelExhausted)) {
		t.Fatalf("SandboxTripped = %v, want %s", f.SandboxTripped, jsengine.CodeFuelExhausted)
	}
	// Each script that ran burned its whole per-script budget; the rest
	// never reached the sandbox.
	if got := h.Metrics.Counter("jsengine.sandbox.fuel_exhausted").Value(); got != pageFuelScripts {
		t.Fatalf("%d scripts ran out of fuel in the sandbox, want %d", got, pageFuelScripts)
	}
	if !f.Malicious() {
		t.Fatal("a page of infinite loops scanned as benign")
	}
}

// The allowance is shared, not a cap per script: a page whose first
// script is a bomb still runs a later script in full, and that script's
// redirection is found.
func TestPageFuelAllowanceRunsLaterScripts(t *testing.T) {
	page := `<html><body><script>for(;;);</script>
<script>window.location = "http://elsewhere.example/landing";</script></body></html>`
	f, _ := NewHeuristic().scan("http://bomb.example/", "text/html", []byte(page))
	if len(f.Redirections) != 1 || f.Redirections[0] != "http://elsewhere.example/landing" {
		t.Fatalf("Redirections = %v, want the second script's navigation", f.Redirections)
	}
}
