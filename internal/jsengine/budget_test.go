package jsengine

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// execTwice runs the same (src, budget) pair twice and fails unless both
// runs produce byte-identical traces and identical errors — the sandbox
// determinism contract.
func execTwice(t *testing.T, src string, b Budget) (*Trace, error) {
	t.Helper()
	tr1, err1 := ExecuteBudget(src, b)
	tr2, err2 := ExecuteBudget(src, b)
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatalf("trace not deterministic:\nfirst:  %+v\nsecond: %+v", tr1, tr2)
	}
	if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
		t.Fatalf("error not deterministic: %v vs %v", err1, err2)
	}
	return tr1, err1
}

// TestBudgetEdges drives each budget axis to its edge and asserts the
// exact structured code. Budgets are taken literally: zero fuel means
// zero fuel, not "use the default".
func TestBudgetEdges(t *testing.T) {
	big := Budget{Fuel: 1 << 20, HeapBytes: 1 << 24, OutputBytes: 1 << 20, EvalDepth: 8}
	cases := []struct {
		name   string
		src    string
		budget Budget
		want   Code
	}{
		{
			name:   "zero fuel",
			src:    "var x = 1;",
			budget: Budget{Fuel: 0, HeapBytes: 1 << 20, OutputBytes: 1 << 20, EvalDepth: 8},
			want:   CodeFuelExhausted,
		},
		{
			name:   "one unit of fuel",
			src:    "var x = 1;",
			budget: Budget{Fuel: 1, HeapBytes: 1 << 20, OutputBytes: 1 << 20, EvalDepth: 8},
			want:   CodeFuelExhausted,
		},
		{
			name:   "heap cap smaller than the source",
			src:    "var x = \"aaaaaaaaaaaaaaaaaaaaaaaa\";",
			budget: Budget{Fuel: 1 << 20, HeapBytes: 8, OutputBytes: 1 << 20, EvalDepth: 8},
			want:   CodeHeapLimit,
		},
		{
			name:   "fuel runs out mid-loop",
			src:    "var i = 0; while (true) { i = i + 1; }",
			budget: big,
			want:   CodeFuelExhausted,
		},
		{
			name:   "heap runs out mid-doubling",
			src:    "var s = \"aaaaaaaa\"; while (true) { s = s + s; }",
			budget: big,
			want:   CodeHeapLimit,
		},
		{
			name:   "output cap mid-write",
			src:    `document.write("0123456789"); document.write("0123456789");`,
			budget: Budget{Fuel: 1 << 20, HeapBytes: 1 << 24, OutputBytes: 15, EvalDepth: 8},
			want:   CodeOutputLimit,
		},
		{
			name:   "wall clock",
			src:    "var i = 0; while (true) { i = i + 1; }",
			budget: Budget{Fuel: 1 << 40, HeapBytes: 1 << 24, OutputBytes: 1 << 20, EvalDepth: 8, Wall: time.Nanosecond},
			want:   CodeTimeout,
		},
		{
			name:   "eval depth",
			src:    `function f() { eval("f()"); } f();`,
			budget: Budget{Fuel: 1 << 20, HeapBytes: 1 << 24, OutputBytes: 1 << 20, EvalDepth: 2},
			want:   CodeEvalError,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := execTwice(t, tc.src, tc.budget)
			code, ok := CodeOf(err)
			if !ok {
				t.Fatalf("error %v is not a SandboxError", err)
			}
			if code != tc.want {
				t.Fatalf("code = %s, want %s", code, tc.want)
			}
			if tr == nil {
				t.Fatal("no trace returned alongside the structured error")
			}
			if tr.FuelUsed > tc.budget.Fuel {
				t.Fatalf("FuelUsed %d exceeds budget %d", tr.FuelUsed, tc.budget.Fuel)
			}
		})
	}
}

// TestOutputCapPartialWrite pins the deterministic trip point: the write
// that crosses the cap is truncated to exactly the remaining budget, so
// the partial trace is reproducible byte for byte.
func TestOutputCapPartialWrite(t *testing.T) {
	src := `document.write("0123456789"); document.write("abcdefghij");`
	b := Budget{Fuel: 1 << 20, HeapBytes: 1 << 24, OutputBytes: 15, EvalDepth: 8}
	tr, err := execTwice(t, src, b)
	if code, _ := CodeOf(err); code != CodeOutputLimit {
		t.Fatalf("err = %v, want %s", err, CodeOutputLimit)
	}
	want := []string{"0123456789", "abcde"}
	if !reflect.DeepEqual(tr.Writes, want) {
		t.Fatalf("partial writes = %q, want %q", tr.Writes, want)
	}
}

// TestResourceCodesUncatchable wraps each violation in try/catch: the
// structured error must still surface. A catchable resource error would
// let `try { while(true){} } catch (e) {}` spin forever.
func TestResourceCodesUncatchable(t *testing.T) {
	big := Budget{Fuel: 1 << 20, HeapBytes: 1 << 24, OutputBytes: 64, EvalDepth: 4}
	cases := []struct {
		name string
		src  string
		want Code
	}{
		{"fuel", "try { while (true) { var i = 1; } } catch (e) { var c = 1; }", CodeFuelExhausted},
		{"heap", "try { var s = \"aaaaaaaa\"; while (true) { s = s + s; } } catch (e) { }", CodeHeapLimit},
		{"output", "try { while (true) { document.write(\"xxxxxxxxxx\"); } } catch (e) { }", CodeOutputLimit},
		{"eval depth", `function f() { try { eval("f()"); } catch (e) { } } f();`, CodeEvalError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ExecuteBudget(tc.src, big)
			code, ok := CodeOf(err)
			if !ok || code != tc.want {
				t.Fatalf("err = %v (code %s, structured %v), want uncaught %s", err, code, ok, tc.want)
			}
		})
	}
}

// TestPlainEvalFailureStaysNonFatal is the counterpart to
// uncatchability: an in-script eval of garbage is a script-level problem,
// not a budget violation — it must neither abort the run nor surface a
// structured code, or benign pages with broken decoders would read as
// bombs.
func TestPlainEvalFailureStaysNonFatal(t *testing.T) {
	tr, err := ExecuteBudget(`eval("syntax ^^^ error"); document.write("alive");`, DefaultBudget())
	if err != nil {
		t.Fatalf("in-script eval failure escaped the script: %v", err)
	}
	if len(tr.Writes) != 1 || tr.Writes[0] != "alive" {
		t.Fatalf("script did not continue past the bad eval: writes = %q", tr.Writes)
	}
}

// TestDefaultBudgetSucceedsOnRealWork sanity-checks that production
// defaults leave ordinary scripts untouched.
func TestDefaultBudgetSucceedsOnRealWork(t *testing.T) {
	src := `var s = ""; for (var i = 0; i < 100; i = i + 1) { s = s + "x"; } document.write(s.length);`
	tr, err := execute(src)
	if err != nil {
		t.Fatalf("default budget tripped on ordinary work: %v", err)
	}
	if tr.FuelUsed == 0 {
		t.Fatal("no fuel accounted")
	}
}

// TestCodeOfForeignError pins the boundary contract: every error leaving
// ExecuteBudget is a *SandboxError.
func TestCodeOfForeignError(t *testing.T) {
	if _, ok := CodeOf(errors.New("plain")); ok {
		t.Fatal("CodeOf matched a non-sandbox error")
	}
	_, err := ExecuteBudget("} syntax {", DefaultBudget())
	code, ok := CodeOf(err)
	if !ok || code != CodeEvalError {
		t.Fatalf("parse failure surfaced as %v (code %s), want %s", err, code, CodeEvalError)
	}
}
