package jsengine

import (
	"errors"
	"math"
	"time"
)

// Code identifies why the sandbox stopped a script. Codes are stable API:
// callers match on them (scanner verdicts, obs counters, fuzz oracles), so
// their spelling never changes.
type Code string

// The sandbox error taxonomy. The first four are resource violations — a
// script that trips one was stopped by the VM, not by its own logic — and
// the scanner treats them as a behaviour signal. EVAL_ERROR covers
// everything else: syntax errors, eval-depth and call-stack overruns,
// scripts too complex to parse.
const (
	CodeTimeout       Code = "TIMEOUT"
	CodeFuelExhausted Code = "FUEL_EXHAUSTED"
	CodeHeapLimit     Code = "HEAP_LIMIT"
	CodeOutputLimit   Code = "OUTPUT_LIMIT"
	CodeEvalError     Code = "EVAL_ERROR"
)

// Resource reports whether the code is a resource violation (as opposed to
// a script-level evaluation failure). Only resource codes feed the
// SandboxTripped malice signal: a benign script with a syntax error must
// not look like a bomb.
func (c Code) Resource() bool {
	switch c {
	case CodeTimeout, CodeFuelExhausted, CodeHeapLimit, CodeOutputLimit:
		return true
	}
	return false
}

// SandboxError is the structured execution error returned by ExecuteBudget.
// Resource-coded instances are uncatchable by in-script try/catch, exactly
// like a real VM's own limits.
type SandboxError struct {
	Code   Code
	Detail string
}

func (e *SandboxError) Error() string {
	return "jsengine: " + string(e.Code) + ": " + e.Detail
}

// CodeOf extracts the sandbox code from an error returned by ExecuteBudget
// or Analyze. ok is false for nil and for foreign errors.
func CodeOf(err error) (Code, bool) {
	var se *SandboxError
	if errors.As(err, &se) {
		return se.Code, true
	}
	return "", false
}

// The resource-trip singletons carry static details so the same (src,
// budget) pair always produces byte-identical error text.
var (
	errTimeout       = &SandboxError{Code: CodeTimeout, Detail: "wall clock budget exceeded"}
	errFuelExhausted = &SandboxError{Code: CodeFuelExhausted, Detail: "fuel budget exhausted"}
	errHeapLimit     = &SandboxError{Code: CodeHeapLimit, Detail: "heap byte budget exceeded"}
	errOutputLimit   = &SandboxError{Code: CodeOutputLimit, Detail: "output byte budget exceeded"}
	errEvalDepth     = &SandboxError{Code: CodeEvalError, Detail: "eval depth limit exceeded"}
	errCallDepth     = &SandboxError{Code: CodeEvalError, Detail: "call stack depth exceeded"}
	errExprDepth     = &SandboxError{Code: CodeEvalError, Detail: "expression depth limit exceeded"}
)

// asSandbox normalizes any execution error to a *SandboxError, so the
// error out of ExecuteBudget always carries a code.
func asSandbox(err error) *SandboxError {
	var se *SandboxError
	if errors.As(err, &se) {
		return se
	}
	return &SandboxError{Code: CodeEvalError, Detail: err.Error()}
}

// Budget bounds one sandbox execution. Every field is taken literally by
// ExecuteBudget (zero fuel means zero fuel); use withDefaults or
// DefaultBudget to fill unset fields. Wall == 0 disables the wall-clock
// guard, which keeps fuzz oracles fully deterministic.
type Budget struct {
	// Fuel is the total work allowance: one unit per AST step, plus
	// surcharges for expensive operations (parsing, string concatenation,
	// array growth, eval). See DESIGN.md for the charging table.
	Fuel int64
	// HeapBytes caps cumulative interned bytes: source text, concatenated
	// strings, decoded payloads, array backing growth.
	HeapBytes int64
	// OutputBytes caps cumulative trace output: document.write bodies,
	// navigation/popup targets, external calls, fingerprint keys.
	OutputBytes int64
	// EvalDepth caps eval() nesting.
	EvalDepth int
	// Wall is the wall-clock backstop. At default fuel the fuel limit
	// always trips first; the wall guard only matters for budgets sized
	// far above the defaults.
	Wall time.Duration
}

// DefaultBudget is the production budget: generous enough that every
// legitimate script in the synthetic universe runs to completion, small
// enough that bombs die in milliseconds. Fuel matches the interpreter's
// historical step limit and OutputBytes its historical write cap, so
// default-budget traces are unchanged.
func DefaultBudget() Budget {
	return Budget{
		Fuel:        500000,
		HeapBytes:   16 << 20,
		OutputBytes: 2 << 20,
		EvalDepth:   16,
		Wall:        5 * time.Second,
	}
}

// withDefaults fills non-positive fields from DefaultBudget, so partial
// budgets (a CLI that only sets -js-fuel) behave sensibly.
func (b Budget) withDefaults() Budget {
	d := DefaultBudget()
	if b.Fuel <= 0 {
		b.Fuel = d.Fuel
	}
	if b.HeapBytes <= 0 {
		b.HeapBytes = d.HeapBytes
	}
	if b.OutputBytes <= 0 {
		b.OutputBytes = d.OutputBytes
	}
	if b.EvalDepth <= 0 {
		b.EvalDepth = d.EvalDepth
	}
	if b.Wall <= 0 {
		b.Wall = d.Wall
	}
	return b
}

// meter tracks consumption against a Budget across one execution: the
// lexer, parser and interpreter all charge the same meter.
type meter struct {
	b        Budget
	fuelUsed int64
	heapUsed int64
	outUsed  int64
	deadline time.Time
	tick     int
}

// reset starts m on a new execution under b.
func (m *meter) reset(b Budget) {
	*m = meter{b: b}
	if b.Wall > 0 {
		m.deadline = time.Now().Add(b.Wall)
	}
}

// charge burns n fuel units. On exhaustion fuelUsed is clamped to the
// budget so Trace.FuelUsed never exceeds it. The wall clock is sampled
// every 4096 charges — cheap, and at default budgets fuel trips long
// before the deadline, keeping traces deterministic.
func (m *meter) charge(n int64) error {
	if n > math.MaxInt64-m.fuelUsed {
		m.fuelUsed = m.b.Fuel
		return errFuelExhausted
	}
	m.fuelUsed += n
	if m.fuelUsed > m.b.Fuel {
		m.fuelUsed = m.b.Fuel
		return errFuelExhausted
	}
	m.tick++
	if m.tick&4095 == 0 && !m.deadline.IsZero() && time.Now().After(m.deadline) {
		return errTimeout
	}
	return nil
}

// fuelLeft returns the remaining fuel (never negative).
func (m *meter) fuelLeft() int64 {
	if m.fuelUsed >= m.b.Fuel {
		return 0
	}
	return m.b.Fuel - m.fuelUsed
}

// chargeHeap accounts n freshly interned bytes.
func (m *meter) chargeHeap(n int64) error {
	if n < 0 || n > math.MaxInt64-m.heapUsed {
		m.heapUsed = m.b.HeapBytes
		return errHeapLimit
	}
	m.heapUsed += n
	if m.heapUsed > m.b.HeapBytes {
		m.heapUsed = m.b.HeapBytes
		return errHeapLimit
	}
	return nil
}

// takeOutput reserves up to n output bytes and returns how many fit. A
// short return means the budget tripped mid-write: the caller records the
// kept prefix (the deterministic partial trace) and propagates the error.
func (m *meter) takeOutput(n int64) (int64, error) {
	if n < 0 {
		return 0, errOutputLimit
	}
	room := m.b.OutputBytes - m.outUsed
	if room < 0 {
		room = 0
	}
	if n <= room {
		m.outUsed += n
		return n, nil
	}
	m.outUsed = m.b.OutputBytes
	return room, errOutputLimit
}

// chargeOutput is takeOutput for sinks that cannot partially record.
func (m *meter) chargeOutput(n int64) error {
	if kept, err := m.takeOutput(n); err != nil || kept < n {
		return errOutputLimit
	}
	return nil
}
