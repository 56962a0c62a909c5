package jsengine

// Interp is one interpreter that is reset after every script, exactly as
// ExecuteBudget resets the interpreters it pools.
type Interp struct{ in *interp }

// NewInterp returns a fresh interpreter.
func NewInterp() *Interp { return &Interp{newInterp()} }

// Execute runs src on the interpreter, then resets it.
func (x *Interp) Execute(src string, b Budget) (*Trace, error) {
	defer x.in.reset()
	return x.in.execute(src, b)
}
