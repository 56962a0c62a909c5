package jsengine

import (
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// Trace is the behaviour record produced by sandbox execution. It is what
// the heuristic scanner inspects to classify a script.
type Trace struct {
	// Writes collects HTML fragments passed to document.write/writeln —
	// the vehicle for dynamically injected iframes (paper §V-A, Code 3).
	Writes []string
	// Navigations collects URLs assigned to window.location(.href) — the
	// vehicle for suspicious redirection and deceptive downloads (§V-B,
	// §V-C).
	Navigations []string
	// Popups collects window.open targets — the ad-scam behaviour of the
	// ExternalInterface Flash glue (§V-D).
	Popups []string
	// ExternalCalls collects ExternalInterface.call invocations.
	ExternalCalls []string
	// FingerprintReads collects fingerprinting API touches (navigator.*,
	// screen.*, mouse/keyboard event hooks) — the "user behavior
	// fingerprinting" the paper observes (§IV-A-1).
	FingerprintReads []string
	// Evals counts eval() invocations; EvalDepth is the deepest nesting —
	// a direct measure of obfuscation layering.
	Evals     int
	EvalDepth int
	// Timeouts counts setTimeout registrations (each is also executed).
	Timeouts int
	// Downloads collects URLs or data: payload names passed through
	// download-ish sinks (location assignments ending in .exe, data:
	// hrefs routed via navigation).
	Downloads []string
	// Steps is the number of interpreter steps consumed.
	Steps int
	// FuelUsed is the total fuel the execution burned: steps plus the
	// surcharges for parsing, concatenation, array growth and eval. It
	// never exceeds the budget's Fuel.
	FuelUsed int64
}

// Interpreter recursion guards. These bound Go-stack depth, not script
// work (fuel does that): legitimate decoders never approach them, and a
// script that does is stopped with an uncatchable EVAL_ERROR rather than
// overflowing the host stack.
const (
	maxCallDepth = 200
	maxExprDepth = 5000
)

// value is a JS runtime value.
type value interface{}

// jsUndefined is the undefined sentinel.
type jsUndefined struct{}

// object is a property bag.
type object struct {
	props map[string]value
	// class tags special host objects: "location", "window", "document",
	// "navigator", "screen", "element", "externalinterface".
	class string
}

func newObject(class string) *object {
	return &object{props: make(map[string]value), class: class}
}

// nativeFn is a built-in function.
type nativeFn struct {
	name string
	fn   func(in *interp, this value, args []value) (value, error)
}

// userFn is a script-defined function (closure over its defining env).
type userFn struct {
	params []string
	body   []node
	env    *env
}

// jsArray is an array value.
type jsArray struct{ elems []value }

// env is a lexical scope.
type env struct {
	vars   map[string]value
	parent *env
}

func (e *env) lookup(name string) (value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (e *env) set(name string, v value) {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return
		}
	}
	// Undeclared assignment creates a global, as in sloppy-mode JS.
	root := e
	for root.parent != nil {
		root = root.parent
	}
	root.vars[name] = v
}

func (e *env) declare(name string, v value) { e.vars[name] = v }

// interp executes a parsed program and accumulates a Trace. The global
// scope and the host objects outlive one execution: ExecuteBudget takes
// an interp from interpPool and reset refills them in place.
type interp struct {
	trace     *Trace
	global    *env
	m         *meter
	evalDepth int
	callDepth int
	exprDepth int
	location  *object
	document  *object
	window    *object
	navigator *object
	screen    *object
	external  *object
	stringObj *object
	mathObj   *object
	console   *object
	plugins   *jsArray
}

// ExecuteBudget runs src under an explicit resource budget. The budget is
// taken literally (zero fuel is zero fuel). A non-nil error is always a
// *SandboxError; match on CodeOf. Execution is deterministic: the same
// (src, budget) pair yields a byte-identical trace and error every run,
// provided the wall-clock guard did not fire.
func ExecuteBudget(src string, b Budget) (*Trace, error) {
	in := interpPool.Get().(*interp)
	defer returnInterp(in)
	return in.execute(src, b)
}

// execute runs src on in, which must be fresh or reset. The returned
// Trace is new: nothing of it is shared with in.
func (in *interp) execute(src string, b Budget) (*Trace, error) {
	in.m.reset(b)
	prog, err := parseProgram(src, in.m)
	if err != nil {
		return &Trace{FuelUsed: in.m.fuelUsed}, asSandbox(err)
	}
	in.trace = &Trace{}
	err = in.runProgram(prog)
	in.trace.FuelUsed = in.m.fuelUsed
	if err != nil {
		return in.trace, asSandbox(err)
	}
	return in.trace, nil
}

// interpPool recycles interpreters. Every script starts from the same two
// dozen globals and ten host objects, so a recycled interp refills its
// maps in place instead of building new ones. Like tokScratch, the pool
// never pins a page body: returnInterp clears every script value first.
var interpPool = sync.Pool{New: func() any { return newInterp() }}

// maxPooledNames bounds the names a finished script may leave in the
// global scope and host objects of an interp that goes back to the pool.
// Cleared maps keep their size, so an interp a script bloated is dropped
// instead.
const maxPooledNames = 256

func returnInterp(in *interp) {
	n := len(in.global.vars)
	for _, o := range in.hostObjects() {
		n += len(o.props)
	}
	if n > maxPooledNames {
		return
	}
	in.reset()
	interpPool.Put(in)
}

func newInterp() *interp {
	in := &interp{
		m: new(meter),
		// installGlobals declares 24 names; 26 is the most that four map
		// buckets hold before the table grows, which leaves room for a
		// short script's own variables.
		global:    &env{vars: make(map[string]value, 26)},
		location:  newObjectSized("location", 3),
		document:  newObjectSized("document", 10),
		window:    newObjectSized("window", 9),
		navigator: newObjectSized("navigator", 4),
		screen:    newObjectSized("screen", 3),
		external:  newObjectSized("externalinterface", 1),
		stringObj: newObjectSized("object", 1),
		mathObj:   newObjectSized("object", 3),
		console:   newObjectSized("object", 1),
		plugins:   &jsArray{},
	}
	in.installGlobals()
	return in
}

// reset returns in to the state newInterp leaves: no trace, a zero meter
// and depth counters, and every global and host property as
// installGlobals sets it, so no script can observe an earlier one.
func (in *interp) reset() {
	in.trace = nil
	*in.m = meter{}
	in.evalDepth, in.callDepth, in.exprDepth = 0, 0, 0
	in.installGlobals()
}

func (in *interp) hostObjects() [9]*object {
	return [...]*object{in.location, in.document, in.window, in.navigator, in.screen,
		in.external, in.stringObj, in.mathObj, in.console}
}

func (in *interp) runProgram(stmts []node) error {
	// Hoist function declarations first, as JS does.
	for _, s := range stmts {
		if f, ok := s.(stmtFunc); ok {
			in.global.declare(f.name, &userFn{params: f.params, body: f.body, env: in.global})
		}
	}
	for _, s := range stmts {
		if _, ok := s.(stmtFunc); ok {
			continue
		}
		if _, err := in.execStmt(s, in.global); err != nil {
			if errors.As(err, &returnSignal{}) {
				return nil
			}
			return err
		}
	}
	return nil
}

// returnSignal unwinds a user-function return through execStmt.
type returnSignal struct{ val value }

func (returnSignal) Error() string { return "return" }

// breakSignal and continueSignal unwind loop control through execStmt.
type breakSignal struct{}

func (breakSignal) Error() string { return "break" }

type continueSignal struct{}

func (continueSignal) Error() string { return "continue" }

func (in *interp) step() error {
	in.trace.Steps++
	return in.m.charge(1)
}

func (in *interp) execStmt(s node, e *env) (value, error) {
	if err := in.step(); err != nil {
		return nil, err
	}
	switch st := s.(type) {
	case stmtVar:
		var v value = jsUndefined{}
		if st.init != nil {
			var err error
			v, err = in.eval(st.init, e)
			if err != nil {
				return nil, err
			}
		}
		e.declare(st.name, v)
		return nil, nil
	case stmtAssign:
		return nil, in.execAssign(st, e)
	case stmtExpr:
		_, err := in.eval(st.expr, e)
		return nil, err
	case stmtIf:
		cond, err := in.eval(st.cond, e)
		if err != nil {
			return nil, err
		}
		branch := st.then
		if !truthy(cond) {
			branch = st.alt
		}
		for _, bs := range branch {
			if _, err := in.execStmt(bs, e); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case stmtFunc:
		e.declare(st.name, &userFn{params: st.params, body: st.body, env: e})
		return nil, nil
	case stmtReturn:
		var v value = jsUndefined{}
		if st.expr != nil {
			var err error
			v, err = in.eval(st.expr, e)
			if err != nil {
				return nil, err
			}
		}
		return nil, returnSignal{val: v}
	case stmtBreak:
		return nil, breakSignal{}
	case stmtContinue:
		return nil, continueSignal{}
	case stmtTry:
		err := in.execBlock(st.body, e)
		if err == nil {
			return nil, nil
		}
		// Control-flow signals and sandbox aborts pass through; only
		// script-level errors are catchable (as in real JS, where the
		// VM's own limits cannot be caught either).
		switch err.(type) {
		case returnSignal, breakSignal, continueSignal:
			return nil, err
		}
		var se *SandboxError
		if errors.As(err, &se) {
			return nil, err
		}
		if st.handler == nil {
			return nil, nil // try without catch swallows the error
		}
		scope := &env{vars: make(map[string]value), parent: e}
		if st.catchName != "" {
			scope.declare(st.catchName, err.Error())
		}
		return nil, in.execBlock(st.handler, scope)
	case stmtWhile:
		for {
			// Each iteration costs a step even when the body is empty,
			// so `while(true){}` cannot outrun the limiter.
			if err := in.step(); err != nil {
				return nil, err
			}
			cond, err := in.eval(st.cond, e)
			if err != nil {
				return nil, err
			}
			if !truthy(cond) {
				return nil, nil
			}
			if stop, err := in.execLoopBody(st.body, e); stop || err != nil {
				return nil, err
			}
		}
	case stmtFor:
		if st.init != nil {
			if _, err := in.execStmt(st.init, e); err != nil {
				return nil, err
			}
		}
		for {
			if err := in.step(); err != nil {
				return nil, err
			}
			if st.cond != nil {
				cond, err := in.eval(st.cond, e)
				if err != nil {
					return nil, err
				}
				if !truthy(cond) {
					return nil, nil
				}
			}
			if stop, err := in.execLoopBody(st.body, e); stop || err != nil {
				return nil, err
			}
			if st.post != nil {
				if _, err := in.execStmt(st.post, e); err != nil {
					return nil, err
				}
			}
		}
	}
	return nil, fmt.Errorf("jsengine: unknown statement %T", s)
}

// execBlock runs statements in order, returning the first error.
func (in *interp) execBlock(body []node, e *env) error {
	for _, s := range body {
		if _, err := in.execStmt(s, e); err != nil {
			return err
		}
	}
	return nil
}

// execLoopBody runs one loop iteration, translating break into stop and
// continue into a normal iteration end. Returns and real errors pass
// through.
func (in *interp) execLoopBody(body []node, e *env) (stop bool, err error) {
	for _, bs := range body {
		if _, err := in.execStmt(bs, e); err != nil {
			switch err.(type) {
			case breakSignal:
				return true, nil
			case continueSignal:
				return false, nil
			default:
				return true, err
			}
		}
	}
	return false, nil
}

func (in *interp) execAssign(st stmtAssign, e *env) error {
	v, err := in.eval(st.value, e)
	if err != nil {
		return err
	}
	switch target := st.target.(type) {
	case identExpr:
		if st.op != "=" {
			old, _ := e.lookup(target.name)
			v, err = in.applyCompound(st.op, old, v)
			if err != nil {
				return err
			}
		}
		// Bare `location = url` is a navigation.
		if target.name == "location" {
			return in.recordNavigation(toString(v))
		}
		e.set(target.name, v)
		return nil
	case memberExpr:
		obj, err := in.eval(target.obj, e)
		if err != nil {
			return err
		}
		return in.setMember(obj, target.prop, v, st.op)
	case indexExpr:
		obj, err := in.eval(target.obj, e)
		if err != nil {
			return err
		}
		idx, err := in.eval(target.index, e)
		if err != nil {
			return err
		}
		if arr, ok := obj.(*jsArray); ok {
			i := int(toNumber(idx))
			if i >= 0 {
				// Growth is charged BEFORE any element is appended, so
				// `a[1e9] = 1` dies on the budget instead of allocating.
				if grow := int64(i) + 1 - int64(len(arr.elems)); grow > 0 {
					if err := in.m.charge(grow/16 + 1); err != nil {
						return err
					}
					if err := in.m.chargeHeap(grow * 16); err != nil {
						return err
					}
					for len(arr.elems) <= i {
						arr.elems = append(arr.elems, jsUndefined{})
					}
				}
				arr.elems[i] = v
			}
			return nil
		}
		if o, ok := obj.(*object); ok {
			o.props[toString(idx)] = v
		}
		return nil
	}
	return fmt.Errorf("jsengine: bad assignment target %T", st.target)
}

func (in *interp) applyCompound(op string, old, v value) (value, error) {
	switch op {
	case "+=":
		if _, ok := old.(string); ok {
			return in.concat(old, v)
		}
		if _, ok := v.(string); ok {
			return in.concat(old, v)
		}
		return toNumber(old) + toNumber(v), nil
	case "-=":
		return toNumber(old) - toNumber(v), nil
	}
	return v, nil
}

// concat builds l+r as a string, charging fuel proportional to the result
// and heap for the fresh bytes. Quadratic string builders and doubling
// bombs exhaust their budget within milliseconds instead of the old
// flat per-result length cap.
func (in *interp) concat(l, r value) (value, error) {
	ls, rs := toString(l), toString(r)
	n := int64(len(ls)) + int64(len(rs))
	if err := in.m.charge(1 + n/64); err != nil {
		return nil, err
	}
	if err := in.m.chargeHeap(n); err != nil {
		return nil, err
	}
	return ls + rs, nil
}

func (in *interp) setMember(obj value, prop string, v value, op string) error {
	o, ok := obj.(*object)
	if !ok {
		return nil // writing a property on a primitive: silently ignored
	}
	if op != "=" {
		var err error
		v, err = in.applyCompound(op, o.props[prop], v)
		if err != nil {
			return err
		}
	}
	switch {
	case o.class == "location" && (prop == "href" || prop == "replace"):
		return in.recordNavigation(toString(v))
	case (o.class == "window" || o.class == "document") && prop == "location":
		return in.recordNavigation(toString(v))
	case o.class == "document" && (strings.HasPrefix(prop, "onmouse") || strings.HasPrefix(prop, "onkey")):
		if err := in.recordFingerprint("document." + prop); err != nil {
			return err
		}
	}
	o.props[prop] = v
	return nil
}

func (in *interp) recordNavigation(target string) error {
	if err := in.m.chargeOutput(int64(len(target))); err != nil {
		return err
	}
	in.trace.Navigations = append(in.trace.Navigations, target)
	lower := strings.ToLower(target)
	if strings.Contains(lower, ".exe") || strings.HasPrefix(lower, "data:") {
		in.trace.Downloads = append(in.trace.Downloads, target)
	}
	return nil
}

// recordFingerprint appends a fingerprint-API touch, charged as output so
// a registration loop cannot grow the trace without bound.
func (in *interp) recordFingerprint(key string) error {
	if err := in.m.chargeOutput(int64(len(key))); err != nil {
		return err
	}
	in.trace.FingerprintReads = append(in.trace.FingerprintReads, key)
	return nil
}

func (in *interp) eval(n node, e *env) (value, error) {
	if err := in.step(); err != nil {
		return nil, err
	}
	// Bound expression-tree recursion: a 100k-term concat chain parses to
	// a 50k-deep left-leaning tree, and recursing it would exhaust the Go
	// stack long before the fuel runs out.
	in.exprDepth++
	if in.exprDepth > maxExprDepth {
		in.exprDepth--
		return nil, errExprDepth
	}
	v, err := in.evalNode(n, e)
	in.exprDepth--
	return v, err
}

func (in *interp) evalNode(n node, e *env) (value, error) {
	switch x := n.(type) {
	case stringExpr:
		return x.val, nil
	case numberExpr:
		return x.val, nil
	case boolExpr:
		return x.val, nil
	case identExpr:
		if x.name == "undefined" {
			return jsUndefined{}, nil
		}
		if v, ok := e.lookup(x.name); ok {
			return v, nil
		}
		// Unknown identifiers evaluate to undefined instead of throwing:
		// malware references browser APIs we do not model, and aborting
		// there would hide the behaviour that follows.
		return jsUndefined{}, nil
	case memberExpr:
		obj, err := in.eval(x.obj, e)
		if err != nil {
			return nil, err
		}
		return in.getMember(obj, x.prop)
	case indexExpr:
		obj, err := in.eval(x.obj, e)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(x.index, e)
		if err != nil {
			return nil, err
		}
		if arr, ok := obj.(*jsArray); ok {
			i := int(toNumber(idx))
			if i >= 0 && i < len(arr.elems) {
				return arr.elems[i], nil
			}
			return jsUndefined{}, nil
		}
		if s, ok := obj.(string); ok {
			i := int(toNumber(idx))
			if i >= 0 && i < len(s) {
				return s[i : i+1], nil
			}
			return jsUndefined{}, nil
		}
		return in.getMember(obj, toString(idx))
	case callExpr:
		return in.evalCall(x, e)
	case newExpr:
		// `new X(...)`: model as a plain object; Date gets a getTime.
		o := newObject("object")
		if id, ok := x.ctor.(identExpr); ok && id.name == "Date" {
			o.props["getTime"] = &nativeFn{name: "getTime", fn: func(*interp, value, []value) (value, error) {
				return float64(1450000000000), nil // fixed sandbox clock
			}}
		}
		return o, nil
	case binExpr:
		return in.evalBin(x, e)
	case unaryExpr:
		v, err := in.eval(x.x, e)
		if err != nil {
			return nil, err
		}
		switch x.op {
		case "!":
			return !truthy(v), nil
		case "-":
			return -toNumber(v), nil
		case "typeof":
			return typeOf(v), nil
		}
		return jsUndefined{}, nil
	case arrayExpr:
		arr := &jsArray{elems: make([]value, 0, len(x.elems))}
		for _, el := range x.elems {
			v, err := in.eval(el, e)
			if err != nil {
				return nil, err
			}
			arr.elems = append(arr.elems, v)
		}
		return arr, nil
	case funcExpr:
		return &userFn{params: x.params, body: x.body, env: e}, nil
	case objectExpr:
		obj := newObject("object")
		for i, key := range x.keys {
			v, err := in.eval(x.vals[i], e)
			if err != nil {
				return nil, err
			}
			obj.props[key] = v
		}
		return obj, nil
	case condExpr:
		c, err := in.eval(x.cond, e)
		if err != nil {
			return nil, err
		}
		if truthy(c) {
			return in.eval(x.then, e)
		}
		return in.eval(x.alt, e)
	case incExpr:
		old, err := in.eval(x.target, e)
		if err != nil {
			return nil, err
		}
		delta := 1.0
		if x.op == "--" {
			delta = -1
		}
		updated := toNumber(old) + delta
		if err := in.execAssign(stmtAssign{target: x.target, op: "=", value: numberExpr{val: updated}}, e); err != nil {
			return nil, err
		}
		if x.prefix {
			return updated, nil
		}
		return toNumber(old), nil
	}
	return nil, fmt.Errorf("jsengine: cannot evaluate %T", n)
}

func (in *interp) evalBin(x binExpr, e *env) (value, error) {
	l, err := in.eval(x.l, e)
	if err != nil {
		return nil, err
	}
	// Short-circuit logic operators.
	switch x.op {
	case "&&":
		if !truthy(l) {
			return l, nil
		}
		return in.eval(x.r, e)
	case "||":
		if truthy(l) {
			return l, nil
		}
		return in.eval(x.r, e)
	}
	r, err := in.eval(x.r, e)
	if err != nil {
		return nil, err
	}
	switch x.op {
	case "+":
		if _, ok := l.(string); ok {
			return in.concat(l, r)
		}
		if _, ok := r.(string); ok {
			return in.concat(l, r)
		}
		return toNumber(l) + toNumber(r), nil
	case "-":
		return toNumber(l) - toNumber(r), nil
	case "*":
		return toNumber(l) * toNumber(r), nil
	case "/":
		return toNumber(l) / toNumber(r), nil
	case "%":
		return math.Mod(toNumber(l), toNumber(r)), nil
	case "==", "===":
		return looseEq(l, r), nil
	case "!=", "!==":
		return !looseEq(l, r), nil
	case "<":
		return toNumber(l) < toNumber(r), nil
	case ">":
		return toNumber(l) > toNumber(r), nil
	case "<=":
		return toNumber(l) <= toNumber(r), nil
	case ">=":
		return toNumber(l) >= toNumber(r), nil
	}
	return jsUndefined{}, nil
}

func (in *interp) evalCall(x callExpr, e *env) (value, error) {
	// Evaluate callee; capture `this` for method calls.
	var this value = jsUndefined{}
	var fn value
	var err error
	if m, ok := x.fn.(memberExpr); ok {
		this, err = in.eval(m.obj, e)
		if err != nil {
			return nil, err
		}
		fn, err = in.getMember(this, m.prop)
		if err != nil {
			return nil, err
		}
	} else {
		fn, err = in.eval(x.fn, e)
		if err != nil {
			return nil, err
		}
	}
	args := make([]value, 0, len(x.args))
	for _, a := range x.args {
		v, err := in.eval(a, e)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return in.invoke(fn, this, args)
}

func (in *interp) invoke(fn value, this value, args []value) (value, error) {
	switch f := fn.(type) {
	case *nativeFn:
		return f.fn(in, this, args)
	case *userFn:
		in.callDepth++
		defer func() { in.callDepth-- }()
		if in.callDepth > maxCallDepth {
			return nil, errCallDepth
		}
		scope := &env{vars: make(map[string]value), parent: f.env}
		for i, p := range f.params {
			if i < len(args) {
				scope.declare(p, args[i])
			} else {
				scope.declare(p, jsUndefined{})
			}
		}
		for _, s := range f.body {
			if fdecl, ok := s.(stmtFunc); ok {
				scope.declare(fdecl.name, &userFn{params: fdecl.params, body: fdecl.body, env: scope})
			}
		}
		for _, s := range f.body {
			if _, ok := s.(stmtFunc); ok {
				continue
			}
			if _, err := in.execStmt(s, scope); err != nil {
				var rs returnSignal
				if errors.As(err, &rs) {
					return rs.val, nil
				}
				return nil, err
			}
		}
		return jsUndefined{}, nil
	case jsUndefined:
		// Calling an unmodeled API: a no-op returning undefined.
		return jsUndefined{}, nil
	}
	return jsUndefined{}, nil
}

// --- conversions ---

func truthy(v value) bool {
	switch x := v.(type) {
	case nil, jsUndefined:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	default:
		return true
	}
}

func toString(v value) string {
	switch x := v.(type) {
	case nil, jsUndefined:
		return "undefined"
	case string:
		return x // the common case: no budget bookkeeping
	case *jsArray:
		// Arrays stringify recursively; a self-referencing array
		// (`a[0] = a`) would otherwise recurse forever, and even with a
		// depth cap a cyclic array fans out exponentially. Bound both
		// depth and total rendered bytes.
		rem := arrayRenderCap
		return renderArray(x, 0, &rem)
	default:
		return scalarString(v)
	}
}

const arrayRenderCap = 64 << 10

func renderArray(x *jsArray, depth int, rem *int) string {
	if depth >= 32 || *rem <= 0 {
		return ""
	}
	parts := make([]string, len(x.elems))
	for i, el := range x.elems {
		if *rem <= 0 {
			break
		}
		if inner, ok := el.(*jsArray); ok {
			parts[i] = renderArray(inner, depth+1, rem)
		} else {
			parts[i] = scalarString(el)
		}
		*rem -= len(parts[i]) + 1
	}
	return strings.Join(parts, ",")
}

// scalarString stringifies every non-array value.
func scalarString(v value) string {
	switch x := v.(type) {
	case nil, jsUndefined:
		return "undefined"
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case *object:
		return "[object Object]"
	case *nativeFn:
		return "function " + x.name + "() { [native code] }"
	case *userFn:
		return "function () { ... }"
	}
	return fmt.Sprintf("%v", v)
}

func toNumber(v value) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	case string:
		n, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return math.NaN()
		}
		return n
	default:
		return math.NaN()
	}
}

func looseEq(l, r value) bool {
	switch lv := l.(type) {
	case string:
		return lv == toString(r)
	case float64:
		return lv == toNumber(r)
	case bool:
		if rb, ok := r.(bool); ok {
			return lv == rb
		}
		return toNumber(l) == toNumber(r)
	case jsUndefined:
		_, rUndef := r.(jsUndefined)
		return rUndef || r == nil
	}
	return l == r
}

func typeOf(v value) string {
	switch v.(type) {
	case jsUndefined, nil:
		return "undefined"
	case string:
		return "string"
	case float64:
		return "number"
	case bool:
		return "boolean"
	case *nativeFn, *userFn:
		return "function"
	default:
		return "object"
	}
}

// --- host environment ---

// fingerprintProps are property reads that count as fingerprinting.
var fingerprintProps = map[string]bool{
	"navigator.useragent": true, "navigator.platform": true,
	"navigator.language": true, "navigator.plugins": true,
	"screen.width": true, "screen.height": true, "screen.colordepth": true,
}

// fingerprintEvents are event names whose registration counts as behaviour
// fingerprinting (the paper observed mouse-movement recording).
var fingerprintEvents = map[string]bool{
	"mousemove": true, "mousedown": true, "mouseup": true,
	"keydown": true, "keypress": true, "keyup": true, "scroll": true,
}

func (in *interp) getMember(obj value, prop string) (value, error) {
	o, ok := obj.(*object)
	if !ok {
		if s, isStr := obj.(string); isStr {
			return in.stringMember(s, prop)
		}
		if arr, isArr := obj.(*jsArray); isArr && prop == "length" {
			return float64(len(arr.elems)), nil
		}
		return jsUndefined{}, nil
	}
	if o.class == "navigator" || o.class == "screen" {
		key := o.class + "." + strings.ToLower(prop)
		if fingerprintProps[key] {
			if err := in.recordFingerprint(key); err != nil {
				return nil, err
			}
		}
	}
	if v, ok := o.props[prop]; ok {
		return v, nil
	}
	return jsUndefined{}, nil
}

func (in *interp) stringMember(s, prop string) (value, error) {
	switch prop {
	case "length":
		return float64(len(s)), nil
	case "charAt":
		return &nativeFn{name: "charAt", fn: func(_ *interp, _ value, args []value) (value, error) {
			i := 0
			if len(args) > 0 {
				i = int(toNumber(args[0]))
			}
			if i < 0 || i >= len(s) {
				return "", nil
			}
			return s[i : i+1], nil
		}}, nil
	case "charCodeAt":
		return &nativeFn{name: "charCodeAt", fn: func(_ *interp, _ value, args []value) (value, error) {
			i := 0
			if len(args) > 0 {
				i = int(toNumber(args[0]))
			}
			if i < 0 || i >= len(s) {
				return math.NaN(), nil
			}
			return float64(s[i]), nil
		}}, nil
	case "substring", "substr", "slice":
		return &nativeFn{name: prop, fn: func(_ *interp, _ value, args []value) (value, error) {
			start, end := 0, len(s)
			if len(args) > 0 {
				start = clamp(int(toNumber(args[0])), 0, len(s))
			}
			if len(args) > 1 {
				if prop == "substr" {
					end = clamp(start+int(toNumber(args[1])), start, len(s))
				} else {
					end = clamp(int(toNumber(args[1])), 0, len(s))
				}
			}
			if start > end {
				start, end = end, start
			}
			return s[start:end], nil
		}}, nil
	case "split":
		return &nativeFn{name: "split", fn: func(in *interp, _ value, args []value) (value, error) {
			sep := ""
			if len(args) > 0 {
				sep = toString(args[0])
			}
			parts := strings.Split(s, sep)
			// Charge the fresh backing array plus per-part header cost;
			// splitting on "" turns every byte into a string value.
			if err := in.m.charge(int64(len(parts))/16 + 1); err != nil {
				return nil, err
			}
			if err := in.m.chargeHeap(int64(len(parts)) * 16); err != nil {
				return nil, err
			}
			arr := &jsArray{elems: make([]value, len(parts))}
			for i, p := range parts {
				arr.elems[i] = p
			}
			return arr, nil
		}}, nil
	case "replace":
		return &nativeFn{name: "replace", fn: func(in *interp, _ value, args []value) (value, error) {
			if len(args) < 2 {
				return s, nil
			}
			out := strings.Replace(s, toString(args[0]), toString(args[1]), 1)
			if err := in.m.chargeHeap(int64(len(out))); err != nil {
				return nil, err
			}
			return out, nil
		}}, nil
	case "indexOf":
		return &nativeFn{name: "indexOf", fn: func(_ *interp, _ value, args []value) (value, error) {
			if len(args) < 1 {
				return float64(-1), nil
			}
			return float64(strings.Index(s, toString(args[0]))), nil
		}}, nil
	case "toLowerCase":
		return &nativeFn{name: "toLowerCase", fn: func(in *interp, _ value, _ []value) (value, error) {
			if err := in.m.chargeHeap(int64(len(s))); err != nil {
				return nil, err
			}
			return strings.ToLower(s), nil
		}}, nil
	case "toUpperCase":
		return &nativeFn{name: "toUpperCase", fn: func(in *interp, _ value, _ []value) (value, error) {
			if err := in.m.chargeHeap(int64(len(s))); err != nil {
				return nil, err
			}
			return strings.ToUpper(s), nil
		}}, nil
	}
	return jsUndefined{}, nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// The built-in functions every interpreter installs. A nativeFn carries
// no mutable state (scripts cannot set properties on functions), so one
// value per built-in serves every interpreter. Each install site keeps
// its own value, so a script comparing two built-ins sees the same
// identities as when every interpreter allocated its own.
var (
	fnDocumentWrite   = &nativeFn{name: "write", fn: nativeDocumentWrite}
	fnDocumentWriteln = &nativeFn{name: "writeln", fn: nativeDocumentWrite}
	fnGetElementByID  = &nativeFn{name: "getElementById", fn: func(in *interp, _ value, _ []value) (value, error) {
		return newElement(), nil
	}}
	fnCreateElement = &nativeFn{name: "createElement", fn: func(in *interp, _ value, args []value) (value, error) {
		el := newElement()
		if len(args) > 0 {
			el.props["tagName"] = strings.ToUpper(toString(args[0]))
		}
		return el, nil
	}}
	fnGetElementsByTagName = &nativeFn{name: "getElementsByTagName", fn: func(in *interp, _ value, _ []value) (value, error) {
		return &jsArray{elems: []value{newElement()}}, nil
	}}
	fnDocumentAddEventListener = &nativeFn{name: "addEventListener", fn: nativeAddEventListener}
	fnDocumentAttachEvent      = &nativeFn{name: "attachEvent", fn: nativeAddEventListener}

	fnWindowOpen             = &nativeFn{name: "open", fn: nativeWindowOpen}
	fnSetTimeout             = &nativeFn{name: "setTimeout", fn: nativeSetTimeout}
	fnSetInterval            = &nativeFn{name: "setInterval", fn: nativeSetTimeout}
	fnWindowAddEventListener = &nativeFn{name: "addEventListener", fn: nativeAddEventListener}
	fnWindowAttachEvent      = &nativeFn{name: "attachEvent", fn: nativeAddEventListener}

	fnExternalCall = &nativeFn{name: "call", fn: func(in *interp, _ value, args []value) (value, error) {
		name := ""
		if len(args) > 0 {
			name = toString(args[0])
		}
		if err := in.m.chargeOutput(int64(len(name))); err != nil {
			return nil, err
		}
		in.trace.ExternalCalls = append(in.trace.ExternalCalls, name)
		return jsUndefined{}, nil
	}}

	fnFromCharCode = &nativeFn{name: "fromCharCode", fn: func(in *interp, _ value, args []value) (value, error) {
		var b strings.Builder
		for _, a := range args {
			b.WriteRune(rune(int(toNumber(a))))
		}
		if err := in.m.chargeHeap(int64(b.Len())); err != nil {
			return nil, err
		}
		return b.String(), nil
	}}

	fnMathFloor = &nativeFn{name: "floor", fn: func(_ *interp, _ value, args []value) (value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		return math.Floor(toNumber(args[0])), nil
	}}
	fnMathRandom = &nativeFn{name: "random", fn: func(_ *interp, _ value, _ []value) (value, error) {
		return 0.5, nil // deterministic sandbox: same trace every run
	}}
	fnMathAbs = &nativeFn{name: "abs", fn: func(_ *interp, _ value, args []value) (value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		return math.Abs(toNumber(args[0])), nil
	}}

	fnEval               = &nativeFn{name: "eval", fn: nativeEval}
	fnUnescape           = &nativeFn{name: "unescape", fn: nativeUnescape}
	fnEscape             = &nativeFn{name: "escape", fn: nativeEscape}
	fnDecodeURIComponent = &nativeFn{name: "decodeURIComponent", fn: nativeUnescape}
	fnEncodeURIComponent = &nativeFn{name: "encodeURIComponent", fn: nativeEscape}
	fnAtob               = &nativeFn{name: "atob", fn: func(in *interp, _ value, args []value) (value, error) {
		if len(args) == 0 {
			return "", nil
		}
		s := toString(args[0])
		if err := in.m.chargeHeap(int64(len(s))); err != nil {
			return nil, err
		}
		dec, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return "", nil // invalid base64 decodes to empty, not an abort
		}
		return string(dec), nil
	}}
	fnBtoa = &nativeFn{name: "btoa", fn: func(in *interp, _ value, args []value) (value, error) {
		if len(args) == 0 {
			return "", nil
		}
		s := toString(args[0])
		if err := in.m.chargeHeap(int64(len(s)) * 2); err != nil {
			return nil, err
		}
		return base64.StdEncoding.EncodeToString([]byte(s)), nil
	}}
	fnParseInt = &nativeFn{name: "parseInt", fn: func(_ *interp, _ value, args []value) (value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		base := 10
		if len(args) > 1 {
			if b := int(toNumber(args[1])); b >= 2 && b <= 36 {
				base = b
			}
		}
		s := strings.TrimSpace(toString(args[0]))
		end := 0
		for end < len(s) && isDigitInBase(s[end], base) {
			end++
		}
		if end == 0 {
			return math.NaN(), nil
		}
		v, err := strconv.ParseInt(s[:end], base, 64)
		if err != nil {
			return math.NaN(), nil
		}
		return float64(v), nil
	}}
	fnAlert = &nativeFn{name: "alert", fn: func(_ *interp, _ value, _ []value) (value, error) {
		return jsUndefined{}, nil
	}}
	fnConsoleLog = &nativeFn{name: "log", fn: func(_ *interp, _ value, _ []value) (value, error) {
		return jsUndefined{}, nil
	}}
)

// newElement is the stub DOM element the document's lookups return.
func newElement() *object {
	el := newObject("element")
	el.props["style"] = newObject("style")
	return el
}

// newObjectSized is newObject with room for n properties, for host
// objects whose property count is known up front.
func newObjectSized(class string, n int) *object {
	return &object{props: make(map[string]value, n), class: class}
}

// installGlobals clears the global scope and every host object, then
// fills them with the builtins. The maps are cleared in place, so an
// interp that is reset allocates nothing here.
func (in *interp) installGlobals() {
	g := in.global
	clear(g.vars)
	for _, o := range in.hostObjects() {
		clear(o.props)
	}
	in.plugins.elems = nil

	// location object (shared by window.location and document.location).
	in.location.props["href"] = "http://sandbox.invalid/"
	in.location.props["hostname"] = "sandbox.invalid"
	in.location.props["protocol"] = "http:"

	// document.
	in.document.props["location"] = in.location
	in.document.props["cookie"] = ""
	in.document.props["referrer"] = ""
	in.document.props["write"] = fnDocumentWrite
	in.document.props["writeln"] = fnDocumentWriteln
	in.document.props["getElementById"] = fnGetElementByID
	in.document.props["createElement"] = fnCreateElement
	in.document.props["getElementsByTagName"] = fnGetElementsByTagName
	in.document.props["addEventListener"] = fnDocumentAddEventListener
	in.document.props["attachEvent"] = fnDocumentAttachEvent

	// navigator and screen.
	nav := in.navigator
	nav.props["userAgent"] = "Mozilla/5.0 (Windows NT 6.1; rv:38.0) SandboxVM"
	nav.props["platform"] = "Win32"
	nav.props["language"] = "en-US"
	nav.props["plugins"] = in.plugins
	scr := in.screen
	scr.props["width"] = float64(1920)
	scr.props["height"] = float64(1080)
	scr.props["colorDepth"] = float64(24)

	// window: aliases the global scope for the APIs we model.
	in.window.props["location"] = in.location
	in.window.props["document"] = in.document
	in.window.props["navigator"] = nav
	in.window.props["screen"] = scr
	in.window.props["open"] = fnWindowOpen
	in.window.props["setTimeout"] = fnSetTimeout
	in.window.props["setInterval"] = fnSetInterval
	in.window.props["addEventListener"] = fnWindowAddEventListener
	in.window.props["attachEvent"] = fnWindowAttachEvent

	in.external.props["call"] = fnExternalCall
	in.stringObj.props["fromCharCode"] = fnFromCharCode
	in.mathObj.props["floor"] = fnMathFloor
	in.mathObj.props["random"] = fnMathRandom
	in.mathObj.props["abs"] = fnMathAbs
	in.console.props["log"] = fnConsoleLog

	g.declare("window", in.window)
	g.declare("self", in.window)
	g.declare("top", in.window)
	g.declare("document", in.document)
	g.declare("location", in.location)
	g.declare("navigator", nav)
	g.declare("screen", scr)
	g.declare("ExternalInterface", in.external)
	g.declare("String", in.stringObj)
	g.declare("Math", in.mathObj)
	g.declare("setTimeout", fnSetTimeout)
	g.declare("setInterval", fnSetInterval)
	g.declare("addEventListener", fnWindowAddEventListener)
	g.declare("open", fnWindowOpen)

	g.declare("eval", fnEval)
	g.declare("unescape", fnUnescape)
	g.declare("escape", fnEscape)
	g.declare("decodeURIComponent", fnDecodeURIComponent)
	g.declare("encodeURIComponent", fnEncodeURIComponent)
	g.declare("atob", fnAtob)
	g.declare("btoa", fnBtoa)
	g.declare("parseInt", fnParseInt)
	g.declare("alert", fnAlert)
	g.declare("console", in.console)
}

func isDigitInBase(c byte, base int) bool {
	var d int
	switch {
	case c >= '0' && c <= '9':
		d = int(c - '0')
	case c >= 'a' && c <= 'z':
		d = int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		d = int(c-'A') + 10
	case c == '-' || c == '+':
		return false
	default:
		return false
	}
	return d < base
}

func nativeDocumentWrite(in *interp, _ value, args []value) (value, error) {
	var b strings.Builder
	for _, a := range args {
		b.WriteString(toString(a))
	}
	s := b.String()
	// A tripping write still records the prefix that fit the budget, so
	// partial traces up to the trip point stay deterministic.
	kept, err := in.m.takeOutput(int64(len(s)))
	if err != nil {
		if kept > 0 {
			in.trace.Writes = append(in.trace.Writes, s[:kept])
		}
		return nil, err
	}
	in.trace.Writes = append(in.trace.Writes, s)
	return jsUndefined{}, nil
}

func nativeWindowOpen(in *interp, _ value, args []value) (value, error) {
	target := ""
	if len(args) > 0 {
		target = toString(args[0])
	}
	if err := in.m.chargeOutput(int64(len(target))); err != nil {
		return nil, err
	}
	in.trace.Popups = append(in.trace.Popups, target)
	w := newObject("window")
	w.props["location"] = in.location
	return w, nil
}

func nativeSetTimeout(in *interp, _ value, args []value) (value, error) {
	in.trace.Timeouts++
	if len(args) == 0 {
		return float64(0), nil
	}
	// Timers run immediately in the sandbox — we want the behaviour, not
	// the timing.
	switch f := args[0].(type) {
	case string:
		if _, err := nativeEval(in, jsUndefined{}, []value{f}); err != nil {
			return nil, err
		}
	case *userFn, *nativeFn:
		if _, err := in.invoke(f, jsUndefined{}, nil); err != nil {
			return nil, err
		}
	}
	return float64(1), nil
}

func nativeAddEventListener(in *interp, _ value, args []value) (value, error) {
	if len(args) == 0 {
		return jsUndefined{}, nil
	}
	name := strings.ToLower(strings.TrimPrefix(toString(args[0]), "on"))
	if fingerprintEvents[name] {
		if err := in.recordFingerprint("event:" + name); err != nil {
			return nil, err
		}
	}
	// Fire the handler once so its payload is traced (mouse handlers on
	// malware pages typically trigger the popup/redirect).
	if len(args) > 1 {
		if _, err := in.invoke(args[1], jsUndefined{}, nil); err != nil {
			return nil, err
		}
	}
	return jsUndefined{}, nil
}

func nativeEval(in *interp, _ value, args []value) (value, error) {
	if len(args) == 0 {
		return jsUndefined{}, nil
	}
	src, ok := args[0].(string)
	if !ok {
		return args[0], nil // eval of a non-string returns it unchanged
	}
	in.trace.Evals++
	// Eval is the expensive re-entry point: surcharge it beyond the
	// per-token parse cost so nested decoder towers burn fuel fast.
	if err := in.m.charge(8 + int64(len(src))/16); err != nil {
		return nil, err
	}
	in.evalDepth++
	if in.evalDepth > in.trace.EvalDepth {
		in.trace.EvalDepth = in.evalDepth
	}
	defer func() { in.evalDepth-- }()
	if in.evalDepth > in.m.b.EvalDepth {
		return nil, errEvalDepth
	}
	prog, err := parseProgram(src, in.m)
	if err != nil {
		// Resource trips during the nested parse are fatal as always;
		// an unparseable eval argument is not — malware commonly evals
		// data — so plain syntax errors return undefined.
		var se *SandboxError
		if errors.As(err, &se) {
			return nil, err
		}
		return jsUndefined{}, nil
	}
	for _, s := range prog {
		if f, ok := s.(stmtFunc); ok {
			in.global.declare(f.name, &userFn{params: f.params, body: f.body, env: in.global})
		}
	}
	for _, s := range prog {
		if _, ok := s.(stmtFunc); ok {
			continue
		}
		if _, err := in.execStmt(s, in.global); err != nil {
			return nil, err
		}
	}
	return jsUndefined{}, nil
}

func nativeUnescape(in *interp, _ value, args []value) (value, error) {
	if len(args) == 0 {
		return "", nil
	}
	s := toString(args[0])
	if err := in.m.chargeHeap(int64(len(s))); err != nil {
		return nil, err
	}
	// url.QueryUnescape rejects stray '%'; fall back to a forgiving
	// decoder because malware often has junk percent sequences.
	if dec, err := url.QueryUnescape(strings.ReplaceAll(s, "+", "%2B")); err == nil {
		return dec, nil
	}
	return forgivingUnescape(s), nil
}

func forgivingUnescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '%' && i+2 < len(s) {
			hi, ok1 := hexVal(s[i+1])
			lo, ok2 := hexVal(s[i+2])
			if ok1 && ok2 {
				b.WriteByte(byte(hi<<4 | lo))
				i += 3
				continue
			}
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

func nativeEscape(in *interp, _ value, args []value) (value, error) {
	if len(args) == 0 {
		return "", nil
	}
	out := Escape(toString(args[0]))
	if err := in.m.chargeHeap(int64(len(out))); err != nil {
		return nil, err
	}
	return out, nil
}

// Escape percent-encodes every byte outside [A-Za-z0-9], matching the old
// JS escape() closely enough for round-tripping with unescape(). The web
// generator uses it to build obfuscated payloads.
func Escape(s string) string {
	const hexDigits = "0123456789ABCDEF"
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			b.WriteByte(c)
			continue
		}
		b.WriteByte('%')
		b.WriteByte(hexDigits[c>>4])
		b.WriteByte(hexDigits[c&0xf])
	}
	return b.String()
}
