package jsengine_test

import (
	"reflect"
	"testing"

	"repro/internal/jsengine"
	"repro/internal/web"
)

// reuseProbes are benign scripts that write to every kind of state an
// interpreter keeps between scripts (globals, host object properties,
// builtins, the plugins array, functions) and scripts that read it back
// into their trace. On a reused interpreter a probe must see only the
// builtins, exactly as on a fresh one.
var reuseProbes = []string{
	`var g = "global"; leaked = 1; document.foo = "doc"; window.bar = "win";
navigator.plugins[0] = "plugin"; Math.floor = function(x) { return 7; };
String.fromCharCode = 1; location.href = "http://moved.example/";
function helper() { document.write("<p>helper</p>"); }`,
	`document.write(typeof g + typeof leaked + typeof document.foo + typeof window.bar +
typeof helper + Math.floor(2.5) + navigator.plugins.length + typeof String.fromCharCode);
window.location = location.href + "?probe";`,
	`eval("var viaEval = 1; document.cookie = 'c=1';"); window = 5; document = 6;`,
	`document.write(typeof viaEval + document.cookie + typeof window + typeof document);`,
	`var s = "<iframe src=http://x.example/ width=1 height=1>"; document.write(s);
window.open("http://pop.example/"); navigator.userAgent;`,
}

// The sandbox pools its interpreters. Running the hostile-script bombs
// interleaved with the probes on a pooled interpreter and on one that is
// reset after every script must give each script the trace and error a
// fresh interpreter gives it.
func TestPooledInterpMatchesFresh(t *testing.T) {
	b := jsengine.DefaultBudget()
	b.Wall = 0 // fuel, not the clock, stops every bomb: runs are comparable
	var scripts []string
	for _, hs := range web.HostileScripts() {
		scripts = append(scripts, hs.Src)
		scripts = append(scripts, reuseProbes...)
	}
	reused := jsengine.NewInterp()
	for round := 0; round < 2; round++ {
		for i, src := range scripts {
			want, wantErr := jsengine.NewInterp().Execute(src, b)
			got, gotErr := reused.Execute(src, b)
			pooled, pooledErr := jsengine.ExecuteBudget(src, b)
			for _, run := range []struct {
				name string
				tr   *jsengine.Trace
				err  error
			}{{"reused", got, gotErr}, {"pooled", pooled, pooledErr}} {
				if !reflect.DeepEqual(run.tr, want) || errText(run.err) != errText(wantErr) {
					t.Fatalf("round %d, script %d: %s interpreter gave\n%+v, %v\nfresh gave\n%+v, %v",
						round, i, run.name, run.tr, run.err, want, wantErr)
				}
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
