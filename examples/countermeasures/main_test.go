package main

import (
	"bytes"
	"testing"

	"repro/internal/testutil"
)

// TestOutput checks the example's full output against
// testdata/countermeasures.golden. Regenerate with
//
//	go test ./examples/countermeasures -update
func TestOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGolden(t, "countermeasures.golden", buf.Bytes())
}
