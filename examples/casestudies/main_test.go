package main

import (
	"bytes"
	"testing"

	"repro/internal/testutil"
)

// TestOutput checks the example's full output against
// testdata/casestudies.golden. Regenerate with
//
//	go test ./examples/casestudies -update
func TestOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGolden(t, "casestudies.golden", buf.Bytes())
}
