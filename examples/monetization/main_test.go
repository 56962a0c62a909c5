package main

import (
	"bytes"
	"testing"

	"repro/internal/testutil"
)

// TestOutput checks the example's full output against
// testdata/monetization.golden. Regenerate with
//
//	go test ./examples/monetization -update
func TestOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGolden(t, "monetization.golden", buf.Bytes())
}
