package main

import (
	"bytes"
	"testing"

	"repro/internal/testutil"
)

// TestOutput checks the example's full output against
// testdata/campaign.golden. Regenerate with
//
//	go test ./examples/campaign -update
func TestOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGolden(t, "campaign.golden", buf.Bytes())
}
