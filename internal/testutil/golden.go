package testutil

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update makes CheckGolden rewrite golden files instead of failing:
//
//	go test ./cmd/slumreport ./examples/... -update
var update = flag.Bool("update", false, "rewrite golden files")

// CheckGolden compares got byte for byte with the golden file
// testdata/name of the package under test. Under -update it first writes
// got to that file.
func CheckGolden(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from %s (%d bytes vs %d); "+
			"rerun with -update if the change is intentional\n%s",
			path, len(got), len(want), FirstDiff(got, want))
	}
}

// FirstDiff describes where got and want first differ, with 40 bytes of
// context on each side.
func FirstDiff(got, want []byte) string {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := max(i-40, 0)
			return fmt.Sprintf("first difference at byte %d:\n got: %q\nwant: %q",
				i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
		}
	}
	return fmt.Sprintf("outputs share a %d-byte prefix but differ in length", n)
}
