package scanner_test

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/scanner"
)

// deepCopy returns a Findings that shares no memory with f.
func deepCopy(t *testing.T, f *scanner.Findings) *scanner.Findings {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var c scanner.Findings
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// ScanPage reads its body in place, so the Findings it returns must own
// every string they keep: once the caller overwrites the body, a verdict
// that aliased it would change.
func TestFindingsOwnTheirStrings(t *testing.T) {
	h := scanner.NewHeuristic()
	h.ResourceFetcher = corpusUniverse().Internet
	kept := 0
	for _, p := range corpusPages(t) {
		f := h.ScanPage("http://owned.example/", p.contentType, p.body)
		want := deepCopy(t, f)
		for i := range p.body {
			p.body[i] = 'X'
		}
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("%s: Findings changed when the body was overwritten:\n got %+v\nwant %+v", p.name, f, want)
		}
		for _, fr := range f.HiddenIframes {
			kept += len(fr.Src)
		}
		for _, r := range f.Redirections {
			kept += len(r)
		}
	}
	// The corpus must exercise the strings a verdict keeps.
	if kept == 0 {
		t.Fatal("no page kept an iframe src or a redirection")
	}
}

// One Heuristic serves concurrent scans (the scan service's workers and
// the study's shards share it), and its pooled documents and interpreters
// must not leak between them: eight goroutines scanning the corpus must
// each get what a sequential scan gets.
func TestConcurrentScansMatchSequential(t *testing.T) {
	h := scanner.NewHeuristic()
	h.ResourceFetcher = corpusUniverse().Internet
	// Fuel, not the clock, must stop every bomb, or a slow moment under
	// the race detector would read as a difference.
	h.Budget.Wall = time.Hour
	pages := corpusPages(t)
	want := make([]*scanner.Findings, len(pages))
	for i, p := range pages {
		want[i] = h.ScanPage("http://conc.example/", p.contentType, p.body)
	}
	const workers = 8
	got := make([][]*scanner.Findings, workers)
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make([]*scanner.Findings, len(pages))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker starts at a different page so the goroutines
			// interleave different scripts on the shared pools.
			for k := range pages {
				i := (k + w) % len(pages)
				got[w][i] = h.ScanPage("http://conc.example/", pages[i].contentType, pages[i].body)
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, f := range got[w] {
			if !reflect.DeepEqual(f, want[i]) {
				t.Fatalf("worker %d, %s: concurrent scan differs from the sequential one:\n got %+v\nwant %+v", w, pages[i].name, f, want[i])
			}
		}
	}
}
