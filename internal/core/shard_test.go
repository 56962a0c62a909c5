package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/httpsim"
	"repro/internal/shortener"
	"repro/internal/stats"
)

// testShardSnap crafts a minimal internally consistent shard snapshot:
// every folded record classified self (so the fold's class-sum invariant
// holds) and a fully observed Figure 3 series.
func testShardSnap(index, shards, planned, folded int, name string) *shardSnapshot {
	bits := make([]byte, (folded+7)/8)
	for i := 0; i < folded; i++ {
		bits[i/8] |= 1 << (i % 8)
	}
	return &shardSnapshot{
		shardSlot: shardSlot{index: index, shards: shards, planned: planned},
		fold: &foldSnapshot{
			exchanges: []exchangeSnap{{
				name: name, kind: index % 3, folded: folded, self: folded,
				kinds: map[string]int{}, seriesBits: bits,
			}},
			categories: map[string]int{},
			tlds:       map[string]int{},
			contents:   map[string]int{},
			redirects:  map[int]int{},
			errorKinds: map[string]int{},
		},
		visits: map[string]*shardVisit{},
	}
}

// wrapShard frames a raw shard payload as a full SLUMCKPT file image.
func wrapShard(seed, cfgHash uint64, payload []byte) []byte {
	return encodeCheckpoint(ckptShard, seed, cfgHash, payload)
}

// TestShardRoundTrip checks the kind-3 codec end to end: encode, frame,
// decode, and re-encode to the identical canonical bytes.
func TestShardRoundTrip(t *testing.T) {
	s := testShardSnap(2, 9, 50, 30, "trafficholder")
	s.visits["http://goo.gl.sim/abc"] = &shardVisit{
		hits:      7,
		referrers: map[string]int{"trafficholder.sim": 5},
		countries: map[string]int{"RU": 4, "US": 2},
	}
	enc := encodeShardPayload(s)
	ck, err := decodeCheckpoint(wrapShard(11, 22, enc))
	if err != nil {
		t.Fatal(err)
	}
	if ck.KindName() != "shard" || ck.Seed != 11 || ck.ConfigHash != 22 {
		t.Fatalf("frame fields: kind=%s seed=%d hash=%d", ck.KindName(), ck.Seed, ck.ConfigHash)
	}
	if ck.shard.folded() != 30 {
		t.Errorf("folded() = %d, want 30", ck.shard.folded())
	}
	got := ck.shard
	if got.index != 2 || got.shards != 9 || got.planned != 50 || got.name() != "trafficholder" {
		t.Errorf("decoded identity: index=%d shards=%d planned=%d name=%q",
			got.index, got.shards, got.planned, got.name())
	}
	if !reflect.DeepEqual(got.visits, s.visits) {
		t.Errorf("visits round-trip: got %+v", got.visits)
	}
	if re := encodeShardPayload(got); !bytes.Equal(re, enc) {
		t.Error("re-encoding the decoded shard changed the bytes — codec is not canonical")
	}
}

// TestShardDecodeRejects tables the structural-validation edges: payloads
// that parse but describe an impossible shard must fail decoding.
func TestShardDecodeRejects(t *testing.T) {
	twoExchanges := testShardSnap(0, 2, 10, 5, "a")
	twoExchanges.fold.exchanges = append(twoExchanges.fold.exchanges, twoExchanges.fold.exchanges[0])
	cases := []struct {
		name string
		snap *shardSnapshot
		want string
	}{
		{"zero shards", testShardSnap(0, 0, 10, 5, "a"), "must be >= 1"},
		{"index beyond partition", testShardSnap(5, 3, 10, 5, "a"), "out of range"},
		{"folded beyond planned", testShardSnap(0, 2, 4, 9, "a"), "exceeds planned"},
		{"two exchanges in fold", twoExchanges, "want exactly 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeCheckpoint(wrapShard(1, 1, encodeShardPayload(tc.snap)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}

	t.Run("visit breakdown exceeds hits", func(t *testing.T) {
		s := testShardSnap(0, 2, 10, 5, "a")
		s.visits["http://goo.gl.sim/x"] = &shardVisit{hits: 1, referrers: map[string]int{"a.sim": 2}}
		_, err := decodeCheckpoint(wrapShard(1, 1, encodeShardPayload(s)))
		if err == nil || !strings.Contains(err.Error(), "more referrers/countries than hits") {
			t.Errorf("got %v", err)
		}
	})
}

// TestShardMergerRefusals tables the provenance guards: duplicates,
// cross-study, cross-configuration and cross-partition merges must all be
// refused with a diagnosable error.
func TestShardMergerRefusals(t *testing.T) {
	add := func(m *ShardMerger, seed, hash uint64, s *shardSnapshot) error {
		return m.add(seed, hash, s)
	}
	t.Run("duplicate shard", func(t *testing.T) {
		m := NewShardMerger()
		if err := add(m, 1, 2, testShardSnap(0, 2, 10, 10, "a")); err != nil {
			t.Fatal(err)
		}
		err := add(m, 1, 2, testShardSnap(0, 2, 10, 10, "a"))
		if err == nil || !strings.Contains(err.Error(), "double-count") {
			t.Errorf("got %v, want double-count refusal", err)
		}
	})
	t.Run("mixed seeds", func(t *testing.T) {
		m := NewShardMerger()
		if err := add(m, 1, 2, testShardSnap(0, 2, 10, 10, "a")); err != nil {
			t.Fatal(err)
		}
		if err := add(m, 9, 2, testShardSnap(1, 2, 10, 10, "b")); err == nil || !strings.Contains(err.Error(), "mix studies") {
			t.Errorf("got %v, want mixed-study refusal", err)
		}
	})
	t.Run("mixed configurations", func(t *testing.T) {
		m := NewShardMerger()
		if err := add(m, 1, 2, testShardSnap(0, 2, 10, 10, "a")); err != nil {
			t.Fatal(err)
		}
		if err := add(m, 1, 7, testShardSnap(1, 2, 10, 10, "b")); err == nil || !strings.Contains(err.Error(), "mix configurations") {
			t.Errorf("got %v, want mixed-config refusal", err)
		}
	})
	t.Run("mixed partitions", func(t *testing.T) {
		m := NewShardMerger()
		if err := add(m, 1, 2, testShardSnap(0, 2, 10, 10, "a")); err != nil {
			t.Fatal(err)
		}
		if err := add(m, 1, 2, testShardSnap(1, 3, 10, 10, "b")); err == nil || !strings.Contains(err.Error(), "mix partitions") {
			t.Errorf("got %v, want mixed-partition refusal", err)
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		m := NewShardMerger()
		if err := m.Add(&Checkpoint{kind: ckptDataset}); err == nil || !strings.Contains(err.Error(), "not a shard checkpoint") {
			t.Errorf("got %v, want kind refusal", err)
		}
		if err := m.Add(nil); err == nil {
			t.Error("nil checkpoint accepted")
		}
	})
}

// TestShardMergerCompleteness covers the finalization gates: no shards,
// missing shards, and partial shards each block Analysis with a message
// naming the blocker; a complete set — including a legitimately
// zero-record shard — merges.
func TestShardMergerCompleteness(t *testing.T) {
	m := NewShardMerger()
	if _, err := m.Analysis(); err == nil || !strings.Contains(err.Error(), "no shards") {
		t.Errorf("empty merger: got %v", err)
	}
	if err := m.add(1, 2, testShardSnap(0, 3, 10, 10, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Analysis(); err == nil || !strings.Contains(err.Error(), "missing shards [1 2]") {
		t.Errorf("missing shards: got %v", err)
	}
	if m.incomplete() == "" {
		t.Error("incomplete() empty with shards missing")
	}
	if got := m.Missing(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Missing() = %v", got)
	}
	if err := m.add(1, 2, testShardSnap(1, 3, 10, 4, "b")); err != nil {
		t.Fatal(err)
	}
	// A zero-record shard is valid (an exchange whose plan scaled to
	// nothing): planned == folded == 0 counts as complete.
	if err := m.add(1, 2, testShardSnap(2, 3, 0, 0, "c")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Analysis(); err == nil || !strings.Contains(err.Error(), "is partial: 4 of 10") {
		t.Errorf("partial shard: got %v", err)
	}

	full := NewShardMerger()
	for i, folded := range []int{10, 10, 0} {
		planned := folded
		if err := full.add(1, 2, testShardSnap(i, 3, planned, folded, string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	if msg := full.incomplete(); msg != "" {
		t.Fatalf("full set is incomplete: %s", msg)
	}
	a, err := full.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCrawled != 20 {
		t.Errorf("merged TotalCrawled = %d, want 20", a.TotalCrawled)
	}
	if len(a.PerExchange) != 3 {
		t.Errorf("merged exchange rows = %d, want 3", len(a.PerExchange))
	}
}

// TestShardApplyVisitsGuards covers visit replay against a live registry:
// valid deltas land in the Table IV statistics, unknown hosts and unknown
// codes are refused.
func TestShardApplyVisitsGuards(t *testing.T) {
	internet := httpsim.NewInternet()
	reg := shortener.NewRegistry()
	svc := reg.Add("goo.gl.sim", internet)
	short := svc.Shorten("http://evil.example/payload")

	s := testShardSnap(0, 1, 10, 10, "a")
	s.visits[short] = &shardVisit{
		hits:      5,
		referrers: map[string]int{"trafficholder.sim": 3},
		countries: map[string]int{"RU": 5},
	}
	m := NewShardMerger()
	if err := m.add(1, 2, s); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyVisits(reg); err != nil {
		t.Fatal(err)
	}
	st, ok := svc.Stats(short)
	if !ok || st.ShortHits != 5 || st.TopCountry != "RU" || st.TopReferrer != "trafficholder.sim" {
		t.Errorf("replayed stats: %+v (ok=%v)", st, ok)
	}

	bad := NewShardMerger()
	u := testShardSnap(0, 1, 10, 10, "a")
	u.visits["http://not-a-shortener.sim/x"] = &shardVisit{hits: 1}
	if err := bad.add(1, 2, u); err != nil {
		t.Fatal(err)
	}
	if err := bad.ApplyVisits(reg); err == nil || !strings.Contains(err.Error(), "not a registered shortener") {
		t.Errorf("unknown host: got %v", err)
	}

	code := NewShardMerger()
	c := testShardSnap(0, 1, 10, 10, "a")
	c.visits["http://goo.gl.sim/zzzz"] = &shardVisit{hits: 1}
	if err := code.add(1, 2, c); err != nil {
		t.Fatal(err)
	}
	if err := code.ApplyVisits(reg); err == nil || !strings.Contains(err.Error(), "unknown code") {
		t.Errorf("unknown code: got %v", err)
	}
}

// TestCounterAddNZeroIsNoOp is the regression test for the accumulator
// audit: AddN with a zero increment used to materialize a phantom
// zero-count key. Checkpoint and shard payloads legitimately carry zero
// counts, so before the fix a restore/merge could mint keys a live run
// never had — visible in Len(), Items() and every rendered breakdown,
// breaking merge/restore byte-determinism.
func TestCounterAddNZeroIsNoOp(t *testing.T) {
	c := stats.NewCounter()
	c.AddN("phantom", 0)
	if c.Len() != 0 || c.Total() != 0 || len(c.Items()) != 0 {
		t.Fatalf("AddN(key, 0) materialized a key: len=%d total=%d items=%v",
			c.Len(), c.Total(), c.Items())
	}
	c.Add("real")
	c.AddN("phantom", 0)
	if c.Len() != 1 {
		t.Fatalf("AddN(key, 0) on a live counter materialized a key: %v", c.Items())
	}
}
