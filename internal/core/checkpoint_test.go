package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/testutil"
)

// sampleFoldSnapshot is a hand-built accumulator image exercising every
// payload field, including empty maps and multi-byte varint counts.
func sampleFoldSnapshot() *foldSnapshot {
	return &foldSnapshot{
		exchanges: []exchangeSnap{
			{
				name: "HitLeap", kind: 0, folded: 11, self: 2, popular: 3, regular: 5, failed: 1,
				malicious: 2, retries: 4,
				kinds:      map[string]int{"timeout": 1},
				domains:    []string{"a.sim", "b.sim"},
				malDomains: []string{"b.sim"},
				seriesBits: []byte{0b0100_0010, 0b0000_0001},
			},
			{
				name: "Otohits", kind: 1, folded: 0, kinds: map[string]int{},
				domains: []string{}, malDomains: []string{}, seriesBits: []byte{},
			},
		},
		miscCount:  7,
		categories: map[string]int{"PUP": 300, "adware": 12},
		tlds:       map[string]int{"com": 250, "net": 40, "pw": 17},
		contents:   map[string]int{"Business": 128},
		redirects:  map[int]int{1: 9, 2: 4, 7: 1},
		errorKinds: map[string]int{"timeout": 1},
		domainSet:  []string{"a.sim", "b.sim", "c.sim"},
		shortSet:   []string{"http://sh.sim/x"},
		distinct:   []string{"http://a.sim/", "http://b.sim/p?q=1"},
	}
}

// sampleShard wraps the sample accumulator's first exchange in a shard
// snapshot — the form every analysis fold is checkpointed in.
func sampleShard() *shardSnapshot {
	fold := sampleFoldSnapshot()
	fold.exchanges = fold.exchanges[:1]
	return &shardSnapshot{shardSlot: shardSlot{index: 0, shards: 2, planned: 20}, fold: fold, visits: map[string]*shardVisit{}}
}

// sampleCursor is a dataset cursor in the same slot as sampleShard.
func sampleCursor() *datasetCursor {
	return &datasetCursor{shardSlot: shardSlot{index: 0, shards: 2, planned: 20},
		exchange: "HitLeap", records: 11, failed: 1, offsets: []int64{9_482_113}}
}

// sampleRun is the in-flight shard sampleShard and sampleCursor belong to;
// dataset selects the dataset step.
func sampleRun(dataset bool) *shardRun {
	sr := &shardRun{idx: 0, name: "HitLeap", planned: 20}
	if dataset {
		sr.part = &datasetPart{parts: []*part{{}}}
	}
	return sr
}

// sampleImage is a valid kind-3 file image of sampleShard.
func sampleImage() []byte {
	return encodeCheckpoint(ckptShard, 42, 0xfeedface, encodeShardPayload(sampleShard()))
}

// TestCheckpointRoundTrip locks in codec fidelity and determinism for
// the analysis fold (carried in a shard) and the dataset crawl's shard
// cursor: encode → decode → re-encode must reproduce the exact structure
// and the exact bytes.
func TestCheckpointRoundTrip(t *testing.T) {
	t.Run("analysis", func(t *testing.T) {
		snap := sampleShard()
		img := sampleImage()
		c, err := decodeCheckpoint(img)
		if err != nil {
			t.Fatal(err)
		}
		if c.Seed != 42 || c.ConfigHash != 0xfeedface || c.kind != ckptShard {
			t.Fatalf("header round-trip: %+v", c)
		}
		if !reflect.DeepEqual(snap.fold, c.shard.fold) {
			t.Error("fold snapshot does not round-trip")
		}
		img2 := encodeCheckpoint(ckptShard, 42, 0xfeedface, encodeShardPayload(c.shard))
		if string(img) != string(img2) {
			t.Error("re-encoding a decoded checkpoint produced different bytes")
		}
		if got := c.shard.folded(); got != 11 {
			t.Errorf("folded() = %d, want 11", got)
		}
	})
	t.Run("crawl", func(t *testing.T) {
		for _, cur := range []*datasetCursor{
			sampleCursor(),
			{shardSlot: shardSlot{index: 8, shards: 9, planned: 1 << 21}, exchange: "EasyHits4U",
				records: 1 << 20, failed: 3, offsets: []int64{1 << 33}},
			{shardSlot: shardSlot{index: 1, shards: 9, planned: 50}, exchange: "Otohits", offsets: []int64{0}},
			{shardSlot: shardSlot{index: 3, shards: 9, planned: 50}, exchange: "Otohits", records: 7, failed: 2,
				offsets: []int64{4096, 611, 1 << 35}},
			{shardSlot: shardSlot{index: 4, shards: 9, planned: 50}, exchange: "Otohits", offsets: []int64{0, 0, 0}},
		} {
			img := encodeCheckpoint(ckptDataset, 7, 99, encodeCursorPayload(cur))
			c, err := decodeCheckpoint(img)
			if err != nil {
				t.Fatal(err)
			}
			if c.KindName() != "dataset" {
				t.Fatalf("kind = %s", c.KindName())
			}
			if !reflect.DeepEqual(cur, c.cursor) {
				t.Errorf("dataset cursor does not round-trip:\n want %+v\n got  %+v", cur, c.cursor)
			}
			if img2 := encodeCheckpoint(ckptDataset, 7, 99, encodeCursorPayload(c.cursor)); string(img) != string(img2) {
				t.Error("re-encoding a decoded cursor produced different bytes")
			}
		}
	})
}

// TestCheckpointDecodeCorruption is the table-driven corruption suite:
// every damaged image must produce a clean error — never a panic, never a
// partially-populated Checkpoint.
func TestCheckpointDecodeCorruption(t *testing.T) {
	valid := sampleImage()

	cases := []struct {
		name    string
		mutate  func() []byte
		wantSub string
	}{
		{"empty file", func() []byte { return nil }, "too short"},
		{"header only", func() []byte { return append([]byte(nil), valid[:27]...) }, "too short"},
		{"truncated mid-payload", func() []byte { return append([]byte(nil), valid[:len(valid)/2]...) }, "checksum"},
		{"truncated one byte", func() []byte { return append([]byte(nil), valid[:len(valid)-1]...) }, "checksum"},
		{"flipped header bit", func() []byte {
			b := append([]byte(nil), valid...)
			b[3] ^= 0x40
			return b
		}, "checksum"},
		{"flipped payload bit", func() []byte {
			b := append([]byte(nil), valid...)
			b[len(b)/2] ^= 0x01
			return b
		}, "checksum"},
		{"flipped checksum bit", func() []byte {
			b := append([]byte(nil), valid...)
			b[len(b)-1] ^= 0x80
			return b
		}, "checksum"},
		{"trailing garbage", func() []byte { return append(append([]byte(nil), valid...), 0xde, 0xad) }, "checksum"},
		{"bad magic", func() []byte {
			return resealRaw(t, func(b []byte) { copy(b, "NOTSLUMS") })
		}, "bad magic"},
		{"future version", func() []byte {
			return resealRaw(t, func(b []byte) { b[8], b[9] = 0xff, 0x7f })
		}, "unsupported version"},
		{"unknown kind", func() []byte {
			return resealRaw(t, func(b []byte) { b[10] = 9 })
		}, "unknown payload kind"},
		{"count bomb", func() []byte {
			// After the shard header (index 0, one shard, 20 planned),
			// replace the fold's exchange count with a huge varint so a
			// naive decoder would allocate gigabytes.
			img := encodeCheckpoint(ckptShard, 42, 0xfeedface,
				[]byte{0, 1, 20, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
			return img
		}, "exceeds remaining data"},
		{"cursor past its plan", func() []byte {
			cur := sampleCursor()
			cur.records = cur.planned + 1
			return encodeCheckpoint(ckptDataset, 42, 0xfeedface, encodeCursorPayload(cur))
		}, "of 20 planned"},
		{"inconsistent class sums", func() []byte {
			snap := sampleShard()
			snap.fold.exchanges[0].self++ // self+popular+regular+failed != folded
			return encodeCheckpoint(ckptShard, 42, 0xfeedface, encodeShardPayload(snap))
		}, "do not sum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := decodeCheckpoint(tc.mutate())
			if err == nil {
				t.Fatalf("decode succeeded (%+v), want error containing %q", c, tc.wantSub)
			}
			if c != nil {
				t.Errorf("decode returned partial checkpoint alongside error %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// resealRaw mutates a valid image's header in place and recomputes the
// trailing checksum, so structural checks past the checksum are reachable.
func resealRaw(t *testing.T, mutate func([]byte)) []byte {
	t.Helper()
	img := sampleImage()
	body := append([]byte(nil), img[:len(img)-8]...)
	mutate(body)
	h := fnv.New64a()
	h.Write(body)
	w := &ckptWriter{buf: body}
	w.u64(h.Sum64())
	return w.buf
}

// TestLoadCheckpointErrors covers the file-level failure modes: a missing
// path and a corrupt file both produce clean errors.
func TestLoadCheckpointErrors(t *testing.T) {
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Error("loading a missing checkpoint succeeded")
	}
	p := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(p, []byte("SLUMCKPT but junk after"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(p); err == nil {
		t.Error("loading a corrupt checkpoint succeeded")
	}
}

// TestLoadCheckpointRejectsKindOne: the retired single-file analysis
// checkpoint (kind 1) must be refused with an error that says what
// happened and what to do, not as corruption or an unknown kind.
func TestLoadCheckpointRejectsKindOne(t *testing.T) {
	p := filepath.Join(t.TempDir(), "study.ckpt")
	payload := encodeFoldPayload(sampleFoldSnapshot())
	if err := os.WriteFile(p, encodeCheckpoint(ckptRetiredAnalysis, 1, 2, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCheckpoint(p)
	if err == nil || c != nil {
		t.Fatalf("kind-1 checkpoint loaded (%+v, %v)", c, err)
	}
	for _, want := range []string{"kind 1", "no longer supported", "checkpoint directory"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestCheckpointValidate pins the resume-safety matrix of validateShard:
// wrong seed and any output-shaping config change refuse, worker/cache
// changes resume; a shard checkpoint must match its run's step kind,
// slot and exchange.
func TestCheckpointValidate(t *testing.T) {
	cfg := DefaultStudyConfig()
	img := encodeCheckpoint(ckptShard, cfg.Seed, cfg.checkpointHash(), encodeShardPayload(sampleShard()))
	c, err := decodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	validate := func(cfg StudyConfig) error {
		return validateShard(c, sampleRun(false), 2, runIdentity{cfg.Seed, cfg.checkpointHash()})
	}
	if err := validate(cfg); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}

	same := []func(*StudyConfig){
		func(c *StudyConfig) { c.Workers = 32 },
		func(c *StudyConfig) { c.DisableVerdictCache = true },
		func(c *StudyConfig) { c.Metrics = nil; c.Tracer = nil },
	}
	for i, mod := range same {
		m := cfg
		mod(&m)
		if err := validate(m); err != nil {
			t.Errorf("output-invariant change %d rejected: %v", i, err)
		}
	}

	diff := []struct {
		name string
		mod  func(*StudyConfig)
	}{
		{"seed", func(c *StudyConfig) { c.Seed = 99 }},
		{"scale", func(c *StudyConfig) { c.Scale = 10 }},
		{"min mal pool", func(c *StudyConfig) { c.MinMalPerPool = 99 }},
		{"min benign pool", func(c *StudyConfig) { c.MinBenignPerPool = 99 }},
		{"shortener traffic", func(c *StudyConfig) { c.DriveShortenerTraffic = !c.DriveShortenerTraffic }},
		{"fault profile", func(c *StudyConfig) { c.FaultProfile = "flaky" }},
		{"retries", func(c *StudyConfig) { c.Retries = 9 }},
	}
	for _, tc := range diff {
		m := cfg
		tc.mod(&m)
		if err := validate(m); err == nil {
			t.Errorf("changed %s: validateShard accepted a mismatched checkpoint", tc.name)
		}
	}

	// "" and "off" name the same profile and must hash identically.
	off := cfg
	off.FaultProfile = "off"
	if cfg.FaultProfile == "" {
		if err := validate(off); err != nil {
			t.Errorf(`profile "off" rejected against checkpoint taken under "": %v`, err)
		}
	}

	// The slot and the step kind, for both per-shard kinds.
	id := runIdentity{cfg.Seed, cfg.checkpointHash()}
	cur, err := decodeCheckpoint(encodeCheckpoint(ckptDataset, cfg.Seed, cfg.checkpointHash(), encodeCursorPayload(sampleCursor())))
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range []*Checkpoint{c, cur} {
		dataset := ck == cur
		if err := validateShard(ck, sampleRun(dataset), 2, id); err != nil {
			t.Errorf("%s checkpoint rejected by its own slot: %v", ck.KindName(), err)
		}
		if err := validateShard(ck, sampleRun(!dataset), 2, id); err == nil || !strings.Contains(err.Error(), "not a") {
			t.Errorf("%s checkpoint resumed a run with the other step: %v", ck.KindName(), err)
		}
		slots := []struct {
			name string
			mod  func(*shardRun) int
		}{
			{"index", func(sr *shardRun) int { sr.idx = 1; return 2 }},
			{"partition", func(sr *shardRun) int { return 3 }},
			{"exchange", func(sr *shardRun) int { sr.name = "Otohits"; return 2 }},
			{"planned", func(sr *shardRun) int { sr.planned = 21; return 2 }},
		}
		for _, tc := range slots {
			sr := sampleRun(dataset)
			if err := validateShard(ck, sr, tc.mod(sr), id); err == nil {
				t.Errorf("%s checkpoint: changed %s accepted", ck.KindName(), tc.name)
			}
		}
	}
}

// TestCheckpointAtomicWrite ensures a checkpoint write replaces the file
// atomically and leaves no temp droppings.
func TestCheckpointAtomicWrite(t *testing.T) {
	p := filepath.Join(t.TempDir(), "x.ckpt")
	for i := 0; i < 3; i++ {
		if err := writeSampleShard(t, p, i); err != nil {
			t.Fatal(err)
		}
		c, err := LoadCheckpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.shard.fold.miscCount; got != i {
			t.Fatalf("write %d: read back miscCount %d", i, got)
		}
	}
	if _, err := os.Stat(p + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("temp file left behind after checkpoint writes")
	}
}

// writeSampleShard writes the sample shard, tagged by its misc count.
func writeSampleShard(t *testing.T, path string, tag int) error {
	t.Helper()
	snap := sampleShard()
	snap.fold.miscCount = tag
	return writeCheckpointFile(path, ckptShard, 1, 2, encodeShardPayload(snap))
}

// TestCheckpointCrashMidWrite injects a failure into the middle of a
// checkpoint write — the temp file is a link to /dev/full, so the write
// dies with ENOSPC as a full disk or a crash would cut it short — and
// checks the previous checkpoint is still in place and loadable, and
// that the next write recovers.
func TestCheckpointCrashMidWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	p := filepath.Join(t.TempDir(), "x.ckpt")
	if err := writeSampleShard(t, p, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", p+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := writeSampleShard(t, p, 2); err == nil {
		t.Fatal("write into a full device succeeded")
	}
	c, err := LoadCheckpoint(p)
	if err != nil {
		t.Fatalf("previous checkpoint unloadable after an interrupted write: %v", err)
	}
	if got := c.shard.fold.miscCount; got != 1 {
		t.Fatalf("checkpoint holds write %d, want the previous write 1", got)
	}

	// A crash after the temp write but before the rename leaves a torn
	// temp file behind; it must not shadow the checkpoint, and the next
	// write must replace it.
	if err := os.WriteFile(p+".tmp", []byte("SLUMCKPT torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := LoadCheckpoint(p); err != nil || c.shard.fold.miscCount != 1 {
		t.Fatalf("torn temp file shadowed the checkpoint: %v", err)
	}
	if err := writeSampleShard(t, p, 3); err != nil {
		t.Fatal(err)
	}
	if c, err := LoadCheckpoint(p); err != nil || c.shard.fold.miscCount != 3 {
		t.Fatalf("write after a crash did not land: %v", err)
	}
}

// FuzzCheckpointDecode hammers the decoder with arbitrary bytes: it must
// reject or accept without panicking, and anything it accepts must
// re-encode to the exact input bytes (the codec is canonical).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(sampleImage())
	f.Add(encodeCheckpoint(ckptRetiredAnalysis, 0, 0, encodeFoldPayload(&foldSnapshot{})))
	f.Add(encodeCheckpoint(ckptDataset, 7, 99, encodeCursorPayload(sampleCursor())))
	f.Add(encodeCheckpoint(ckptDataset, 1, 1, encodeCursorPayload(&datasetCursor{shardSlot: shardSlot{shards: 1}, offsets: []int64{0}})))
	f.Add([]byte{})
	f.Add([]byte("SLUMCKPT"))
	f.Add([]byte("SLUMCKPTxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
	f.Add(encodeCheckpoint(ckptDataset, 7, 99, encodeCursorPayload(&datasetCursor{shardSlot: shardSlot{shards: 1},
		offsets: []int64{0, 3, 5}})))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCheckpoint(data)
		if err != nil {
			if c != nil {
				t.Fatal("error with non-nil checkpoint")
			}
			return
		}
		var img []byte
		switch c.kind {
		case ckptShard:
			img = encodeCheckpoint(c.kind, c.Seed, c.ConfigHash, encodeShardPayload(c.shard))
		case ckptDataset:
			img = encodeCheckpoint(c.kind, c.Seed, c.ConfigHash, encodeCursorPayload(c.cursor))
		default:
			t.Fatalf("accepted unknown kind %d", c.kind)
		}
		if string(img) != string(data) {
			t.Fatal("accepted image does not re-encode to input bytes")
		}
	})
}

// TestSnapshotSeriesBits checks that a fold snapshot packs each Figure 3
// series exactly as the checkpoint format defines it — bit j%8 of byte
// j/8 set when observation j raised the cumulative count — and that
// restoring the snapshot rebuilds the same series and the same bytes.
func TestSnapshotSeriesBits(t *testing.T) {
	rng := testutil.Rand(t)
	lengths := []int{0, 1, 63, 64, 65, 1000, rng.Intn(5000), rng.Intn(5000)}
	names := make([]string, len(lengths))
	kinds := make([]exchange.Kind, len(lengths))
	for i := range names {
		names[i] = fmt.Sprintf("ex%d", i)
	}
	fs := newFoldState(nil, names, kinds)
	wants := make([][]byte, len(lengths))
	for i, n := range lengths {
		ef := fs.exchanges[i]
		wants[i] = make([]byte, (n+7)/8)
		for j := 0; j < n; j++ {
			hit := rng.Intn(3) == 0
			ef.series.Observe(hit)
			if hit {
				wants[i][j/8] |= 1 << (j % 8)
			}
		}
		ef.folded, ef.row.Self = n, n
	}
	snap := fs.snapshot()
	for i := range fs.exchanges {
		if got := snap.exchanges[i].seriesBits; !bytes.Equal(got, wants[i]) {
			t.Fatalf("%d observations: snapshot bits %x, want %x", lengths[i], got, wants[i])
		}
	}
	back := newFoldState(nil, names, kinds)
	if err := back.restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := range fs.exchanges {
		got, want := back.exchanges[i].series, fs.exchanges[i].series
		if got.Len() != want.Len() || got.Final() != want.Final() || !bytes.Equal(got.Bits(), want.Bits()) {
			t.Fatalf("%d observations: restored series differs", lengths[i])
		}
	}
	if !bytes.Equal(encodeFoldPayload(back.snapshot()), encodeFoldPayload(snap)) {
		t.Fatal("restored fold snapshots to other bytes")
	}
}
