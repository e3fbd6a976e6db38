package data

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deep15pf/internal/tensor"
)

// writeTestShard produces a valid shard and returns its raw bytes.
func writeTestShard(t testing.TB, path string, count, featLen, labLen int) []byte {
	t.Helper()
	feats := make([]float32, count*featLen)
	for i := range feats {
		feats[i] = float32(i)
	}
	labs := make([]int32, count*labLen)
	for i := range labs {
		labs[i] = int32(i)
	}
	if err := WriteShard(path, count, featLen, labLen, feats, labs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// corruptShard is one way a shard file goes bad: corrupt turns a valid
// file's bytes into the bad ones, and OpenShard's error must mention
// wantSub.
type corruptShard struct {
	name    string
	corrupt func([]byte) []byte
	wantSub string
}

// corruptShards is the corrupt-file table: bad magic, impossible counts,
// and payloads shorter (or longer) than the header promises. It drives
// TestOpenShardRejectsCorruptFiles and seeds FuzzOpenShard.
func corruptShards() []corruptShard {
	header := func(b []byte, count, featLen, labLen uint32) []byte {
		c := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(c[8:], count)
		binary.LittleEndian.PutUint32(c[12:], featLen)
		binary.LittleEndian.PutUint32(c[16:], labLen)
		return c
	}
	return []corruptShard{
		{"truncated header", func(b []byte) []byte { return b[:10] }, "short shard header"},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[0:], 0xDEADBEEF)
			return c
		}, "bad magic"},
		{"bad version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[4:], 99)
			return c
		}, "unsupported shard version"},
		{"count larger than payload", func(b []byte) []byte { return header(b, 1000, 3, 1) }, "header promises"},
		{"impossible count overflows", func(b []byte) []byte {
			return header(b, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
		}, "impossible shard header"},
		// No payload bytes per sample, so the file size cannot bound the
		// count: this used to open as a 4 294 967 295-sample shard.
		{"no features, any count", func(b []byte) []byte { return header(b[:headerBytes], 0xFFFFFFFF, 0, 0) }, "impossible shard header"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, "truncated or corrupt"},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 1, 2, 3) }, "header promises"},
	}
}

// TestOpenShardRejectsCorruptFiles is the table-driven error-path gate for
// the hardened reader: every corruptShards case must fail OpenShard with an
// explicit error — never a panic or a short read later.
func TestOpenShardRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	valid := writeTestShard(t, filepath.Join(dir, "valid.shard"), 4, 3, 1)

	for _, tc := range corruptShards() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".shard")
			if err := os.WriteFile(path, tc.corrupt(valid), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := OpenShard(path)
			if err == nil {
				r.Close()
				t.Fatalf("OpenShard accepted a corrupt file (%s)", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// The untouched file still opens — the fixture itself is good.
	r, err := OpenShard(filepath.Join(dir, "valid.shard"))
	if err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	r.Close()
}

// FuzzOpenShard hands OpenShard arbitrary bytes, seeded from a valid shard
// and every corruptShards case. Whatever the bytes, nothing may panic; a
// shard it accepts must read every sample in range, features and labels,
// without error, and refuse an index outside it — before sizing a buffer
// by a header it has not checked against the file. Fuzz with
// go test -run '^$' -fuzz FuzzOpenShard ./internal/data.
func FuzzOpenShard(f *testing.F) {
	valid := writeTestShard(f, filepath.Join(f.TempDir(), "valid.shard"), 4, 3, 1)
	f.Add(valid)
	for _, tc := range corruptShards() {
		f.Add(tc.corrupt(valid))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.shard")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenShard(path)
		if err != nil {
			return
		}
		defer r.Close()
		if r.Count > 0 {
			feats, labs := make([]float32, r.FeatLen), make([]int32, r.LabLen)
			scratch := make([]byte, r.ScratchLen())
			for i := 0; i < r.Count; i++ {
				if err := r.ReadSampleInto(i, feats, labs, scratch); err != nil {
					t.Fatalf("accepted shard (count %d, %d/%d per sample) fails sample %d: %v", r.Count, r.FeatLen, r.LabLen, i, err)
				}
			}
		}
		for _, i := range []int{-1, r.Count} {
			if r.ReadSample(i, nil, nil) == nil {
				t.Fatalf("sample %d of a %d-sample shard read without error", i, r.Count)
			}
		}
	})
}

// TestShardSetGlobalIndexing: a set of unevenly sized shards must behave as
// one dataset — global index i reads the same bytes the single-file layout
// would hold at i.
func TestShardSetGlobalIndexing(t *testing.T) {
	dir := t.TempDir()
	const featLen, labLen = 3, 1
	rng := tensor.NewRNG(11)
	var allFeats []float32
	var allLabs []int32
	var paths []string
	for k, count := range []int{2, 5, 1} {
		feats := make([]float32, count*featLen)
		labs := make([]int32, count*labLen)
		for i := range feats {
			feats[i] = float32(rng.Norm())
		}
		for i := range labs {
			labs[i] = int32(rng.Intn(10))
		}
		path := filepath.Join(dir, []string{"a", "b", "c"}[k]+".shard")
		if err := WriteShard(path, count, featLen, labLen, feats, labs); err != nil {
			t.Fatal(err)
		}
		allFeats = append(allFeats, feats...)
		allLabs = append(allLabs, labs...)
		paths = append(paths, path)
	}
	set, err := OpenShardSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.Count != 8 || set.FeatLen != featLen || set.LabLen != labLen {
		t.Fatalf("set header %d/%d/%d", set.Count, set.FeatLen, set.LabLen)
	}
	f := make([]float32, featLen)
	l := make([]int32, labLen)
	for i := 0; i < set.Count; i++ {
		if err := set.ReadSample(i, f, l); err != nil {
			t.Fatal(err)
		}
		for j := range f {
			if f[j] != allFeats[i*featLen+j] {
				t.Fatalf("sample %d feature %d: %v != %v", i, j, f[j], allFeats[i*featLen+j])
			}
		}
		if l[0] != allLabs[i] {
			t.Fatalf("sample %d label: %v != %v", i, l[0], allLabs[i])
		}
	}
	// Batched, out of order, across shard boundaries.
	idx := []int{7, 0, 3, 2}
	bf := make([]float32, len(idx)*featLen)
	bl := make([]int32, len(idx)*labLen)
	if err := set.ReadBatchInto(idx, bf, bl, nil); err != nil {
		t.Fatal(err)
	}
	for bi, i := range idx {
		if bf[bi*featLen] != allFeats[i*featLen] || bl[bi] != allLabs[i] {
			t.Fatalf("batched sample %d mismatched", i)
		}
	}
	if err := set.ReadSample(8, f, l); err == nil {
		t.Fatal("out-of-range global index must error")
	}
	if err := set.ReadBatchInto(idx, bf[:1], nil, nil); err == nil {
		t.Fatal("short feature buffer must error")
	}
	if err := set.ReadBatchInto(idx, bf, bl[:1], nil); err == nil {
		t.Fatal("short label buffer must error")
	}
	if err := set.ReadBatchInto(idx, bf, bl, make([]byte, 1)); err == nil {
		t.Fatal("undersized scratch must error")
	}
}

// TestShardSetRejectsMixedLayouts: shards disagreeing on per-sample layout
// cannot form a set.
func TestShardSetRejectsMixedLayouts(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.shard")
	b := filepath.Join(dir, "b.shard")
	if err := WriteShard(a, 1, 3, 0, make([]float32, 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteShard(b, 1, 4, 0, make([]float32, 4), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardSet(a, b); err == nil {
		t.Fatal("mixed layouts must be rejected")
	}
	if _, err := OpenShardSet(); err == nil {
		t.Fatal("empty set must be rejected")
	}
}

// TestWriteShardsRoundTrip: WriteShards must split deterministically, skip
// empty tails when shards outnumber samples, and read back exactly through
// a ShardSet.
func TestWriteShardsRoundTrip(t *testing.T) {
	const count, featLen = 7, 2
	feats := make([]float32, count*featLen)
	for i := range feats {
		feats[i] = float32(i) * 0.5
	}
	paths, err := WriteShards(t.TempDir(), 3, count, featLen, 0, feats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("wrote %d shards, want 3", len(paths))
	}
	set, err := OpenShardSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	got := make([]float32, count*featLen)
	idx := make([]int, count)
	for i := range idx {
		idx[i] = i
	}
	if err := set.ReadBatchInto(idx, got, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := range feats {
		if got[i] != feats[i] {
			t.Fatalf("round trip diverged at %d", i)
		}
	}

	// More shards than samples: empty ranges are skipped, not written.
	paths, err = WriteShards(t.TempDir(), 5, 2, featLen, 0, feats[:2*featLen], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("5-way split of 2 samples wrote %d shards, want 2 non-empty", len(paths))
	}
}

// TestPseudoLabeledShardsRoundTrip exercises the pseudo-label factory's
// write path: confidence-thresholded (features, argmax-label) pairs go out
// through WriteShards and must come back through OpenShard bit-exact — the
// labels feed the next training run, so any rounding or reordering here
// poisons the flywheel. Also pins the empty-after-threshold contract: a
// threshold that keeps zero samples writes no shard files at all, never a
// 0-sample file (OpenShard would reject one anyway).
func TestPseudoLabeledShardsRoundTrip(t *testing.T) {
	const count, featLen = 11, 3
	feats := make([]float32, count*featLen)
	rng := tensor.NewRNG(2)
	for i := range feats {
		feats[i] = float32(rng.Norm())
	}
	labels := make([]int32, count)
	for i := range labels {
		labels[i] = int32(i % 4) // argmax classes, incl. repeated values
	}

	dir := t.TempDir()
	paths, err := WriteShards(dir, 4, count, featLen, 1, feats, labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("wrote %d shards, want 4", len(paths))
	}

	// Read each shard file individually through OpenShard (the trainer's
	// entry point) and compare against the factory's buffers bit for bit.
	next := 0
	for _, p := range paths {
		r, err := OpenShard(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.LabLen != 1 || r.FeatLen != featLen {
			t.Fatalf("%s layout %d/%d, want %d/1", p, r.FeatLen, r.LabLen, featLen)
		}
		f := make([]float32, featLen)
		l := make([]int32, 1)
		for i := 0; i < r.Count; i++ {
			if err := r.ReadSampleInto(i, f, l, make([]byte, r.ScratchLen())); err != nil {
				t.Fatal(err)
			}
			if l[0] != labels[next] {
				t.Fatalf("sample %d: label %d, want %d bit-exact", next, l[0], labels[next])
			}
			for j := 0; j < featLen; j++ {
				if f[j] != feats[next*featLen+j] {
					t.Fatalf("sample %d feat %d diverged", next, j)
				}
			}
			next++
		}
		r.Close()
	}
	if next != count {
		t.Fatalf("shards carried %d samples, want %d", next, count)
	}

	// Zero survivors: no files written, no 0-sample shard on disk.
	empty := t.TempDir()
	paths, err = WriteShards(empty, 4, 0, featLen, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Fatalf("empty-after-threshold write produced %d files", len(paths))
	}
	ents, err := os.ReadDir(empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("dir holds %d stray files after empty write", len(ents))
	}
}

func TestShardSetShardRange(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	counts := []int{3, 1, 5}
	for i, n := range counts {
		p := filepath.Join(dir, strings.Repeat("s", i+1)+".shard")
		writeTestShard(t, p, n, 2, 0)
		paths = append(paths, p)
	}
	set, err := OpenShardSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.Shards() != 3 {
		t.Fatalf("Shards() = %d", set.Shards())
	}
	want := [][2]int{{0, 3}, {3, 4}, {4, 9}}
	total := 0
	for k := 0; k < set.Shards(); k++ {
		lo, hi := set.ShardRange(k)
		if lo != want[k][0] || hi != want[k][1] {
			t.Fatalf("ShardRange(%d) = [%d,%d), want %v", k, lo, hi, want[k])
		}
		total += hi - lo
	}
	if total != set.Count {
		t.Fatalf("ranges cover %d, Count %d", total, set.Count)
	}
	for _, bad := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ShardRange(%d) did not panic", bad)
				}
			}()
			set.ShardRange(bad)
		}()
	}
}
