package data

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"deep15pf/internal/tensor"
)

func TestBatcherCoversEpochExactlyOnce(t *testing.T) {
	b := NewBatcher(10, 3, tensor.NewRNG(1))
	seen := make(map[int]int)
	total := 0
	for total < 10 {
		idx := b.Next()
		for _, i := range idx {
			seen[i]++
		}
		total += len(idx)
	}
	if len(seen) != 10 {
		t.Fatalf("epoch covered %d unique samples, want 10", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d seen %d times in one epoch", i, c)
		}
	}
	if b.Epoch() != 0 {
		t.Fatalf("epoch counter = %d before wrap", b.Epoch())
	}
	b.Next()
	if b.Epoch() != 1 {
		t.Fatalf("epoch counter = %d after wrap", b.Epoch())
	}
}

func TestBatcherShortFinalBatch(t *testing.T) {
	b := NewBatcher(7, 3, tensor.NewRNG(2))
	sizes := []int{len(b.Next()), len(b.Next()), len(b.Next())}
	if sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 1 {
		t.Fatalf("batch sizes = %v", sizes)
	}
}

func TestBatcherReshufflesBetweenEpochs(t *testing.T) {
	b := NewBatcher(64, 64, tensor.NewRNG(3))
	e1 := append([]int(nil), b.Next()...)
	e2 := b.Next()
	same := true
	for i := range e1 {
		if e1[i] != e2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epochs should be differently shuffled")
	}
}

// TestBatcherEpochCounterAcrossReshuffles: Epoch must tick exactly once per
// completed pass, including passes that end on a short tail batch, across
// several reshuffles.
func TestBatcherEpochCounterAcrossReshuffles(t *testing.T) {
	b := NewBatcher(7, 3, tensor.NewRNG(21))
	for epoch := 0; epoch < 4; epoch++ {
		total := 0
		for total < 7 {
			total += len(b.Next())
			// The counter ticks lazily, on the draw that wraps into the
			// next permutation — so every batch of a pass reports the same
			// epoch, including the short tail.
			if got := b.Epoch(); got != epoch {
				t.Fatalf("counter = %d mid-epoch, want %d (at %d samples)", got, epoch, total)
			}
		}
		if total != 7 {
			t.Fatalf("epoch %d emitted %d samples, want exactly 7", epoch, total)
		}
	}
}

// TestBatcherShortFinalBatchEveryEpoch: the tail batch stays short in every
// epoch (no silent padding or carry-over between permutations), and each
// epoch is a permutation of [0,n).
func TestBatcherShortFinalBatchEveryEpoch(t *testing.T) {
	const n, batch = 10, 4
	b := NewBatcher(n, batch, tensor.NewRNG(22))
	for epoch := 0; epoch < 3; epoch++ {
		var sizes []int
		seen := make(map[int]bool)
		total := 0
		for total < n {
			idx := b.Next()
			sizes = append(sizes, len(idx))
			for _, i := range idx {
				if i < 0 || i >= n || seen[i] {
					t.Fatalf("epoch %d: index %d out of range or repeated", epoch, i)
				}
				seen[i] = true
			}
			total += len(idx)
		}
		if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
			t.Fatalf("epoch %d batch sizes = %v, want [4 4 2]", epoch, sizes)
		}
	}
}

// TestBatcherDeterministicForFixedSeed: two batchers over the same RNG seed
// must emit identical permutations — the reproducibility every golden-
// fingerprint trainer (and the prefetch pipeline) relies on.
func TestBatcherDeterministicForFixedSeed(t *testing.T) {
	a := NewBatcher(23, 5, tensor.NewRNG(77))
	b := NewBatcher(23, 5, tensor.NewRNG(77))
	for draw := 0; draw < 20; draw++ {
		ia, ib := a.Next(), b.Next()
		if len(ia) != len(ib) {
			t.Fatalf("draw %d sizes diverge: %d vs %d", draw, len(ia), len(ib))
		}
		for j := range ia {
			if ia[j] != ib[j] {
				t.Fatalf("draw %d diverges at %d: %v vs %v", draw, j, ia, ib)
			}
		}
	}
}

// TestSplitMorePartsThanSamples pins the documented empty-range contract:
// Split(n, parts) with parts > n yields n singleton shares followed by
// empty [x,x) ranges that consumers skip (see the core trainer regression
// test for the skip itself).
func TestSplitMorePartsThanSamples(t *testing.T) {
	parts := Split(3, 5)
	want := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 3}, {3, 3}}
	for i, p := range parts {
		if p != want[i] {
			t.Fatalf("Split(3,5)[%d] = %v, want %v", i, p, want[i])
		}
	}
	for _, p := range Split(0, 4) {
		if p != [2]int{0, 0} {
			t.Fatalf("Split(0,4) must be all empty, got %v", p)
		}
	}
}

func TestBatcherValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBatcher(0, 4, tensor.NewRNG(1))
}

// Property: Split always partitions [0,n) contiguously with sizes differing
// by at most one.
func TestSplitProperty(t *testing.T) {
	f := func(rawN uint16, rawP uint8) bool {
		n := int(rawN % 2000)
		p := 1 + int(rawP%32)
		parts := Split(n, p)
		if len(parts) != p {
			return false
		}
		lo := 0
		minSz, maxSz := 1<<30, -1
		for _, pr := range parts {
			if pr[0] != lo || pr[1] < pr[0] {
				return false
			}
			sz := pr[1] - pr[0]
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			lo = pr[1]
		}
		return lo == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVolumeBytesTable1(t *testing.T) {
	// Paper Table I: HEP 228×228×3 × 10M images = 7.4 TB? Raw float32:
	// 228·228·3·4 B = 623,808 B/sample; ×10M ≈ 6.24 TB (the paper's 7.4 TB
	// includes container overhead). Check our arithmetic is exact.
	got := VolumeBytes(10_000_000, 3, 228, 228)
	if got != int64(10_000_000)*623808 {
		t.Fatalf("VolumeBytes = %d", got)
	}
	// Climate: 768·768·16·4 = 37,748,736 B/sample ×0.4M ≈ 15.1 TB ✓.
	clim := VolumeBytes(400_000, 16, 768, 768)
	if clim != int64(400_000)*37748736 {
		t.Fatalf("climate VolumeBytes = %d", clim)
	}
	tb := float64(clim) / 1e12
	if tb < 14 || tb > 16 {
		t.Fatalf("climate volume %.1f TB, paper says 15 TB", tb)
	}
}

func TestShardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.shard")
	count, featLen, labLen := 5, 6, 2
	feats := make([]float32, count*featLen)
	labs := make([]int32, count*labLen)
	rng := tensor.NewRNG(4)
	for i := range feats {
		feats[i] = float32(rng.Norm())
	}
	for i := range labs {
		labs[i] = int32(rng.Intn(100))
	}
	if err := WriteShard(path, count, featLen, labLen, feats, labs); err != nil {
		t.Fatal(err)
	}
	r, err := OpenShard(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count != count || r.FeatLen != featLen || r.LabLen != labLen {
		t.Fatalf("header mismatch: %+v", r)
	}
	f := make([]float32, featLen)
	l := make([]int32, labLen)
	for i := 0; i < count; i++ {
		if err := r.ReadSample(i, f, l); err != nil {
			t.Fatal(err)
		}
		for j := range f {
			if f[j] != feats[i*featLen+j] {
				t.Fatalf("sample %d feature %d mismatch", i, j)
			}
		}
		for j := range l {
			if l[j] != labs[i*labLen+j] {
				t.Fatalf("sample %d label %d mismatch", i, j)
			}
		}
	}
}

func TestShardReadBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batch.shard")
	feats := []float32{0, 1, 2, 3, 4, 5} // 3 samples × 2 features
	labs := []int32{10, 11, 12}
	if err := WriteShard(path, 3, 2, 1, feats, labs); err != nil {
		t.Fatal(err)
	}
	r, err := OpenShard(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	bf := make([]float32, 4)
	bl := make([]int32, 2)
	if err := r.ReadBatch([]int{2, 0}, bf, bl); err != nil {
		t.Fatal(err)
	}
	if bf[0] != 4 || bf[1] != 5 || bf[2] != 0 || bf[3] != 1 {
		t.Fatalf("batch features = %v", bf)
	}
	if bl[0] != 12 || bl[1] != 10 {
		t.Fatalf("batch labels = %v", bl)
	}
}

func TestShardErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.shard")
	if err := WriteShard(path, 2, 3, 0, make([]float32, 5), nil); err == nil {
		t.Fatal("size mismatch must error")
	}
	if err := WriteShard(path, 2, 0, 1, nil, make([]int32, 2)); err == nil {
		t.Fatal("a shard without features must not be written: OpenShard refuses it")
	}
	if _, err := OpenShard(filepath.Join(dir, "missing.shard")); err == nil {
		t.Fatal("missing file must error")
	}
	// Valid file, bad reads.
	if err := WriteShard(path, 2, 3, 0, make([]float32, 6), nil); err != nil {
		t.Fatal(err)
	}
	r, err := OpenShard(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ReadSample(5, make([]float32, 3), nil); err == nil {
		t.Fatal("out-of-range read must error")
	}
	if err := r.ReadSample(0, make([]float32, 2), nil); err == nil {
		t.Fatal("short buffer must error")
	}

	// An empty shard's header may name any sample size, since no payload
	// checks it: an out-of-range read must fail before sizing scratch by it.
	hdr := make([]byte, headerBytes)
	binary.LittleEndian.PutUint32(hdr[0:], shardMagic)
	binary.LittleEndian.PutUint32(hdr[4:], shardVersion)
	binary.LittleEndian.PutUint32(hdr[12:], 1<<24)
	empty := filepath.Join(dir, "empty.shard")
	if err := writeFile(empty, hdr); err != nil {
		t.Fatal(err)
	}
	e, err := OpenShard(empty)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if e.ReadSample(0, nil, nil) == nil {
		t.Fatal("read from an empty shard must error")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("out-of-range read of an empty shard allocated %d bytes", grew)
	}
}

func TestOpenShardRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage")
	if err := WriteShard(path, 1, 1, 0, []float32{1}, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic.
	raw := []byte("NOTASHARDFILE-------------------")
	if err := writeFile(path, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShard(path); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
