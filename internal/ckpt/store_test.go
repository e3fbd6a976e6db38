package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

func testParams(seed uint64) []*nn.Param {
	rng := tensor.NewRNG(seed)
	mk := func(name string, shape ...int) *nn.Param {
		w := tensor.New(shape...)
		rng.FillNorm(w, 0, 1)
		return &nn.Param{Name: name, W: w, Grad: tensor.New(shape...)}
	}
	return []*nn.Param{mk("conv.w", 4, 3, 3, 3), mk("conv.b", 4), mk("fc.w", 10, 4)}
}

func testSnapshot(seed uint64, step int) *Snapshot {
	params := testParams(seed)
	solver := opt.NewAdam(1e-3)
	rng := tensor.NewRNG(seed + 1)
	for k := 0; k < 3; k++ {
		for _, p := range params {
			rng.FillNorm(p.Grad, 0, 1)
		}
		solver.Step(params)
	}
	var st opt.State
	solver.CaptureStateInto(&st, params)
	return &Snapshot{
		Step: step, Epoch: step / 4, Arch: "test-arch",
		Params: params, Solver: &st,
		GroupIters: []int{step, step - 1},
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(1, 8)
	m, err := st.Save(snap)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 || m.Step != 8 || m.Arch != "test-arch" {
		t.Fatalf("manifest %+v", m)
	}
	if m.Fingerprint != fmt.Sprintf("%016x", Fingerprint(snap.Params)) {
		t.Fatal("manifest fingerprint mismatch")
	}

	// Restore into differently initialised params of the same shape.
	params := testParams(99)
	r, ok, err := st.LoadLatest(params)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	for i := range params {
		for j := range params[i].W.Data {
			if params[i].W.Data[j] != snap.Params[i].W.Data[j] {
				t.Fatalf("weight %s[%d] not restored", params[i].Name, j)
			}
		}
	}
	if r.Solver == nil || r.Solver.Algo != "adam" || r.Solver.Steps != 3 {
		t.Fatalf("solver state %+v", r.Solver)
	}
	for si, sl := range r.Solver.Slots {
		for j := range sl.Data {
			for e := range sl.Data[j] {
				if sl.Data[j][e] != snap.Solver.Slots[si].Data[j][e] {
					t.Fatalf("solver slot %s param %d elem %d not restored", sl.Name, j, e)
				}
			}
		}
	}
	if len(r.GroupIters) != 2 || r.GroupIters[0] != 8 || r.GroupIters[1] != 7 {
		t.Fatalf("group iters %v", r.GroupIters)
	}
	if r.Manifest.Version != 1 {
		t.Fatalf("restored manifest version %d", r.Manifest.Version)
	}
}

func TestStoreServerStatesRoundTrip(t *testing.T) {
	st, _ := Open(t.TempDir())
	snap := testSnapshot(2, 4)
	snap.Solver = nil
	snap.Servers = [][]opt.State{
		{{Algo: "adam", Steps: 4, Slots: []opt.StateSlot{
			{Name: "m", Data: [][]float32{{1, 2}, {3}}},
			{Name: "v", Data: [][]float32{{4, 5}, {6}}},
		}}},
		{{Algo: "sgd"}, {Algo: "sgd", Slots: []opt.StateSlot{{Name: "velocity", Data: [][]float32{{7}}}}}},
	}
	if _, err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	r, _, err := st.LoadLatest(testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Solver != nil {
		t.Fatal("no worker solver was saved")
	}
	if len(r.Servers) != 2 || len(r.Servers[0]) != 1 || len(r.Servers[1]) != 2 {
		t.Fatalf("server geometry %v", r.Servers)
	}
	if r.Servers[0][0].Slots[1].Data[1][0] != 6 || r.Servers[1][1].Slots[0].Data[0][0] != 7 {
		t.Fatal("server state values not restored")
	}
	if len(r.Servers[1][0].Slots) != 0 || r.Servers[1][0].Algo != "sgd" {
		t.Fatalf("stateless shard round trip: %+v", r.Servers[1][0])
	}
}

func TestStoreVersionsAreMonotonic(t *testing.T) {
	st, _ := Open(t.TempDir())
	for i := 1; i <= 3; i++ {
		m, err := st.Save(testSnapshot(uint64(i), i*10))
		if err != nil {
			t.Fatal(err)
		}
		if m.Version != i {
			t.Fatalf("save %d got version %d", i, m.Version)
		}
	}
	vs, err := st.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0].Version != 1 || vs[2].Version != 3 {
		t.Fatalf("versions %v", vs)
	}
	// Reopening the same directory continues the sequence (a resumed
	// process must not overwrite history).
	st2, _ := Open(st.Dir())
	if m, _ := st2.Save(testSnapshot(9, 40)); m.Version != 4 {
		t.Fatalf("reopened store saved version %d", m.Version)
	}
}

func TestStoreIgnoresIncompleteAndForeignDirs(t *testing.T) {
	st, _ := Open(t.TempDir())
	if _, err := st.Save(testSnapshot(1, 1)); err != nil {
		t.Fatal(err)
	}
	// A crashed writer's temporary, a foreign dir, a version dir with no
	// manifest, and other spellings of version 1 must all be invisible.
	for _, d := range []string{tmpPrefix + "v0000009", "notes", "v0000005", "v1", "v+1", "v00000001", "v-0000001"} {
		if err := os.MkdirAll(filepath.Join(st.Dir(), d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	m, ok, err := st.Latest()
	if err != nil || !ok || m.Version != 1 {
		t.Fatalf("latest = %+v ok=%v err=%v", m, ok, err)
	}
	if vs, err := st.Versions(); err != nil || len(vs) != 1 {
		t.Fatalf("versions = %+v err=%v, want version 1 once", vs, err)
	}
	// The next save must skip past the junk v0000005 dir? No: v0000005 has
	// no manifest, so it is not a version; Save targets 2 and must succeed.
	if m, err := st.Save(testSnapshot(2, 2)); err != nil || m.Version != 2 {
		t.Fatalf("save after junk: %+v err=%v", m, err)
	}
}

func TestStorePruneKeepsNewest(t *testing.T) {
	st, _ := Open(t.TempDir())
	for i := 1; i <= 5; i++ {
		if _, err := st.Save(testSnapshot(uint64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Stray directories that spell the newest version another way must not
	// count as versions, or the walk would list version 5 several times and
	// prune the real one.
	for _, d := range []string{"v5", "v+5", "v00000005"} {
		if err := os.Mkdir(filepath.Join(st.Dir(), d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := st.Prune(2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("pruned %d versions, want 3", removed)
	}
	vs, _ := st.Versions()
	if len(vs) != 2 || vs[0].Version != 4 || vs[1].Version != 5 {
		t.Fatalf("after prune: %v", vs)
	}
	if m, ok, err := st.Latest(); err != nil || !ok || m.Version != 5 {
		t.Fatalf("after prune: latest = %+v ok=%v err=%v, want version 5", m, ok, err)
	}
	// keep<=0 is "keep all".
	if n, _ := st.Prune(0); n != 0 {
		t.Fatalf("prune(0) removed %d", n)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	st, _ := Open(t.TempDir())
	m, err := st.Save(testSnapshot(3, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Verify(m); err != nil {
		t.Fatalf("pristine version fails verify: %v", err)
	}
	// Flip one byte in the weights payload.
	wpath := st.WeightsPath(m.Version)
	raw, _ := os.ReadFile(wpath)
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(wpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Verify(m); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt weights passed verify: %v", err)
	}
	if _, err := st.LoadInto(m.Version, testParams(3)); err == nil {
		t.Fatal("LoadInto accepted a corrupt version")
	}
	// Truncation is size-checked before CRC.
	if err := os.WriteFile(wpath, raw[:len(raw)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Verify(m); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated weights passed verify: %v", err)
	}
}

func TestPollSeesOnlyNewCompleteVersions(t *testing.T) {
	st, _ := Open(t.TempDir())
	if _, ok, _ := st.Poll(0); ok {
		t.Fatal("empty store polled a version")
	}
	m1, _ := st.Save(testSnapshot(1, 1))
	got, ok, err := st.Poll(0)
	if err != nil || !ok || got.Version != m1.Version {
		t.Fatalf("poll after save: %+v ok=%v err=%v", got, ok, err)
	}
	if _, ok, _ := st.Poll(m1.Version); ok {
		t.Fatal("poll past the newest version found something")
	}
	m2, _ := st.Save(testSnapshot(2, 2))
	if got, ok, _ := st.Poll(m1.Version); !ok || got.Version != m2.Version {
		t.Fatalf("poll missed version 2: %+v ok=%v", got, ok)
	}
}

func TestLoadIntoValidatesArchitecture(t *testing.T) {
	st, _ := Open(t.TempDir())
	if _, err := st.Save(testSnapshot(1, 1)); err != nil {
		t.Fatal(err)
	}
	wrong := testParams(1)
	wrong[0].Name = "other.w"
	if _, err := st.LoadInto(1, wrong); err == nil ||
		!strings.Contains(err.Error(), "does not match parameter") {
		t.Fatalf("mismatched architecture loaded: %v", err)
	}
}

func TestStagingRecyclesAndFingerprints(t *testing.T) {
	params := testParams(7)
	staging := NewStaging(params)
	staging.StageWeights(params)
	if Fingerprint(staging.Params) != Fingerprint(params) {
		t.Fatal("staged fingerprint differs from source")
	}
	// Mutate, restage: recycled storage must track the new values with no
	// allocation.
	params[0].W.Data[0] += 1
	if n := testing.AllocsPerRun(20, func() { staging.StageWeights(params) }); n != 0 {
		t.Fatalf("warm StageWeights allocates %.1f times", n)
	}
	if Fingerprint(staging.Params) != Fingerprint(params) {
		t.Fatal("restaged fingerprint differs")
	}
}

// TestPollReturnsCorruptManifestWithError: a verification failure hands
// back the offending manifest so callers can record it and skip past,
// instead of re-reading the payload forever.
func TestPollReturnsCorruptManifestWithError(t *testing.T) {
	st, _ := Open(t.TempDir())
	m, _ := st.Save(testSnapshot(1, 1))
	raw, _ := os.ReadFile(st.WeightsPath(m.Version))
	raw[0] ^= 0xff
	if err := os.WriteFile(st.WeightsPath(m.Version), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Poll(0)
	if ok || err == nil {
		t.Fatalf("corrupt version polled clean: ok=%v err=%v", ok, err)
	}
	if got.Version != m.Version {
		t.Fatalf("poll returned manifest for version %d, want %d", got.Version, m.Version)
	}
	// Skipping past it is quiet.
	if _, ok, err := st.Poll(m.Version); ok || err != nil {
		t.Fatalf("poll past corrupt version: ok=%v err=%v", ok, err)
	}
}

// TestLatestSkipsManifestlessNewerDirs: the newest-first scan ignores
// tampered version-named directories without manifests.
func TestLatestSkipsManifestlessNewerDirs(t *testing.T) {
	st, _ := Open(t.TempDir())
	st.Save(testSnapshot(1, 1))
	if err := os.MkdirAll(st.VersionDir(9), 0o755); err != nil {
		t.Fatal(err)
	}
	m, ok, err := st.Latest()
	if err != nil || !ok || m.Version != 1 {
		t.Fatalf("latest = %+v ok=%v err=%v", m, ok, err)
	}
}
