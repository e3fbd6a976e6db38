package ckpt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
)

// Manifest describes one on-disk snapshot version. It is the unit a
// watcher trusts: a version directory is only served once its manifest
// parses and its CRCs match the payload files.
type Manifest struct {
	Version     int    `json:"version"`
	Step        int    `json:"step"`
	Epoch       int    `json:"epoch"`
	Arch        string `json:"arch"`
	Problem     string `json:"problem,omitempty"` // workload name (hep/climate/astro); "" in pre-PR-10 stores
	Fingerprint string `json:"fingerprint"`       // %016x FNV-1a over the weight bits
	WeightsCRC  uint32 `json:"weights_crc"`       // IEEE CRC-32 of weights.d15w
	StateCRC    uint32 `json:"state_crc"`         // IEEE CRC-32 of state.bin
	WeightBytes int64  `json:"weight_bytes"`
	StateBytes  int64  `json:"state_bytes"`
	UnixNano    int64  `json:"unix_nano"` // write time (informational)
}

// Restored is a loaded snapshot: the weights land directly in the
// parameters handed to LoadInto; everything else comes back here for the
// caller to install.
type Restored struct {
	Manifest     Manifest
	Solver       *opt.State
	Servers      [][]opt.State
	GroupIters   []int
	GroupWeights [][][]float32
}

const (
	manifestFile = "manifest.json"
	weightsFile  = "weights.d15w"
	stateFile    = "state.bin"
	tmpPrefix    = ".tmp-"
)

// Store is a checkpoint directory of monotonically versioned snapshots.
// One writer (the training run) and any number of readers (watchers,
// resuming processes) may use a store concurrently: versions appear
// atomically via directory rename and are never modified after that.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a checkpoint directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func versionName(v int) string { return fmt.Sprintf("v%07d", v) }

// parseVersion extracts N from "vNNNNNNN"; ok=false for anything else.
func parseVersion(name string) (int, bool) {
	if !strings.HasPrefix(name, "v") || len(name) < 2 {
		return 0, false
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// VersionDir returns the directory a version lives in.
func (st *Store) VersionDir(version int) string {
	return filepath.Join(st.dir, versionName(version))
}

// WeightsPath returns the D15W weight blob of a version — the path
// serve.Registry.Load consumes directly.
func (st *Store) WeightsPath(version int) string {
	return filepath.Join(st.VersionDir(version), weightsFile)
}

// Manifest reads and parses one version's manifest.
func (st *Store) Manifest(version int) (Manifest, error) {
	var m Manifest
	raw, err := os.ReadFile(filepath.Join(st.VersionDir(version), manifestFile))
	if err != nil {
		return m, fmt.Errorf("ckpt: version %d: %w", version, err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("ckpt: version %d: corrupt manifest: %w", version, err)
	}
	if m.Version != version {
		return m, fmt.Errorf("ckpt: directory %s carries manifest for version %d", versionName(version), m.Version)
	}
	return m, nil
}

// Versions lists the store's complete versions in ascending order,
// skipping in-progress temporaries and directories whose manifest does not
// parse (a crashed writer's leavings are invisible, not fatal).
func (st *Store) Versions() ([]Manifest, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: listing store: %w", err)
	}
	var out []Manifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		v, ok := parseVersion(e.Name())
		if !ok {
			continue
		}
		m, err := st.Manifest(v)
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out, nil
}

// Latest returns the newest complete version, ok=false on an empty store.
// It scans directory names for the highest version and reads manifests
// newest-first, so the common case costs one manifest read no matter how
// many versions have accumulated (Versions() is the O(N) listing walk).
func (st *Store) Latest() (Manifest, bool, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return Manifest{}, false, fmt.Errorf("ckpt: listing store: %w", err)
	}
	var vs []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if v, ok := parseVersion(e.Name()); ok {
			vs = append(vs, v)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(vs)))
	for _, v := range vs {
		if m, err := st.Manifest(v); err == nil {
			return m, true, nil
		}
		// A directory without a parsable manifest is not a version
		// (writers rename complete directories; this is tampering or
		// foreign junk) — skip to the next-newest candidate.
	}
	return Manifest{}, false, nil
}

// Poll returns the newest complete version strictly newer than `after`
// whose payload passes CRC verification — the watcher's one-call probe.
// ok=false means nothing new. A version that exists but fails
// verification returns its manifest alongside the error, so a caller can
// record the corruption and skip past it instead of re-reading the
// payload on every poll.
func (st *Store) Poll(after int) (Manifest, bool, error) {
	m, ok, err := st.Latest()
	if err != nil || !ok || m.Version <= after {
		return Manifest{}, false, err
	}
	if err := st.Verify(m); err != nil {
		return m, false, err
	}
	return m, true, nil
}

// Verify re-reads a version's payload files and checks sizes and CRCs
// against the manifest — the corruption gate a deployment runs before
// building replicas from a version.
func (st *Store) Verify(m Manifest) error {
	check := func(name string, wantCRC uint32, wantBytes int64) error {
		raw, err := os.ReadFile(filepath.Join(st.VersionDir(m.Version), name))
		if err != nil {
			return fmt.Errorf("ckpt: version %d: %w", m.Version, err)
		}
		if int64(len(raw)) != wantBytes {
			return fmt.Errorf("ckpt: version %d: %s is %d bytes, manifest promises %d (truncated or corrupt)",
				m.Version, name, len(raw), wantBytes)
		}
		if crc := crc32.ChecksumIEEE(raw); crc != wantCRC {
			return fmt.Errorf("ckpt: version %d: %s CRC %08x, manifest promises %08x (corrupt)",
				m.Version, name, crc, wantCRC)
		}
		return nil
	}
	if err := check(weightsFile, m.WeightsCRC, m.WeightBytes); err != nil {
		return err
	}
	return check(stateFile, m.StateCRC, m.StateBytes)
}

// Save writes snap as the next version: payloads and manifest go to a
// temporary directory first, which is renamed into place — a reader never
// observes a half-written version, and a crash leaves only an ignorable
// .tmp- directory behind.
func (st *Store) Save(snap *Snapshot) (Manifest, error) {
	next := 1
	if m, ok, err := st.Latest(); err != nil {
		return Manifest{}, err
	} else if ok {
		next = m.Version + 1
	}
	var wbuf, sbuf bytes.Buffer
	if err := nn.SaveWeights(&wbuf, snap.Params); err != nil {
		return Manifest{}, fmt.Errorf("ckpt: encoding weights: %w", err)
	}
	if err := writeState(&sbuf, snap); err != nil {
		return Manifest{}, fmt.Errorf("ckpt: encoding state: %w", err)
	}
	m := Manifest{
		Version:     next,
		Step:        snap.Step,
		Epoch:       snap.Epoch,
		Arch:        snap.Arch,
		Problem:     snap.Problem,
		Fingerprint: fmt.Sprintf("%016x", Fingerprint(snap.Params)),
		WeightsCRC:  crc32.ChecksumIEEE(wbuf.Bytes()),
		StateCRC:    crc32.ChecksumIEEE(sbuf.Bytes()),
		WeightBytes: int64(wbuf.Len()),
		StateBytes:  int64(sbuf.Len()),
		UnixNano:    time.Now().UnixNano(),
	}
	mraw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Manifest{}, err
	}

	tmp := filepath.Join(st.dir, tmpPrefix+versionName(next))
	if err := os.RemoveAll(tmp); err != nil {
		return Manifest{}, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return Manifest{}, err
	}
	fail := func(err error) (Manifest, error) {
		os.RemoveAll(tmp)
		return Manifest{}, err
	}
	if err := os.WriteFile(filepath.Join(tmp, weightsFile), wbuf.Bytes(), 0o644); err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, stateFile), sbuf.Bytes(), 0o644); err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestFile), append(mraw, '\n'), 0o644); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, st.VersionDir(next)); err != nil {
		return fail(err)
	}
	return m, nil
}

// LoadInto restores a version: weights land in params (validated blob by
// blob by the D15W loader, then checked against the manifest fingerprint),
// solver state and cursors come back in the Restored. Both payloads are
// CRC-verified before a byte is decoded.
func (st *Store) LoadInto(version int, params []*nn.Param) (*Restored, error) {
	m, err := st.Manifest(version)
	if err != nil {
		return nil, err
	}
	if err := st.Verify(m); err != nil {
		return nil, err
	}
	wraw, err := os.ReadFile(st.WeightsPath(version))
	if err != nil {
		return nil, err
	}
	if err := nn.LoadWeights(bytes.NewReader(wraw), params); err != nil {
		return nil, fmt.Errorf("ckpt: version %d: %w", version, err)
	}
	if fp := fmt.Sprintf("%016x", Fingerprint(params)); fp != m.Fingerprint {
		return nil, fmt.Errorf("ckpt: version %d: loaded fingerprint %s, manifest promises %s", version, fp, m.Fingerprint)
	}
	sraw, err := os.ReadFile(filepath.Join(st.VersionDir(version), stateFile))
	if err != nil {
		return nil, err
	}
	restored, err := readState(sraw)
	if err == nil {
		err = checkGroupViews(restored, params)
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: version %d: %w", version, err)
	}
	restored.Manifest = m
	return restored, nil
}

// checkGroupViews holds the per-group replica views to the geometry the
// weights were validated against: one view per group cursor, each shaped
// like params.
func checkGroupViews(r *Restored, params []*nn.Param) error {
	if r.GroupWeights == nil {
		return nil
	}
	if len(r.GroupWeights) != len(r.GroupIters) {
		return fmt.Errorf("ckpt: %d group views for %d group cursors", len(r.GroupWeights), len(r.GroupIters))
	}
	for g, view := range r.GroupWeights {
		if len(view) != len(params) {
			return fmt.Errorf("ckpt: group %d view has %d blobs, model has %d", g, len(view), len(params))
		}
		for i, p := range params {
			if len(view[i]) != p.W.Len() {
				return fmt.Errorf("ckpt: group %d blob %d (%s) has %d elements, model has %d", g, i, p.Name, len(view[i]), p.W.Len())
			}
		}
	}
	return nil
}

// LoadLatest is LoadInto on the newest version. ok=false: empty store.
func (st *Store) LoadLatest(params []*nn.Param) (*Restored, bool, error) {
	m, ok, err := st.Latest()
	if err != nil || !ok {
		return nil, false, err
	}
	r, err := st.LoadInto(m.Version, params)
	if err != nil {
		return nil, false, err
	}
	return r, true, nil
}

// Prune deletes the oldest complete versions beyond the newest keep
// (keep <= 0 keeps everything). Returns how many versions were removed.
// The retention walk never touches the newest version, so a concurrent
// reader holding Latest always finds its files.
func (st *Store) Prune(keep int) (int, error) {
	if keep <= 0 {
		return 0, nil
	}
	vs, err := st.Versions()
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, m := range vs[:max(0, len(vs)-keep)] {
		if err := os.RemoveAll(st.VersionDir(m.Version)); err != nil {
			return removed, fmt.Errorf("ckpt: pruning version %d: %w", m.Version, err)
		}
		removed++
	}
	return removed, nil
}
