package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzManifest writes fuzzed bytes as version 1's manifest.json beside
// valid payloads, then runs every reader over the store. No call may
// panic, no returned manifest may name a version other than its
// directory's, and LoadInto may succeed only when the weights it loaded
// carry the manifest's fingerprint.
func FuzzManifest(f *testing.F) {
	src, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	m, err := src.Save(testSnapshot(1, 1))
	if err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range []string{weightsFile, stateFile, manifestFile} {
		if files[name], err = os.ReadFile(filepath.Join(src.VersionDir(1), name)); err != nil {
			f.Fatal(err)
		}
	}
	valid := files[manifestFile]
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated JSON
	for _, corrupt := range []func(*Manifest){
		func(m *Manifest) { m.Version = 2 },
		func(m *Manifest) { m.WeightsCRC ^= 1 },
		func(m *Manifest) { m.StateCRC ^= 1 },
		func(m *Manifest) { m.WeightBytes++ },
		func(m *Manifest) { m.StateBytes-- },
		func(m *Manifest) { m.Fingerprint = "0000000000000000" },
	} {
		bad := m
		corrupt(&bad)
		raw, err := json.Marshal(bad)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dir := st.VersionDir(1)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{weightsFile: files[weightsFile], stateFile: files[stateFile], manifestFile: raw} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		check := func(call string, m Manifest) {
			if m.Version != 1 {
				t.Fatalf("%s returned a manifest for version %d from directory %s", call, m.Version, versionName(1))
			}
		}
		if m, ok, _ := st.Latest(); ok {
			check("Latest", m)
		}
		vs, _ := st.Versions()
		for _, m := range vs {
			check("Versions", m)
		}
		if m, ok, err := st.Poll(0); ok || (err != nil && m != (Manifest{})) {
			check("Poll", m)
		}
		params := testParams(9)
		r, err := st.LoadInto(1, params)
		if err != nil {
			return
		}
		check("LoadInto", r.Manifest)
		if fp := fmt.Sprintf("%016x", Fingerprint(params)); fp != r.Manifest.Fingerprint {
			t.Fatalf("LoadInto succeeded with fingerprint %s, manifest promises %s", fp, r.Manifest.Fingerprint)
		}
	})
}
