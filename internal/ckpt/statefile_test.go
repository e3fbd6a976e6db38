package ckpt

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"deep15pf/internal/opt"
)

// realState encodes a snapshot that uses every section of state.bin:
// worker solver state, group cursors, per-layer server states and
// per-group replica views.
func realState(t testing.TB) []byte {
	snap := testSnapshot(3, 8)
	snap.Servers = [][]opt.State{{*snap.Solver}, {{Algo: "sgd"}}}
	snap.GroupWeights = [][][]float32{{{1, 2}, {3}}, {{4}, {5, 6}}}
	var buf bytes.Buffer
	if err := writeState(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// le concatenates little-endian words: uint32 for int and uint32 values,
// 8 bytes for int64.
func le(words ...any) []byte {
	var out []byte
	for _, w := range words {
		switch v := w.(type) {
		case int:
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		case uint32:
			out = binary.LittleEndian.AppendUint32(out, v)
		case int64:
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
	}
	return out
}

// header is magic, version, step and epoch.
var header = le(uint32(stateMagic), stateVersion, int64(8), int64(2))

// corruptStates are state.bin payloads the decoder must refuse. Several
// declare counts far beyond what their bytes could hold: each must fail
// before anything is sized by the count.
func corruptStates(real []byte) map[string][]byte {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return map[string][]byte{
		"empty":           nil,
		"bad magic":       le(0x12345678, stateVersion),
		"bad version":     le(uint32(stateMagic), 99),
		"truncated real":  real[:len(real)/2],
		"header only":     header,
		"huge group view": cat(header, le(0, 0, 0, 1, 1, 1<<28)), // 48 bytes declaring 2^28 floats
		"huge cursors":    cat(header, le(1<<20)),
		"huge slot count": cat(header, le(0, 1, 4), []byte("adam"), le(int64(3), 1<<30)),
		"huge params":     cat(header, le(0, 1, 4), []byte("adam"), le(int64(3), 1, 1), []byte("m"), le(1<<28)),
		"huge string":     cat(header, le(0, 1, 1<<30)),
		"huge layers":     cat(header, le(0, 0, 1<<20)),
		"huge states":     cat(header, le(0, 0, 1, 1<<28)),
	}
}

func TestReadStateRejectsCorrupt(t *testing.T) {
	for name, raw := range corruptStates(realState(t)) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readState(raw)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: corrupt state decoded without error", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes before failing", name, alloc)
		}
	}
}

// FuzzReadState: the decoder never panics, and whatever it accepts
// re-encodes to a payload that decodes to the same state.
func FuzzReadState(f *testing.F) {
	real := realState(f)
	f.Add(real)
	for _, raw := range corruptStates(real) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := readState(raw)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeState(&buf, &Snapshot{Solver: r.Solver, Servers: r.Servers,
			GroupIters: r.GroupIters, GroupWeights: r.GroupWeights}); err != nil {
			t.Fatal(err)
		}
		again, err := readState(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("re-encoded state decodes differently:\n%+v\n%+v", r, again)
		}
	})
}
