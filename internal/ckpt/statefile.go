package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"deep15pf/internal/opt"
)

// state.bin carries everything beyond the weights: solver state (worker-
// side and/or per parameter server) and the progress cursors. Format
// (little endian):
//
//	magic   uint32 'D15S'
//	version uint32 (1)
//	step, epoch        int64
//	groupIters         count uint32, then count int64
//	solver present     uint32; if 1, one encoded State
//	server layer count uint32; per layer: state count uint32, then that
//	                   many encoded States (trainers write and restore one)
//	group view count   uint32; per group: param count uint32; per param:
//	                   numel uint32 + float32 data
//
// An encoded State: algoLen+algo, steps int64, slot count uint32; per
// slot: nameLen+name, param count uint32; per param: numel uint32 +
// float32 data (batch-encoded, like the D15W blobs).
const (
	stateMagic   = 0x44313553 // "D15S"
	stateVersion = 1
	// stateBufBytes sizes the transcode buffer (see nn's checkpoint codec).
	stateBufBytes = 64 << 10
)

type stateEncoder struct {
	w   *bufio.Writer
	buf []byte
}

func (e *stateEncoder) u32(v uint32) error {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	_, err := e.w.Write(e.buf[:4])
	return err
}

func (e *stateEncoder) i64(v int64) error {
	binary.LittleEndian.PutUint64(e.buf[:8], uint64(v))
	_, err := e.w.Write(e.buf[:8])
	return err
}

func (e *stateEncoder) str(s string) error {
	if err := e.u32(uint32(len(s))); err != nil {
		return err
	}
	_, err := e.w.WriteString(s)
	return err
}

func (e *stateEncoder) floats(src []float32) error {
	per := len(e.buf) / 4
	for off := 0; off < len(src); off += per {
		run := src[off:]
		if len(run) > per {
			run = run[:per]
		}
		for i, v := range run {
			binary.LittleEndian.PutUint32(e.buf[i*4:], math.Float32bits(v))
		}
		if _, err := e.w.Write(e.buf[:len(run)*4]); err != nil {
			return err
		}
	}
	return nil
}

func (e *stateEncoder) state(st *opt.State) error {
	if err := e.str(st.Algo); err != nil {
		return err
	}
	if err := e.i64(st.Steps); err != nil {
		return err
	}
	if err := e.u32(uint32(len(st.Slots))); err != nil {
		return err
	}
	for _, sl := range st.Slots {
		if err := e.str(sl.Name); err != nil {
			return err
		}
		if err := e.u32(uint32(len(sl.Data))); err != nil {
			return err
		}
		for _, d := range sl.Data {
			if err := e.u32(uint32(len(d))); err != nil {
				return err
			}
			if err := e.floats(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeState serialises the snapshot's non-weight payload to w.
func writeState(w io.Writer, s *Snapshot) error {
	e := &stateEncoder{w: bufio.NewWriter(w), buf: make([]byte, stateBufBytes)}
	if err := e.u32(stateMagic); err != nil {
		return err
	}
	if err := e.u32(stateVersion); err != nil {
		return err
	}
	if err := e.i64(int64(s.Step)); err != nil {
		return err
	}
	if err := e.i64(int64(s.Epoch)); err != nil {
		return err
	}
	if err := e.u32(uint32(len(s.GroupIters))); err != nil {
		return err
	}
	for _, it := range s.GroupIters {
		if err := e.i64(int64(it)); err != nil {
			return err
		}
	}
	present := uint32(0)
	if s.Solver != nil {
		present = 1
	}
	if err := e.u32(present); err != nil {
		return err
	}
	if s.Solver != nil {
		if err := e.state(s.Solver); err != nil {
			return err
		}
	}
	if err := e.u32(uint32(len(s.Servers))); err != nil {
		return err
	}
	for _, layer := range s.Servers {
		if err := e.u32(uint32(len(layer))); err != nil {
			return err
		}
		for i := range layer {
			if err := e.state(&layer[i]); err != nil {
				return err
			}
		}
	}
	if err := e.u32(uint32(len(s.GroupWeights))); err != nil {
		return err
	}
	for _, group := range s.GroupWeights {
		if err := e.u32(uint32(len(group))); err != nil {
			return err
		}
		for _, blob := range group {
			if err := e.u32(uint32(len(blob))); err != nil {
				return err
			}
			if err := e.floats(blob); err != nil {
				return err
			}
		}
	}
	return e.w.Flush()
}

// stateDecoder walks a state.bin payload held in memory. Every count it
// reads is checked against the bytes left before anything is sized by it:
// an element costs at least minBytes on disk, so a header that declares
// more elements than the rest of the file could encode is corrupt, and
// the decoder allocates no more than the file's own size.
type stateDecoder struct {
	raw []byte
}

func (d *stateDecoder) take(n int) ([]byte, error) {
	if n > len(d.raw) {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.raw[:n]
	d.raw = d.raw[n:]
	return b, nil
}

func (d *stateDecoder) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *stateDecoder) i64() (int64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// count reads a declared element count and rejects it when the bytes left
// cannot hold that many elements of at least minBytes each.
func (d *stateDecoder) count(what string, minBytes int) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if uint64(n)*uint64(minBytes) > uint64(len(d.raw)) {
		return 0, fmt.Errorf("ckpt: %s count %d exceeds the %d bytes left", what, n, len(d.raw))
	}
	return int(n), nil
}

func (d *stateDecoder) str() (string, error) {
	n, err := d.count("string byte", 1)
	if err != nil {
		return "", err
	}
	b, _ := d.take(n)
	return string(b), nil
}

// floats reads a counted float32 array.
func (d *stateDecoder) floats(what string) ([]float32, error) {
	n, err := d.count(what, 4)
	if err != nil {
		return nil, err
	}
	b, _ := d.take(4 * n)
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

func (d *stateDecoder) state() (opt.State, error) {
	var st opt.State
	var err error
	if st.Algo, err = d.str(); err != nil {
		return st, err
	}
	if st.Steps, err = d.i64(); err != nil {
		return st, err
	}
	nSlots, err := d.count("slot", 8) // a name length and a param count
	if err != nil {
		return st, err
	}
	st.Slots = make([]opt.StateSlot, nSlots)
	for i := range st.Slots {
		if st.Slots[i].Name, err = d.str(); err != nil {
			return st, err
		}
		nParams, err := d.count("param", 4)
		if err != nil {
			return st, err
		}
		st.Slots[i].Data = make([][]float32, nParams)
		for j := range st.Slots[i].Data {
			if st.Slots[i].Data[j], err = d.floats("element"); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// readState parses a state.bin payload.
func readState(raw []byte) (*Restored, error) {
	d := &stateDecoder{raw: raw}
	magic, err := d.u32()
	if err != nil {
		return nil, fmt.Errorf("ckpt: short state header: %w", err)
	}
	if magic != stateMagic {
		return nil, fmt.Errorf("ckpt: not a checkpoint state file")
	}
	ver, err := d.u32()
	if err != nil {
		return nil, err
	}
	if ver != stateVersion {
		return nil, fmt.Errorf("ckpt: state format version %d, want %d", ver, stateVersion)
	}
	out := &Restored{}
	if _, err := d.take(16); err != nil { // step and epoch (authoritative copies in the manifest)
		return nil, err
	}
	nGroups, err := d.count("group cursor", 8)
	if err != nil {
		return nil, err
	}
	if nGroups > 0 {
		out.GroupIters = make([]int, nGroups)
		for i := range out.GroupIters {
			v, _ := d.i64()
			out.GroupIters[i] = int(v)
		}
	}
	present, err := d.u32()
	if err != nil {
		return nil, err
	}
	if present == 1 {
		st, err := d.state()
		if err != nil {
			return nil, err
		}
		out.Solver = &st
	}
	nLayers, err := d.count("server layer", 4)
	if err != nil {
		return nil, err
	}
	if nLayers > 0 {
		out.Servers = make([][]opt.State, nLayers)
		for l := range out.Servers {
			nStates, err := d.count("server state", 16) // an algo length, steps, a slot count
			if err != nil {
				return nil, err
			}
			out.Servers[l] = make([]opt.State, nStates)
			for s := range out.Servers[l] {
				if out.Servers[l][s], err = d.state(); err != nil {
					return nil, err
				}
			}
		}
	}
	nGW, err := d.count("group view", 4)
	if err != nil {
		return nil, err
	}
	if nGW > 0 {
		out.GroupWeights = make([][][]float32, nGW)
		for g := range out.GroupWeights {
			nParams, err := d.count("group-view param", 4)
			if err != nil {
				return nil, err
			}
			out.GroupWeights[g] = make([][]float32, nParams)
			for i := range out.GroupWeights[g] {
				if out.GroupWeights[g][i], err = d.floats("group-view element"); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}
