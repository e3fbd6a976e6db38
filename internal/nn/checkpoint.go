package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Model checkpointing. The paper snapshots the trained model to the
// filesystem during training ("in some iterations, a checkpointing is
// performed to save the current trained model", §V; the climate sustained
// rate includes one snapshot per 10 iterations). Format (little endian):
//
//	magic  uint32 'D15W'
//	count  uint32 parameter blobs
//	per blob: nameLen uint32, name bytes, numel uint32, float32 data
const checkpointMagic = 0x44313557 // "D15W"

// codecBuf is the reusable transcode buffer: float32 data crosses the wire
// in codecBuf-sized runs (one PutUint32/Uint32 per element, one Read/Write
// per run) instead of one 4-byte scratch write per element — the difference
// between the encode loop and the filesystem deciding checkpoint
// throughput. 64 KiB keeps the run in L2 while amortising the io calls.
const codecBufBytes = 64 << 10

// putFloats batch-encodes src through buf (len codecBufBytes) into w.
func putFloats(w io.Writer, buf []byte, src []float32) error {
	per := len(buf) / 4
	for off := 0; off < len(src); off += per {
		run := src[off:]
		if len(run) > per {
			run = run[:per]
		}
		for i, v := range run {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
		if _, err := w.Write(buf[:len(run)*4]); err != nil {
			return err
		}
	}
	return nil
}

// getFloats batch-decodes len(dst) float32s from r through buf.
func getFloats(r io.Reader, buf []byte, dst []float32) error {
	per := len(buf) / 4
	for off := 0; off < len(dst); off += per {
		run := dst[off:]
		if len(run) > per {
			run = run[:per]
		}
		if _, err := io.ReadFull(r, buf[:len(run)*4]); err != nil {
			return err
		}
		for i := range run {
			run[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
	}
	return nil
}

// SaveWeights writes every parameter's current values to w.
func SaveWeights(w io.Writer, params []*Param) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, codecBufBytes)
	binary.LittleEndian.PutUint32(buf[0:], checkpointMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(params)))
	if _, err := bw.Write(buf[:8]); err != nil {
		return err
	}
	for _, p := range params {
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(p.Name)))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
		if _, err := bw.WriteString(p.Name); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(p.W.Len()))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
		if err := putFloats(bw, buf, p.W.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadWeights restores parameter values from r into params, validating
// names and sizes so a checkpoint cannot silently load into the wrong
// architecture.
func LoadWeights(r io.Reader, params []*Param) error {
	br := bufio.NewReader(r)
	buf := make([]byte, codecBufBytes)
	if _, err := io.ReadFull(br, buf[:8]); err != nil {
		return fmt.Errorf("nn: short checkpoint header: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != checkpointMagic {
		return fmt.Errorf("nn: not a checkpoint file")
	}
	if n := binary.LittleEndian.Uint32(buf[4:]); int(n) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d blobs, model has %d", n, len(params))
	}
	for _, p := range params {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return err
		}
		nameLen := binary.LittleEndian.Uint32(buf[:4])
		if nameLen > 4096 {
			return fmt.Errorf("nn: implausible name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: checkpoint blob %q does not match parameter %q", name, p.Name)
		}
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return err
		}
		if n := binary.LittleEndian.Uint32(buf[:4]); int(n) != p.W.Len() {
			return fmt.Errorf("nn: %s has %d elements in checkpoint, %d in model", p.Name, n, p.W.Len())
		}
		if err := getFloats(br, buf, p.W.Data); err != nil {
			return fmt.Errorf("nn: %s: short weight blob: %w", p.Name, err)
		}
	}
	return nil
}

// SaveFile checkpoints params to path.
func SaveFile(path string, params []*Param) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveWeights(f, params); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
