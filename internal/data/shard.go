package data

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Shard file format (little endian):
//
//	magic   uint32  'D15P'
//	version uint32  1
//	count   uint32  samples in shard
//	featLen uint32  float32 features per sample
//	labLen  uint32  int32 labels per sample
//	payload count·featLen float32, then count·labLen int32
//
// This substitutes for the paper's HDF5 input path; like theirs it is a
// single-threaded reader (the paper calls out non-threaded HDF5 as an I/O
// bottleneck), so measured read times are honest.
const (
	shardMagic   = 0x44313550 // "D15P"
	shardVersion = 1
	headerBytes  = 20
)

// WriteShard writes samples to path. features is count×featLen, labels is
// count×labLen (labLen may be zero, featLen may not: OpenShard refuses a
// shard without features).
func WriteShard(path string, count, featLen, labLen int, features []float32, labels []int32) error {
	if featLen < 1 {
		return fmt.Errorf("data: shard needs at least one feature per sample, got %d", featLen)
	}
	if len(features) != count*featLen {
		return fmt.Errorf("data: feature payload %d != %d×%d", len(features), count, featLen)
	}
	if len(labels) != count*labLen {
		return fmt.Errorf("data: label payload %d != %d×%d", len(labels), count, labLen)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr := make([]byte, headerBytes)
	binary.LittleEndian.PutUint32(hdr[0:], shardMagic)
	binary.LittleEndian.PutUint32(hdr[4:], shardVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(count))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(featLen))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(labLen))
	if _, err := f.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 4*len(features))
	for i, v := range features {
		binary.LittleEndian.PutUint32(buf[4*i:], floatBits(v))
	}
	if _, err := f.Write(buf); err != nil {
		return err
	}
	lbuf := make([]byte, 4*len(labels))
	for i, v := range labels {
		binary.LittleEndian.PutUint32(lbuf[4*i:], uint32(v))
	}
	if _, err := f.Write(lbuf); err != nil {
		return err
	}
	return f.Sync()
}

// ShardReader reads samples back by index.
type ShardReader struct {
	f                      *os.File
	Count, FeatLen, LabLen int
}

// OpenShard opens a shard file and validates its header against the actual
// file size, so corruption surfaces as an explicit error at open time — not
// as a panic or short read deep inside a training run's prefetch goroutine.
func OpenShard(path string) (*ShardReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerBytes)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("data: %s: short shard header: %w", path, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != shardMagic {
		f.Close()
		return nil, fmt.Errorf("data: %s is not a shard file (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != shardVersion {
		f.Close()
		return nil, fmt.Errorf("data: %s: unsupported shard version %d", path, v)
	}
	count := int64(binary.LittleEndian.Uint32(hdr[8:]))
	featLen := int64(binary.LittleEndian.Uint32(hdr[12:]))
	labLen := int64(binary.LittleEndian.Uint32(hdr[16:]))
	// A sample without features takes no payload bytes, so the size check
	// below could not bound count: a 20-byte header would open as 2^32−1
	// samples. WriteShard never writes one.
	if featLen == 0 {
		f.Close()
		return nil, fmt.Errorf("data: %s: impossible shard header (no features per sample)", path)
	}
	// Impossible counts: the per-sample element total must not overflow the
	// payload arithmetic (a corrupt header can promise ~2^64 bytes).
	per := featLen + labLen
	if per > 0 && count > (math.MaxInt64/4-headerBytes)/per {
		f.Close()
		return nil, fmt.Errorf("data: %s: impossible shard header (count %d × %d elems/sample overflows)",
			path, count, per)
	}
	want := int64(headerBytes) + 4*count*per
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("data: %s: stat: %w", path, err)
	}
	if st.Size() != want {
		f.Close()
		return nil, fmt.Errorf("data: %s: payload is %d bytes, header promises %d (truncated or corrupt)",
			path, st.Size(), want)
	}
	return &ShardReader{
		f:       f,
		Count:   int(count),
		FeatLen: int(featLen),
		LabLen:  int(labLen),
	}, nil
}

// Close releases the underlying file.
func (r *ShardReader) Close() error { return r.f.Close() }

// ScratchLen returns the byte-scratch size the *Into read paths need (one
// sample's worth of raw encoding, feature or label, whichever is larger).
func (r *ShardReader) ScratchLen() int {
	n := r.FeatLen
	if r.LabLen > n {
		n = r.LabLen
	}
	return 4 * n
}

// ReadSample reads sample i's features (and labels if labels is non-nil)
// into the provided slices.
func (r *ShardReader) ReadSample(i int, features []float32, labels []int32) error {
	if err := r.checkIndex(i); err != nil {
		return err // before sizing scratch: an empty shard's FeatLen is unbounded
	}
	return r.ReadSampleInto(i, features, labels, make([]byte, r.ScratchLen()))
}

func (r *ShardReader) checkIndex(i int) error {
	if i < 0 || i >= r.Count {
		return fmt.Errorf("data: sample %d out of range [0,%d)", i, r.Count)
	}
	return nil
}

// ReadSampleInto is ReadSample decoding through caller-owned scratch (at
// least ScratchLen bytes) — the allocation-free form the ingest hot paths
// run per sample, on every iteration, from prefetch goroutines.
func (r *ShardReader) ReadSampleInto(i int, features []float32, labels []int32, scratch []byte) error {
	if err := r.checkIndex(i); err != nil {
		return err
	}
	if len(features) != r.FeatLen {
		return fmt.Errorf("data: feature buffer %d != %d", len(features), r.FeatLen)
	}
	if len(scratch) < r.ScratchLen() {
		return fmt.Errorf("data: scratch buffer %d < %d", len(scratch), r.ScratchLen())
	}
	buf := scratch[:4*r.FeatLen]
	off := int64(headerBytes) + int64(i)*int64(4*r.FeatLen)
	if _, err := r.f.ReadAt(buf, off); err != nil {
		return err
	}
	for j := range features {
		features[j] = bitsFloat(binary.LittleEndian.Uint32(buf[4*j:]))
	}
	if labels != nil && r.LabLen > 0 {
		if len(labels) != r.LabLen {
			return fmt.Errorf("data: label buffer %d != %d", len(labels), r.LabLen)
		}
		lbuf := scratch[:4*r.LabLen]
		loff := int64(headerBytes) + int64(r.Count)*int64(4*r.FeatLen) + int64(i)*int64(4*r.LabLen)
		if _, err := r.f.ReadAt(lbuf, loff); err != nil {
			return err
		}
		for j := range labels {
			labels[j] = int32(binary.LittleEndian.Uint32(lbuf[4*j:]))
		}
	}
	return nil
}

// ReadBatch reads the indexed samples into a contiguous feature buffer of
// len(idx)·FeatLen floats and, if labels is non-nil, len(idx)·LabLen labels.
func (r *ShardReader) ReadBatch(idx []int, features []float32, labels []int32) error {
	scratch := make([]byte, r.ScratchLen())
	for bi, i := range idx {
		var lab []int32
		if labels != nil {
			lab = labels[bi*r.LabLen : (bi+1)*r.LabLen]
		}
		if err := r.ReadSampleInto(i, features[bi*r.FeatLen:(bi+1)*r.FeatLen], lab, scratch); err != nil {
			return err
		}
	}
	return nil
}
