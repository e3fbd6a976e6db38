package data

import (
	"encoding/binary"
	"os"
	"unsafe"
)

// hostLittleEndian reports whether the host stores a shard's little-endian
// payload words the way it stores float32 and int32 in memory.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// readWords fills dst with the little-endian 32-bit words at byte offset
// off of f: one ReadAt into dst's own bytes, then, on a big-endian host
// only, a byte swap in place.
func readWords[T float32 | int32](f *os.File, dst []T, off int64) error {
	if len(dst) == 0 {
		return nil
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 4*len(dst))
	if _, err := f.ReadAt(b, off); err != nil {
		return err
	}
	if !hostLittleEndian {
		for i := 0; i < len(b); i += 4 {
			b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
		}
	}
	return nil
}
