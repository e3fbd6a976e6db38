package data

import (
	"encoding/binary"
	"io"
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

// writeWords writes src to w as little-endian 32-bit words. On a
// little-endian host that is one Write of src's own bytes; on a big-endian
// one the words are byte-swapped through one 64 KiB buffer, a chunk at a
// time. Neither copies the payload whole.
func writeWords[T float32 | int32](w io.Writer, src []T) error {
	if len(src) == 0 {
		return nil
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), 4*len(src))
	if hostLittleEndian {
		_, err := w.Write(b)
		return err
	}
	buf := make([]byte, 64<<10)
	for len(b) > 0 {
		n := copy(buf, b)
		for i := 0; i < n; i += 4 {
			buf[i], buf[i+1], buf[i+2], buf[i+3] = buf[i+3], buf[i+2], buf[i+1], buf[i]
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}
