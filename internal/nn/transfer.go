package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// Transfer learning: loading a donor checkpoint into a *different*
// architecture. LoadWeights is deliberately strict — positional, full-model,
// exact names — because bit-exact resume depends on it. Fine-tuning needs
// the opposite: read whatever blobs a donor D15W file holds, then map the
// compatible subset into the target by name and shape, with the
// incompatibilities reported explicitly rather than silently skipped.

// WeightBlob is one named parameter read from a D15W checkpoint,
// independent of any architecture.
type WeightBlob struct {
	Name string
	Data []float32
}

// ReadWeightBlobs parses a D15W stream into its named blobs without
// requiring the reader to know the donor architecture. It is the
// arch-agnostic counterpart of LoadWeights. Nothing is sized from a header
// alone: blobs and their data grow as their bytes arrive, so a corrupt
// count costs the reader what the file holds, not what it declares.
func ReadWeightBlobs(r io.Reader) ([]WeightBlob, error) {
	br := bufio.NewReader(r)
	buf := make([]byte, codecBufBytes)
	if _, err := io.ReadFull(br, buf[:8]); err != nil {
		return nil, fmt.Errorf("nn: short checkpoint header: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != checkpointMagic {
		return nil, fmt.Errorf("nn: not a checkpoint file")
	}
	count := binary.LittleEndian.Uint32(buf[4:])
	if count > 1<<20 {
		return nil, fmt.Errorf("nn: implausible blob count %d", count)
	}
	var blobs []WeightBlob
	for i := 0; i < int(count); i++ {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("nn: blob %d: %w", i, err)
		}
		nameLen := binary.LittleEndian.Uint32(buf[:4])
		if nameLen > 4096 {
			return nil, fmt.Errorf("nn: implausible name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("nn: blob %d: %w", i, err)
		}
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("nn: %s: %w", name, err)
		}
		var data []float32
		for left := int(binary.LittleEndian.Uint32(buf[:4])); left > 0; {
			run := min(left, len(buf)/4)
			data = slices.Grow(data, run)
			if err := getFloats(br, buf, data[len(data):len(data)+run]); err != nil {
				return nil, fmt.Errorf("nn: %s: short weight blob: %w", name, err)
			}
			data = data[:len(data)+run]
			left -= run
		}
		blobs = append(blobs, WeightBlob{Name: string(name), Data: data})
	}
	return blobs, nil
}

// ReadWeightBlobsFile reads every blob of the D15W checkpoint at path.
func ReadWeightBlobsFile(path string) ([]WeightBlob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadWeightBlobs(f)
}

// MapOptions controls which name-set mismatches MapWeights tolerates. The
// zero value is fully strict: any divergence between source blobs and
// target parameters is an error.
type MapOptions struct {
	// AllowExtra permits target parameters with no source blob — the new
	// head layers a fine-tune run trains from their fresh initialisation.
	AllowExtra bool
	// AllowUnused permits source blobs no target parameter claims — the
	// donor's old head that transfer learning discards.
	AllowUnused bool
}

// MapResult reports what a MapWeights call did.
type MapResult struct {
	Mapped []string // target parameters that received donor values
	Extra  []string // target parameters left at their initialisation (AllowExtra)
	Unused []string // donor blobs no target parameter claimed (AllowUnused)
	Elems  int      // total float32 elements copied
}

// MapWeights copies donor blobs into the matching target parameters by
// name. A name match with a different element count is always an explicit
// error — shape drift between nominally shared layers is the classic silent
// transfer-learning bug. Missing and surplus names are errors too unless
// the corresponding MapOptions field relaxes them; duplicate donor names
// are always rejected. Target parameters are matched in order, so Mapped
// preserves layer order.
func MapWeights(dst []*Param, src []WeightBlob, opt MapOptions) (MapResult, error) {
	var res MapResult
	byName := make(map[string]*WeightBlob, len(src))
	for i := range src {
		b := &src[i]
		if _, dup := byName[b.Name]; dup {
			return res, fmt.Errorf("nn: map weights: duplicate source blob %q", b.Name)
		}
		byName[b.Name] = b
	}
	claimed := make(map[string]bool, len(dst))
	for _, p := range dst {
		b, ok := byName[p.Name]
		if !ok {
			if !opt.AllowExtra {
				return res, fmt.Errorf("nn: map weights: target parameter %q has no source blob (donor holds: %s)", p.Name, blobNames(src))
			}
			res.Extra = append(res.Extra, p.Name)
			continue
		}
		if len(b.Data) != p.W.Len() {
			return res, fmt.Errorf("nn: map weights: %q has %d elements in source, %d in target — shape mismatch", p.Name, len(b.Data), p.W.Len())
		}
		copy(p.W.Data, b.Data)
		claimed[p.Name] = true
		res.Mapped = append(res.Mapped, p.Name)
		res.Elems += len(b.Data)
	}
	for _, b := range src {
		if claimed[b.Name] {
			continue
		}
		if !opt.AllowUnused {
			return res, fmt.Errorf("nn: map weights: source blob %q matches no target parameter", b.Name)
		}
		res.Unused = append(res.Unused, b.Name)
	}
	return res, nil
}

// blobNames renders a sorted, comma-separated name list for error messages.
func blobNames(src []WeightBlob) string {
	names := make([]string, len(src))
	for i, b := range src {
		names[i] = b.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
