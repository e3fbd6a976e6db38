package nn

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deep15pf/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	src := tinyNet(rng)
	dst := tinyNet(tensor.NewRNG(2)) // different init

	var buf bytes.Buffer
	if err := SaveWeights(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].W.Data {
			if sp[i].W.Data[j] != dp[i].W.Data[j] {
				t.Fatalf("%s[%d] not restored", sp[i].Name, j)
			}
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := tinyNet(rng)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveFile(path, net.Params()); err != nil {
		t.Fatal(err)
	}
	other := tinyNet(tensor.NewRNG(4))
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := LoadWeights(f, other.Params()); err != nil {
		t.Fatal(err)
	}
	if net.Params()[0].W.Data[0] != other.Params()[0].W.Data[0] {
		t.Fatal("file round trip failed")
	}
}

func TestCheckpointRejectsWrongArchitecture(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := tinyNet(rng)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	// A different architecture: fewer parameters.
	small := NewNetwork("small", 2, 8, 8)
	small.Add(NewConv2D("conv1", 2, 4, 3, 1, 1, rng))
	if err := LoadWeights(&buf, small.Params()); err == nil {
		t.Fatal("blob-count mismatch must error")
	}
	// Same blob count, different names.
	var buf2 bytes.Buffer
	renamed := NewNetwork("renamed", 2, 8, 8)
	renamed.Add(NewConv2D("convX", 2, 4, 3, 1, 1, rng))
	if err := SaveWeights(&buf2, renamed.Params()); err != nil {
		t.Fatal(err)
	}
	target := NewNetwork("target", 2, 8, 8)
	target.Add(NewConv2D("convY", 2, 4, 3, 1, 1, rng))
	if err := LoadWeights(&buf2, target.Params()); err == nil {
		t.Fatal("name mismatch must error")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := tinyNet(rng)
	if err := LoadWeights(bytes.NewReader([]byte("garbage")), net.Params()); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if err := LoadWeights(bytes.NewReader(nil), net.Params()); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

// d15wCase is one malformed D15W file and a substring its error must
// carry ("" for any error).
type d15wCase struct {
	name string
	blob []byte
	want string
}

// corruptCheckpoints encodes net and returns the file and one corruption
// of it per malformed-checkpoint class.
func corruptCheckpoints(tb testing.TB, net *Network) (good []byte, cases []d15wCase) {
	var buf bytes.Buffer
	if err := SaveWeights(&buf, net.Params()); err != nil {
		tb.Fatal(err)
	}
	good = buf.Bytes()
	// The first blob's layout inside the file: magic+count (8 bytes), then
	// nameLen (4), name, numel (4), data.
	numelOff := 8 + 4 + len(net.Params()[0].Name)
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	return good, []d15wCase{
		{"empty input", nil, "header"},
		{"truncated header", good[:6], "header"},
		{"bad magic", corrupt(func(b []byte) { b[0], b[1], b[2], b[3] = 'J', 'U', 'N', 'K' }), "not a checkpoint"},
		{"blob count mismatch", corrupt(func(b []byte) { b[4]++ }), "blobs"}, // one more blob than the model has
		{"name mismatch", corrupt(func(b []byte) { b[8+4] ^= 0xff }), "does not match parameter"},
		{"size mismatch", corrupt(func(b []byte) { b[numelOff]++ }), "elements in checkpoint"}, // one extra element
		{"truncated name", good[:8+4+1], ""},
		{"truncated blob", good[:len(good)-5], "short weight blob"},
	}
}

// TestLoadWeightsErrorPaths drives every malformed-checkpoint class through
// LoadWeights and requires an explicit error naming the problem — the
// OpenShard hardening contract applied to the weight format: corruption
// surfaces at load time as a diagnosis, never as a silent misload or a
// panic deeper in.
func TestLoadWeightsErrorPaths(t *testing.T) {
	net := tinyNet(tensor.NewRNG(8))
	good, cases := corruptCheckpoints(t, net)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := LoadWeights(bytes.NewReader(tc.blob), net.Params())
			if err == nil {
				t.Fatalf("%s: LoadWeights accepted a corrupt checkpoint", tc.name)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: error %q does not name the problem (want %q)", tc.name, err, tc.want)
			}
		})
	}
	// The table must not have poisoned the reference blob.
	if err := LoadWeights(bytes.NewReader(good), net.Params()); err != nil {
		t.Fatalf("pristine checkpoint no longer loads: %v", err)
	}
}

func TestCheckpointTruncated(t *testing.T) {
	rng := tensor.NewRNG(7)
	net := tinyNet(rng)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if err := LoadWeights(bytes.NewReader(trunc), net.Params()); err == nil {
		t.Fatal("truncated checkpoint must error")
	}
}
