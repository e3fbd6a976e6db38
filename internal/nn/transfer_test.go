package nn

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"deep15pf/internal/tensor"
)

// saveBlobs round-trips params through the D15W codec into arch-agnostic
// blobs, the donor side of every transfer test.
func saveBlobs(t *testing.T, params []*Param) []WeightBlob {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveWeights(&buf, params); err != nil {
		t.Fatalf("save: %v", err)
	}
	blobs, err := ReadWeightBlobs(&buf)
	if err != nil {
		t.Fatalf("read blobs: %v", err)
	}
	return blobs
}

func TestReadWeightBlobsRoundTrip(t *testing.T) {
	net := planTestNet(3)
	blobs := saveBlobs(t, net.Params())
	if len(blobs) != len(net.Params()) {
		t.Fatalf("%d blobs, want %d", len(blobs), len(net.Params()))
	}
	for i, p := range net.Params() {
		if blobs[i].Name != p.Name {
			t.Fatalf("blob %d name %q, want %q", i, blobs[i].Name, p.Name)
		}
		if len(blobs[i].Data) != p.W.Len() {
			t.Fatalf("%s: %d elements, want %d", p.Name, len(blobs[i].Data), p.W.Len())
		}
		for j, v := range p.W.Data {
			if blobs[i].Data[j] != v {
				t.Fatalf("%s diverges at %d", p.Name, j)
			}
		}
	}
}

// weightBlobGarbage is what ReadWeightBlobs must refuse beyond
// corruptCheckpoints: streams that are no checkpoint at all, and headers
// that declare far more than the file holds.
func weightBlobGarbage() []d15wCase {
	d15w := func(words ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, checkpointMagic)
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	blob := func(numel uint32, payload int) []byte {
		b := append(d15w(1, 1), 'w')
		return append(binary.LittleEndian.AppendUint32(b, numel), make([]byte, payload)...)
	}
	return []d15wCase{
		{"not a checkpoint", []byte("not a checkpoint"), "not a checkpoint"},
		{"2^28 floats declared, none sent", blob(1<<28, 0), "short weight blob"},
		{"2^32-1 floats declared, 1 KiB sent", blob(1<<32-1, 1<<10), "short weight blob"},
		{"2^20 blobs declared, none sent", d15w(1 << 20), "blob 0"},
		{"blob count beyond the cap", d15w(1<<20 + 1), "implausible blob count"},
		{"name longer than the cap", d15w(1, 4097), "implausible name length"},
	}
}

// TestReadWeightBlobsRejectsGarbage: a stream that is not a D15W file, or
// whose header declares more than it holds, is an error, and one that
// costs what the file holds rather than what it declares. The 17-byte file
// declaring one blob of 2^28 floats used to allocate 1 GiB before failing
// at EOF; astrotrain -init-from reads any file it is pointed at.
func TestReadWeightBlobsRejectsGarbage(t *testing.T) {
	for _, tc := range weightBlobGarbage() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadWeightBlobs(bytes.NewReader(tc.blob))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: %d-byte file allocated %d bytes before failing, want < 1 MiB", tc.name, len(tc.blob), grew)
		}
	}
}

// FuzzReadWeightBlobs: ReadWeightBlobs never panics, and a file it accepts
// is one SaveWeights writes — re-encoding the blobs gives back the bytes
// they were read from. Seeded with corruptCheckpoints' and
// weightBlobGarbage's files. Fuzz with
// go test -run '^$' -fuzz FuzzReadWeightBlobs ./internal/nn.
func FuzzReadWeightBlobs(f *testing.F) {
	good, cases := corruptCheckpoints(f, tinyNet(tensor.NewRNG(8)))
	f.Add(good)
	for _, tc := range append(cases, weightBlobGarbage()...) {
		f.Add(tc.blob)
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		blobs, err := ReadWeightBlobs(bytes.NewReader(file))
		if err != nil {
			return
		}
		params := make([]*Param, len(blobs))
		for i, b := range blobs {
			params[i] = &Param{Name: b.Name, W: tensor.FromSlice(b.Data, len(b.Data))}
		}
		var again bytes.Buffer
		if err := SaveWeights(&again, params); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(file, again.Bytes()) {
			t.Fatalf("accepted %d bytes holding %d blobs, which re-encode to %d other bytes", len(file), len(blobs), again.Len())
		}
	})
}

// TestMapWeightsEdgeCases is the satellite table: every way a donor
// checkpoint can mismatch the target architecture must surface as an
// explicit error (or an explicit report when the option relaxes it), never
// a silent partial load.
func TestMapWeightsEdgeCases(t *testing.T) {
	// Donor: the standard test net. Target variants are built per case.
	donor := planTestNet(3)

	cases := []struct {
		name    string
		dst     func() []*Param
		src     func() []WeightBlob
		opt     MapOptions
		wantErr string // substring of the error, "" = success
		check   func(t *testing.T, res MapResult)
	}{
		{
			name:    "identical arch strict",
			dst:     func() []*Param { return planTestNet(9).Params() },
			src:     func() []WeightBlob { return saveBlobs(t, donor.Params()) },
			wantErr: "",
			check: func(t *testing.T, res MapResult) {
				if len(res.Mapped) != len(donor.Params()) || len(res.Extra) != 0 || len(res.Unused) != 0 {
					t.Fatalf("mapped=%v extra=%v unused=%v", res.Mapped, res.Extra, res.Unused)
				}
			},
		},
		{
			name: "name match with shape mismatch",
			dst: func() []*Param {
				// Same layer names, different filter count: c1 is 8 wide here.
				rng := tensor.NewRNG(9)
				net := NewNetwork("wide", 3, 8, 8)
				net.Add(NewConv2D("c1", 3, 8, 3, 1, 1, rng))
				return net.Params()
			},
			src:     func() []WeightBlob { return saveBlobs(t, donor.Params()) },
			opt:     MapOptions{AllowUnused: true},
			wantErr: "shape mismatch",
		},
		{
			name: "missing layer in source strict",
			dst:  func() []*Param { return planTestNet(9).Params() },
			src: func() []WeightBlob {
				return saveBlobs(t, donor.Layers[0].Params()) // c1 only
			},
			wantErr: "has no source blob",
		},
		{
			name: "missing layer tolerated as Extra",
			dst:  func() []*Param { return planTestNet(9).Params() },
			src: func() []WeightBlob {
				return saveBlobs(t, donor.Layers[0].Params())
			},
			opt: MapOptions{AllowExtra: true},
			check: func(t *testing.T, res MapResult) {
				if len(res.Mapped) != 2 { // c1.weight, c1.bias
					t.Fatalf("mapped %v, want the c1 pair", res.Mapped)
				}
				if len(res.Extra) != len(donor.Params())-2 {
					t.Fatalf("extra %v", res.Extra)
				}
			},
		},
		{
			name: "extra blob in source strict",
			dst: func() []*Param {
				return planTestNet(9).Layers[0].Params() // target is c1 only
			},
			src:     func() []WeightBlob { return saveBlobs(t, donor.Params()) },
			wantErr: "matches no target parameter",
		},
		{
			name: "extra blob tolerated as Unused",
			dst: func() []*Param {
				return planTestNet(9).Layers[0].Params()
			},
			src: func() []WeightBlob { return saveBlobs(t, donor.Params()) },
			opt: MapOptions{AllowUnused: true},
			check: func(t *testing.T, res MapResult) {
				if len(res.Mapped) != 2 || len(res.Unused) != len(donor.Params())-2 {
					t.Fatalf("mapped=%v unused=%v", res.Mapped, res.Unused)
				}
			},
		},
		{
			name: "duplicate source blob",
			dst:  func() []*Param { return planTestNet(9).Params() },
			src: func() []WeightBlob {
				blobs := saveBlobs(t, donor.Params())
				return append(blobs, blobs[0])
			},
			wantErr: "duplicate source blob",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := MapWeights(tc.dst(), tc.src(), tc.opt)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}

// TestMapWeightsTransfersValues confirms mapped values land bitwise and
// unmapped target parameters keep their initialisation — the property the
// fine-tune path stands on.
func TestMapWeightsTransfersValues(t *testing.T) {
	donor := planTestNet(3)
	target := planTestNet(11) // different init
	before := planTestNet(11)

	// Donor blobs minus the head: the classic backbone transfer.
	var backbone []*Param
	for _, p := range donor.Params() {
		if !strings.HasPrefix(p.Name, "fc.") {
			backbone = append(backbone, p)
		}
	}
	res, err := MapWeights(target.Params(), saveBlobs(t, backbone), MapOptions{AllowExtra: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Extra) != 2 { // fc.weight, fc.bias stay fresh
		t.Fatalf("extra %v, want the fc pair", res.Extra)
	}
	dp, tp, bp := donor.Params(), target.Params(), before.Params()
	for i := range tp {
		want := dp[i]
		if strings.HasPrefix(tp[i].Name, "fc.") {
			want = bp[i]
		}
		requireBitwise(t, tp[i].Name, tp[i].W, want.W)
	}
	if res.Elems == 0 {
		t.Fatal("no elements copied")
	}
}
