// Command labelfactory is the offline half of the pseudo-label flywheel
// (ROADMAP item 1): it scores unlabeled shard files with a trained
// checkpoint through the throughput-first bulk engine and writes every
// prediction above the confidence threshold back as pseudo-labeled shards
// that heptrain -unlabeled-dir trains on.
//
// Usage (one flywheel iteration):
//
//	heptrain -unlabeled-frac 0.33 -emit-unlabeled pool/ -ckpt-dir store/
//	labelfactory -in pool/ -out pseudo/ -ckpt-dir store/ -threshold 0.8
//	heptrain -unlabeled-frac 0.33 -unlabeled-dir pseudo/ -pseudo-weight 0.5
//
// With -fleet N the shards are fanned out across N in-process netserve
// backends through the work-stealing fleet scorer — the single-machine
// stand-in for N scoring nodes.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"deep15pf/internal/bulk"
	"deep15pf/internal/ckpt"
	"deep15pf/internal/data"
	"deep15pf/internal/hep"
	"deep15pf/internal/netserve"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "labelfactory: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("labelfactory", flag.ExitOnError)
	in := fs.String("in", "", "directory of unlabeled *.shard files to score")
	out := fs.String("out", "", "output directory for pseudo-labeled shards")
	outShards := fs.Int("out-shards", 4, "shard count for the pseudo-labeled output")
	ckptDir := fs.String("ckpt-dir", "", "checkpoint store; its newest version, CRC-verified, is scored with")
	weightsPath := fs.String("weights", "", "explicit .d15w weights file (alternative to -ckpt-dir)")
	size := fs.Int("size", 16, "model image size (must match the training run)")
	filters := fs.Int("filters", 8, "model conv filters (must match the training run)")
	units := fs.Int("units", 3, "model conv+pool units (must match the training run)")
	threshold := fs.Float64("threshold", 0.8, "keep predictions at/above this top-1 confidence (paper's climate cut)")
	batch := fs.Int("batch", 256, "samples per batch: the local engine stages and scores 32-sample tiles cut within each batch, -fleet sends one batch per wire request, and -int8 calibrates on the first batch")
	useInt8 := fs.Bool("int8", false, "score on the int8 quantized datapath (calibrated on the first batch)")
	fleet := fs.Int("fleet", 0, "fan shards across N in-process netserve backends (0 = direct local engine)")
	kernels := fs.String("kernels", "auto", "compute kernel ISA: auto|scalar|avx2|avx512")
	fs.Parse(args)

	if err := tensor.SetKernels(*kernels); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	if (*ckptDir == "") == (*weightsPath == "") {
		return fmt.Errorf("exactly one of -ckpt-dir or -weights is required")
	}

	paths, err := filepath.Glob(filepath.Join(*in, "*.shard"))
	if err == nil && len(paths) == 0 {
		err = fmt.Errorf("no *.shard files under %s", *in)
	}
	var ss *data.ShardSet
	if err == nil {
		ss, err = data.OpenShardSet(paths...)
	}
	if err != nil {
		return err
	}
	defer ss.Close()

	reg := serve.NewRegistry()
	model := hep.ModelConfig{Name: "heptrain", ImageSize: *size, Filters: *filters, ConvUnits: *units, Classes: 2}
	serve.RegisterHEP(reg, "heptrain", model)
	wpath := *weightsPath
	if *ckptDir != "" {
		store, err := ckpt.Open(*ckptDir)
		if err != nil {
			return err
		}
		// Poll verifies the payload CRCs: the D15W loader checks names and
		// sizes but not the bytes, so a bit-rotted version would score.
		m, ok, err := store.Poll(0)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("checkpoint store %s holds no complete version", *ckptDir)
		}
		// The scorer only speaks HEP: a checkpoint stamped with a different
		// workload (climate, astro) must be refused even if its weights would
		// happen to stream into the architecture.
		if err := reg.CheckManifest("heptrain", m.Arch, m.Problem); err != nil {
			return err
		}
		wpath = store.WeightsPath(m.Version)
		fmt.Printf("scoring with %s v%d (step %d)\n", m.Arch, m.Version, m.Step)
	}

	prec := serve.Float32
	if *useInt8 {
		prec = serve.Int8
	}
	lm, err := reg.Load("heptrain", wpath, prec)
	if err != nil {
		return err
	}
	if *useInt8 {
		n := min(*batch, ss.Count)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		x := tensor.New(n, hep.Channels, *size, *size)
		if err := ss.ReadBatchInto(idx, x.Data, nil, nil); err != nil {
			return err
		}
		if err := lm.Calibrate(x); err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
	}

	cfg := bulk.Config{Batch: *batch}
	var p bulk.Predictions
	if *fleet > 0 {
		addrs, cleanup, err := startFleet(lm, *fleet)
		if err != nil {
			return err
		}
		defer cleanup()
		cfg.InShape = []int{hep.Channels, *size, *size}
		res, err := bulk.ScoreFleet(addrs, "heptrain", ss, cfg, &p)
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		fmt.Printf("fleet of %d backends: %d samples in %.2fs (%.0f samples/s, %d requeues)\n",
			*fleet, res.Samples, res.Seconds, res.SamplesPerSec, res.Requeues)
	} else {
		eng, err := bulk.NewEngine(lm, cfg)
		if err != nil {
			return err
		}
		res, err := eng.Score(ss, &p)
		if err != nil {
			return err
		}
		fmt.Printf("scored %d samples in %d batches, %.2fs (%.0f samples/s)\n",
			res.Samples, res.Batches, res.Seconds, res.SamplesPerSec)
	}

	// Comparable across processes and kernel tables: CI scores one pool at
	// int8 under -kernels=scalar, avx2 and auto and diffs this line.
	fmt.Printf("prediction fingerprint %016x\n", fingerprint(&p))

	outPaths, st, err := bulk.WritePseudoShards(*out, *outShards, ss, &p, float32(*threshold))
	if err != nil {
		return err
	}
	fmt.Printf("threshold %.2f: kept %d of %d (coverage %.1f%%), dropped %d\n",
		*threshold, st.Kept, st.Total, 100*st.Coverage, st.Total-st.Kept)
	if len(outPaths) == 0 {
		fmt.Println("nothing above threshold — no shards written")
		return nil
	}
	fmt.Printf("wrote %d pseudo-labeled shards under %s\n", len(outPaths), *out)
	return nil
}

// fingerprint is FNV-1a over every sample's label and confidence bits.
func fingerprint(p *bulk.Predictions) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i, label := range p.Label {
		binary.LittleEndian.PutUint32(b[:4], uint32(label))
		binary.LittleEndian.PutUint32(b[4:], math.Float32bits(p.Conf[i]))
		h.Write(b[:])
	}
	return h.Sum64()
}

// startFleet brings up n in-process scoring backends on loopback, each a
// full serve engine behind a netserve face — the single-machine stand-in
// for a real scoring fleet.
func startFleet(lm *serve.LoadedModel, n int) ([]string, func(), error) {
	workers := max(1, runtime.NumCPU()/n)
	addrs := make([]string, n)
	closers := make([]func(), 0, 2*n)
	cleanup := func() {
		for _, c := range closers {
			c()
		}
	}
	for i := range addrs {
		eng, err := serve.NewServer(lm, serve.Config{MaxBatch: 64, Workers: workers})
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("backend %d: %w", i, err)
		}
		ns, err := netserve.NewServer("127.0.0.1:0", map[string]*serve.Server{"heptrain": eng}, netserve.ServerConfig{})
		if err != nil {
			eng.Close()
			cleanup()
			return nil, nil, fmt.Errorf("backend %d: %w", i, err)
		}
		addrs[i] = ns.Addr()
		closers = append(closers, ns.Close, eng.Close)
	}
	return addrs, cleanup, nil
}
