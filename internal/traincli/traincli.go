// Package traincli is the skeleton the training commands (heptrain,
// climatetrain, astrotrain) share: the paper's point that one hybrid
// trainer drives every network (§III-E), said once at the command line. It
// owns the run-shape, checkpoint, trace and debug flags, the kernel table
// selection, the debug server and periodic metrics, the assembly of
// core.Config, the sync-vs-hybrid dispatch and the run report. A command
// keeps its dataset and model flags, its problem construction and its
// science evaluation.
package traincli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"deep15pf/internal/ckpt"
	"deep15pf/internal/core"
	"deep15pf/internal/obs"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// Problem is a core.Problem that knows its training set's size. The epoch
// number in checkpoint manifests is computed against it, so it is taken
// from the dataset the problem was actually built on — never from a flag
// that a hold-out split or appended pseudo-labels have since outdated.
type Problem interface {
	core.Problem
	NumSamples() int
}

// usageError marks an error in how the command was invoked (exit code 2,
// like the flag package's own parse failures) as opposed to a failed run.
type usageError struct{ error }

// Usagef builds an error that Main reports with exit code 2.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// Main runs a command body over the process arguments and exits non-zero
// with a one-line "<name>: <error>" diagnostic if it fails.
func Main(name string, body func(args []string) error) {
	err := body(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// Run is one training command invocation: the shared flags' values and the
// process-wide observability state behind them.
type Run struct {
	name string // the command; also the manifest Arch
	Seed uint64

	groups, workers, iters, batch int

	ckptDir             string
	ckptEvery, ckptKeep int
	ckptAsync, resume   bool
	traceOut, debugAddr string
	metricsEvery        int
	kernels             string
	started             time.Time
	reg                 *obs.Registry
}

// Flags registers the shared flags on fs. batch is the command's default
// group batch size (the sciences' sample sizes differ by orders of
// magnitude). Parse fs, then call Start.
func Flags(fs *flag.FlagSet, name string, batch int) *Run {
	r := &Run{name: name}
	fs.IntVar(&r.groups, "groups", 1, "compute groups (1 = synchronous)")
	fs.IntVar(&r.workers, "workers", 1, "workers per group")
	fs.IntVar(&r.iters, "iters", 150, "iterations per group")
	fs.IntVar(&r.batch, "batch", batch, "samples per group per iteration")
	fs.Uint64Var(&r.Seed, "seed", 42, "seed")
	fs.StringVar(&r.ckptDir, "ckpt-dir", "", "checkpoint store directory (versioned snapshots; enables -ckpt-every/-resume)")
	fs.IntVar(&r.ckptEvery, "ckpt-every", 10, "snapshot every N iterations (the paper's 1-in-10 climate cadence; needs -ckpt-dir)")
	fs.BoolVar(&r.ckptAsync, "ckpt-async", true, "flush snapshots on a background writer (staging only on the critical path)")
	fs.IntVar(&r.ckptKeep, "ckpt-keep", 5, "retain only the newest N versions (0 = keep all)")
	fs.BoolVar(&r.resume, "resume", false, "resume from the newest snapshot in -ckpt-dir (bit-exact; empty store = fresh start)")
	fs.StringVar(&r.traceOut, "trace", "", "write a Chrome trace-event JSON timeline (per-worker phase lanes) to this file")
	fs.StringVar(&r.debugAddr, "debug-addr", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	fs.IntVar(&r.metricsEvery, "metrics-every", 0, "print a one-line metrics dump every N seconds (0 = off)")
	fs.StringVar(&r.kernels, "kernels", "auto", "compute kernel ISA: auto|scalar|avx2|avx512 (results are bitwise identical across choices)")
	return r
}

// Start applies the process-wide settings — the kernel table, the debug
// server, the periodic metrics dump — before any compute runs. The
// returned stop function undoes the last two.
func (r *Run) Start() (stop func(), err error) {
	if err := tensor.SetKernels(r.kernels); err != nil {
		return nil, err
	}
	r.started = time.Now()
	r.reg = obs.NewRegistry()
	closeDebug := func() {}
	if r.debugAddr != "" {
		dbg, err := obs.StartDebugServer(r.debugAddr, r.reg)
		if err != nil {
			return nil, err
		}
		closeDebug = func() { dbg.Close() }
		fmt.Printf("debug server on http://%s/debug/pprof (metrics at /metrics)\n", dbg.Addr())
	}
	stopDump := obs.Periodic(time.Duration(r.metricsEvery)*time.Second, r.printMetrics)
	return func() { stopDump(); closeDebug() }, nil
}

func (r *Run) printMetrics() {
	fmt.Println("metrics:", obs.MetricsLine(r.started, r.reg))
}

// Train runs p under the shared flags — synchronously for one group, on
// the hybrid architecture otherwise — and prints the run report. problem
// names the workload (hep/climate/astro) in checkpoint manifests.
func (r *Run) Train(p Problem, problem string, solver opt.Solver) (core.Result, error) {
	cfg := core.Config{
		Groups: r.groups, WorkersPerGroup: r.workers, GroupBatch: r.batch,
		Iterations: r.iters, Solver: solver, Seed: r.Seed,
	}
	if r.traceOut != "" {
		cfg.Trace = obs.NewTracer(0)
	}
	if r.ckptDir != "" {
		cfg.Checkpoint = core.CheckpointConfig{
			Dir: r.ckptDir, Every: r.ckptEvery, Async: r.ckptAsync, Keep: r.ckptKeep,
			Arch: r.name, Problem: problem, SamplesPerEpoch: p.NumSamples(), Resume: r.resume,
		}
	} else if r.resume {
		return core.Result{}, Usagef("-resume needs -ckpt-dir")
	}

	var res core.Result
	if r.groups == 1 {
		fmt.Printf("training synchronously: %d workers, batch %d, %d iterations\n", r.workers, r.batch, r.iters)
		res = core.TrainSync(p, cfg)
	} else {
		fmt.Printf("training hybrid: %d groups x %d workers, batch %d/group, %d iterations/group\n",
			r.groups, r.workers, r.batch, r.iters)
		fmt.Printf("(implicit momentum from asynchrony ≈ %.2f; explicit momentum 0.9 tunes down to %.2f, §VI-B4)\n",
			opt.ImplicitMomentum(r.groups), opt.TuneMomentum(0.9, r.groups))
		res = core.TrainHybrid(p, cfg)
	}
	r.report(res, cfg.Trace)
	return res, nil
}

// report prints the progress sample and the run's accounts. CI greps the
// "final weight fingerprint" and "trace: " lines.
func (r *Run) report(res core.Result, trace *obs.Tracer) {
	every := max(len(res.Stats)/10, 1)
	for i, s := range res.Stats {
		if i%every == 0 || i == len(res.Stats)-1 {
			fmt.Printf("  update %4d  group %d  loss %.4f  staleness %.1f\n", s.Seq, s.Group, s.Loss, s.Staleness)
		}
	}
	fmt.Printf("final loss %.4f, mean staleness %.2f\n", res.FinalLoss, res.MeanStaleness)
	if ing := res.Ingest; ing.Batches > 0 {
		fmt.Printf("ingest: %d batches staged in %.1f ms, %.1f ms exposed to compute (%.0f%% overlapped)\n",
			ing.Batches, ing.StageSeconds*1e3, ing.WaitSeconds*1e3, 100*ing.Overlap())
	}
	if ck := res.Ckpt; ck.Snapshots > 0 {
		fmt.Printf("ckpt: %d snapshots (latest v%d) — staged %.1f ms, written %.1f ms, %.1f ms exposed to compute (%.0f%% hidden)\n",
			ck.Snapshots, ck.LastVersion, ck.StageSeconds*1e3, ck.WriteSeconds*1e3, ck.ExposedSeconds*1e3, 100*ck.Overlap())
	}
	if w := res.Wire; w.Pushes > 0 {
		fmt.Printf("wire: %d pushes, %.2f MiB gradients, %.2f MiB weights\n",
			w.Pushes, float64(w.GradBytes)/(1<<20), float64(w.WeightBytes)/(1<<20))
	}
	// The fingerprint is FNV-1a over the final weights, comparable across
	// processes and with store manifests — the CI resume smoke diffs it.
	fmt.Printf("final weight fingerprint %016x\n", ckpt.FingerprintWeights(res.FinalWeights))
	res.PublishMetrics(r.reg)
	if r.metricsEvery > 0 {
		r.printMetrics()
	}
	if trace != nil {
		lanes := trace.Snapshot()
		if err := trace.WriteTraceFile(r.traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "%s: trace: %v\n", r.name, err)
		} else {
			fmt.Printf("trace: %d lanes written to %s (open in chrome://tracing or ui.perfetto.dev)\n",
				len(lanes), r.traceOut)
		}
		fmt.Print(obs.Stragglers(lanes))
	}
	fmt.Println()
}
