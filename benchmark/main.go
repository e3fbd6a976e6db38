// Command benchmark is the repository's yardstick: four long-run workloads,
// end-to-end metrics with regression bounds, and a per-layer trace taken
// from outside the program. See README.md in this directory.
//
//	go run ./benchmark                          every workload, untraced and traced
//	go run ./benchmark -workload serve_fleet    one run; last stdout line is the contract JSON
//	go run ./benchmark -compare A.json B.json   regression table, exit 1 beyond a bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// workloads maps a name to its constructor. Worker and client counts inside
// them are fixed at 2-CPU scale whatever the host.
var workloads = map[string]func() workload{
	wlHep:     newHepSync,
	wlClimate: newClimateHybrid,
	wlServe:   newServeFleet,
	wlBulk:    newScoreBulk,
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print the contract line (default: run the suite)")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced repetition and probes")
		out     = flag.String("out", "", "directory for result JSON and Chrome traces (default: write nothing)")
		smoke   = flag.Bool("smoke", false, "tiny repetitions: walks every code path in seconds, numbers mean nothing")
		compare = flag.Bool("compare", false, "compare two suite result files: -compare A.json B.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *name != "":
		os.Exit(child(*name, *seed, *seconds, *trace == 1, *smoke, *out))
	default:
		os.Exit(suite(*seed, *seconds, *smoke, *out))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// child runs one workload in this process, pinned to two CPUs' worth of
// scheduler and kernel threads whatever the host has, prints every metric
// by name and unit, and ends stdout with the contract line.
func child(name string, seed uint64, seconds float64, trace, smoke bool, out string) int {
	runtime.GOMAXPROCS(2)
	setKernelThreads(2)
	c := &runCtx{workload: name, seed: seed, seconds: seconds, trace: trace, smoke: smoke, outDir: out}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			fatal("%v", err)
		}
	}
	res, err := runWorkload(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	fmt.Printf("%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d isa=%s go=%s sha=%s comparable=%v\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Host.NProc, res.Host.GoMaxProcs,
		res.Host.KernelISA, res.Host.GoVersion, res.Host.GitSHA, res.Host.Comparable)
	res.printMetrics(os.Stdout)
	for _, ck := range res.Checks {
		fmt.Printf("  check %s [%s]: %s\n", ck.Name, ck.verdict(), ck.Detail)
	}
	fmt.Printf("  fail_frac %d/%d\n", res.Failed, res.Attempted)
	line, err := res.contractLine()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s\n", line)
	return 0
}

// writeArtifacts stores the full result and the benchmark's own spans.
// Nothing tracked by git is ever rewritten by a run.
func writeArtifacts(c *runCtx, res *runResult) error {
	mode := "e2e"
	if c.trace {
		mode = "layers"
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(c.outDir, fmt.Sprintf("%s.%s.seed%d.json", c.workload, mode, c.seed)), buf, 0o644); err != nil {
		return err
	}
	if c.spans != nil {
		return c.spans.writeChrome(filepath.Join(c.outDir, c.workload+".bench.trace.json"))
	}
	return nil
}
