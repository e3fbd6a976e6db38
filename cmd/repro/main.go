// Command repro regenerates the paper's tables and figures. Each
// experiment prints a report pairing the published value with our measured
// (real kernels, real training) or simulated (cluster model) value.
//
// Usage:
//
//	repro                 # every experiment, quick scale
//	repro -exp fig6       # one experiment (-h lists the ids)
//	repro -full           # larger configurations (slower)
//	repro -o report.md    # also write the report to a file
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"deep15pf/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment id ("+knownIDs()+")")
	full := flag.Bool("full", false, "use larger (slower) configurations")
	seed := flag.Uint64("seed", 42, "experiment seed")
	out := flag.String("o", "", "also write the report to this file")
	flag.Parse()

	opts := harness.Options{Quick: !*full, Seed: *seed}
	gen, ok := experiment(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", *exp, knownIDs())
		os.Exit(2)
	}
	start := time.Now()
	body := gen(opts)

	header := fmt.Sprintf("# Reproduction report — Deep Learning at 15PF (SC'17)\n\n"+
		"Mode: quick=%v seed=%d host=single-node Go implementation; generated in %.0f s.\n\n",
		opts.Quick, opts.Seed, time.Since(start).Seconds())
	// Assemble after generation so the elapsed time is accurate.
	report := header + body
	fmt.Print(report)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

// experiment returns what -exp id generates: one entry of
// harness.Experiments, or every report for "all".
func experiment(id string) (func(harness.Options) string, bool) {
	if id == "all" {
		return harness.All, true
	}
	for _, e := range harness.Experiments {
		if e.ID == id {
			return func(o harness.Options) string { return e.Gen(o).String() }, true
		}
	}
	return nil, false
}

// knownIDs lists the ids -exp accepts, in table order.
func knownIDs() string {
	ids := make([]string, 0, len(harness.Experiments)+1)
	for _, e := range harness.Experiments {
		ids = append(ids, e.ID)
	}
	return strings.Join(append(ids, "all"), " ")
}
