package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// worseBy returns by what share of the base median the new median is
// worse, in the metric's own direction (negative when it is better).
func worseBy(spec metricSpec, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / base
	if spec.Better == "higher" {
		d = -d
	}
	return d
}

// compareFiles prints one row per workload × end-to-end metric of two
// suite results — medians, quartiles and the ratio with its base — and
// returns 1 when any median is worse than the base by more than the
// metric's bound or more operations failed, else 0. A row whose
// inter-quartile spread exceeds the bound on either side is "unresolved":
// the runs cannot tell a change of that size from their own noise.
func compareFiles(w io.Writer, basePath, curPath string) int {
	load := func(path string) suiteResult {
		var r suiteResult
		buf, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(buf, &r)
		}
		if err != nil {
			fatal("%s: %v", path, err)
		}
		return r
	}
	base, cur := load(basePath), load(curPath)
	if !base.Host.Comparable || !cur.Host.Comparable {
		fmt.Fprintln(w, "warning: a result was taken on a host with fewer than 2 CPUs; timings are not comparable")
	}
	curBy := map[string]suiteWorkload{}
	for _, sw := range cur.Workloads {
		curBy[sw.Name] = sw
	}
	exit := 0
	fmt.Fprintf(w, "%-22s %-18s %12s %24s %12s %24s %9s %6s  %s\n", "workload", "metric", "base", "[q1, q3]", "new", "[q1, q3]", "new/base", "bound", "verdict")
	for _, bw := range base.Workloads {
		cw, ok := curBy[bw.Name]
		if !ok {
			fmt.Fprintf(w, "%-22s missing from %s\n", bw.Name, curPath)
			exit = 1
			continue
		}
		for _, spec := range endToEnd {
			b, c := bw.EndToEnd[spec.Name], cw.EndToEnd[spec.Name]
			if b == nil || c == nil {
				continue
			}
			verdict := "ok"
			worse := worseBy(spec, b.Median, c.Median)
			noisy := spreadOf(b) > spec.Bound || spreadOf(c) > spec.Bound
			switch {
			case worse > spec.Bound:
				verdict = fmt.Sprintf("REGRESSION %+.1f%%", worse*100)
				exit = 1
			case noisy:
				verdict = "unresolved (spread exceeds bound)"
			case worse < -spec.Bound:
				verdict = fmt.Sprintf("improved %+.1f%%", -worse*100)
			}
			ratio := 0.0
			if b.Median != 0 {
				ratio = c.Median / b.Median
			}
			fmt.Fprintf(w, "%-22s %-18s %12.6g %24s %12.6g %24s %8.3fx %5.0f%%  %s\n", bw.Name, spec.Name,
				b.Median, fmt.Sprintf("[%.5g, %.5g]", b.Q1, b.Q3), c.Median, fmt.Sprintf("[%.5g, %.5g]", c.Q1, c.Q3), ratio, spec.Bound*100, verdict)
		}
		bf, cf := failFrac(bw), failFrac(cw)
		verdict := "ok"
		if cf > bf || !cw.Correct {
			verdict, exit = "REGRESSION (any increase)", 1
		}
		fmt.Fprintf(w, "%-22s %-18s %12.6g %24s %12.6g %24s %9s %6s  %s\n", bw.Name, "fail_frac", bf, "", cf, "", "", "0%", verdict)
	}
	return exit
}

func spreadOf(s *summary) float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}

func failFrac(sw suiteWorkload) float64 {
	if sw.Attempted == 0 {
		return 1
	}
	return float64(sw.Failed) / float64(sw.Attempted)
}
