package harness

import (
	"hash/fnv"
	"strings"
	"testing"
)

// The harness tests run every generator in quick mode and assert the
// invariants each report must carry; the numeric calibration itself is
// asserted in internal/cluster's tests.

func testOpts() Options { return Options{Quick: true, Seed: 42} }

// checkPinned holds a modelled report's text to the FNV-64a of its body
// as first pinned, so a one-digit change to any simulated number fails.
func checkPinned(t *testing.T, r Report, want uint64) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(r.Body))
	if got := h.Sum64(); got != want {
		t.Errorf("%s body hashes to %016x, pinned %016x:\n%s", r.ID, got, want, r.Body)
	}
}

func TestTable1(t *testing.T) {
	r := Table1(testOpts())
	for _, want := range []string{"HEP", "Climate", "7.4 TB", "15 TB", "228x228", "768x768"} {
		if !strings.Contains(r.Body, want) {
			t.Fatalf("table1 missing %q:\n%s", want, r.Body)
		}
	}
	checkPinned(t, r, 0x5e031c262be4cee7)
}

func TestTable2(t *testing.T) {
	r := Table2(testOpts())
	for _, want := range []string{"2.3 MiB", "2.27 MiB", "302.1 MiB", "302.60 MiB", "HEP 6", "climate 14", "590 KB"} {
		if !strings.Contains(r.Body, want) {
			t.Fatalf("table2 missing %q:\n%s", want, r.Body)
		}
	}
	checkPinned(t, r, 0xbd420f58676c734c)
}

func TestFig5(t *testing.T) {
	r := Fig5(testOpts())
	for _, want := range []string{"conv2", "solver", "I/O (shard read)", "TOTAL", "GFLOP/s", "dec_deconv"} {
		if !strings.Contains(r.Body, want) {
			t.Fatalf("fig5 missing %q:\n%s", want, r.Body)
		}
	}
}

func TestFig6AndFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r6 := Fig6(testOpts())
	for _, want := range []string{"synchronous", "hybrid, 2 groups", "hybrid, 4 groups", "1024 nodes"} {
		if !strings.Contains(r6.Body, want) {
			t.Fatalf("fig6 missing %q", want)
		}
	}
	r7 := Fig7(testOpts())
	for _, want := range []string{"hybrid, 8 groups", "2048 nodes", "batch 8 per node"} {
		if !strings.Contains(r7.Body, want) {
			t.Fatalf("fig7 missing %q", want)
		}
	}
	checkPinned(t, r6, 0x1b042df55ead5d17)
	checkPinned(t, r7, 0xdfae10084b8ea1c6)
}

func TestFullSystemReport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := FullSystem(testOpts())
	for _, want := range []string{"9594+6", "9608+14", "6173x", "7205x", "PF"} {
		if !strings.Contains(r.Body, want) {
			t.Fatalf("fullsystem missing %q:\n%s", want, r.Body)
		}
	}
	checkPinned(t, r, 0xc94d7dfc6f48cbcd)
}

func TestFig8Report(t *testing.T) {
	if testing.Short() {
		t.Skip("real training")
	}
	r := Fig8(testOpts())
	for _, want := range []string{"sync seed 0", "hybrid 2g", "hybrid 4g", "hybrid 8g", "time to target"} {
		if !strings.Contains(r.Body, want) {
			t.Fatalf("fig8 missing %q:\n%s", want, r.Body)
		}
	}
	// The hybrid configurations must show real staleness in the table.
	if !strings.Contains(r.Body, "faster than the best sync run") {
		t.Fatal("fig8 must report the headline speedup")
	}
}

func TestHEPScienceReport(t *testing.T) {
	if testing.Short() {
		t.Skip("real training")
	}
	r := HEPScience(testOpts())
	for _, want := range []string{"baseline cuts (ours)", "CNN (ours)", "42%", "72%", "AUC"} {
		if !strings.Contains(r.Body, want) {
			t.Fatalf("hepscience missing %q:\n%s", want, r.Body)
		}
	}
}

func TestClimateScienceReport(t *testing.T) {
	if testing.Short() {
		t.Skip("real training")
	}
	r := ClimateScience(testOpts())
	for _, want := range []string{"precision", "recall", "TMQ field", "ground truth"} {
		if !strings.Contains(r.Body, want) {
			t.Fatalf("climscience missing %q", want)
		}
	}
}

func TestResilienceReport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	r := Resilience(testOpts())
	for _, want := range []string{"node dies", "synchronous", "hybrid, 4 groups", "Straggler variant"} {
		if !strings.Contains(r.Body, want) {
			t.Fatalf("resilience missing %q:\n%s", want, r.Body)
		}
	}
	checkPinned(t, r, 0x4798aa0cb73c7811)
}

func TestTableRendering(t *testing.T) {
	tab := newTable("a", "bb")
	tab.add("xxx", "y")
	tab.addf("%d|%s", 7, "z")
	s := tab.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "a") || !strings.Contains(lines[2], "xxx") || !strings.Contains(lines[3], "7") {
		t.Fatalf("bad table:\n%s", s)
	}
}

func TestReportString(t *testing.T) {
	r := Report{ID: "x", Title: "T", Body: "B"}
	s := r.String()
	if !strings.Contains(s, "## x — T") || !strings.Contains(s, "B") {
		t.Fatalf("report rendering: %q", s)
	}
}
