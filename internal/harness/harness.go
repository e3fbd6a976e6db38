// Package harness regenerates every table and figure of the paper's
// evaluation: Table I–II, Fig 5 (single-node breakdown), Fig 6 (strong
// scaling), Fig 7 (weak scaling), Fig 8 (time to train), the §VI-B3
// full-system runs, the §VII science results, the §VIII-A resilience
// observations, and the design-choice ablations. Each generator returns a
// text report pairing the paper's published value with our measured or
// simulated value. Experiments lists them; cmd/repro prints one or all,
// and with -o also writes the report to a file.
package harness

import (
	"fmt"
	"strings"
)

// Options scales the experiments. Quick mode keeps every experiment inside
// a CI-friendly budget (reduced spatial sizes, fewer iterations); Full mode
// (cmd/repro -full) uses paper-sized networks where the host can afford it.
type Options struct {
	Quick bool
	Seed  uint64
}

// Report is one experiment's rendered result.
type Report struct {
	ID    string // e.g. "fig6a"
	Title string
	Body  string
}

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n%s\n", r.ID, r.Title, r.Body)
	return b.String()
}

// Experiment is one reproducible result: the id cmd/repro's -exp selects
// and the generator behind it.
type Experiment struct {
	ID  string
	Gen func(Options) Report
}

// Experiments lists every experiment in paper order, the order All
// reports them in.
var Experiments = []Experiment{
	{"table1", Table1}, {"table2", Table2}, {"fig5", Fig5},
	{"fig6", Fig6}, {"fig7", Fig7}, {"fullsystem", FullSystem},
	{"fig8", Fig8}, {"hepscience", HEPScience}, {"climscience", ClimateScience},
	{"resilience", Resilience}, {"ablations", Ablations}, {"checkpoint", Checkpoint},
	{"timeline", Timeline},
}

// All runs every experiment and concatenates the reports.
func All(opts Options) string {
	var b strings.Builder
	for _, e := range Experiments {
		b.WriteString(e.Gen(opts).String())
		b.WriteString("\n")
	}
	return b.String()
}

// table renders rows as an aligned text table.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table {
	return &table{header: header}
}

func (t *table) add(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) addf(format string, args ...any) {
	t.rows = append(t.rows, strings.Split(fmt.Sprintf(format, args...), "|"))
}

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }
func tb(bytes int64) float64  { return float64(bytes) / 1e12 }
