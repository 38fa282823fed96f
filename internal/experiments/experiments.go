// Package experiments contains one runner per table and figure of the
// paper's evaluation (§VI). Each runner builds its workload, executes the
// measurement, and renders a paper-style text table or series so results
// can be compared against the published shapes.
//
// Runners accept an Options struct; Quick mode shrinks workloads so the
// full set executes in seconds (used by tests and the benchmark harness),
// while the default sizes produce stable numbers.
package experiments

import (
	"fmt"
	"strings"
)

// Options configure an experiment run.
type Options struct {
	// Seed makes every experiment deterministic.
	Seed uint64
	// Quick shrinks workload sizes for fast smoke runs.
	Quick bool
	// Events overrides the streamed event volume (0 = default).
	Events int
	// Repeats overrides the number of measurement repetitions
	// (0 = default; the paper repeats 5 times).
	Repeats int
}

func (o Options) events(def, quick int) int {
	if o.Events > 0 {
		return o.Events
	}
	if o.Quick {
		return quick
	}
	return def
}

func (o Options) repeats(def int) int {
	if o.Repeats > 0 {
		return o.Repeats
	}
	if o.Quick {
		return 1
	}
	return def
}

// Table is a simple text table renderer for paper-style result output.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if w := widths[i] - len([]rune(c)); w > 0 {
				b.WriteString(strings.Repeat(" ", w))
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	return b.String()
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func fi(v int) string      { return fmt.Sprintf("%d", v) }
