// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 Fig. 1, §5.2 Fig. 4, §7 Figs. 6-12, Tables 1-2, and the
// §7.4 accuracy study). Each runner builds the workload with internal/
// datagen or internal/openml, executes the compared configurations through
// the engine, converts each run's measurements into the modeled time of
// the paper's cluster (costmodel.go — the only modeled times in the
// repository), and prints the same rows/series the paper reports. Absolute
// times differ from the paper (different hardware, scaled data); the
// shapes — who wins, by what factor, where crossovers fall — are asserted
// in experiments_test.go.
package experiments

import (
	"fmt"
	"strings"
)

// Report is one experiment's output table.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Note appends a footnote.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func ms(seconds float64) string { return fmt.Sprintf("%.1fms", seconds*1e3) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
