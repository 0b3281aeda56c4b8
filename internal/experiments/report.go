// Package experiments contains one driver per table and figure of the
// paper's evaluation (§3.3, §4.3–4.4, §6). Each driver runs the simulator
// and learning stack and renders the same rows/series the paper reports, so
// `mctbench -experiment <id>` (or the benchmarks in bench_test.go)
// regenerates every artifact. The drivers also return structured results
// for programmatic assertions in tests.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"mct/internal/obs"
)

// Table is a printable experiment artifact.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Report bundles the artifacts of one experiment.
type Report struct {
	ID     string
	Tables []Table
	Notes  []string
}

// Fprint renders the whole report.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "### Experiment %s\n\n", r.ID)
	for i := range r.Tables {
		r.Tables[i].Fprint(w)
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// f2 formats a float at 2 decimals, f3 at 3, f4 at 4.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// emitf sends a formatted progress event to opt.Events when a sink is set.
// Scope names the experiment, item the benchmark/mix being processed.
func emitf(opt Options, scope, item, format string, args ...any) {
	if opt.Events != nil {
		opt.Events(obs.Event{Scope: scope, Item: item, Text: fmt.Sprintf(format, args...)})
	}
}
