// Package experiments regenerates every table and figure of the eRPC
// paper's evaluation (§6 microbenchmarks, §7 full-system benchmarks)
// on the simulated substrates. Each experiment returns a Report whose
// rows print the paper's reported value next to the measured value, so
// shape fidelity (who wins, by what factor, where crossovers fall) can
// be checked at a glance. EXPERIMENTS.md records one run.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Row is one line of a report: a label, the paper's number(s), and the
// reproduction's number(s).
type Row struct {
	Label    string
	Paper    string
	Measured string
}

// Report is the result of one experiment.
type Report struct {
	ID    string // e.g. "fig4"
	Title string // e.g. "Figure 4: single-core small-RPC rate"
	Rows  []Row
	Notes string
}

// Add appends a formatted row.
func (r *Report) Add(label, paper, measured string) {
	r.Rows = append(r.Rows, Row{Label: label, Paper: paper, Measured: measured})
}

// Print renders the report as an aligned table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	wl, wp := len("label"), len("paper")
	for _, row := range r.Rows {
		if len(row.Label) > wl {
			wl = len(row.Label)
		}
		if len(row.Paper) > wp {
			wp = len(row.Paper)
		}
	}
	fmt.Fprintf(w, "%-*s  %-*s  %s\n", wl, "label", wp, "paper", "measured")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-*s  %-*s  %s\n", wl, row.Label, wp, row.Paper, row.Measured)
	}
	if r.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", r.Notes)
	}
	fmt.Fprintln(w)
}

// Options control experiment scale. Scale < 1 shrinks node counts and
// measurement windows for quick runs (go test); Scale = 1 is the
// paper-faithful configuration.
type Options struct {
	Scale float64
	Seed  int64
}

func (o Options) norm() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Fn runs one experiment.
type Fn func(Options) *Report

// Registry maps experiment ids to their drivers.
var Registry = map[string]Fn{}

func register(id string, fn Fn) { Registry[id] = fn }

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every experiment and prints reports to w.
func RunAll(w io.Writer, opts Options) {
	for _, id := range IDs() {
		Registry[id](opts).Print(w)
	}
}

// String renders a report to a string (for tests and docs).
func (r *Report) String() string {
	var b strings.Builder
	r.Print(&b)
	return b.String()
}
