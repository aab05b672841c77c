// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) from this repository's implementation, printing
// paper-reported values next to measured ones. See DESIGN.md §5 for the
// experiment index and EXPERIMENTS.md for a recorded run.
//
// Two kinds of experiments exist:
//
//   - Live-stack experiments (the LVC switchover, the ablations) drive the
//     actual components — TAO, Pylon, WAS, BRASS, BURST — and read their
//     instrumentation.
//   - Model-composition experiments (the latency tables/figures and the
//     fleet-scale diurnal curves) run the discrete-event kernel over the
//     calibrated workload generators and per-component latency models,
//     because a laptop cannot host hundreds of millions of devices. The
//     models are the ones documented in DESIGN.md §4; what is verified is
//     that the *composition* of the system's structure with those inputs
//     reproduces the paper's end-to-end shapes.
package experiments

import (
	"fmt"
	"strings"
)

// Row is one reported comparison line.
type Row struct {
	Label    string
	Paper    string // value reported in the paper ("-" when not reported)
	Measured string
	Note     string
}

// SeriesPoint is one point of a figure's curve.
type SeriesPoint struct {
	X float64
	Y float64
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string // "table1", "fig6", ...
	Title string
	Rows  []Row
	// Series holds the full curves for figures, keyed by curve name.
	Series map[string][]SeriesPoint
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	labelW, paperW, measW := len("metric"), len("paper"), len("measured")
	for _, row := range r.Rows {
		labelW = maxInt(labelW, len(row.Label))
		paperW = maxInt(paperW, len(row.Paper))
		measW = maxInt(measW, len(row.Measured))
	}
	fmt.Fprintf(&b, "%-*s  %*s  %*s  %s\n", labelW, "metric", paperW, "paper", measW, "measured", "note")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-*s  %*s  %*s  %s\n",
			labelW, row.Label, paperW, row.Paper, measW, row.Measured, row.Note)
	}
	return b.String()
}

// AddRow appends a comparison row.
func (r *Result) AddRow(label, paper, measured, note string) {
	r.Rows = append(r.Rows, Row{Label: label, Paper: paper, Measured: measured, Note: note})
}

// AddSeries attaches a named curve.
func (r *Result) AddSeries(name string, pts []SeriesPoint) {
	if r.Series == nil {
		r.Series = make(map[string][]SeriesPoint)
	}
	r.Series[name] = pts
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

// All runs every experiment at the default scale and returns the results
// in paper order.
func All(seed int64) []Result {
	return []Result{
		Table1(seed, 2_000_000),
		Figure6(seed, 100_000),
		Table2(seed, 500_000),
		Figure7(seed, 200_000),
		Figure8(seed),
		Table3(seed, 100_000),
		Figure9(seed, 100_000),
		Figure10(seed),
		Switchover(seed),
		ReconnectStorm(seed),
		TraceHops(seed),
		GeoFailover(seed),
		DurlogResume(seed),
	}
}
