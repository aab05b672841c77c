// Package experiments regenerates the tables and figures of the paper's
// evaluation (§5) from this repository's implementation, printing
// paper-reported values next to this repository's; Fig 7 alone is not
// reproduced (EXPERIMENTS.md says why). See DESIGN.md §5 for
// the experiment index and EXPERIMENTS.md for a recorded run.
//
// Every printed row is one of three kinds, and its note says which:
//
//   - Measured rows read the instrumentation of a run of the actual
//     components — TAO, Pylon, WAS, BRASS, BURST: Table 3 and Fig 9 from
//     the tracing plane's spans, Fig 6 and the LVC switchover from one pair
//     of poll and stream runs, the reconnect storm, the failover drills and
//     the subscription-dedup ablation.
//   - Input rows (note "input:") replay the paper's production workload
//     through the calibrated generators of DESIGN.md §4, because a laptop
//     cannot host hundreds of millions of devices: Tables 1 and 2 and the
//     Fig 8 and Fig 10 curves.
//   - Not-reproduced rows (note "not reproduced:") name a paper number this
//     stack cannot produce, and why: Fig 6's poll tail needs production TAO
//     overload, Table 3's device subscribe needs a mobile network.
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
	// Err is set when the experiment failed to measure what it reports,
	// or its headline property did not hold; cmd/brbench exits nonzero.
	Err error
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	labelW, paperW, measW := len("metric"), len("paper"), len("measured")
	for _, row := range r.Rows {
		labelW = max(labelW, len(row.Label))
		paperW = max(paperW, len(row.Paper))
		measW = max(measW, len(row.Measured))
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

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

// All runs every experiment at the default scale and returns the results
// in paper order. Table 3 and Fig 9 share one pair of traced runs, Fig 6 and
// the switchover another.
func All(seed int64) []Result {
	latency := MeasureLatency(seed)
	switchover := MeasureSwitchover(seed)
	return []Result{
		Table1(seed, 2_000_000),
		Figure6(switchover),
		Table2(seed, 500_000),
		Figure8(seed),
		Table3(latency),
		Figure9(latency),
		Figure10(seed),
		Switchover(switchover),
		ReconnectStorm(seed),
		GeoFailover(seed),
		DurlogResume(seed),
	}
}
