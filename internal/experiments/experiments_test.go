package experiments

import (
	"strconv"
	"strings"
	"testing"

	"bladerunner/internal/trace"
)

// parsePct extracts the numeric value of a "12.34%" measurement.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func row(t *testing.T, r Result, label string) Row {
	t.Helper()
	for _, row := range r.Rows {
		if row.Label == label {
			return row
		}
	}
	t.Fatalf("%s: no row %q", r.ID, label)
	return Row{}
}

func TestTable1MatchesPaper(t *testing.T) {
	r := Table1(1, 500_000)
	checks := []struct {
		label  string
		lo, hi float64
	}{
		{"areas with 0 updates", 82, 84},
		{"areas with <10 updates", 15, 17},
		{"areas with <100 updates", 0.8, 1.1},
		{"areas with >1M updates", 0.03, 0.07},
	}
	for _, c := range checks {
		got := parsePct(t, row(t, r, c.label).Measured)
		if got < c.lo || got > c.hi {
			t.Errorf("%s = %v%%, want [%v,%v]", c.label, got, c.lo, c.hi)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	r := Table2(1, 200_000)
	checks := map[string][2]float64{
		"<15 min":       {43, 47},
		"15 min - 1 hr": {24, 28},
		"1 hr - 24 hr":  {23, 27},
		"24 hr+":        {3, 5},
	}
	for label, bounds := range checks {
		got := parsePct(t, row(t, r, label).Measured)
		if got < bounds[0] || got > bounds[1] {
			t.Errorf("%s = %v%%, want [%v,%v]", label, got, bounds[0], bounds[1])
		}
	}
}

// parseMillis extracts the numeric value of a "12.3ms" measurement.
func parseMillis(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestTable3MatchesPaper makes the two traced LVC runs Table 3 reads and
// checks what it stands on: each ranked publish span covers the ranking
// hold, every comment left a complete edge-path trace, and the collector
// rings held every span.
func TestTable3MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("live-stack experiment; skipped in -short")
	}
	l := MeasureLatency(1)
	if l.Err != nil {
		t.Fatal(l.Err)
	}
	if s := l.Ranked.seg.Hist(trace.HopPublish).Snapshot(); s.Count != latencyEvents || s.Min < RankingHold.Min {
		t.Errorf("ranked run: %d was.publish spans, shortest %v; want %d, none under the hold's minimum %v",
			s.Count, s.Min, latencyEvents, RankingHold.Min)
	}
	for name, run := range map[string]*spanRun{"unranked": l.Unranked, "ranked": l.Ranked} {
		if run.complete != latencyEvents {
			t.Errorf("%s: %d complete traces, want %d", name, run.complete, latencyEvents)
		}
		if run.evicted != 0 {
			t.Errorf("%s: %d spans evicted", name, run.evicted)
		}
	}
	if r := Table3(l); r.Err != nil || len(r.Rows) == 0 {
		t.Errorf("table3 from the runs: err %v, %d rows", r.Err, len(r.Rows))
	}
}

// TestFigure9Shape makes the two traced LVC runs Fig 9 reads and checks
// that the ranking hold dominates delivery and that every ranked and
// unranked CDF series is monotone.
func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("live-stack experiment; skipped in -short")
	}
	l := MeasureLatency(1)
	if l.Err != nil {
		t.Fatal(l.Err)
	}
	unranked := l.Unranked.seg.Hist(segTotal).Percentile(50)
	ranked := l.Ranked.seg.Hist(segTotal).Percentile(50)
	if ranked < 4*unranked {
		t.Errorf("total p50 ranked %v, unranked %v: want the ranking hold to dominate (>= 4x)", ranked, unranked)
	}
	r := Figure9(l)
	if r.Err != nil || len(r.Series) != 10 {
		t.Errorf("fig9 from the runs: err %v, %d series, want 10", r.Err, len(r.Series))
	}
	for name, pts := range r.Series {
		for i := 1; i < len(pts); i++ {
			if pts[i].Y < pts[i-1].Y {
				t.Errorf("fig9 series %s not monotone at %d", name, i)
				break
			}
		}
	}
}

func TestFigure8RangesMatchPaper(t *testing.T) {
	r := Figure8(1)
	// All three input curves present with 96 buckets.
	for _, name := range []string{"streams", "subscriptions", "publications"} {
		if len(r.Series[name]) != 96 {
			t.Errorf("series %s has %d points", name, len(r.Series[name]))
		}
	}
	// Diurnal shape: peak clearly above trough for streams.
	pts := r.Series["streams"]
	lo, hi := pts[0].Y, pts[0].Y
	for _, p := range pts {
		if p.Y < lo {
			lo = p.Y
		}
		if p.Y > hi {
			hi = p.Y
		}
	}
	if hi < 1.5*lo {
		t.Errorf("streams curve not diurnal: [%v, %v]", lo, hi)
	}
}

func TestFigure10Ranges(t *testing.T) {
	r := Figure10(1)
	if len(r.Series["drops"]) != 96 || len(r.Series["reconnects"]) != 96 {
		t.Fatal("missing series")
	}
	for _, p := range r.Series["drops"] {
		if p.Y < 15e6 || p.Y > 40e6 {
			t.Errorf("drops %v/min outside plausible band", p.Y)
		}
	}
	for _, p := range r.Series["reconnects"] {
		if p.Y < 0.3e6 || p.Y > 4e6 {
			t.Errorf("reconnects %v/min outside plausible band", p.Y)
		}
	}
}

// TestSwitchoverAndFigure6 makes the switchover's two live runs once and
// checks what both results read from them: the poll variant's TAO queries
// and empty polls against the stream variant's, and Fig 6's one shape the
// live stack can show, stream p50 below poll p50 at the switchover's poll
// interval.
func TestSwitchoverAndFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("live-stack experiment; skipped in -short")
	}
	runs := MeasureSwitchover(1)
	r := Switchover(runs)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	// "TAO read queries (poll / stream)" measured is "A / B = Rx".
	m := row(t, r, "TAO read queries (poll / stream)").Measured
	parts := strings.Split(m, "= ")
	if len(parts) != 2 {
		t.Fatalf("measured format: %q", m)
	}
	ratio, err := strconv.ParseFloat(strings.TrimSuffix(parts[1], "x"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 5 {
		t.Errorf("TAO query reduction = %vx, want >=5x (paper: 10x)", ratio)
	}
	empty := parsePct(t, row(t, r, "empty poll fraction").Measured)
	if empty < 60 {
		t.Errorf("empty polls = %v%%, want >=60%% (paper: ~80%%)", empty)
	}

	f := Figure6(runs)
	if f.Err != nil {
		t.Fatal(f.Err)
	}
	poll := parseMillis(t, row(t, f, "poll p50").Measured)
	stream := parseMillis(t, row(t, f, "stream p50").Measured)
	t.Logf("p50 poll %vms, stream %vms; timed %s", poll, stream, row(t, f, "deliveries timed (poll / stream)").Measured)
	if stream >= poll {
		t.Errorf("stream p50 %vms >= poll p50 %vms", stream, poll)
	}
	if len(f.Series["poll"]) != 20 || len(f.Series["stream"]) != 20 {
		t.Errorf("series lengths: poll=%d stream=%d", len(f.Series["poll"]), len(f.Series["stream"]))
	}
}

func TestAblationSubscriptionDedup(t *testing.T) {
	r := AblationSubscriptionDedup(50, 4)
	dedup := row(t, r, "Pylon subscribers (deduped)").Measured
	raw := row(t, r, "Pylon subscribers (per-stream)").Measured
	if dedup != "4" {
		t.Errorf("deduped subscribers = %s, want 4", dedup)
	}
	if raw != "200" {
		t.Errorf("per-stream subscribers = %s, want 200", raw)
	}
}

// TestSwitchoverStreamCountsAddUp checks how the stream variant's live
// counters relate, whatever their values: each publish is one decision per
// open stream, a delivery needs a decision, the blocks deny some pops, every
// privacy check LVC makes at pop time ends in a delivery or a denial, and the
// host's payload cache resolves each comment the viewers received once.
func TestSwitchoverStreamCountsAddUp(t *testing.T) {
	_, lc := runStreams(1)
	t.Logf("%+v", lc)
	if lc.published == 0 || lc.decisions != switchViewers*lc.published {
		t.Errorf("%d decisions for %d publishes, want %d streams x publishes",
			lc.decisions, lc.published, switchViewers)
	}
	if lc.deliveries > lc.decisions {
		t.Errorf("%d deliveries exceed %d decisions", lc.deliveries, lc.decisions)
	}
	if lc.denied == 0 {
		t.Error("no privacy denial, though every viewer blocks a fifth of the commenters")
	}
	if lc.checks != lc.deliveries+lc.denied {
		t.Errorf("%d privacy checks != %d deliveries + %d denials: %d checked pops ended in neither "+
			"(a pop passes the check and then fails to deliver when the payload does not resolve, "+
			"per-stream admission sheds the push (%d sheds) or the session send fails) or a check "+
			"ran outside LVC's pop",
			lc.checks, lc.deliveries, lc.denied, lc.checks-lc.deliveries-lc.denied, lc.sheds)
	}
	if lc.fetched == 0 || lc.resolved != lc.fetched {
		t.Errorf("%d WAS payload resolutions for %d distinct comments received: the host's payload cache "+
			"let a comment's later pops resolve it again", lc.resolved, lc.fetched)
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "x", Title: "T"}
	r.AddRow("a", "1", "2", "n")
	s := r.String()
	if !strings.Contains(s, "=== x: T ===") || !strings.Contains(s, "measured") {
		t.Errorf("render: %q", s)
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment including the live switchover")
	}
	results := All(2)
	if len(results) != 11 {
		t.Fatalf("All returned %d results", len(results))
	}
	ids := map[string]bool{}
	for _, r := range results {
		if len(r.Rows) == 0 {
			t.Errorf("%s has no rows", r.ID)
		}
		ids[r.ID] = true
	}
	for _, want := range []string{"table1", "table2", "table3", "fig6", "fig8", "fig9", "fig10", "switchover", "storm", "geofailover", "durlog"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}
