package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// testSizing is every workload at 1/100 of its frozen segment size.
var testSizing = sizing{segments: 3, div: 100}

func mustScript(t *testing.T, name string, seed int64) *script {
	t.Helper()
	sc, err := buildScript(name, seed, testSizing)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func mustPass(t *testing.T, sc *script, traced bool) *passResult {
	t.Helper()
	r, err := runPass(sc, traced)
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	if r.fail.total() != 0 {
		t.Fatalf("%s: reference check failed: %s", sc.name, r.fail)
	}
	return r
}

// TestWorkloadsPassReferenceCheck runs every workload end to end at 1/100
// size under tier-1, so the benchmark cannot rot.
func TestWorkloadsPassReferenceCheck(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			sc := mustScript(t, name, 7)
			r := mustPass(t, sc, false)
			var want int64
			for _, seg := range sc.segments {
				for _, c := range seg {
					for _, o := range sc.ops[c.from:c.to] {
						want += int64(o.fanout)
					}
				}
			}
			if got := r.deliveries(); got != want || want == 0 {
				t.Errorf("measured deliveries = %d, script expects %d", got, want)
			}
			if r.attempted < want {
				t.Errorf("attempted = %d, below the %d expected deliveries", r.attempted, want)
			}
			for name, v := range endToEnd([]*passResult{r}) {
				if !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}

// TestReferenceCheckCatchesWrongDelivery proves the check is not vacuous:
// a stream whose reference skips one op must flag that op's delivery when
// the cluster makes it anyway.
func TestReferenceCheckCatchesWrongDelivery(t *testing.T) {
	sc := mustScript(t, "hot_fanout", 7)
	const skipped = 5
	expect := slices.Delete(slices.Clone(sc.streams[0].expect), skipped, skipped+1)
	sc.streams[0].expect = expect
	sc.ops[skipped].fanout-- // so the closed loop still completes
	r, err := runPass(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.fail.wrong != 1 || r.fail.total() != 1 {
		t.Fatalf("want exactly one wrong delivery flagged, got: %s", r.fail)
	}
}

// TestSeamWrappersLeaveDeliveriesUnchanged: the traced pass must deliver
// exactly what the untraced pass delivers, and every seam must have
// produced spans.
func TestSeamWrappersLeaveDeliveriesUnchanged(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			sc := mustScript(t, name, 11)
			plain := mustPass(t, sc, false)
			traced := mustPass(t, sc, true)
			if plain.layer.deliveries != traced.layer.deliveries || plain.layer.deliveries == 0 {
				t.Errorf("deliveries: untraced %d, traced %d", plain.layer.deliveries, traced.layer.deliveries)
			}
			if plain.layer.wasPrivacyChecks != traced.layer.wasPrivacyChecks {
				t.Errorf("privacy checks: untraced %d, traced %d", plain.layer.wasPrivacyChecks, traced.layer.wasPrivacyChecks)
			}
			st := traced.trace.spans
			for n, s := range st {
				if s.count == 0 && !(spanName(n) == spanUnsubscribe && name != "focus_churn") {
					t.Errorf("no %s spans recorded", spanNames[n])
				}
			}
			if got, want := st[spanDownstream].count, traced.layer.deliveries; got != want {
				t.Errorf("edge.downstream spans = %d, deliveries = %d", got, want)
			}
			if st[spanMutate].self > st[spanMutate].total || st[spanMutate].self <= 0 {
				t.Errorf("was.mutate self time %d outside (0, total %d]", st[spanMutate].self, st[spanMutate].total)
			}
			if traced.trace.links[linkDevice].bytes == 0 || traced.trace.links[linkRelay].bytes == 0 {
				t.Error("transport wrappers counted no bytes")
			}
			if wire := traced.trace.links[linkCtrl].bytes > 0; wire != sc.wire {
				t.Errorf("control-socket bytes counted = %v on a workload with wire = %v", wire, sc.wire)
			}
		})
	}
}

func TestScriptsAreSeedDetermined(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := mustScript(t, name, 3), mustScript(t, name, 3), mustScript(t, name, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
	hot, wire := mustScript(t, "hot_fanout", 5), mustScript(t, "wire_fanout", 5)
	n := min(len(hot.ops), len(wire.ops))
	if !reflect.DeepEqual(hot.ops[:n], wire.ops[:n]) || !reflect.DeepEqual(hot.streams[0].user, wire.streams[0].user) {
		t.Error("wire_fanout does not replay hot_fanout's inputs")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([...], n=4) for the same data.
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the metric and workload tables the program reports
// from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why differs from the program's", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, program has %v", names, workloadNames)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i] != (metric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEndMetrics)
	same("per_layer", file.PerLayer, perLayerMetrics)
	if file.RunSeconds%segmentSeconds != 0 {
		t.Errorf("run_seconds %d is not a whole number of %d s segments", file.RunSeconds, segmentSeconds)
	}
}
