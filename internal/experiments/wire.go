package experiments

import (
	"fmt"
	"testing"

	"bladerunner/internal/bench"
)

// WireBench is one in-process vs over-the-wire pair from the wire
// experiment, in the machine-readable shape brbench records into
// BENCH_10.json.
type WireBench struct {
	Name        string  `json:"name"`
	LocalNsOp   float64 `json:"local_ns_per_op"`
	WireNsOp    float64 `json:"wire_ns_per_op"`
	DeltaNsOp   float64 `json:"delta_ns_per_op"`
	WireAllocs  int64   `json:"wire_allocs_per_op"`
	LocalAllocs int64   `json:"local_allocs_per_op"`
	LocalN      int     `json:"local_n"`
	WireN       int     `json:"wire_n"`
}

// Wire measures what the multi-process deployment pays per operation:
// each hot path runs twice — tiers as function calls, then tiers split
// across real loopback TCP sockets exactly as cmd/brnode splits them —
// and the delta is the wire tax (serialization + syscalls + scheduling).
// The paper does not report this number; the comparison is internal
// (in-process floor vs over-the-wire), which is why every Paper cell
// is "-".
func Wire(seed int64) (Result, []WireBench) {
	_ = seed // the wire paths are not seeded; kept for runner symmetry
	res := Result{ID: "wire", Title: "Over-the-wire tax: in-process vs loopback-TCP tier boundaries"}

	measure := func(fn func(*testing.B)) (float64, int64, int) {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			return 0, 0, 0
		}
		return float64(r.T.Nanoseconds()) / float64(r.N), r.AllocsPerOp(), r.N
	}

	pairs := []struct {
		name        string
		local, wire func(*testing.B)
		note        string
	}{
		{"PylonPublish", bench.PylonPublishLocal, bench.PylonPublishWire,
			"publish ack through one ctrl socket (WAS process -> pylon process), paid once per mutation"},
		{"CtrlCheckVisibility", bench.CtrlCheckVisibilityLocal, bench.CtrlCheckVisibilityWire,
			"privacy check through one ctrl socket (brass process -> WAS process), paid once per delivery"},
		{"EndToEndCommentPush", bench.EndToEndCommentPush, bench.EndToEndCommentPushWire,
			"full comment trip across 4 sockets (brnode topology on loopback)"},
	}
	var rows []WireBench
	for _, p := range pairs {
		localNs, localAllocs, localN := measure(p.local)
		wireNs, wireAllocs, wireN := measure(p.wire)
		if localN == 0 || wireN == 0 {
			res.AddRow(p.name, "-", "bench failed", p.note)
			continue
		}
		rows = append(rows, WireBench{
			Name: p.name, LocalNsOp: localNs, WireNsOp: wireNs,
			DeltaNsOp: wireNs - localNs, LocalAllocs: localAllocs,
			WireAllocs: wireAllocs, LocalN: localN, WireN: wireN,
		})
		res.AddRow(p.name+" in-process", "-", fmt.Sprintf("%.0f ns/op", localNs), p.note)
		res.AddRow(p.name+" loopback-TCP", "-", fmt.Sprintf("%.0f ns/op", wireNs),
			fmt.Sprintf("wire tax %.0f ns/op (%.1fx)", wireNs-localNs, wireNs/localNs))
	}
	return res, rows
}
