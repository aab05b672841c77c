package bladerunner

import (
	"flag"
	"testing"

	"bladerunner/internal/bench"
)

// TestAllocContracts holds the hot paths to the allocation counts they
// were built to: each body is the benchmark of the same name, run for a
// fixed 2000 iterations so one-time warm-up (pool fills, map growth, a
// GC's pool refills) amortizes below one per op and nothing larger can
// hide. The publish bodies run with the overload plane admitting and the
// region plane routing, and with tracing off. The durlog append and
// megadevice apply rows live beside their benchmarks
// (internal/durlog.TestAppendDoesNotAllocate,
// internal/megadevice.TestApplyPayloadDoesNotAllocate).
func TestAllocContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc contracts: 2000 measured iterations per path, and the race detector allocates")
	}
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	if err := benchtime.Set("2000x"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		body  func(*testing.B)
		limit int64
		why   string
	}{
		{"PylonPublish", bench.PylonPublish, 0, "cached fan-out, token-bucket refill and per-link enqueue all run in place"},
		{"HotTopicFanout", bench.HotTopicFanout, 0, "1000 subscribers are served from the subscriber cache"},
		{"BURSTFrameEncode", bench.BURSTFrameEncode, 0, "header and payload go into one pooled buffer"},
		{"BURSTFrameDecode", bench.BURSTFrameDecode, 2, "the frame buffer and the []Delta that aliases it"},
		{"PylonPublishWire", bench.PylonPublishWire, 4, "the topic string and the one-byte result, plus pool refills after a GC"},
		{"CtrlCheckVisibility", bench.CtrlCheckVisibilityWire, 2, "params in a pooled buffer, event shared through the memo; room for pool refills only"},
	} {
		res := testing.Benchmark(c.body)
		if res.N != 2000 {
			t.Errorf("%s: ran %d iterations, want 2000 (a failed body reports 0)", c.name, res.N)
			continue
		}
		if got := res.AllocsPerOp(); got > c.limit {
			t.Errorf("%s: %d allocs/op, contract is <= %d (%s)", c.name, got, c.limit, c.why)
		}
	}
}
