package megadevice

import (
	"testing"

	"bladerunner/internal/burst"
)

// applyPayloadOp returns one iteration of the per-delta fan-in with a probe
// armed (the worst case: the lock, the Recovery step, seq compare + store per
// stream, counter adds, probe claim, histogram observation) over a freshly attached 64-device
// fleet whose latency histogram has seen nothing yet.
func applyPayloadOp(tb testing.TB) func() {
	f, engine := virtualFleet(tb, 64, 1)
	f.ConnectAll(0)
	engine.Run()
	f.mu.Lock()
	tr := f.trunkIDs[0]
	f.mu.Unlock()
	ts := tr.lookupSub(0)
	if ts == nil || len(ts.streams) != 64 {
		tb.Fatal("benchmark fleet did not attach")
	}
	d := burst.PayloadDelta(0, nil)
	return func() {
		d.Seq++
		f.ProbeArm(0, 1)
		f.apply(ts, ts.sid, &d)
	}
}

func BenchmarkApplyPayload(b *testing.B) {
	op := applyPayloadOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestApplyPayloadDoesNotAllocate is the megadevice row of the alloc
// contracts (the root package's TestAllocContracts holds the rest): the
// per-delta apply path stays at 0 allocs/op from the first delta on.
func TestApplyPayloadDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc contract: 2000 measured iterations")
	}
	if allocs := testing.AllocsPerRun(2000, applyPayloadOp(t)); allocs != 0 {
		t.Errorf("apply path allocates %v allocs/op, want 0", allocs)
	}
}
