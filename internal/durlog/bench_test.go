package durlog

import (
	"testing"
	"time"

	"bladerunner/internal/sim"
)

// appendOp returns one steady-state append and the log it lands in: 256-
// entry slabs in a ring of four, so a run of a few thousand cycles the ring
// (slab writes, rotations, structural evictions, retention checks).
func appendOp() (*Log, func()) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(Config{
		Clock:          clk,
		HotBytes:       16 << 10,
		SegmentEntries: 256,
		Segments:       4,
		Retention:      time.Minute,
	})
	const topic = "/MB/bench"
	l.Open(topic)
	payload := make([]byte, 96)
	for i := range payload {
		payload[i] = byte(i)
	}
	seq := uint64(0)
	return l, func() {
		seq++
		l.Append(topic, seq, payload)
	}
}

// BenchmarkDurlogAppend is the runtime twin of the //brlint:hotpath
// annotation on Append; TestAppendDoesNotAllocate gates its allocs column.
func BenchmarkDurlogAppend(b *testing.B) {
	l, op := appendOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if got := l.Appends.Value(); got != int64(b.N) {
		b.Fatalf("appended %d, want %d", got, b.N)
	}
}

// TestAppendDoesNotAllocate is the durlog row of the alloc contracts (the
// root package's TestAllocContracts holds the rest): one append per
// delivered delta stays at 0 allocs/op over 2000 appends, the three
// first-lap slab allocations included.
func TestAppendDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc contract: 2000 measured iterations")
	}
	l, op := appendOp()
	if allocs := testing.AllocsPerRun(2000, op); allocs != 0 {
		t.Errorf("durlog.Append allocates %v allocs/op on the publish path, want 0", allocs)
	}
	if l.Rotations.Value() < 4 {
		t.Errorf("only %d rotations: the run never cycled the ring", l.Rotations.Value())
	}
}

// BenchmarkDurlogReadFrom sizes the catch-up read cost (control path —
// allocations expected and acceptable).
func BenchmarkDurlogReadFrom(b *testing.B) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(Config{Clock: clk})
	const topic = "/MB/bench"
	l.Open(topic)
	payload := make([]byte, 96)
	for seq := uint64(1); seq <= 512; seq++ {
		l.Append(topic, seq, payload)
	}
	c, _ := l.EarliestCursor(topic)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.ReadFrom(topic, c); err != nil {
			b.Fatal(err)
		}
	}
}
