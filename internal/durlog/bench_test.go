package durlog

import (
	"bytes"
	"fmt"
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
// delivered delta stays at 0 allocs/op over 2000 appends, the first-lap
// slab doublings included.
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

// readOp returns a catch-up read of a 512-entry window of 96-byte payloads
// that spans all four default slabs, and the log it reads.
func readOp() (*Log, func() []Entry) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(Config{Clock: clk})
	const topic = "/MB/bench"
	l.Open(topic)
	payload := make([]byte, 96)
	for seq := uint64(1); seq <= 512; seq++ {
		l.Append(topic, seq, payload)
	}
	c, _ := l.EarliestCursor(topic)
	return l, func() []Entry {
		out, _, err := l.ReadFrom(topic, c)
		if err != nil || len(out) != 512 {
			panic(fmt.Sprintf("read %d entries: %v", len(out), err))
		}
		return out
	}
}

// BenchmarkDurlogReadFrom sizes the catch-up read cost (control path);
// TestReadFromAllocations gates its allocs column.
func BenchmarkDurlogReadFrom(b *testing.B) {
	_, op := readOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestReadFromAllocations: a catch-up read copies the window out in one
// payload allocation and one exact-size entry slice, however many entries
// it serves, and the batch stays valid across later rotations.
func TestReadFromAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc contract: 100 measured reads")
	}
	l, op := readOp()
	if allocs := testing.AllocsPerRun(100, func() { op() }); allocs > 3 {
		t.Errorf("ReadFrom of 512 entries allocates %v times, want <= 3", allocs)
	}

	batch := op()
	junk := make([]byte, 96)
	for i := range junk {
		junk[i] = 0xDB
	}
	for seq := uint64(513); l.Evictions.Value() < 4; seq++ {
		l.Append("/MB/bench", seq, junk)
	}
	for i, e := range batch {
		if e.Seq != uint64(i+1) || len(e.Payload) != 96 || cap(e.Payload) != 96 || bytes.IndexByte(e.Payload, 0xDB) >= 0 {
			t.Fatalf("entry %d = seq %d, %d bytes (cap %d) after the ring turned over", i, e.Seq, len(e.Payload), cap(e.Payload))
		}
	}
}
