package durlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"testing"
	"time"

	"bladerunner/internal/sim"
)

func testConfig(clk sim.Clock) Config {
	return Config{
		Clock:          clk,
		HotBytes:       64,
		SegmentEntries: 4,
		Segments:       3,
		Retention:      time.Minute,
	}
}

func payload(seq uint64) []byte { return []byte(fmt.Sprintf("m-%d", seq)) }

func mustRead(t *testing.T, l *Log, topic string, c Cursor) ([]Entry, Cursor) {
	t.Helper()
	out, next, err := l.ReadFrom(topic, c)
	if err != nil {
		t.Fatalf("ReadFrom(%v): %v", c, err)
	}
	return out, next
}

func TestAppendAndReadBasic(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(testConfig(clk))
	l.Open("/T/1")

	if l.Append("/T/unopened", 1, payload(1)) {
		t.Fatal("append on unopened topic succeeded")
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if !l.Append("/T/1", seq, payload(seq)) {
			t.Fatalf("append %d failed", seq)
		}
	}
	if l.Append("/T/1", 2, payload(2)) {
		t.Fatal("duplicate append succeeded")
	}
	if got := l.Dups.Value(); got != 1 {
		t.Fatalf("Dups = %d, want 1", got)
	}

	out, next := mustRead(t, l, "/T/1", Cursor{Epoch: 1, Seq: 0})
	if len(out) != 3 {
		t.Fatalf("got %d entries, want 3", len(out))
	}
	for i, e := range out {
		if e.Seq != uint64(i+1) || !bytes.Equal(e.Payload, payload(e.Seq)) {
			t.Fatalf("entry %d = {%d %q}", i, e.Seq, e.Payload)
		}
	}
	if next != (Cursor{Epoch: 1, Seq: 3}) {
		t.Fatalf("next cursor = %v", next)
	}

	// Caught-up cursor: empty batch, same tail.
	out, next = mustRead(t, l, "/T/1", next)
	if len(out) != 0 || next.Seq != 3 {
		t.Fatalf("caught-up read: %d entries, next %v", len(out), next)
	}

	// Unknown topic.
	if _, _, err := l.ReadFrom("/T/none", Cursor{Epoch: 1}); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("unknown topic err = %v", err)
	}
	// Wrong epoch.
	if _, _, err := l.ReadFrom("/T/1", Cursor{Epoch: 9, Seq: 1}); !errors.Is(err, ErrCursorExpired) {
		t.Fatalf("wrong-epoch err = %v", err)
	}
	// Beyond the tail (e.g. minted before a crash truncation).
	if _, _, err := l.ReadFrom("/T/1", Cursor{Epoch: 1, Seq: 99}); !errors.Is(err, ErrCursorExpired) {
		t.Fatalf("beyond-tail err = %v", err)
	}
}

func TestRotationAndStructuralEviction(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(testConfig(clk)) // 3 slabs x 4 entries
	l.Open("/T/1")

	// 12 entries fill the ring exactly; the 13th evicts the eldest slab.
	for seq := uint64(1); seq <= 13; seq++ {
		if !l.Append("/T/1", seq, payload(seq)) {
			t.Fatalf("append %d failed", seq)
		}
	}
	if l.Evictions.Value() == 0 {
		t.Fatal("no structural eviction after overfilling the ring")
	}
	_, floor, tail, _ := l.Window("/T/1")
	if tail != 13 {
		t.Fatalf("tail = %d, want 13", tail)
	}
	if floor != 5 {
		t.Fatalf("floor = %d, want 5 (eldest slab 1..4 evicted)", floor)
	}

	// A cursor inside the window reads gap-free to the tail.
	out, next := mustRead(t, l, "/T/1", Cursor{Epoch: 1, Seq: 6})
	want := uint64(7)
	for _, e := range out {
		if e.Seq != want {
			t.Fatalf("gap: got seq %d, want %d", e.Seq, want)
		}
		want++
	}
	if next.Seq != 13 || want != 14 {
		t.Fatalf("read ended at %d / next %v", want-1, next)
	}

	// A cursor below floor-1 expired.
	if _, _, err := l.ReadFrom("/T/1", Cursor{Epoch: 1, Seq: 3}); !errors.Is(err, ErrCursorExpired) {
		t.Fatalf("pre-floor cursor err = %v", err)
	}
	// floor-1 is the earliest servable position.
	ec, ok := l.EarliestCursor("/T/1")
	if !ok || ec.Seq != floor-1 {
		t.Fatalf("EarliestCursor = %v, %v", ec, ok)
	}
	if out, _ := mustRead(t, l, "/T/1", ec); len(out) == 0 || out[0].Seq != floor {
		t.Fatalf("earliest read starts at %d entries", len(out))
	}
}

func TestRetentionExpiry(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(testConfig(clk))
	l.Open("/T/1")

	for seq := uint64(1); seq <= 5; seq++ { // slab 1..4 sealed, 5 hot
		l.Append("/T/1", seq, payload(seq))
	}
	clk.Advance(2 * time.Minute) // past the 1m retention
	// The next append expires the sealed slab before writing.
	l.Append("/T/1", 6, payload(6))
	if l.Expirations.Value() == 0 {
		t.Fatal("no retention expiry")
	}
	if _, _, err := l.ReadFrom("/T/1", Cursor{Epoch: 1, Seq: 2}); !errors.Is(err, ErrCursorExpired) {
		t.Fatalf("expired-window cursor err = %v", err)
	}
	out, _ := mustRead(t, l, "/T/1", Cursor{Epoch: 1, Seq: 4})
	if len(out) != 2 || out[0].Seq != 5 || out[1].Seq != 6 {
		t.Fatalf("post-expiry window = %v", out)
	}
}

func TestGapResetBumpsEpoch(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(testConfig(clk))
	l.Open("/T/1")
	l.Append("/T/1", 1, payload(1))
	l.Append("/T/1", 2, payload(2))

	// Sequence 3..9 never appended: the log must refuse to bridge.
	l.Append("/T/1", 10, payload(10))
	if l.GapResets.Value() != 1 {
		t.Fatalf("GapResets = %d", l.GapResets.Value())
	}
	if _, _, err := l.ReadFrom("/T/1", Cursor{Epoch: 1, Seq: 2}); !errors.Is(err, ErrCursorExpired) {
		t.Fatalf("pre-gap cursor err = %v", err)
	}
	epoch, floor, tail, _ := l.Window("/T/1")
	if epoch != 2 || floor != 10 || tail != 10 {
		t.Fatalf("window after gap = epoch %d floor %d tail %d", epoch, floor, tail)
	}
	out, next := mustRead(t, l, "/T/1", Cursor{Epoch: 2, Seq: 9})
	if len(out) != 1 || out[0].Seq != 10 || next.Seq != 10 {
		t.Fatalf("post-gap read = %v next %v", out, next)
	}
}

func TestMidStreamFirstAppend(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(testConfig(clk))
	l.Open("/T/1")
	// A host that opens the topic mid-stream starts at the live sequence.
	l.Append("/T/1", 500, payload(500))
	l.Append("/T/1", 501, payload(501))
	_, floor, tail, _ := l.Window("/T/1")
	if floor != 500 || tail != 501 {
		t.Fatalf("window = floor %d tail %d", floor, tail)
	}
}

// Epoch 0 is the cursor of a host that keeps no log: every topic starts at
// epoch 1, so an opened topic refuses epoch 0 at every seq — empty, mid-window
// and at its tail — and the serving BRASS falls back to the backend.
func TestEpochZeroIsNeverServed(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(testConfig(clk))
	l.Open("/T/1")
	refused := func(when string) {
		t.Helper()
		_, _, tail, _ := l.Window("/T/1")
		for seq := uint64(0); seq <= tail+1; seq++ {
			if _, _, err := l.ReadFrom("/T/1", Cursor{Epoch: 0, Seq: seq}); !errors.Is(err, ErrCursorExpired) {
				t.Fatalf("%s: ReadFrom(0.%d) = %v, want ErrCursorExpired", when, seq, err)
			}
		}
		mustRead(t, l, "/T/1", Cursor{Epoch: 1, Seq: tail}) // the topic's own epoch is served
	}
	refused("empty")
	for seq := uint64(1); seq <= 6; seq++ {
		l.Append("/T/1", seq, payload(seq))
		refused(fmt.Sprintf("tail %d", seq))
	}
}

func TestOversizedPayloadPoisonsWindow(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(testConfig(clk))
	l.Open("/T/1")
	l.Append("/T/1", 1, payload(1))
	big := make([]byte, 1024) // > HotBytes 64
	if l.Append("/T/1", 2, big) {
		t.Fatal("oversized append succeeded")
	}
	if l.Oversized.Value() != 1 {
		t.Fatalf("Oversized = %d", l.Oversized.Value())
	}
	// Neither the old window nor the poisoned seq is servable...
	if _, _, err := l.ReadFrom("/T/1", Cursor{Epoch: 1, Seq: 1}); !errors.Is(err, ErrCursorExpired) {
		t.Fatalf("post-poison cursor err = %v", err)
	}
	// ...but the stream recovers once delivery continues.
	l.Append("/T/1", 3, payload(3))
	epoch, _, _, _ := l.Window("/T/1")
	out, _ := mustRead(t, l, "/T/1", Cursor{Epoch: epoch, Seq: 2})
	if len(out) != 1 || out[0].Seq != 3 {
		t.Fatalf("post-poison recovery read = %v", out)
	}
}

func TestCursorParseAndClamp(t *testing.T) {
	cases := []struct {
		in string
		ok bool
		c  Cursor
	}{
		{"1.5", true, Cursor{1, 5}},
		{"0.0", true, Cursor{0, 0}},
		{"18446744073709551615.1", true, Cursor{^uint64(0), 1}},
		{SentinelEarliest, false, Cursor{}},
		{SentinelLive, false, Cursor{}},
		{"", false, Cursor{}},
		{"5", false, Cursor{}},
		{".5", false, Cursor{}},
		{"5.", false, Cursor{}},
		{"a.b", false, Cursor{}},
		{"1.2.3", false, Cursor{}},
		{"-1.2", false, Cursor{}},
	}
	for _, tc := range cases {
		c, ok := Parse(tc.in)
		if ok != tc.ok || c != tc.c {
			t.Errorf("Parse(%q) = %v, %v; want %v, %v", tc.in, c, ok, tc.c, tc.ok)
		}
		if tc.ok {
			if rt := c.String(); rt != tc.in {
				t.Errorf("round trip %q -> %q", tc.in, rt)
			}
		}
	}

	// Clamp lowers over-claims, passes everything else through.
	if got := Clamp("1.9", 5); got != "1.5" {
		t.Errorf("Clamp(1.9, 5) = %q", got)
	}
	if got := Clamp("1.3", 5); got != "1.3" {
		t.Errorf("Clamp(1.3, 5) = %q", got)
	}
	if got := Clamp(SentinelEarliest, 5); got != SentinelEarliest {
		t.Errorf("Clamp(earliest, 5) = %q", got)
	}
	if got := Clamp("junk", 5); got != "junk" {
		t.Errorf("Clamp(junk, 5) = %q", got)
	}
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(testConfig(clk))
	l.Open("/T/1")
	l.Open("/T/2")
	for seq := uint64(1); seq <= 7; seq++ {
		l.Append("/T/1", seq, payload(seq))
	}
	l.Append("/T/2", 100, payload(100)) // mid-stream topic, epoch 2

	snap := l.Checkpoint()

	l2 := New(testConfig(clk))
	if err := l2.Recover(snap); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for _, topic := range []string{"/T/1", "/T/2"} {
		e1, f1, t1, _ := l.Window(topic)
		e2, f2, t2, _ := l2.Window(topic)
		if e1 != e2 || f1 != f2 || t1 != t2 {
			t.Fatalf("%s: window mismatch (%d %d %d) vs (%d %d %d)", topic, e1, f1, t1, e2, f2, t2)
		}
		ec, _ := l.EarliestCursor(topic)
		o1, n1 := mustRead(t, l, topic, ec)
		o2, n2 := mustRead(t, l2, topic, ec)
		if len(o1) != len(o2) || n1 != n2 {
			t.Fatalf("%s: recovered read mismatch", topic)
		}
		for i := range o1 {
			if o1[i].Seq != o2[i].Seq || !bytes.Equal(o1[i].Payload, o2[i].Payload) {
				t.Fatalf("%s: entry %d mismatch", topic, i)
			}
		}
	}
	if err := l2.Recover(snap); err == nil {
		t.Fatal("Recover on a populated log succeeded")
	}
}

// allocatedSlabs counts the slabs of topic's ring that own their arrays.
func allocatedSlabs(l *Log, topic string) int {
	t := l.lookup(topic)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := range t.segs {
		if t.segs[i].buf != nil {
			n++
		}
	}
	return n
}

// assertRingContiguous checks the invariant that lets a slab store no seqs:
// oldest slab first, every non-empty slab starts where the one before it
// ended — the first at the floor, the last ending at the tail — and its
// bytes parse as exactly its entries, whose payloads add up to its budget
// use.
func assertRingContiguous(t *testing.T, l *Log, topic string) {
	t.Helper()
	tl := l.lookup(topic)
	tl.mu.Lock()
	defer tl.mu.Unlock()
	want := tl.floor
	for i := 1; i <= len(tl.segs); i++ {
		seg := &tl.segs[(tl.active+i)%len(tl.segs)]
		if seg.n > 0 && seg.first != want {
			t.Fatalf("slab %d starts at seq %d, want %d (window [%d,%d])", i, seg.first, want, tl.floor, tl.tail)
		}
		off, used := 0, 0
		for j := 0; j < seg.n && off < len(seg.buf); j++ {
			n, k := binary.Uvarint(seg.buf[off:])
			off += k + int(n)
			used += int(n)
		}
		if off != len(seg.buf) || used != seg.used {
			t.Fatalf("slab %d: %d entries parse to %d of %d bytes, %d of %d payload bytes", i, seg.n, off, len(seg.buf), used, seg.used)
		}
		want += uint64(seg.n)
	}
	if want != tl.tail+1 {
		t.Fatalf("slabs end at seq %d, tail %d", want-1, tl.tail)
	}
}

// TestTopicHoldsWhatItRetains: Open allocates no slab; while the ring makes
// its first lap no slab holds more than twice the bytes it packs (a slab's
// first size is exactly its first entry); after that lap appends of a
// repeating size allocate nothing.
func TestTopicHoldsWhatItRetains(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(Config{Clock: clk, Retention: -1}) // 16 KiB, 256 entries, 4 slabs
	for i := 0; i < 100; i++ {
		l.Open(fmt.Sprintf("/MB/%d", i))
	}
	for i := 0; i < 100; i++ {
		tl := l.lookup(fmt.Sprintf("/MB/%d", i))
		for j := range tl.segs {
			if tl.segs[j].buf != nil {
				t.Fatalf("Open allocated slab %d of /MB/%d", j, i)
			}
		}
	}

	// A mailbox: payloads of 0 to 299 bytes, through the first lap.
	const topic = "/MB/0"
	rng := rand.New(rand.NewSource(1))
	tl := l.lookup(topic)
	for seq := uint64(1); l.Rotations.Value() < int64(l.cfg.Segments); seq++ {
		l.Append(topic, seq, make([]byte, rng.Intn(300)))
		held, capacity := 0, 0
		tl.mu.Lock()
		for j := range tl.segs {
			held += len(tl.segs[j].buf)
			capacity += cap(tl.segs[j].buf)
		}
		tl.mu.Unlock()
		if capacity > 2*held {
			t.Fatalf("after %d appends the topic holds %d packed bytes in %d of capacity", seq, held, capacity)
		}
		assertRingContiguous(t, l, topic)
	}

	if testing.Short() {
		t.Skip("alloc contract: 2000 measured appends")
	}
	l2, op := appendOp()
	for l2.Rotations.Value() < int64(l2.cfg.Segments) {
		op()
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2000; i++ {
			op()
		}
	}); allocs != 0 {
		t.Errorf("2000 appends after the first lap allocated %v times, want 0", allocs)
	}
}

// assertGapFreeWindow reads topic's whole retained window and checks it is
// exactly floor..tail.
func assertGapFreeWindow(t *testing.T, l *Log, topic string) {
	t.Helper()
	_, floor, tail, _ := l.Window(topic)
	ec, _ := l.EarliestCursor(topic)
	out, next := mustRead(t, l, topic, ec)
	if next.Seq != tail || uint64(len(out)) != tail+1-floor {
		t.Fatalf("window [%d,%d] served %d entries ending at %d", floor, tail, len(out), next.Seq)
	}
	for i, e := range out {
		if e.Seq != floor+uint64(i) || !bytes.Equal(e.Payload, payload(e.Seq)) {
			t.Fatalf("entry %d = {%d %q}, want seq %d", i, e.Seq, e.Payload, floor+uint64(i))
		}
	}
}

// TestSlabsAllocateOnFirstRotation: a topic pays for a slab the first time
// rotation reaches it, and the lazily built ring serves the same gap-free
// window as a preallocated one — through a full lap and a crash replay.
func TestSlabsAllocateOnFirstRotation(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	cfg := testConfig(clk) // 3 slabs x 4 entries
	l := New(cfg)
	l.Open("/T/1")
	l.Append("/T/1", 1, payload(1))
	if got := allocatedSlabs(l, "/T/1"); got != 1 {
		t.Fatalf("a topic holding one entry owns %d slabs, want 1", got)
	}

	seq := uint64(1)
	for l.Rotations.Value() < int64(cfg.Segments)+1 {
		seq++
		if !l.Append("/T/1", seq, payload(seq)) {
			t.Fatalf("append %d failed", seq)
		}
		assertGapFreeWindow(t, l, "/T/1")
		if got, want := allocatedSlabs(l, "/T/1"), min(int(l.Rotations.Value())+1, cfg.Segments); got != want {
			t.Fatalf("after %d rotations the ring owns %d slabs, want %d", l.Rotations.Value(), got, want)
		}
	}
	if l.Evictions.Value() == 0 {
		t.Fatal("a full lap plus one rotation evicted nothing")
	}

	// Crash: the replacement replays the checkpoint into a fresh lazy ring,
	// then keeps appending past it.
	l2 := New(cfg)
	if err := l2.Recover(l.Checkpoint()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	e1, f1, t1, _ := l.Window("/T/1")
	if e2, f2, t2, _ := l2.Window("/T/1"); e1 != e2 || f1 != f2 || t1 != t2 {
		t.Fatalf("recovered window (%d %d %d), want (%d %d %d)", e2, f2, t2, e1, f1, t1)
	}
	assertGapFreeWindow(t, l2, "/T/1")
	for i := 0; i < 2*cfg.Segments*cfg.SegmentEntries; i++ {
		seq++
		l2.Append("/T/1", seq, payload(seq))
		assertGapFreeWindow(t, l2, "/T/1")
	}
}

// Every accepted cursor is digits.digits; every digits.digits short enough
// to fit a uint64 without looking (19 digits) is accepted.
var (
	digitsDotDigits  = regexp.MustCompile(`^[0-9]+\.[0-9]+$`)
	wellFormedCursor = regexp.MustCompile(`^[0-9]{1,19}\.[0-9]{1,19}$`)
)

// FuzzParseCursor: cursor strings arrive from devices, so Parse and Clamp
// see arbitrary bytes. Neither may panic; a parsed cursor survives its own
// wire form; anything not digits.digits — the sentinels among the seeds
// included — is refused; Clamp never raises a seq and never touches what it
// cannot parse.
func FuzzParseCursor(f *testing.F) {
	for _, s := range []string{
		"1.5", "0.0", "18446744073709551615.1", "1.18446744073709551616", "007.08",
		SentinelEarliest, SentinelLive, "", "5", ".5", "5.", "a.b", "1.2.3", "-1.2", "+1.2", "1_0.2", "1. 2", "1.2\n",
		"0.18446744073709551615",
	} {
		f.Add(s, uint64(5))
	}
	f.Fuzz(func(t *testing.T, s string, maxSeq uint64) {
		c, ok := Parse(s)
		if ok {
			if rt, rtOK := Parse(c.String()); !rtOK || rt != c {
				t.Fatalf("Parse(%q) = %v but Parse(%q) = %v, %v", s, c, c.String(), rt, rtOK)
			}
		}
		if ok && !digitsDotDigits.MatchString(s) {
			t.Fatalf("Parse accepted malformed %q as %v", s, c)
		}
		if !ok && wellFormedCursor.MatchString(s) {
			t.Fatalf("Parse refused well-formed %q", s)
		}

		out := Clamp(s, maxSeq)
		if !ok {
			if out != s {
				t.Fatalf("Clamp rewrote unparseable %q to %q", s, out)
			}
			return
		}
		got, gotOK := Parse(out)
		if !gotOK || got.Epoch != c.Epoch || got.Seq != min(c.Seq, maxSeq) {
			t.Fatalf("Clamp(%q, %d) = %q, want epoch %d seq %d", s, maxSeq, out, c.Epoch, min(c.Seq, maxSeq))
		}
	})
}
