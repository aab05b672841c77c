package durlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"bladerunner/internal/sim"
)

// TestCursorProperty is the fuzz-ish cursor soundness proof the issue
// asks for: a seeded op stream (contiguous appends, dup replays, gaps,
// clock advances past retention, ring-overflow bursts, and failover-style
// header rewrites clamped by the client rule) runs against a plain map
// mirror, and after every read the two invariants that define the
// subsystem are checked:
//
//  1. gap-free: a successful ReadFrom(c) returns exactly the sequences
//     c.Seq+1 .. tail, each byte-identical to what was appended — never
//     a batch with a hole papered over;
//  2. never fabricate: the returned cursor names the real appended tail,
//     and any cursor the log cannot prove continuous with its window
//     (wrong epoch, pre-retention, post-truncation) fails with
//     ErrCursorExpired rather than being "repaired".
func TestCursorProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if env := os.Getenv("BR_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("BR_CHAOS_SEED %q: %v", env, err)
		}
		seeds = []int64{v}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCursorProperty(t, seed)
		})
	}
}

// logMirror is the oracle a log is held to: every payload ever appended,
// by seq, and the highest seq appended (a poisoned one included).
type logMirror struct {
	payloads map[uint64][]byte
	tail     uint64
}

// appendTo appends seq to l and records it.
func (m *logMirror) appendTo(l *Log, topic string, seq uint64, p []byte) {
	m.tail = seq
	m.payloads[seq] = p
	l.Append(topic, seq, p)
}

// checkRead holds one ReadFrom to the two invariants.
func (m *logMirror) checkRead(t *testing.T, l *Log, topic string, c Cursor, label string) {
	t.Helper()
	out, next, err := l.ReadFrom(topic, c)
	if errors.Is(err, ErrCursorExpired) {
		return // refusing is always sound
	}
	if err != nil {
		t.Fatalf("%s: ReadFrom(%v): %v", label, c, err)
	}
	if c.Seq > m.tail {
		t.Fatalf("%s: ReadFrom(%v) served a cursor beyond the tail %d", label, c, m.tail)
	}
	// Never fabricate: the returned cursor is the real tail.
	if next.Seq != m.tail {
		t.Fatalf("%s: next cursor seq %d, real tail %d", label, next.Seq, m.tail)
	}
	// Gap-free: exactly c.Seq+1 .. tail, byte-identical.
	want := c.Seq + 1
	for _, e := range out {
		if e.Seq != want {
			t.Fatalf("%s: ReadFrom(%v) gap: got seq %d, want %d", label, c, e.Seq, want)
		}
		if !bytes.Equal(e.Payload, m.payloads[e.Seq]) {
			t.Fatalf("%s: seq %d payload corrupted", label, e.Seq)
		}
		want++
	}
	if want != m.tail+1 {
		t.Fatalf("%s: ReadFrom(%v) stopped at %d, tail %d", label, c, want-1, m.tail)
	}
}

func runCursorProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clk := sim.NewManualClock(time.Unix(0, 0))
	l := New(Config{
		Clock:          clk,
		HotBytes:       128,
		SegmentEntries: 8,
		Segments:       3,
		Retention:      time.Minute,
	})
	const topic = "/MB/1"
	l.Open(topic)

	m := &logMirror{payloads: make(map[uint64][]byte)} // every seq ever appended
	appendAt := func(seq uint64) {
		m.appendTo(l, topic, seq, []byte(fmt.Sprintf("payload-%d-%d", seed, seq)))
	}

	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(100); {
		case r < 55: // contiguous append (the common delivery)
			appendAt(m.tail + 1)
		case r < 62: // duplicate replay (a second stream on the topic)
			if m.tail > 0 {
				dup := m.tail - uint64(rng.Intn(int(min(m.tail, 8))))
				l.Append(topic, dup, m.payloads[dup])
			}
		case r < 67: // gap: deliveries the host never saw
			appendAt(m.tail + uint64(2+rng.Intn(10)))
		case r < 75: // clock advance, sometimes past retention
			clk.Advance(time.Duration(rng.Intn(90)) * time.Second)
		case r < 85: // resume from a plausible recent cursor
			epoch, _, _, _ := l.Window(topic)
			back := uint64(rng.Intn(24))
			seq := m.tail
			if back < seq {
				seq -= back
			} else {
				seq = 0
			}
			m.checkRead(t, l, topic, Cursor{Epoch: epoch, Seq: seq}, "recent")
		case r < 92: // failover rewrite: the server-advanced header cursor
			// comes back clamped by the client's applied seq.
			epoch, _, _, _ := l.Window(topic)
			advanced := Cursor{Epoch: epoch, Seq: m.tail + uint64(rng.Intn(5))}
			applied := uint64(0)
			if m.tail > 0 {
				applied = uint64(rng.Intn(int(m.tail + 1)))
			}
			clamped, ok := Parse(Clamp(advanced.String(), applied))
			if !ok {
				t.Fatalf("clamped cursor unparseable")
			}
			if clamped.Seq > applied {
				t.Fatalf("Clamp raised the claim: %v > %d", clamped, applied)
			}
			m.checkRead(t, l, topic, clamped, "failover-clamped")
		default: // adversarial cursor: wrong epoch / ancient / beyond tail
			c := Cursor{Epoch: uint64(rng.Intn(4)), Seq: uint64(rng.Intn(int(m.tail + 10)))}
			m.checkRead(t, l, topic, c, "adversarial")
		}
	}
	m.sweep(t, l, topic)
}

// sweep reads from every cursor position in [tail-64, tail+3] under the
// current epoch: each serves gap-free or expires, and every position beyond
// the tail expires.
func (m *logMirror) sweep(t *testing.T, l *Log, topic string) {
	t.Helper()
	epoch, _, _, _ := l.Window(topic)
	lo := uint64(0)
	if m.tail > 64 {
		lo = m.tail - 64
	}
	for seq := lo; seq <= m.tail+3; seq++ {
		m.checkRead(t, l, topic, Cursor{Epoch: epoch, Seq: seq}, "sweep")
	}
}

// FuzzLogOps decodes its input, two bytes an op, into appends (payload
// lengths 0–255 against a 128-byte slab budget, so the uvarint boundary and
// the oversize poison are both one byte away), duplicates, gaps, clock
// advances, reads from recent and adversarial cursors, and checkpoint →
// recover round trips, and holds the log to TestCursorProperty's two
// invariants and to the ring's contiguity after every op.
func FuzzLogOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		clk := sim.NewManualClock(time.Unix(0, 0))
		cfg := Config{Clock: clk, HotBytes: 128, SegmentEntries: 8, Segments: 3, Retention: time.Minute}
		const topic = "/MB/fuzz"
		l := New(cfg)
		l.Open(topic)
		m := &logMirror{payloads: make(map[uint64][]byte)}
		appendAt := func(seq uint64, n byte) {
			p := make([]byte, n)
			for i := range p {
				p[i] = byte(seq*31) + byte(i)
			}
			m.appendTo(l, topic, seq, p)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			switch ops[i] % 8 {
			case 0, 1, 2:
				appendAt(m.tail+1, arg)
			case 3:
				if m.tail > 0 {
					dup := m.tail - uint64(arg)%min(m.tail, 8)
					l.Append(topic, dup, m.payloads[dup])
				}
			case 4:
				appendAt(m.tail+2+uint64(arg%10), arg)
			case 5:
				clk.Advance(time.Duration(arg) * time.Second)
			case 6:
				epoch, _, _, _ := l.Window(topic)
				c := Cursor{Epoch: epoch, Seq: m.tail + 3 - min(uint64(arg%32), m.tail+3)}
				if arg >= 0xC0 {
					c.Epoch = uint64(arg % 4)
				}
				m.checkRead(t, l, topic, c, "read")
			case 7:
				e1, f1, t1, _ := l.Window(topic)
				l2 := New(cfg)
				if err := l2.Recover(l.Checkpoint()); err != nil {
					t.Fatalf("op %d: Recover: %v", i/2, err)
				}
				if e2, f2, t2, _ := l2.Window(topic); e1 != e2 || f1 != f2 || t1 != t2 {
					t.Fatalf("op %d: recovered window (%d %d %d), want (%d %d %d)", i/2, e2, f2, t2, e1, f1, t1)
				}
				l = l2
			}
			assertRingContiguous(t, l, topic)
		}
		m.sweep(t, l, topic)
	})
}
