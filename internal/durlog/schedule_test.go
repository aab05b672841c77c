package durlog

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"bladerunner/internal/sim"
)

// TestRingScheduleIsUnchanged pins the ring's schedule — every rotation,
// eviction, expiry, gap reset, oversize poison and window — to the one the
// fixed-size slabs produced. Each seeded stream mixes contiguous appends
// (payload lengths 0, 1, 126–129 around the uvarint boundary, exactly
// HotBytes and HotBytes+1, and short random ones), duplicates, gaps, clock
// jumps past Retention, reads and checkpoint→recover round trips, and folds
// the counters, the window and each read's size after every step into an
// FNV-64a digest; the ring's contiguity is asserted after every step too.
//
// The digests were recorded at commit 89c8843, whose slabs were fixed
// HotBytes buffers with separate offset and seq arrays, before the packed
// layout replaced them. A changed digest is a changed schedule.
func TestRingScheduleIsUnchanged(t *testing.T) {
	streams := []struct {
		cfg    Config
		seed   int64
		digest uint64
	}{
		{Config{HotBytes: 256, SegmentEntries: 8, Segments: 3, Retention: time.Minute}, 1, 0x4918eaa7b3572b42},
		{Config{HotBytes: 256, SegmentEntries: 8, Segments: 3, Retention: time.Minute}, 2, 0x52e7cbb7820e9e9d},
		{Config{HotBytes: 64, SegmentEntries: 4, Segments: 3, Retention: time.Minute}, 1, 0xc84d945d7d01a2d1},
		{Config{HotBytes: 1024, SegmentEntries: 16, Segments: 2, Retention: -1}, 1, 0x520bd6f774c5b51},
		{Config{HotBytes: 300, SegmentEntries: 64, Segments: 4, Retention: 30 * time.Second}, 3, 0x6f831d24e587acf6},
		{Config{}, 1, 0xa207d87649a56332}, // the defaults: 16 KiB, 256 entries, 4 slabs, 10 minutes
	}
	for _, s := range streams {
		t.Run(fmt.Sprintf("%d-%d-%d-%v/seed=%d", s.cfg.HotBytes, s.cfg.SegmentEntries, s.cfg.Segments, s.cfg.Retention, s.seed), func(t *testing.T) {
			if got := runSchedule(t, s.cfg, s.seed); got != s.digest {
				t.Errorf("schedule digest %#x, want %#x", got, s.digest)
			}
		})
	}
}

func runSchedule(t *testing.T, cfg Config, seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	clk := sim.NewManualClock(time.Unix(0, 0))
	cfg.Clock = clk
	full := cfg.withDefaults()
	const topic = "/MB/schedule"
	l := New(cfg)
	l.Open(topic)

	lengths := []int{0, 1, 126, 127, 128, 129, full.HotBytes, full.HotBytes + 1}
	body := make([]byte, max(129, full.HotBytes+1))
	var tail uint64
	appendAt := func(seq uint64) {
		n := rng.Intn(48)
		if rng.Intn(2) == 0 {
			n = lengths[rng.Intn(len(lengths))]
		}
		for i := range body[:n] {
			body[i] = byte(seq) + byte(i)
		}
		l.Append(topic, seq, body[:n])
	}

	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	counters := func(l *Log) [7]int64 {
		return [7]int64{
			l.Rotations.Value(), l.Evictions.Value(), l.Expirations.Value(), l.GapResets.Value(),
			l.Oversized.Value(), l.Dups.Value(), l.Appends.Value(),
		}
	}
	var crashed [7]int64 // the counters of every incarnation a crash replaced
	for step := 0; step < 3000; step++ {
		served := uint64(0) // entries a read served, plus one; 0 when no read ran
		switch r := rng.Intn(1000); {
		case r < 600: // contiguous append
			tail++
			appendAt(tail)
		case r < 680: // duplicate
			if tail > 0 {
				appendAt(tail - uint64(rng.Intn(int(min(tail, 8)))))
			}
		case r < 730: // gap
			tail += uint64(2 + rng.Intn(10))
			appendAt(tail)
		case r < 830: // clock: a small step, or a jump past retention
			d := time.Duration(rng.Intn(20)) * time.Second
			if rng.Intn(6) == 0 && full.Retention > 0 {
				d += full.Retention
			}
			clk.Advance(d)
		case r < 997: // a read; it expires stale slabs first, so it may refuse
			c, _ := l.EarliestCursor(topic)
			if out, _, err := l.ReadFrom(topic, c); err == nil {
				served = uint64(len(out)) + 1
			}
		default: // crash: the replacement replays the checkpoint
			l2 := New(cfg)
			if err := l2.Recover(l.Checkpoint()); err != nil {
				t.Fatalf("step %d: Recover: %v", step, err)
			}
			for i, c := range counters(l) {
				crashed[i] += c
			}
			l = l2
		}
		for _, c := range counters(l) {
			put(uint64(c))
		}
		epoch, floor, wtail, _ := l.Window(topic)
		put(epoch)
		put(floor)
		put(wtail)
		put(served)
		assertRingContiguous(t, l, topic)
	}
	total := counters(l)
	for i := range total {
		total[i] += crashed[i]
	}
	t.Logf("rotations %d evictions %d expirations %d gap resets %d oversized %d dups %d appends %d", total[0], total[1], total[2], total[3], total[4], total[5], total[6])
	return h.Sum64()
}
