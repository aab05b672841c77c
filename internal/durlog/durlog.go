// Package durlog is the durable per-topic sequenced log backing
// cursor-based resume: an in-memory hot segment per topic with a bounded
// byte budget, rotation into a fixed ring of immutable cold segments, and
// time-based retention, all driven by an injected sim.Clock.
//
// The contract mirrors the durable-streams design the paper's successors
// converged on (SNIPPETS.md §3, MigratoryData in PAPERS.md): the server
// ACCEPTS cursors and serves a gap-free batch from the retained window,
// but NEVER FABRICATES one — a cursor outside the window (predates
// retention, postdates a crash-truncated tail, or crosses a continuity
// epoch) returns ErrCursorExpired and the serving BRASS falls back to the
// application's backend. Appends are the delivery hot path and stay
// allocation-free in steady state: a slab is one byte array, sized by its
// first append and grown on the ring's first lap in the steps append takes,
// one allocator size class each — Open allocates none — then recycled in
// place, capacity kept, by rotation, retention expiry, and gap resets. The
// budgets stay payload bytes and entries.
package durlog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
)

// ErrCursorExpired reports a cursor outside the retained window. The
// caller must fall back to its backend — the log will not guess.
var ErrCursorExpired = errors.New("durlog: cursor outside retained window")

// ErrUnknownTopic reports a read on a topic never opened on this log.
var ErrUnknownTopic = errors.New("durlog: topic not opened")

// Sentinel cursor strings a server accepts as INPUT only: they name a
// position ("replay everything retained" / "skip the backlog") rather
// than claim delivered state, so serving them never fabricates anything.
// The log never emits them.
const (
	SentinelEarliest = "earliest"
	SentinelLive     = "live"
)

// Cursor names a position in one topic's sequence space. Epoch is the
// topic's continuity incarnation: it bumps whenever the log can no longer
// vouch that its retained window is continuous with cursors minted
// earlier (a gap reset after missed appends, an oversized-payload poison).
// Seq is the highest sequence the holder has applied; a resume serves
// strictly greater sequences.
type Cursor struct {
	Epoch uint64
	Seq   uint64
}

// String renders the wire form "epoch.seq" carried in burst.HdrCursor.
func (c Cursor) String() string { return string(c.AppendTo(make([]byte, 0, 41))) }

// AppendTo appends the wire form to b.
func (c Cursor) AppendTo(b []byte) []byte {
	return strconv.AppendUint(append(strconv.AppendUint(b, c.Epoch, 10), '.'), c.Seq, 10)
}

// Parse decodes the wire form. Sentinels and malformed strings return
// ok=false — they are positions for the server to resolve, not cursors.
func Parse(s string) (Cursor, bool) {
	dot := strings.IndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return Cursor{}, false
	}
	epoch, err := strconv.ParseUint(s[:dot], 10, 64)
	if err != nil {
		return Cursor{}, false
	}
	seq, err := strconv.ParseUint(s[dot+1:], 10, 64)
	if err != nil {
		return Cursor{}, false
	}
	return Cursor{Epoch: epoch, Seq: seq}, true
}

// Clamp lowers a cursor string's seq to maxSeq when it claims more than
// the holder actually applied. Rewrites advance the server's view of the
// stored cursor optimistically (before the client has applied, or for
// deltas admission shed); the client clamps with its ground truth before
// presenting the cursor, so a resume can under-claim (harmless overlap,
// deduplicated by seq) but never over-claim (a fabricated gap).
// Sentinels and malformed strings pass through unchanged.
func Clamp(s string, maxSeq uint64) string {
	c, ok := Parse(s)
	if !ok || c.Seq <= maxSeq {
		return s
	}
	c.Seq = maxSeq
	return c.String()
}

// Entry is one retained payload.
type Entry struct {
	Seq     uint64 `json:"seq"`
	Payload []byte `json:"payload"`
}

// RotatePhase identifies where inside a rotation a CrashHook fires.
type RotatePhase uint8

// Rotation phases, in order: the hot slab is sealed, then the eldest cold
// slab is recycled into the new hot slab.
const (
	PhaseSealed RotatePhase = iota
	PhaseRecycled
)

// Config parameterizes a Log. The zero value is usable: every field
// defaults in New.
type Config struct {
	// Clock supplies retention timestamps (default sim.RealClock{}).
	Clock sim.Clock
	// HotBytes is the per-segment payload byte budget (default 16 KiB).
	HotBytes int
	// SegmentEntries is the per-segment entry slot count (default 256).
	SegmentEntries int
	// Segments is the per-topic slab ring size: one hot segment plus
	// Segments-1 immutable cold segments (default 4, minimum 2).
	Segments int
	// Retention bounds how long a sealed cold segment stays readable
	// (default 10 minutes; negative keeps segments until the ring
	// structurally recycles them).
	Retention time.Duration
	// CrashHook, when set, fires inside rotation at each RotatePhase —
	// test instrumentation for crash-mid-rotation recovery. It runs
	// under the topic lock and may panic to simulate the crash. Nil in
	// production.
	CrashHook func(topic string, phase RotatePhase)
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = sim.RealClock{}
	}
	if c.HotBytes <= 0 {
		c.HotBytes = 16 << 10
	}
	if c.SegmentEntries <= 0 {
		c.SegmentEntries = 256
	}
	if c.Segments < 2 {
		if c.Segments == 0 {
			c.Segments = 4
		} else {
			c.Segments = 2
		}
	}
	if c.Retention == 0 {
		c.Retention = 10 * time.Minute
	}
	return c
}

// segment is one slab: n entries packed in buf as uvarint(len) ‖ payload,
// seqs first .. first+n-1 (appendLocked only stores tail+1, or the floor of
// an emptied window). A slab is hot while it is the append target and
// immutable (cold) after rotation seals it; recycling keeps buf's capacity,
// so steady-state appends never allocate. A slab no append has reached is
// nil: a topic that never fills its first slab never pays for the rest.
type segment struct {
	buf    []byte
	first  uint64    // seq of the first entry
	n      int       // entries held
	used   int       // payload bytes held, prefixes excluded: the HotBytes budget
	sealed time.Time // rotation timestamp (zero while hot)
}

// grow reallocates buf to hold need bytes in the steps append takes for a
// []byte — twice a capacity under 256 bytes, about 1.25× above — at least
// need, at most HotBytes plus a length prefix per entry, and keeps the whole
// size class the allocator hands out.
func (s *segment) grow(need int, cfg *Config) {
	ceiling := cfg.HotBytes + cfg.SegmentEntries*uvarintLen(uint64(cfg.HotBytes))
	size := 2 * cap(s.buf)
	if c := cap(s.buf); c >= 256 {
		size = c + (c+3*256)/4
	}
	s.buf = append(slices.Grow([]byte(nil), min(max(size, need), ceiling)), s.buf...)
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// topicLog is one topic's slab ring plus its window bookkeeping. The
// invariants ReadFrom relies on: retained sequences are exactly
// [floor, tail] with no holes (floor = tail+1 when nothing is retained),
// and slabs ordered active+1 .. active (mod ring) hold them oldest first.
type topicLog struct {
	name string

	mu     sync.Mutex
	epoch  uint64
	floor  uint64 // lowest retained seq; tail+1 when empty
	tail   uint64 // highest appended seq (0 before the first append)
	segs   []segment
	active int // hot slab index
}

// Log is a set of per-topic sequenced logs sharing one configuration.
// Append is safe for concurrent use across topics; per-topic operations
// serialize on the topic lock.
type Log struct {
	cfg Config

	mu     sync.RWMutex
	topics map[string]*topicLog

	// Metrics.
	Appends      metrics.Counter // payloads retained
	Dups         metrics.Counter // appends at or below the tail, ignored
	Rotations    metrics.Counter // hot-slab seals
	Evictions    metrics.Counter // cold slabs recycled by ring pressure
	Expirations  metrics.Counter // cold slabs recycled by retention age
	GapResets    metrics.Counter // windows discarded on a sequence gap
	Oversized    metrics.Counter // payloads too large for any slab
	Reads        metrics.Counter // ReadFrom calls served
	ExpiredReads metrics.Counter // ReadFrom calls refused (ErrCursorExpired)
}

// New builds an empty log.
func New(cfg Config) *Log {
	return &Log{cfg: cfg.withDefaults(), topics: make(map[string]*topicLog)}
}

// Open allocates topic's ring headers; no slab exists before its first
// append. Idempotent; control path (stream open / app registration). Append
// on an unopened topic is a no-op returning false.
func (l *Log) Open(topic string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.topics[topic]; ok {
		return
	}
	t := &topicLog{name: topic, epoch: 1, floor: 1}
	t.segs = make([]segment, l.cfg.Segments)
	l.topics[topic] = t
}

func (l *Log) lookup(topic string) *topicLog {
	l.mu.RLock()
	t := l.topics[topic]
	l.mu.RUnlock()
	return t
}

// Append retains one delivered payload. It reports false when the topic
// is unopened, the sequence is a duplicate (<= tail), or the payload is
// too large for a slab (which poisons the window — see appendLocked).
//
//brlint:hotpath one append per delivered delta on the publish path: mutex ops, map reads, counter increments, and a copy into a slab that grows only on the ring's first lap
func (l *Log) Append(topic string, seq uint64, payload []byte) bool {
	l.mu.RLock()
	t := l.topics[topic]
	l.mu.RUnlock()
	if t == nil {
		return false
	}
	// Deferred unlock (open-coded, no allocation) so a panicking
	// CrashHook leaves the topic inspectable.
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendLocked(l, seq, payload)
}

// appendLocked is Append under the topic lock: expire stale cold slabs,
// reset the window on a sequence gap, rotate when the hot slab is full,
// then pack the payload.
//
//brlint:hotpath append body: slab recycling is index arithmetic, the write a copy
func (t *topicLog) appendLocked(l *Log, seq uint64, payload []byte) bool {
	if seq <= t.tail {
		l.Dups.Inc()
		return false
	}
	now := l.cfg.Clock.Now()
	t.expireLocked(l, now)
	if seq != t.tail+1 && !(t.tail == 0 && seq == t.floor) {
		// The log never saw (tail, seq): everything retained predates a
		// range it cannot serve gap-free, so the whole window resets and
		// the epoch bumps — cursors minted before this instant expire
		// instead of being served across the hole.
		t.resetLocked(seq)
		l.GapResets.Inc()
	}
	seg := &t.segs[t.active]
	if seg.n == l.cfg.SegmentEntries || seg.used+len(payload) > l.cfg.HotBytes {
		t.rotateLocked(l, now)
		seg = &t.segs[t.active]
	}
	if len(payload) > l.cfg.HotBytes {
		// No slab can ever hold it. Poison the window past this
		// sequence: readers expire (fall back to WAS) rather than
		// skipping the payload silently.
		t.resetLocked(seq + 1)
		t.tail = seq
		l.Oversized.Inc()
		return false
	}
	seg.first = seq - uint64(seg.n) // contiguous: seq is first+n
	off := len(seg.buf)
	end := off + uvarintLen(uint64(len(payload))) + len(payload)
	if end > cap(seg.buf) {
		//brlint:allow(hot-path-alloc) ring warm-up: a slab grows by size class to its ceiling once, on the first lap
		seg.grow(end, &l.cfg)
	}
	seg.buf = seg.buf[:end]
	copy(seg.buf[off+binary.PutUvarint(seg.buf[off:], uint64(len(payload))):], payload)
	seg.used += len(payload)
	seg.n++
	t.tail = seq
	l.Appends.Inc()
	return true
}

// rotateLocked seals the hot slab and recycles the eldest slab in place.
// Ring pressure advancing over a live cold slab moves the floor — the
// structural retention bound.
//
//brlint:hotpath rotation recycles slabs in place: index arithmetic and counter resets only
func (t *topicLog) rotateLocked(l *Log, now time.Time) {
	t.segs[t.active].sealed = now
	if l.cfg.CrashHook != nil {
		//brlint:allow(hot-path-alloc) test-only crash injection; nil in production
		l.cfg.CrashHook(t.name, PhaseSealed)
	}
	t.active++
	if t.active == len(t.segs) {
		t.active = 0
	}
	seg := &t.segs[t.active]
	if seg.n > 0 {
		t.floor = seg.first + uint64(seg.n)
		l.Evictions.Inc()
	}
	*seg = segment{buf: seg.buf[:0]}
	l.Rotations.Inc()
	if l.cfg.CrashHook != nil {
		//brlint:allow(hot-path-alloc) test-only crash injection; nil in production
		l.cfg.CrashHook(t.name, PhaseRecycled)
	}
}

// expireLocked recycles cold slabs older than the retention bound,
// oldest first, advancing the floor past each.
//
//brlint:hotpath retention expiry runs per append: time arithmetic and in-place slab resets
func (t *topicLog) expireLocked(l *Log, now time.Time) {
	if l.cfg.Retention < 0 {
		return
	}
	for i := 1; i < len(t.segs); i++ {
		idx := t.active + i
		if idx >= len(t.segs) {
			idx -= len(t.segs)
		}
		seg := &t.segs[idx]
		if seg.n == 0 {
			continue
		}
		if seg.sealed.IsZero() || now.Sub(seg.sealed) <= l.cfg.Retention {
			break
		}
		t.floor = seg.first + uint64(seg.n)
		*seg = segment{buf: seg.buf[:0]}
		l.Expirations.Inc()
	}
}

// resetLocked discards the whole retained window, re-floors it at
// floorSeq, and bumps the continuity epoch.
//
//brlint:hotpath window reset recycles every slab in place.
func (t *topicLog) resetLocked(floorSeq uint64) {
	for i := range t.segs {
		t.segs[i] = segment{buf: t.segs[i].buf[:0]}
	}
	t.active = 0
	t.floor = floorSeq
	t.epoch++
}

// ReadFrom returns every retained entry with sequence strictly greater
// than c.Seq, in order and gap-free, plus the cursor naming the window's
// tail. The cursor is valid iff its epoch matches and [c.Seq+1, tail]
// lies inside the retained window; anything else — older epoch, seq
// below the floor's predecessor, seq beyond the tail (e.g. minted before
// a crash-truncated recovery) — returns ErrCursorExpired. Payloads are
// copied out, so the batch stays valid across later rotations.
func (l *Log) ReadFrom(topic string, c Cursor) ([]Entry, Cursor, error) {
	t := l.lookup(topic)
	if t == nil {
		return nil, Cursor{}, ErrUnknownTopic
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(l, l.cfg.Clock.Now())
	if c.Epoch != t.epoch || c.Seq+1 < t.floor || c.Seq > t.tail {
		l.ExpiredReads.Inc()
		return nil, Cursor{}, ErrCursorExpired
	}
	l.Reads.Inc()
	out := t.entriesAboveLocked(c.Seq)
	return out, Cursor{Epoch: t.epoch, Seq: t.tail}, nil
}

// entriesAboveLocked copies out every retained entry with seq > after,
// oldest slab first, in two allocations: the entries, then one array their
// payloads share.
func (t *topicLog) entriesAboveLocked(after uint64) []Entry {
	if after+1 < t.floor {
		after = t.floor - 1
	}
	if after >= t.tail {
		return nil
	}
	out := make([]Entry, 0, t.tail-after)
	size := 0
	for i := 1; i <= len(t.segs); i++ {
		seg := &t.segs[(t.active+i)%len(t.segs)]
		for j, off := 0, 0; j < seg.n; j++ {
			n, k := binary.Uvarint(seg.buf[off:])
			off += k + int(n)
			if seq := seg.first + uint64(j); seq > after {
				out = append(out, Entry{Seq: seq, Payload: seg.buf[off-int(n) : off]})
				size += int(n)
			}
		}
	}
	buf := make([]byte, 0, size)
	for i := range out {
		buf = append(buf, out[i].Payload...)
		out[i].Payload = buf[len(buf)-len(out[i].Payload) : len(buf) : len(buf)]
	}
	return out
}

// TailCursor returns the cursor naming topic's current tail — what a
// fully caught-up client holds. ok is false for unopened topics.
func (l *Log) TailCursor(topic string) (Cursor, bool) {
	t := l.lookup(topic)
	if t == nil {
		return Cursor{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Cursor{Epoch: t.epoch, Seq: t.tail}, true
}

// EarliestCursor returns the cursor from which ReadFrom serves the whole
// retained window — the server-side resolution of SentinelEarliest. ok
// is false for unopened topics.
func (l *Log) EarliestCursor(topic string) (Cursor, bool) {
	t := l.lookup(topic)
	if t == nil {
		return Cursor{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Cursor{Epoch: t.epoch, Seq: t.floor - 1}, true
}

// checkpointTopic is one topic's durable image.
type checkpointTopic struct {
	Name    string  `json:"name"`
	Epoch   uint64  `json:"epoch"`
	Floor   uint64  `json:"floor"`
	Tail    uint64  `json:"tail"`
	Entries []Entry `json:"entries"`
}

type checkpointImage struct {
	Topics []checkpointTopic `json:"topics"`
}

// Checkpoint serializes the log's durable image — the state a crash
// rolls back to. Topics are emitted in sorted order so equal states
// produce equal bytes.
//
//brlint:allow(test-only-export) half of the drain path; Host.Drain of ROADMAP item 15 is its caller
func (l *Log) Checkpoint() []byte {
	l.mu.RLock()
	names := make([]string, 0, len(l.topics))
	for name := range l.topics {
		names = append(names, name)
	}
	l.mu.RUnlock()
	sort.Strings(names)
	img := checkpointImage{Topics: make([]checkpointTopic, 0, len(names))}
	for _, name := range names {
		t := l.lookup(name)
		if t == nil {
			continue
		}
		t.mu.Lock()
		ct := checkpointTopic{
			Name:    name,
			Epoch:   t.epoch,
			Floor:   t.floor,
			Tail:    t.tail,
			Entries: t.entriesAboveLocked(0),
		}
		t.mu.Unlock()
		img.Topics = append(img.Topics, ct)
	}
	b, err := json.Marshal(img)
	if err != nil {
		panic("durlog: checkpoint marshal: " + err.Error())
	}
	return b
}

// Recover rebuilds a fresh log from a Checkpoint image: each topic's
// epoch is preserved and its tail REGRESSES to the durable tail, so a
// cursor minted past the checkpoint fails ReadFrom's tail bound
// (ErrCursorExpired) instead of being served a window with the lost
// suffix missing. Live appends arriving after recovery with a higher
// sequence hit the ordinary gap reset. Recover refuses a log that
// already has topics.
//
//brlint:allow(test-only-export) half of the drain path; Host.Drain of ROADMAP item 15 is its caller
func (l *Log) Recover(snap []byte) error {
	l.mu.RLock()
	populated := len(l.topics) != 0
	l.mu.RUnlock()
	if populated {
		return errors.New("durlog: Recover on a populated log")
	}
	var img checkpointImage
	if err := json.Unmarshal(snap, &img); err != nil {
		return fmt.Errorf("durlog: recover: %w", err)
	}
	for _, ct := range img.Topics {
		l.Open(ct.Name)
		t := l.lookup(ct.Name)
		t.mu.Lock()
		t.floor = ct.Floor
		t.tail = 0
		if len(ct.Entries) > 0 {
			// Replay oldest-first; the first entry defines the floor the
			// gap check in appendLocked accepts, and ring pressure during
			// replay (a smaller recovered config) only advances it.
			t.floor = ct.Entries[0].Seq
			for _, e := range ct.Entries {
				t.appendLocked(l, e.Seq, e.Payload)
			}
		}
		if t.tail < ct.Tail && len(ct.Entries) == 0 {
			t.tail = ct.Tail
			t.floor = ct.Floor
		}
		t.epoch = ct.Epoch
		t.mu.Unlock()
	}
	return nil
}
