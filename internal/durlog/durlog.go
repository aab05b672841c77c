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
// allocation-free in steady state: a slab (payload bytes, entry offsets,
// entry seqs) is allocated once — the first at Open, each other the first
// time rotation reaches it — and from then on recycled in place by
// rotation, retention expiry, and gap resets.
package durlog

import (
	"encoding/json"
	"errors"
	"fmt"
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

// segment is one slab: payloads packed contiguously in buf, entry i
// spanning buf[ends[i-1]:ends[i]] with sequence seqs[i]. A slab is hot
// while it is the append target and immutable (cold) after rotation seals
// it; recycling only resets the counters, so steady-state appends never
// allocate. A slab rotation has not reached yet has nil arrays and n == 0:
// a topic that never fills its first slab never pays for the rest.
type segment struct {
	buf  []byte   // len = HotBytes, fixed by alloc
	ends []uint32 // len = SegmentEntries, fixed by alloc
	seqs []uint64 // len = SegmentEntries, fixed by alloc

	n      int       // entries used
	used   int       // bytes used
	sealed time.Time // rotation timestamp (zero while hot)
}

func (s *segment) alloc(cfg *Config) {
	s.buf = make([]byte, cfg.HotBytes)
	s.ends = make([]uint32, cfg.SegmentEntries)
	s.seqs = make([]uint64, cfg.SegmentEntries)
}

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

// Open allocates topic's ring and its first slab. Idempotent; control path
// (stream open / app registration). Append on an unopened topic is a no-op
// returning false.
func (l *Log) Open(topic string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.topics[topic]; ok {
		return
	}
	t := &topicLog{name: topic, epoch: 1, floor: 1}
	t.segs = make([]segment, l.cfg.Segments)
	t.segs[0].alloc(&l.cfg)
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
// payload-offset writes into slabs allocated before the write reaches them.
//
// only mutex ops, map reads, counter increments, copy, and indexed
//
//brlint:hotpath one append per delivered delta on the publish path:
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
// write is copy plus indexed stores.
//
//brlint:hotpath append body: slab recycling is index arithmetic, the
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
	if seg.n == len(seg.seqs) || seg.used+len(payload) > len(seg.buf) {
		t.rotateLocked(l, now)
		seg = &t.segs[t.active]
	}
	if len(payload) > len(seg.buf) {
		// No slab can ever hold it. Poison the window past this
		// sequence: readers expire (fall back to WAS) rather than
		// skipping the payload silently.
		t.resetLocked(seq + 1)
		t.tail = seq
		l.Oversized.Inc()
		return false
	}
	copy(seg.buf[seg.used:], payload)
	seg.used += len(payload)
	seg.ends[seg.n] = uint32(seg.used)
	seg.seqs[seg.n] = seq
	seg.n++
	t.tail = seq
	l.Appends.Inc()
	return true
}

// rotateLocked seals the hot slab and recycles the eldest slab in place
// (allocating it on the ring's first lap). Ring pressure advancing over a
// live cold slab moves the floor — the structural retention bound.
//
// and counter resets only.
//
//brlint:hotpath rotation recycles slabs in place: index arithmetic
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
	if seg.buf == nil {
		//brlint:allow(hot-path-alloc) ring warm-up: at most Segments-1 times per topic
		seg.alloc(&l.cfg)
	}
	if seg.n > 0 {
		t.floor = seg.seqs[seg.n-1] + 1
		l.Evictions.Inc()
	}
	seg.n = 0
	seg.used = 0
	seg.sealed = time.Time{}
	l.Rotations.Inc()
	if l.cfg.CrashHook != nil {
		//brlint:allow(hot-path-alloc) test-only crash injection; nil in production
		l.cfg.CrashHook(t.name, PhaseRecycled)
	}
}

// expireLocked recycles cold slabs older than the retention bound,
// oldest first, advancing the floor past each.
//
// in-place slab resets.
//
//brlint:hotpath retention expiry runs per append: time arithmetic and
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
		t.floor = seg.seqs[seg.n-1] + 1
		seg.n = 0
		seg.used = 0
		seg.sealed = time.Time{}
		l.Expirations.Inc()
	}
}

// resetLocked discards the whole retained window, re-floors it at
// floorSeq, and bumps the continuity epoch.
//
//brlint:hotpath window reset recycles every slab in place.
func (t *topicLog) resetLocked(floorSeq uint64) {
	for i := range t.segs {
		t.segs[i].n = 0
		t.segs[i].used = 0
		t.segs[i].sealed = time.Time{}
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
// oldest slab first.
func (t *topicLog) entriesAboveLocked(after uint64) []Entry {
	var out []Entry
	for i := 1; i <= len(t.segs); i++ {
		idx := (t.active + i) % len(t.segs)
		seg := &t.segs[idx]
		for j := 0; j < seg.n; j++ {
			if seg.seqs[j] <= after {
				continue
			}
			var start uint32
			if j > 0 {
				start = seg.ends[j-1]
			}
			p := make([]byte, seg.ends[j]-start)
			copy(p, seg.buf[start:seg.ends[j]])
			out = append(out, Entry{Seq: seg.seqs[j], Payload: p})
		}
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

// Window returns topic's current (epoch, floor, tail) for tests and
// diagnostics.
func (l *Log) Window(topic string) (epoch, floor, tail uint64, ok bool) {
	t := l.lookup(topic)
	if t == nil {
		return 0, 0, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch, t.floor, t.tail, true
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
