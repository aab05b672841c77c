// Package tao implements a faithful miniature of TAO, Facebook's
// distributed social-graph store (Bronson et al., USENIX ATC '13), which is
// the storage substrate Bladerunner sits in front of.
//
// The model preserves the properties the paper's evaluation depends on:
//
//   - Objects and typed associations, sharded by id. A point query (an
//     object get, a list's count) touches exactly one shard.
//   - Association lists are time-ordered and, when they grow hot, their
//     index is partitioned across many shards — so range queries ("all
//     comments on video V") touch many shards. This is the cost asymmetry
//     that makes polling expensive and BRASS point-fetches cheap (paper §1,
//     §5).
//   - Leader/follower caching with asynchronous invalidation, so reads are
//     served close to the reader and writes invalidate remote followers
//     after a replication delay.
//
// The write surface is what the applications call: objects are added,
// never updated or deleted, and associations are added (an existing one is
// replaced in place).
//
// Both tiers store rows, not maps. The store allocates object ids densely
// and never deletes an object, so objects sit in one table indexed by id−1:
// fixed chunks of 128-byte slots that never move, each allocated when the id
// counter reaches it. An object carries its numbers typed — Author, Parent,
// Score — and its few strings as a bag, one slice of (key, value) pairs
// sorted by key (Props) that sits inside its table slot when it has at most
// two pairs; a slot keeps its creation time as Unix nanoseconds and neither
// its id (its place in the table) nor its version (always 1). The follower
// tier shares the leader's slot. A list holds 32-byte (id2, time, data) rows
// filed under its (id1, atype) key, as real TAO files them, oldest first, so
// the common add, a row newer than every other, is an append.
//
// All methods are safe for concurrent use.
package tao

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
)

// Reader is the read surface applications use for payload resolution and
// range queries. Both the leader Store and a regional Follower satisfy it,
// so the WAS can route reads to a region-local replica (with its modeled
// replication lag) while writes always go to the leader.
type Reader interface {
	ObjectGet(id ObjID) (Object, error)
	AssocRange(id1 ObjID, typ AssocType, offset, limit int) []Assoc
}

// ObjID identifies an object (node) in the graph store.
type ObjID uint64

// ObjType is the type tag of an object ("user", "video", "comment", ...).
type ObjType string

// AssocType is the type tag of an association (edge), e.g. "commented_on".
type AssocType string

// ErrNotFound is returned when an object or association does not exist.
var ErrNotFound = errors.New("tao: not found")

// Object is a node with typed numeric fields and a bag of free-form strings.
// The store keeps Created as Unix nanoseconds, so a read returns it in UTC,
// without a monotonic clock reading.
type Object struct {
	ID   ObjID
	Type ObjType
	// Author made the object (a comment's or message's author, a
	// notification's actor, a mailbox's owner), Parent is what it hangs off
	// (a post, video, thread or notified user), Score its quality score.
	Author, Parent uint64
	Score          float64
	// Data is READ-ONLY once stored: ObjectGet hands every reader the
	// stored slice itself. A reader that wants to change a bag copies it.
	Data    Props
	Created time.Time
	// Version is 1: an object is never updated. It stays in the read
	// surface the reads digest pins (reads_test.go).
	Version uint64
}

// Props is a property bag: (key, value) pairs, stored sorted by key with one
// pair per key. A literal given to ObjectAdd may list its pairs in any
// order; on a repeated key the last pair wins, as map assignment does.
type Props [][2]string

// Get returns the value stored under key, or "" if there is none.
func (p Props) Get(key string) string {
	if i, ok := slices.BinarySearchFunc(p, key, byKey); ok {
		return p[i][1]
	}
	return ""
}

func byKey(kv [2]string, key string) int { return strings.Compare(kv[0], key) }

// sortInto inserts p's pairs into dst, empty with room for all of them, in
// key order with one pair per key: a later pair for a key overwrites an
// earlier one.
func sortInto(dst, p Props) Props {
	for _, kv := range p {
		if i, ok := slices.BinarySearchFunc(dst, kv[0], byKey); ok {
			dst[i] = kv
		} else {
			dst = slices.Insert(dst, i, kv)
		}
	}
	return dst
}

// bagRoom is how many pairs a stored object holds inside itself: every app's
// bag fits, so its add allocates nothing.
const bagRoom = 2

// object is an Object as the table stores it, in 128 bytes. Its id is its
// place in the table and its Version is always 1, so neither is stored;
// created is Unix nanoseconds. A bag of at most bagRoom pairs sits in room,
// n of them; a larger one is big's.
type object struct {
	typ            ObjType
	author, parent uint64
	score          float64
	created        int64
	room           [bagRoom][2]string
	big            *Props
	n              uint8
	// set is false until the slot is written: a slot reserved by the id
	// counter reads as not found.
	set bool
}

// get builds the Object o stores under id; its Data is o's bag itself.
func (o *object) get(id ObjID) Object {
	data := Props(o.room[:o.n:o.n])
	if o.big != nil {
		data = *o.big
	}
	return Object{ID: id, Type: o.typ, Author: o.author, Parent: o.parent, Score: o.score,
		Data: data, Created: time.Unix(0, o.created).UTC(), Version: 1}
}

// chunkSlots is how many objects one chunk of the object table holds: 1024
// 128-byte objects are exactly 16 8-KiB pages.
const chunkSlots = 1024

// chunk is one block of the object table. It never moves, so a handed-out
// bag and a follower's cached slot stay valid.
type chunk [chunkSlots]object

// Assoc is a typed, directed edge from ID1 to ID2 with a timestamp and
// payload. The inverse edge is not created implicitly. The store keeps Time
// as Unix nanoseconds, so it must fall between the years 1678 and 2262, and
// a read returns it in UTC, without a monotonic clock reading.
type Assoc struct {
	ID1  ObjID
	Type AssocType
	ID2  ObjID
	Time time.Time
	Data string
}

// shards is the number of storage shards.
const shards = 64

// Config parameterizes a Store.
type Config struct {
	// IndexShardCapacity models index partitioning for hot association
	// lists: a range query over a list of length L is accounted as
	// touching ceil(L/IndexShardCapacity) shards (minimum 1). The paper's
	// footnote 5 describes why hot lists must span many shards.
	IndexShardCapacity int
}

// DefaultConfig returns a Store configuration suitable for tests and the
// experiment harness.
func DefaultConfig() Config {
	return Config{IndexShardCapacity: 512}
}

// Store is the sharded graph store (the "TAO leader" tier).
type Store struct {
	cfg    Config
	clock  sim.Clock
	shards []*shard
	lastID atomic.Uint64
	// table holds the object with id i in slot (i-1)%chunkSlots of chunk
	// (i-1)/chunkSlots, written under i's shard lock. Its chunk list grows
	// copy-on-write under growMu, so a reader finds a chunk without a lock.
	table  atomic.Pointer[[]*chunk]
	growMu sync.Mutex

	stats *Stats

	// replMu guards the attached regional followers. Every committed write
	// schedules an invalidation on each follower after its sampled
	// replication lag — TAO's asynchronous cross-region invalidation.
	replMu  sync.Mutex
	repl    []replicaLink
	replRng *rand.Rand
}

// replicaLink is one attached regional follower and its invalidation lag.
type replicaLink struct {
	f     *Follower
	lag   sim.Dist
	sched sim.Scheduler
}

type assocKey struct {
	id1 ObjID
	typ AssocType
}

// assocRow is one association as its list stores it, in 32 bytes: the
// list's key supplies the rest, and t is Unix nanoseconds.
type assocRow struct {
	id2  ObjID
	t    int64
	data string
}

func (k assocKey) assoc(r assocRow) Assoc {
	return Assoc{ID1: k.id1, Type: k.typ, ID2: r.id2, Time: time.Unix(0, r.t).UTC(), Data: r.data}
}

// assocList is one association list. Its rows are oldest first, and rows
// of one time are in the order AssocRange answers them. maxID2 is the
// largest id2 it holds: an add above it replaces no row, so it skips the
// search for one.
type assocList struct {
	rows   []assocRow
	maxID2 ObjID
}

// add files r, replacing the row with r's id2 if the list holds one, and
// returns how many rows it scanned for that row or moved. A new row goes
// behind the rows of its time: an append, when it is the newest.
func (l *assocList) add(r assocRow) (touched int) {
	if r.id2 <= l.maxID2 {
		for i := len(l.rows) - 1; i >= 0; i-- {
			touched++
			if l.rows[i].id2 == r.id2 {
				return touched + l.replace(i, r)
			}
		}
	}
	l.maxID2 = max(l.maxID2, r.id2)
	return touched + l.insert(l.behind(r.t), r)
}

// replace puts r in the place of row i, which has r's id2, and returns how
// many rows it moved. Among the rows of r's time, a newer row goes behind
// them, an older one in front of them, and one whose time is unchanged
// keeps its place: the order a stable sort gave the newest-first list.
func (l *assocList) replace(i int, r assocRow) int {
	old := l.rows[i].t
	if r.t == old {
		l.rows[i] = r
		return 0
	}
	l.rows = slices.Delete(l.rows, i, i+1)
	moved := len(l.rows) - i
	var at int
	if r.t > old {
		at = l.behind(r.t)
	} else {
		at = sort.Search(len(l.rows), func(j int) bool { return l.rows[j].t >= r.t })
	}
	return moved + l.insert(at, r)
}

// behind returns the index behind every row no newer than t.
func (l *assocList) behind(t int64) int {
	n := len(l.rows)
	if n == 0 || l.rows[n-1].t <= t {
		return n
	}
	return sort.Search(n, func(j int) bool { return l.rows[j].t > t })
}

// insert puts r at index at and returns how many rows it moved.
func (l *assocList) insert(at int, r assocRow) int {
	l.rows = slices.Insert(l.rows, at, r)
	return len(l.rows) - 1 - at
}

type shard struct {
	mu     sync.RWMutex
	assocs map[assocKey]assocList
	// touched counts the rows AssocAdd scanned or moved in this shard's
	// lists, so a test can tell an append from a shift.
	touched int
}

// NewStore builds a Store with the given configuration and clock.
func NewStore(cfg Config, clock sim.Clock) (*Store, error) {
	if cfg.IndexShardCapacity <= 0 {
		return nil, fmt.Errorf("tao: IndexShardCapacity must be positive, got %d",
			cfg.IndexShardCapacity)
	}
	if clock == nil {
		clock = sim.RealClock{}
	}
	s := &Store{cfg: cfg, clock: clock, stats: NewStats()}
	s.table.Store(new([]*chunk))
	s.shards = make([]*shard, shards)
	for i := range s.shards {
		s.shards[i] = &shard{assocs: make(map[assocKey]assocList)}
	}
	return s, nil
}

// MustNewStore is NewStore that panics on error.
func MustNewStore(cfg Config, clock sim.Clock) *Store {
	s, err := NewStore(cfg, clock)
	if err != nil {
		panic(err)
	}
	return s
}

// Stats returns the store's query statistics.
func (s *Store) Stats() *Stats { return s.stats }

// AttachFollower registers a regional follower for write invalidation:
// every committed write on this leader invalidates f's cached copy after a
// lag sampled from dist (nil or zero-mean = immediately). sched drives the
// delayed invalidations; seed makes the lag sampling deterministic.
func (s *Store) AttachFollower(f *Follower, lag sim.Dist, sched sim.Scheduler, seed int64) {
	if sched == nil {
		sched = sim.RealClock{}
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.replRng == nil {
		s.replRng = rand.New(rand.NewSource(seed))
	}
	s.repl = append(s.repl, replicaLink{f: f, lag: lag, sched: sched})
}

// replTask is one scheduled follower invalidation.
type replTask struct {
	f     *Follower
	d     time.Duration
	sched sim.Scheduler
}

// replSnapshot samples each attached follower's lag under replMu and
// returns the invalidation schedule; nil when no followers are attached
// (the common single-region case pays one mutex round-trip per write).
func (s *Store) replSnapshot() []replTask {
	s.replMu.Lock()
	if len(s.repl) == 0 {
		s.replMu.Unlock()
		return nil
	}
	tasks := make([]replTask, 0, len(s.repl))
	for _, r := range s.repl {
		var d time.Duration
		if r.lag != nil {
			d = r.lag.Sample(s.replRng)
		}
		tasks = append(tasks, replTask{f: r.f, d: d, sched: r.sched})
	}
	s.replMu.Unlock()
	return tasks
}

// invalidateFollowersAssoc propagates an association-list write to every
// attached follower after its sampled replication lag.
func (s *Store) invalidateFollowersAssoc(id1 ObjID, typ AssocType) {
	for _, t := range s.replSnapshot() {
		if t.d <= 0 {
			t.f.InvalidateAssoc(id1, typ)
			continue
		}
		f := t.f
		t.sched.After(t.d, func() { f.InvalidateAssoc(id1, typ) })
	}
}

func (s *Store) shardFor(id ObjID) *shard {
	// Fibonacci hashing spreads sequential IDs across shards.
	h := uint64(id) * 0x9E3779B97F4A7C15
	return s.shards[h%uint64(len(s.shards))]
}

// slot returns id's slot in the object table, or nil when no chunk holds it.
func (s *Store) slot(id ObjID) *object {
	t, i := *s.table.Load(), uint64(id)-1
	if id == 0 || i/chunkSlots >= uint64(len(t)) {
		return nil
	}
	return &t[i/chunkSlots][i%chunkSlots]
}

// grow appends chunks to the table until one holds id, and returns its slot.
func (s *Store) grow(id ObjID) *object {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	t := slices.Clip(*s.table.Load())
	for uint64(len(t)) <= (uint64(id)-1)/chunkSlots {
		t = append(t, new(chunk))
	}
	s.table.Store(&t)
	return s.slot(id)
}

// ObjectAdd creates a new object of the given type with its numeric fields
// and a sorted copy of data, and returns its allocated ID. A bag of at most
// bagRoom pairs is copied into the object's table slot itself.
func (s *Store) ObjectAdd(typ ObjType, author, parent uint64, score float64, data Props) ObjID {
	id := ObjID(s.lastID.Add(1))
	o := s.slot(id)
	if o == nil {
		o = s.grow(id)
	}
	var big *Props
	if len(data) > bagRoom {
		bag := slices.Clip(sortInto(make(Props, 0, len(data)), data))
		big = &bag
	}
	created := s.clock.Now().UnixNano()
	sh := s.shardFor(id)
	sh.mu.Lock()
	*o = object{typ: typ, author: author, parent: parent, score: score, created: created, big: big, set: true}
	if big == nil {
		o.n = uint8(len(sortInto(o.room[:0], data)))
	}
	sh.mu.Unlock()
	s.stats.recordWrite(1)
	return id
}

// ObjectGet returns the object with the given id; its Data is the stored,
// immutable bag (see Object). This is a point query touching one shard.
func (s *Store) ObjectGet(id ObjID) (Object, error) {
	o, err := s.stored(id)
	if err != nil {
		return Object{}, err
	}
	return o.get(id), nil
}

// stored is ObjectGet's read of the object's slot, which followers share.
func (s *Store) stored(id ObjID) (*object, error) {
	o := s.slot(id)
	if o != nil {
		sh := s.shardFor(id)
		sh.mu.RLock()
		if !o.set {
			o = nil
		}
		sh.mu.RUnlock()
	}
	s.stats.recordPoint(1)
	if o == nil {
		return nil, fmt.Errorf("object %d: %w", id, ErrNotFound)
	}
	return o, nil
}

// AssocAdd inserts (or updates) the association (id1, typ, id2) with the
// given timestamp and payload.
func (s *Store) AssocAdd(id1 ObjID, typ AssocType, id2 ObjID, t time.Time, data string) {
	sh := s.shardFor(id1)
	key := assocKey{id1, typ}
	sh.mu.Lock()
	lst := sh.assocs[key]
	sh.touched += lst.add(assocRow{id2, t.UnixNano(), data})
	sh.assocs[key] = lst
	sh.mu.Unlock()
	s.stats.recordWrite(1)
	s.invalidateFollowersAssoc(id1, typ)
}

// AssocCount returns the size of the association list (id1, typ). Point
// query (TAO maintains counts inline).
func (s *Store) AssocCount(id1 ObjID, typ AssocType) int {
	sh := s.shardFor(id1)
	sh.mu.RLock()
	n := len(sh.assocs[assocKey{id1, typ}].rows)
	sh.mu.RUnlock()
	s.stats.recordPoint(1)
	return n
}

// AssocRange returns up to limit associations from (id1, typ), newest
// first, skipping offset. This is a range query whose shard cost scales
// with the underlying list size (hot lists are index-partitioned).
func (s *Store) AssocRange(id1 ObjID, typ AssocType, offset, limit int) []Assoc {
	sh := s.shardFor(id1)
	key := assocKey{id1, typ}
	sh.mu.RLock()
	lst := sh.assocs[key].rows
	out := sliceRange(key, lst, offset, limit)
	total := len(lst)
	sh.mu.RUnlock()
	s.stats.recordRange(s.rangeShardCost(total))
	return out
}

// rangeShardCost models index partitioning: a list of length n spans
// ceil(n/IndexShardCapacity) shards, minimum 1.
func (s *Store) rangeShardCost(n int) int {
	return max((n+s.cfg.IndexShardCapacity-1)/s.cfg.IndexShardCapacity, 1)
}

// rows returns a copy of the list key names, unaccounted: the follower's
// fill reads it.
func (s *Store) rows(key assocKey) []assocRow {
	sh := s.shardFor(key.id1)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return slices.Clone(sh.assocs[key].rows)
}

// sliceRange builds the Assocs at [offset, offset+limit) of rows read newest
// first; limit <= 0 is all. rows is a list's, oldest first, so it walks the
// runs of equal times from the tail, each in its stored order.
func sliceRange(key assocKey, rows []assocRow, offset, limit int) []Assoc {
	offset = max(offset, 0)
	if offset >= len(rows) {
		return nil
	}
	n := len(rows) - offset
	if limit > 0 {
		n = min(n, limit)
	}
	out := make([]Assoc, 0, n)
	for hi := len(rows); len(out) < n; {
		lo := hi - 1
		for lo > 0 && rows[lo-1].t == rows[lo].t {
			lo--
		}
		run := rows[lo:hi]
		skip := min(offset, len(run))
		offset -= skip
		for _, r := range run[skip:min(len(run), skip+n-len(out))] {
			out = append(out, key.assoc(r))
		}
		hi = lo
	}
	return out
}

// Stats aggregates query accounting for a Store: the experiment harness
// uses it to compare polling (range heavy) against Bladerunner (point
// heavy). Safe for concurrent use.
type Stats struct {
	PointQueries metrics.Counter
	RangeQueries metrics.Counter
	Writes       metrics.Counter
	// ShardAccesses counts total shard touches across all queries: the
	// paper's IOPS proxy.
	ShardAccesses metrics.Counter
}

// NewStats returns zeroed Stats.
func NewStats() *Stats { return &Stats{} }

func (st *Stats) recordPoint(shards int) {
	st.PointQueries.Inc()
	st.ShardAccesses.Add(int64(shards))
}

func (st *Stats) recordRange(shards int) {
	st.RangeQueries.Inc()
	st.ShardAccesses.Add(int64(shards))
}

func (st *Stats) recordWrite(shards int) {
	st.Writes.Inc()
	st.ShardAccesses.Add(int64(shards))
}

// Reads returns the total number of read queries.
func (st *Stats) Reads() int64 {
	return st.PointQueries.Value() + st.RangeQueries.Value()
}
