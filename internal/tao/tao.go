// Package tao implements a faithful miniature of TAO, Facebook's
// distributed social-graph store (Bronson et al., USENIX ATC '13), which is
// the storage substrate Bladerunner sits in front of.
//
// The model preserves the properties the paper's evaluation depends on:
//
//   - Objects and typed associations, sharded by id. A point query (object
//     get, or a specific association) touches exactly one shard.
//   - Association lists are time-ordered and, when they grow hot, their
//     index is partitioned across many shards — so range queries ("all
//     comments on video V since T") touch many shards, and intersect
//     queries touch even more. This is the cost asymmetry that makes
//     polling expensive and BRASS point-fetches cheap (paper §1, §5).
//   - Leader/follower caching with asynchronous invalidation, so reads are
//     served close to the reader and writes invalidate remote followers
//     after a replication delay.
//
// Both tiers store rows, not maps: an object's bag is one slice of (key,
// value) pairs sorted by key (Props), and a list holds (id2, time, data)
// rows filed under its (id1, atype) key, as real TAO files them.
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

// Object is a node with a free-form property bag.
type Object struct {
	ID   ObjID
	Type ObjType
	// Data is READ-ONLY once stored: ObjectGet hands every reader the
	// stored slice itself, and ObjectUpdate swaps in a new merged slice. A
	// reader that wants to change a bag copies it.
	Data    Props
	Created time.Time
	Version uint64
}

// Props is a property bag: (key, value) pairs, stored sorted by key with one
// pair per key. A literal given to ObjectAdd or ObjectUpdate may list its
// pairs in any order; on a repeated key the last pair wins, as map
// assignment does.
type Props [][2]string

// Get returns the value stored under key, or "" if there is none.
func (p Props) Get(key string) string {
	if i, ok := slices.BinarySearchFunc(p, key, byKey); ok {
		return p[i][1]
	}
	return ""
}

func byKey(kv [2]string, key string) int { return strings.Compare(kv[0], key) }

// merge returns a new sorted bag, sized for old and add with no key in
// common: old's pairs, overwritten and extended by add's in order.
func merge(old, add Props) Props {
	out := append(make(Props, 0, len(old)+len(add)), old...)
	for _, kv := range add {
		if i, ok := slices.BinarySearchFunc(out, kv[0], byKey); ok {
			out[i] = kv
		} else {
			out = slices.Insert(out, i, kv)
		}
	}
	return out
}

// Assoc is a typed, directed edge from ID1 to ID2 with a timestamp and
// payload. The inverse edge is not created implicitly.
type Assoc struct {
	ID1  ObjID
	Type AssocType
	ID2  ObjID
	Time time.Time
	Data string
}

// Config parameterizes a Store.
type Config struct {
	// Shards is the number of storage shards. Must be > 0.
	Shards int
	// IndexShardCapacity models index partitioning for hot association
	// lists: a range query over a list of length L is accounted as
	// touching ceil(L/IndexShardCapacity) shards (minimum 1). The paper's
	// footnote 5 describes why hot lists must span many shards.
	IndexShardCapacity int
}

// DefaultConfig returns a Store configuration suitable for tests and the
// experiment harness.
func DefaultConfig() Config {
	return Config{Shards: 64, IndexShardCapacity: 512}
}

// Store is the sharded graph store (the "TAO leader" tier).
type Store struct {
	cfg    Config
	clock  sim.Clock
	shards []*shard
	nextID sync.Mutex // guards idCounter
	idCtr  ObjID

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
	region string
	f      *Follower
	lag    sim.Dist
	sched  sim.Scheduler
}

type assocKey struct {
	id1 ObjID
	typ AssocType
}

// assocRow is one association as its list stores it; the list's key
// supplies the rest.
type assocRow struct {
	id2  ObjID
	t    time.Time
	data string
}

func (k assocKey) assoc(r assocRow) Assoc {
	return Assoc{ID1: k.id1, Type: k.typ, ID2: r.id2, Time: r.t, Data: r.data}
}

type shard struct {
	mu      sync.RWMutex
	objects map[ObjID]*Object
	// assocs holds time-descending association lists.
	assocs map[assocKey][]assocRow
}

// NewStore builds a Store with the given configuration and clock.
func NewStore(cfg Config, clock sim.Clock) (*Store, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("tao: Shards must be positive, got %d", cfg.Shards)
	}
	if cfg.IndexShardCapacity <= 0 {
		return nil, fmt.Errorf("tao: IndexShardCapacity must be positive, got %d",
			cfg.IndexShardCapacity)
	}
	if clock == nil {
		clock = sim.RealClock{}
	}
	s := &Store{cfg: cfg, clock: clock, stats: NewStats()}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{
			objects: make(map[ObjID]*Object),
			assocs:  make(map[assocKey][]assocRow),
		}
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
func (s *Store) AttachFollower(region string, f *Follower, lag sim.Dist, sched sim.Scheduler, seed int64) {
	if sched == nil {
		sched = sim.RealClock{}
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.replRng == nil {
		s.replRng = rand.New(rand.NewSource(seed))
	}
	s.repl = append(s.repl, replicaLink{region: region, f: f, lag: lag, sched: sched})
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

// invalidateFollowersObj propagates an object write to every attached
// follower after its sampled replication lag.
func (s *Store) invalidateFollowersObj(id ObjID) {
	for _, t := range s.replSnapshot() {
		if t.d <= 0 {
			t.f.InvalidateObject(id)
			continue
		}
		f := t.f
		t.sched.After(t.d, func() { f.InvalidateObject(id) })
	}
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

// ObjectAdd creates a new object of the given type with a sorted copy of
// data and returns its allocated ID.
func (s *Store) ObjectAdd(typ ObjType, data Props) ObjID {
	s.nextID.Lock()
	s.idCtr++
	id := s.idCtr
	s.nextID.Unlock()

	obj := &Object{ID: id, Type: typ, Data: merge(nil, data), Created: s.clock.Now(), Version: 1}
	sh := s.shardFor(id)
	sh.mu.Lock()
	sh.objects[id] = obj
	sh.mu.Unlock()
	s.stats.recordWrite(1)
	return id
}

// ObjectGet returns the object with the given id as it is now; its Data is
// the stored, immutable bag (see Object), so a later update does not show
// through it. This is a point query touching one shard.
func (s *Store) ObjectGet(id ObjID) (Object, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	obj, ok := sh.objects[id]
	var out Object
	if ok {
		out = *obj
	}
	sh.mu.RUnlock()
	s.stats.recordPoint(1)
	if !ok {
		return Object{}, fmt.Errorf("object %d: %w", id, ErrNotFound)
	}
	return out, nil
}

// ObjectUpdate merges data into the object's property bag and bumps its
// version. Readers hold the old bag, so the merge goes into a copy that
// replaces it (copy-on-write).
func (s *Store) ObjectUpdate(id ObjID, data Props) error {
	sh := s.shardFor(id)
	sh.mu.Lock()
	obj, ok := sh.objects[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("object %d: %w", id, ErrNotFound)
	}
	obj.Data = merge(obj.Data, data)
	obj.Version++
	sh.mu.Unlock()
	s.stats.recordWrite(1)
	s.invalidateFollowersObj(id)
	return nil
}

// ObjectDelete removes the object. Associations referencing it are not
// cascaded (TAO semantics).
func (s *Store) ObjectDelete(id ObjID) error {
	sh := s.shardFor(id)
	sh.mu.Lock()
	if _, ok := sh.objects[id]; !ok {
		sh.mu.Unlock()
		return fmt.Errorf("object %d: %w", id, ErrNotFound)
	}
	delete(sh.objects, id)
	sh.mu.Unlock()
	s.stats.recordWrite(1)
	s.invalidateFollowersObj(id)
	return nil
}

// AssocAdd inserts (or updates) the association (id1, typ, id2) with the
// given timestamp and payload.
func (s *Store) AssocAdd(id1 ObjID, typ AssocType, id2 ObjID, t time.Time, data string) {
	sh := s.shardFor(id1)
	key := assocKey{id1, typ}
	sh.mu.Lock()
	lst := sh.assocs[key]
	// Replace if present: take the old one out, then insert as if new.
	i := 0
	for i < len(lst) && lst[i].id2 != id2 {
		i++
	}
	if i < len(lst) {
		lst = append(lst[:i], lst[i+1:]...)
	}
	// Ordered insert, newest first. Among equal times an assoc goes behind
	// those that were ahead of it (j < i; for a new one, all of them) and in
	// front of the rest — the order a stable sort of the appended list gave.
	at := sort.Search(len(lst), func(j int) bool {
		return lst[j].t.Before(t) || (j >= i && !lst[j].t.After(t))
	})
	sh.assocs[key] = slices.Insert(lst, at, assocRow{id2, t, data})
	sh.mu.Unlock()
	s.stats.recordWrite(1)
	s.invalidateFollowersAssoc(id1, typ)
}

// AssocDelete removes the association (id1, typ, id2).
func (s *Store) AssocDelete(id1 ObjID, typ AssocType, id2 ObjID) error {
	sh := s.shardFor(id1)
	key := assocKey{id1, typ}
	sh.mu.Lock()
	lst := sh.assocs[key]
	for i := range lst {
		if lst[i].id2 == id2 {
			sh.assocs[key] = append(lst[:i], lst[i+1:]...)
			sh.mu.Unlock()
			s.stats.recordWrite(1)
			s.invalidateFollowersAssoc(id1, typ)
			return nil
		}
	}
	sh.mu.Unlock()
	return fmt.Errorf("assoc (%d,%s,%d): %w", id1, typ, id2, ErrNotFound)
}

// AssocGet returns the association (id1, typ, id2) — a point query.
func (s *Store) AssocGet(id1 ObjID, typ AssocType, id2 ObjID) (Assoc, error) {
	sh := s.shardFor(id1)
	key := assocKey{id1, typ}
	sh.mu.RLock()
	defer func() {
		sh.mu.RUnlock()
		s.stats.recordPoint(1)
	}()
	for _, r := range sh.assocs[key] {
		if r.id2 == id2 {
			return key.assoc(r), nil
		}
	}
	return Assoc{}, fmt.Errorf("assoc (%d,%s,%d): %w", id1, typ, id2, ErrNotFound)
}

// AssocCount returns the size of the association list (id1, typ). Point
// query (TAO maintains counts inline).
func (s *Store) AssocCount(id1 ObjID, typ AssocType) int {
	sh := s.shardFor(id1)
	sh.mu.RLock()
	n := len(sh.assocs[assocKey{id1, typ}])
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
	lst := sh.assocs[key]
	out := sliceRange(key, lst, offset, limit)
	total := len(lst)
	sh.mu.RUnlock()
	s.stats.recordRange(s.rangeShardCost(total))
	return out
}

// AssocTimeRange returns up to limit associations from (id1, typ) with
// Time in (since, until], newest first; a zero until means "now", a limit
// <= 0 all.
func (s *Store) AssocTimeRange(id1 ObjID, typ AssocType, since, until time.Time, limit int) []Assoc {
	if until.IsZero() {
		until = s.clock.Now()
	}
	sh := s.shardFor(id1)
	key := assocKey{id1, typ}
	sh.mu.RLock()
	lst := sh.assocs[key]
	out := make([]Assoc, 0, min(max(limit, 0), len(lst)))
	for _, r := range lst { // newest first
		if !r.t.After(since) {
			break
		}
		if r.t.After(until) {
			continue
		}
		out = append(out, key.assoc(r))
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	total := len(lst)
	sh.mu.RUnlock()
	s.stats.recordRange(s.rangeShardCost(total))
	return out
}

// Intersect returns the associations in (id1a, typA) whose ID2 also appears
// as ID2 in (id1b, typB) — e.g. "comments on video V by friends of U".
// Intersect queries are the most expensive TAO operation; their cost is the
// sum of both range costs (paper §1, §2). A limit <= 0 means all.
func (s *Store) Intersect(id1a ObjID, typA AssocType, id1b ObjID, typB AssocType, limit int) []Assoc {
	keyA := assocKey{id1a, typA}
	la := s.rows(keyA)

	shB := s.shardFor(id1b)
	shB.mu.RLock()
	lb := shB.assocs[assocKey{id1b, typB}]
	set := make(map[ObjID]bool, len(lb))
	for _, r := range lb {
		set[r.id2] = true
	}
	lbLen := len(lb)
	shB.mu.RUnlock()

	out := make([]Assoc, 0, min(max(limit, 0), len(la)))
	for _, r := range la {
		if set[r.id2] {
			out = append(out, keyA.assoc(r))
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	s.stats.recordIntersect(s.rangeShardCost(len(la)) + s.rangeShardCost(lbLen))
	return out
}

// rangeShardCost models index partitioning: a list of length n spans
// ceil(n/IndexShardCapacity) shards, minimum 1.
func (s *Store) rangeShardCost(n int) int {
	c := (n + s.cfg.IndexShardCapacity - 1) / s.cfg.IndexShardCapacity
	if c < 1 {
		c = 1
	}
	return c
}

// rows returns a copy of the list key names, unaccounted: the follower's
// fill and Intersect's first list read it.
func (s *Store) rows(key assocKey) []assocRow {
	sh := s.shardFor(key.id1)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return slices.Clone(sh.assocs[key])
}

// sliceRange builds the Assocs of lst[offset:offset+limit]; limit <= 0 is all.
func sliceRange(key assocKey, lst []assocRow, offset, limit int) []Assoc {
	offset = max(offset, 0)
	if offset >= len(lst) {
		return nil
	}
	end := len(lst)
	if limit > 0 && offset+limit < end {
		end = offset + limit
	}
	out := make([]Assoc, end-offset)
	for i, r := range lst[offset:end] {
		out[i] = key.assoc(r)
	}
	return out
}

// Stats aggregates query accounting for a Store: the experiment harness
// uses it to compare polling (range/intersect heavy) against Bladerunner
// (point heavy). Safe for concurrent use.
type Stats struct {
	PointQueries     metrics.Counter
	RangeQueries     metrics.Counter
	IntersectQueries metrics.Counter
	Writes           metrics.Counter
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

func (st *Stats) recordIntersect(shards int) {
	st.IntersectQueries.Inc()
	st.ShardAccesses.Add(int64(shards))
}

func (st *Stats) recordWrite(shards int) {
	st.Writes.Inc()
	st.ShardAccesses.Add(int64(shards))
}

// Reads returns the total number of read queries.
func (st *Stats) Reads() int64 {
	return st.PointQueries.Value() + st.RangeQueries.Value() + st.IntersectQueries.Value()
}
