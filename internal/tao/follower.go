package tao

import (
	"sync"

	"bladerunner/internal/metrics"
)

// Follower is a regional read-through cache in front of a Store, modelling
// TAO's follower tier. Reads are served from the cache when possible;
// writes go to the Store (the leader), which invalidates each attached
// follower after its replication lag (Store.AttachFollower), modelling
// asynchronous cross-region invalidation. Objects are never updated, so
// only association lists are invalidated.
//
// Followers cache association lists as the leader stores them and share the
// leader's stored objects. The paper relies on BRASS point queries having
// "good caching characteristics" (§5); the Hits/Misses counters let
// experiments verify that.
type Follower struct {
	store *Store

	mu      sync.Mutex
	objects map[ObjID]*object
	assocs  map[assocKey][]assocRow
	// gen counts invalidations: a fill reads the leader outside mu, and one
	// that lands meanwhile may be for a write the read predates.
	gen uint64

	Hits   metrics.Counter
	Misses metrics.Counter
}

// NewFollower returns a follower cache over store; attach it to the store
// for its lists to be invalidated on writes.
func NewFollower(store *Store) *Follower {
	return &Follower{
		store:   store,
		objects: make(map[ObjID]*object),
		assocs:  make(map[assocKey][]assocRow),
	}
}

// ObjectGet serves the object from cache, filling from the leader on miss.
// Its cache holds the leader's table slot itself, never a copy, and builds
// the Object from it as the leader does.
func (f *Follower) ObjectGet(id ObjID) (Object, error) {
	f.mu.Lock()
	if o, ok := f.objects[id]; ok {
		f.mu.Unlock()
		f.Hits.Inc()
		return o.get(id), nil
	}
	gen := f.gen
	f.mu.Unlock()
	f.Misses.Inc()
	o, err := f.store.stored(id)
	if err != nil {
		return Object{}, err
	}
	install(f, f.objects, id, o, gen)
	return o.get(id), nil
}

// AssocRange serves the association list from cache, filling on miss.
func (f *Follower) AssocRange(id1 ObjID, typ AssocType, offset, limit int) []Assoc {
	key := assocKey{id1, typ}
	f.mu.Lock()
	if lst, ok := f.assocs[key]; ok {
		f.mu.Unlock()
		f.Hits.Inc()
		return sliceRange(key, lst, offset, limit)
	}
	gen := f.gen
	f.mu.Unlock()
	f.Misses.Inc()
	// The whole list, accounted as the leader's AssocRange(id1, typ, 0, 0).
	lst := f.store.rows(key)
	f.store.stats.recordRange(f.store.rangeShardCost(len(lst)))
	install(f, f.assocs, key, lst, gen)
	return sliceRange(key, lst, offset, limit)
}

// install caches v, read from the leader at invalidation generation gen,
// under k in m — unless an invalidation has landed since.
func install[K comparable, V any](f *Follower, m map[K]V, k K, v V, gen uint64) {
	f.mu.Lock()
	if f.gen == gen {
		m[k] = v
	}
	f.mu.Unlock()
}

// InvalidateAssoc drops the cached association list immediately.
func (f *Follower) InvalidateAssoc(id1 ObjID, typ AssocType) {
	f.mu.Lock()
	delete(f.assocs, assocKey{id1, typ})
	f.gen++
	f.mu.Unlock()
}

// Both tiers satisfy the region-local read surface.
var (
	_ Reader = (*Store)(nil)
	_ Reader = (*Follower)(nil)
)
