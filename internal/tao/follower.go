package tao

import (
	"sync"
	"time"

	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
)

// Follower is a regional read-through cache in front of a Store, modelling
// TAO's follower tier. Reads are served from the cache when possible;
// writes go to the Store (the leader) and invalidate this follower after
// the configured replication delay, modelling asynchronous cross-region
// invalidation.
//
// Followers cache objects and full association lists. The paper relies on
// BRASS point queries having "good caching characteristics" (§5); the
// Hits/Misses counters let experiments verify that.
type Follower struct {
	store *Store
	sched sim.Scheduler
	delay time.Duration

	mu      sync.Mutex
	objects map[ObjID]Object
	assocs  map[assocKey][]Assoc

	Hits   metrics.Counter
	Misses metrics.Counter
}

// NewFollower returns a follower cache over store. Writes through this
// follower invalidate its cache after delay (zero means immediately).
func NewFollower(store *Store, sched sim.Scheduler, delay time.Duration) *Follower {
	if sched == nil {
		sched = sim.RealClock{}
	}
	return &Follower{
		store:   store,
		sched:   sched,
		delay:   delay,
		objects: make(map[ObjID]Object),
		assocs:  make(map[assocKey][]Assoc),
	}
}

// ObjectGet serves the object from cache, filling from the leader on miss.
// Its Data is the leader's immutable bag (see Object), shared, never cloned.
func (f *Follower) ObjectGet(id ObjID) (Object, error) {
	f.mu.Lock()
	if obj, ok := f.objects[id]; ok {
		f.mu.Unlock()
		f.Hits.Inc()
		return obj, nil
	}
	f.mu.Unlock()
	f.Misses.Inc()
	obj, err := f.store.ObjectGet(id)
	if err != nil {
		return Object{}, err
	}
	f.mu.Lock()
	f.objects[id] = obj
	f.mu.Unlock()
	return obj, nil
}

// AssocRange serves the association list from cache, filling on miss.
func (f *Follower) AssocRange(id1 ObjID, typ AssocType, offset, limit int) []Assoc {
	key := assocKey{id1, typ}
	f.mu.Lock()
	if lst, ok := f.assocs[key]; ok {
		f.mu.Unlock()
		f.Hits.Inc()
		return sliceRange(lst, offset, limit)
	}
	f.mu.Unlock()
	f.Misses.Inc()
	lst := f.store.AssocRange(id1, typ, 0, 0) // fetch full list for caching
	f.mu.Lock()
	f.assocs[key] = lst
	f.mu.Unlock()
	return sliceRange(lst, offset, limit)
}

// ObjectUpdate writes through to the leader and schedules invalidation of
// this follower's copy after the replication delay.
func (f *Follower) ObjectUpdate(id ObjID, data map[string]string) error {
	if err := f.store.ObjectUpdate(id, data); err != nil {
		return err
	}
	f.scheduleInvalidateObject(id)
	return nil
}

// AssocAdd writes through to the leader and schedules invalidation of the
// cached list.
func (f *Follower) AssocAdd(id1 ObjID, typ AssocType, id2 ObjID, t time.Time, data string) {
	f.store.AssocAdd(id1, typ, id2, t, data)
	f.scheduleInvalidateAssoc(assocKey{id1, typ})
}

// InvalidateObject drops the cached copy of id immediately. Exposed so the
// leader tier (or tests) can push invalidations to remote followers.
func (f *Follower) InvalidateObject(id ObjID) {
	f.mu.Lock()
	delete(f.objects, id)
	f.mu.Unlock()
}

// InvalidateAssoc drops the cached association list immediately.
func (f *Follower) InvalidateAssoc(id1 ObjID, typ AssocType) {
	f.mu.Lock()
	delete(f.assocs, assocKey{id1, typ})
	f.mu.Unlock()
}

func (f *Follower) scheduleInvalidateObject(id ObjID) {
	if f.delay <= 0 {
		f.InvalidateObject(id)
		return
	}
	f.sched.After(f.delay, func() { f.InvalidateObject(id) })
}

func (f *Follower) scheduleInvalidateAssoc(key assocKey) {
	if f.delay <= 0 {
		f.InvalidateAssoc(key.id1, key.typ)
		return
	}
	f.sched.After(f.delay, func() {
		f.mu.Lock()
		delete(f.assocs, key)
		f.mu.Unlock()
	})
}

// Both tiers satisfy the region-local read surface.
var (
	_ Reader = (*Store)(nil)
	_ Reader = (*Follower)(nil)
)

// HitRate returns the cache hit fraction, or 0 with no lookups.
func (f *Follower) HitRate() float64 {
	h, m := f.Hits.Value(), f.Misses.Value()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
