package tao

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"bladerunner/internal/sim"
)

var t0 = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func newTestStore(t *testing.T) (*Store, *sim.ManualClock) {
	t.Helper()
	clk := sim.NewManualClock(t0)
	return MustNewStore(DefaultConfig(), clk), clk
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(Config{Shards: 0, IndexShardCapacity: 1}, nil); err == nil {
		t.Error("Shards=0 accepted")
	}
	if _, err := NewStore(Config{Shards: 1, IndexShardCapacity: 0}, nil); err == nil {
		t.Error("IndexShardCapacity=0 accepted")
	}
}

func TestObjectLifecycle(t *testing.T) {
	s, clk := newTestStore(t)
	id := s.ObjectAdd("user", Props{{"name", "ada"}})
	obj, err := s.ObjectGet(id)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Type != "user" || obj.Data.Get("name") != "ada" || obj.Version != 1 {
		t.Errorf("obj = %+v", obj)
	}
	if !obj.Created.Equal(clk.Now()) {
		t.Errorf("Created = %v", obj.Created)
	}

	if err := s.ObjectUpdate(id, Props{{"name", "lovelace"}, {"role", "eng"}}); err != nil {
		t.Fatal(err)
	}
	obj, _ = s.ObjectGet(id)
	if obj.Data.Get("name") != "lovelace" || obj.Data.Get("role") != "eng" || obj.Version != 2 {
		t.Errorf("after update: %+v", obj)
	}

	if err := s.ObjectDelete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ObjectGet(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete: %v", err)
	}
	if err := s.ObjectDelete(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	if err := s.ObjectUpdate(id, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing: %v", err)
	}
}

// A stored property bag is immutable (see Object): a read returns the stored
// slice itself, an update swaps in a merged copy. So a bag already handed out
// is a snapshot no later update shows through, and the bag ObjectAdd was
// given stays the caller's.
func TestObjectGetReturnsSnapshot(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s, nil, 0)
	mine := Props{{"k", "v"}}
	id := s.ObjectAdd("user", mine)
	mine[0][1] = "mutated by the adder"
	before, _ := s.ObjectGet(id)
	cached, _ := f.ObjectGet(id) // fill
	if err := f.ObjectUpdate(id, Props{{"k", "v2"}, {"n", "1"}}); err != nil {
		t.Fatal(err)
	}
	for name, obj := range map[string]Object{"store": before, "follower": cached} {
		if len(obj.Data) != 1 || obj.Data.Get("k") != "v" || obj.Version != 1 {
			t.Errorf("%s: bag read before the update now reads %v (version %d)", name, obj.Data, obj.Version)
		}
	}
	for name, get := range map[string]func(ObjID) (Object, error){"store": s.ObjectGet, "follower miss": f.ObjectGet, "follower hit": f.ObjectGet} {
		if obj, _ := get(id); len(obj.Data) != 2 || obj.Data.Get("k") != "v2" || obj.Data.Get("n") != "1" || obj.Version != 2 {
			t.Errorf("%s: after the update = %v (version %d)", name, obj.Data, obj.Version)
		}
	}
}

// Readers range over the bag ObjectGet returned while a writer updates the
// same object: under -race this fails if an update writes into a bag a reader
// holds, and every reader must see one complete bag — all keys at one
// generation — never a mix of two.
func TestObjectDataReadersRaceUpdate(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s, nil, 0)
	keys := []string{"j", "i", "h", "g", "f", "e", "d", "c", "b", "a"} // the merge sorts them
	bag := func(gen int) Props {
		p := make(Props, len(keys))
		for i, k := range keys {
			p[i] = [2]string{k, strconv.Itoa(gen)}
		}
		return p
	}
	id := s.ObjectAdd("post", bag(0))
	updates := 2000
	if testing.Short() {
		updates = 300
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		get := s.ObjectGet
		if r%2 == 1 {
			get = f.ObjectGet
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				obj, err := get(id)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				for _, kv := range obj.Data {
					if kv[1] != obj.Data.Get("a") || len(obj.Data) != len(keys) {
						t.Errorf("torn bag: %s=%s beside a=%s in %v", kv[0], kv[1], obj.Data.Get("a"), obj.Data)
						return
					}
				}
			}
		}()
	}
	for gen := 1; gen <= updates; gen++ {
		if err := f.ObjectUpdate(id, bag(gen)); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
}

func TestObjectIDsUnique(t *testing.T) {
	s, _ := newTestStore(t)
	seen := make(map[ObjID]bool)
	for i := 0; i < 1000; i++ {
		id := s.ObjectAdd("x", nil)
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestAssocAddGetDelete(t *testing.T) {
	s, _ := newTestStore(t)
	s.AssocAdd(1, "friend", 2, t0, "since 2010")
	a, err := s.AssocGet(1, "friend", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Data != "since 2010" || a.ID1 != 1 || a.ID2 != 2 {
		t.Errorf("assoc = %+v", a)
	}
	if _, err := s.AssocGet(1, "friend", 3); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing assoc: %v", err)
	}
	if err := s.AssocDelete(1, "friend", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.AssocDelete(1, "friend", 2); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestAssocAddUpsert(t *testing.T) {
	s, _ := newTestStore(t)
	s.AssocAdd(1, "likes", 5, t0, "old")
	s.AssocAdd(1, "likes", 5, t0.Add(time.Hour), "new")
	if n := s.AssocCount(1, "likes"); n != 1 {
		t.Fatalf("count after upsert = %d", n)
	}
	a, _ := s.AssocGet(1, "likes", 5)
	if a.Data != "new" || !a.Time.Equal(t0.Add(time.Hour)) {
		t.Errorf("upserted assoc = %+v", a)
	}
}

func TestAssocRangeNewestFirst(t *testing.T) {
	s, _ := newTestStore(t)
	for i := 0; i < 10; i++ {
		s.AssocAdd(42, "comment", ObjID(100+i), t0.Add(time.Duration(i)*time.Second), "")
	}
	got := s.AssocRange(42, "comment", 0, 3)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].ID2 != 109 || got[1].ID2 != 108 || got[2].ID2 != 107 {
		t.Errorf("order: %v %v %v", got[0].ID2, got[1].ID2, got[2].ID2)
	}
	// Offset.
	got = s.AssocRange(42, "comment", 8, 10)
	if len(got) != 2 || got[0].ID2 != 101 {
		t.Errorf("offset range: %+v", got)
	}
	// Out-of-range offset.
	if got := s.AssocRange(42, "comment", 100, 5); got != nil {
		t.Errorf("expected nil, got %v", got)
	}
	// limit 0 = all.
	if got := s.AssocRange(42, "comment", 0, 0); len(got) != 10 {
		t.Errorf("limit 0 len = %d", len(got))
	}
}

func TestAssocTimeRange(t *testing.T) {
	s, clk := newTestStore(t)
	for i := 0; i < 10; i++ {
		s.AssocAdd(7, "comment", ObjID(i+1), t0.Add(time.Duration(i)*time.Minute), "")
	}
	clk.Set(t0.Add(time.Hour))
	// Since minute 4 (exclusive): minutes 5..9 = 5 entries.
	got := s.AssocTimeRange(7, "comment", t0.Add(4*time.Minute), time.Time{}, 0)
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	for _, a := range got {
		if !a.Time.After(t0.Add(4 * time.Minute)) {
			t.Errorf("entry %v not after since", a.Time)
		}
	}
	// Bounded until.
	got = s.AssocTimeRange(7, "comment", t0.Add(4*time.Minute), t0.Add(6*time.Minute), 0)
	if len(got) != 2 {
		t.Errorf("bounded len = %d, want 2", len(got))
	}
	// Limit.
	got = s.AssocTimeRange(7, "comment", time.Time{}.Add(time.Nanosecond), time.Time{}, 3)
	if len(got) != 3 {
		t.Errorf("limited len = %d", len(got))
	}
}

func TestIntersect(t *testing.T) {
	s, _ := newTestStore(t)
	// Comments on video 1 by users 10,11,12 (ID2 = commenter for this test).
	s.AssocAdd(1, "commented_by", 10, t0.Add(1*time.Second), "")
	s.AssocAdd(1, "commented_by", 11, t0.Add(2*time.Second), "")
	s.AssocAdd(1, "commented_by", 12, t0.Add(3*time.Second), "")
	// User 99's friends: 10, 12.
	s.AssocAdd(99, "friend", 10, t0, "")
	s.AssocAdd(99, "friend", 12, t0, "")

	got := s.Intersect(1, "commented_by", 99, "friend", 0)
	if len(got) != 2 {
		t.Fatalf("intersect len = %d: %+v", len(got), got)
	}
	// Newest first: 12 then 10.
	if got[0].ID2 != 12 || got[1].ID2 != 10 {
		t.Errorf("intersect order: %v, %v", got[0].ID2, got[1].ID2)
	}
	if got := s.Intersect(1, "commented_by", 99, "friend", 1); len(got) != 1 {
		t.Errorf("limited intersect len = %d", len(got))
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := Config{Shards: 8, IndexShardCapacity: 4}
	s := MustNewStore(cfg, sim.NewManualClock(t0))
	id := s.ObjectAdd("u", nil) // 1 write
	if _, err := s.ObjectGet(id); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().PointQueries.Value(); got != 1 {
		t.Errorf("points = %d", got)
	}
	// Build a 10-element list: range cost = ceil(10/4) = 3 shards.
	for i := 0; i < 10; i++ {
		s.AssocAdd(5, "c", ObjID(i+100), t0, "")
	}
	before := s.Stats().ShardAccesses.Value()
	s.AssocRange(5, "c", 0, 0)
	if cost := s.Stats().ShardAccesses.Value() - before; cost != 3 {
		t.Errorf("range shard cost = %d, want 3", cost)
	}
	if got := s.Stats().RangeQueries.Value(); got != 1 {
		t.Errorf("ranges = %d", got)
	}
	// Intersect cost = 3 (len 10) + 1 (empty list min 1) = 4.
	before = s.Stats().ShardAccesses.Value()
	s.Intersect(5, "c", 6, "f", 0)
	if cost := s.Stats().ShardAccesses.Value() - before; cost != 4 {
		t.Errorf("intersect shard cost = %d, want 4", cost)
	}
	if s.Stats().Reads() != 3 {
		t.Errorf("Reads = %d", s.Stats().Reads())
	}
	if s.Stats().Writes.Value() != 11 {
		t.Errorf("Writes = %d", s.Stats().Writes.Value())
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, _ := newTestStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := s.ObjectAdd("o", Props{{"g", "x"}})
				if _, err := s.ObjectGet(id); err != nil {
					t.Errorf("get: %v", err)
				}
				s.AssocAdd(ObjID(g), "e", id, t0, "")
				s.AssocRange(ObjID(g), "e", 0, 10)
			}
		}()
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if n := s.AssocCount(ObjID(g), "e"); n != 200 {
			t.Errorf("shard %d count = %d", g, n)
		}
	}
}

func TestFollowerCaching(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s, nil, 0)
	id := s.ObjectAdd("u", Props{{"v", "1"}})

	if _, err := f.ObjectGet(id); err != nil {
		t.Fatal(err)
	}
	if f.Misses.Value() != 1 || f.Hits.Value() != 0 {
		t.Errorf("first read: hits=%d misses=%d", f.Hits.Value(), f.Misses.Value())
	}
	leaderReads := s.Stats().Reads()
	if _, err := f.ObjectGet(id); err != nil {
		t.Fatal(err)
	}
	if f.Hits.Value() != 1 {
		t.Errorf("second read not a hit")
	}
	if s.Stats().Reads() != leaderReads {
		t.Error("cache hit still queried the leader")
	}
	if f.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", f.HitRate())
	}
}

func TestFollowerWriteInvalidates(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s, nil, 0) // zero delay: invalidate immediately
	id := s.ObjectAdd("u", Props{{"v", "1"}})
	if _, err := f.ObjectGet(id); err != nil {
		t.Fatal(err)
	}
	if err := f.ObjectUpdate(id, Props{{"v", "2"}}); err != nil {
		t.Fatal(err)
	}
	obj, err := f.ObjectGet(id)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Data.Get("v") != "2" {
		t.Errorf("follower served stale value %q after invalidation", obj.Data.Get("v"))
	}
}

func TestFollowerDelayedInvalidation(t *testing.T) {
	eng := sim.NewEngine(t0)
	s := MustNewStore(DefaultConfig(), eng)
	f := NewFollower(s, eng, 100*time.Millisecond)
	id := s.ObjectAdd("u", Props{{"v", "1"}})
	if _, err := f.ObjectGet(id); err != nil {
		t.Fatal(err)
	}
	if err := f.ObjectUpdate(id, Props{{"v", "2"}}); err != nil {
		t.Fatal(err)
	}
	// Before replication delay elapses the follower may serve stale data.
	obj, _ := f.ObjectGet(id)
	if obj.Data.Get("v") != "1" {
		t.Errorf("expected stale read before invalidation, got %q", obj.Data.Get("v"))
	}
	eng.RunFor(200 * time.Millisecond)
	obj, _ = f.ObjectGet(id)
	if obj.Data.Get("v") != "2" {
		t.Errorf("stale after invalidation: %q", obj.Data.Get("v"))
	}
}

func TestFollowerAssocCaching(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s, nil, 0)
	s.AssocAdd(1, "c", 10, t0, "")
	if got := f.AssocRange(1, "c", 0, 0); len(got) != 1 {
		t.Fatalf("len = %d", len(got))
	}
	f.AssocAdd(1, "c", 11, t0.Add(time.Second), "")
	got := f.AssocRange(1, "c", 0, 0)
	if len(got) != 2 || got[0].ID2 != 11 {
		t.Errorf("after invalidating write: %+v", got)
	}
}

func TestFollowerMissingObject(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s, nil, 0)
	if _, err := f.ObjectGet(12345); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

// Property: AssocRange(offset, limit) never returns more than limit entries
// and preserves newest-first order.
func TestAssocRangeProperty(t *testing.T) {
	s, _ := newTestStore(t)
	for i := 0; i < 100; i++ {
		s.AssocAdd(1, "p", ObjID(i+1), t0.Add(time.Duration(i)*time.Second), "")
	}
	f := func(off, lim uint8) bool {
		got := s.AssocRange(1, "p", int(off), int(lim))
		if lim > 0 && len(got) > int(lim) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Time.After(got[i-1].Time) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the ordered insert in AssocAdd leaves a list in exactly the
// order the append-and-stable-sort it replaced did — newest first, equal
// times in arrival order, a replace keeping its place among its new equals —
// over a seeded mix of adds, replaces and deletes with colliding timestamps.
// It also allocates nothing beyond growing the list.
func TestAssocAddOrderMatchesStableSortReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, _ := newTestStore(t)
		var ref []Assoc
		for op := 0; op < 400; op++ {
			id2 := ObjID(1 + rng.Intn(40))                         // few ids: about half the adds replace
			at := t0.Add(time.Duration(rng.Intn(8)) * time.Second) // few times: most collide
			i := 0
			for i < len(ref) && ref[i].ID2 != id2 {
				i++
			}
			if rng.Intn(5) == 0 {
				err := s.AssocDelete(1, "p", id2)
				if (err == nil) != (i < len(ref)) {
					t.Fatalf("seed %d op %d: delete of %d: %v, reference has it: %v", seed, op, id2, err, i < len(ref))
				}
				if i < len(ref) {
					ref = append(ref[:i], ref[i+1:]...)
				}
			} else {
				data := strconv.Itoa(op)
				s.AssocAdd(1, "p", id2, at, data)
				if i < len(ref) {
					ref[i].Time, ref[i].Data = at, data
				} else {
					ref = append(ref, Assoc{ID1: 1, Type: "p", ID2: id2, Time: at, Data: data})
				}
				sort.SliceStable(ref, func(i, j int) bool { return ref[i].Time.After(ref[j].Time) })
			}
			if got := s.AssocRange(1, "p", 0, 0); !slices.Equal(got, ref) {
				t.Fatalf("seed %d op %d: order diverged from the stable-sort reference\n got %v\nwant %v", seed, op, got, ref)
			}
		}
	}

	s, _ := newTestStore(t)
	for i := 0; i < 64; i++ {
		s.AssocAdd(1, "p", ObjID(i+1), t0, "")
	}
	if n := testing.AllocsPerRun(100, func() { s.AssocAdd(1, "p", 7, t0.Add(time.Second), "x") }); n != 0 {
		t.Errorf("AssocAdd replacing in a list with room: %v allocs, want 0", n)
	}
}

// A follower's fill reads the leader outside its lock. An invalidation that
// lands between that read and the install must win: the install is dropped,
// so the next read misses and sees the write instead of serving the
// pre-write copy until some later write to the same key.
func TestFollowerFillLosesToInvalidation(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s, nil, 0)
	id := s.ObjectAdd("u", Props{{"v", "1"}})
	key := assocKey{1, "c"}
	s.AssocAdd(key.id1, key.typ, 10, t0, "old")

	gen := f.gen // what a miss records before its leader read
	obj, _ := s.ObjectGet(id)
	rows := s.rows(key)
	if err := s.ObjectUpdate(id, Props{{"v", "2"}}); err != nil {
		t.Fatal(err)
	}
	f.InvalidateObject(id)
	s.AssocAdd(key.id1, key.typ, 10, t0, "new")
	f.InvalidateAssoc(key.id1, key.typ)
	install(f, f.objects, id, obj, gen)
	install(f, f.assocs, key, rows, gen)

	misses := f.Misses.Value()
	if got, _ := f.ObjectGet(id); got.Data.Get("v") != "2" {
		t.Errorf("object read after the write = %v, want v=2", got.Data)
	}
	if got := f.AssocRange(key.id1, key.typ, 0, 0); len(got) != 1 || got[0].Data != "new" {
		t.Errorf("list read after the write = %+v, want data new", got)
	}
	if d := f.Misses.Value() - misses; d != 2 {
		t.Errorf("%d misses after the invalidations, want 2: a stale fill was installed", d)
	}
}

// A caller's limit bounds the answer, never the allocation: <= 0 means all,
// as AssocRange has it, and the preallocation stops at the list length.
func TestLimitIsNotACapacity(t *testing.T) {
	s, clk := newTestStore(t)
	const n = 5
	for i := range n {
		s.AssocAdd(1, "c", ObjID(10+i), t0.Add(time.Duration(i)*time.Second), "")
		s.AssocAdd(2, "f", ObjID(10+i), t0, "")
	}
	clk.Set(t0.Add(time.Hour))
	for _, c := range []struct{ limit, want int }{{-1, n}, {0, n}, {1, 1}, {n, n}, {math.MaxInt32, n}} {
		for name, got := range map[string][]Assoc{
			"AssocTimeRange": s.AssocTimeRange(1, "c", time.Time{}, time.Time{}, c.limit),
			"Intersect":      s.Intersect(1, "c", 2, "f", c.limit),
		} {
			if len(got) != c.want || (c.limit > 0 && cap(got) > n) {
				t.Errorf("%s limit %d: len %d cap %d, want len %d (cap <= %d for a positive limit)", name, c.limit, len(got), cap(got), c.want, n)
			}
			if len(got) > 0 && got[0].ID2 != 10+n-1 {
				t.Errorf("%s limit %d: first %d, want the newest", name, c.limit, got[0].ID2)
			}
		}
	}
}
