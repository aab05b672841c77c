package tao

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	if _, err := NewStore(Config{IndexShardCapacity: 0}, nil); err == nil {
		t.Error("IndexShardCapacity=0 accepted")
	}
}

func TestObjectLifecycle(t *testing.T) {
	s, clk := newTestStore(t)
	id := s.ObjectAdd("user", 7, 17, 0.5, Props{{"name", "ada"}})
	obj, err := s.ObjectGet(id)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Type != "user" || obj.Author != 7 || obj.Parent != 17 || obj.Score != 0.5 ||
		obj.Data.Get("name") != "ada" || obj.Version != 1 {
		t.Errorf("obj = %+v", obj)
	}
	if !obj.Created.Equal(clk.Now()) {
		t.Errorf("Created = %v", obj.Created)
	}
	if _, err := s.ObjectGet(id + 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("get of an id never added: %v", err)
	}
}

// A stored property bag is immutable (see Object): ObjectAdd stores a sorted
// copy, so the bag it was given stays the caller's, and every read — the
// store's, a follower's miss and its hit — hands out that one stored bag.
func TestObjectGetReturnsSnapshot(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s)
	mine := Props{{"k", "v"}, {"a", "1"}}
	id := s.ObjectAdd("user", 0, 0, 0, mine)
	mine[0][1] = "mutated by the adder"
	stored, _ := s.ObjectGet(id)
	for _, r := range []struct {
		name string
		get  func(ObjID) (Object, error)
	}{{"store", s.ObjectGet}, {"follower miss", f.ObjectGet}, {"follower hit", f.ObjectGet}} {
		obj, err := r.get(id)
		if err != nil || len(obj.Data) != 2 || obj.Data.Get("k") != "v" || obj.Data.Get("a") != "1" {
			t.Errorf("%s: %v, %v; want the bag as added", r.name, obj.Data, err)
		} else if &obj.Data[0] != &stored.Data[0] {
			t.Errorf("%s: a copy of the stored bag, want the stored bag itself", r.name)
		}
	}
}

func TestObjectIDsUnique(t *testing.T) {
	s, _ := newTestStore(t)
	seen := make(map[ObjID]bool)
	for i := 0; i < 1000; i++ {
		id := s.ObjectAdd("x", 0, 0, 0, nil)
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestAssocAddUpsert(t *testing.T) {
	s, _ := newTestStore(t)
	s.AssocAdd(1, "likes", 5, t0, "old")
	s.AssocAdd(1, "likes", 5, t0.Add(time.Hour), "new")
	if n := s.AssocCount(1, "likes"); n != 1 {
		t.Fatalf("count after upsert = %d", n)
	}
	if a := s.AssocRange(1, "likes", 0, 1); a[0].Data != "new" || !a[0].Time.Equal(t0.Add(time.Hour)) {
		t.Errorf("upserted assoc = %+v", a[0])
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

func TestStatsAccounting(t *testing.T) {
	cfg := Config{IndexShardCapacity: 4}
	s := MustNewStore(cfg, sim.NewManualClock(t0))
	id := s.ObjectAdd("u", 0, 0, 0, nil) // 1 write
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
	if s.Stats().Reads() != 2 {
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
				id := s.ObjectAdd("o", 0, 0, 0, Props{{"g", "x"}})
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
	f := NewFollower(s)
	id := s.ObjectAdd("u", 0, 0, 0, Props{{"v", "1"}})

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
	if f.Hits.Value() != 1 || f.Misses.Value() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", f.Hits.Value(), f.Misses.Value())
	}
}

func TestFollowerWriteInvalidates(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s)
	s.AttachFollower(f, nil, nil, 1) // no lag: invalidate immediately
	s.AssocAdd(1, "c", 10, t0, "old")
	if got := f.AssocRange(1, "c", 0, 0); len(got) != 1 {
		t.Fatalf("fill = %+v", got)
	}
	s.AssocAdd(1, "c", 10, t0, "new")
	if got := f.AssocRange(1, "c", 0, 0); len(got) != 1 || got[0].Data != "new" {
		t.Errorf("follower served %+v after the leader's write, want data new", got)
	}
}

func TestFollowerDelayedInvalidation(t *testing.T) {
	eng := sim.NewEngine(t0)
	s := MustNewStore(DefaultConfig(), eng)
	f := NewFollower(s)
	s.AttachFollower(f, sim.Constant{V: 100 * time.Millisecond}, eng, 1)
	s.AssocAdd(1, "c", 10, t0, "")
	if got := f.AssocRange(1, "c", 0, 0); len(got) != 1 {
		t.Fatalf("fill = %+v", got)
	}
	s.AssocAdd(1, "c", 11, t0.Add(time.Second), "")
	// Before the replication lag elapses the follower serves stale data.
	if got := f.AssocRange(1, "c", 0, 0); len(got) != 1 {
		t.Errorf("expected the stale list before invalidation, got %+v", got)
	}
	eng.RunUntil(eng.Now().Add(200 * time.Millisecond))
	if got := f.AssocRange(1, "c", 0, 0); len(got) != 2 || got[0].ID2 != 11 {
		t.Errorf("stale after invalidation: %+v", got)
	}
}

func TestFollowerAssocCaching(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s)
	s.AttachFollower(f, nil, nil, 1)
	s.AssocAdd(1, "c", 10, t0, "")
	for i := 0; i < 2; i++ {
		if got := f.AssocRange(1, "c", 0, 0); len(got) != 1 {
			t.Fatalf("read %d: len = %d", i, len(got))
		}
	}
	if f.Misses.Value() != 1 || f.Hits.Value() != 1 {
		t.Errorf("fill then hit: hits=%d misses=%d", f.Hits.Value(), f.Misses.Value())
	}
	s.AssocAdd(1, "c", 11, t0.Add(time.Second), "")
	got := f.AssocRange(1, "c", 0, 0)
	if len(got) != 2 || got[0].ID2 != 11 || f.Misses.Value() != 2 {
		t.Errorf("after an invalidating write: %+v, %d misses", got, f.Misses.Value())
	}
}

func TestFollowerMissingObject(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s)
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
// over a seeded mix of adds and replaces with colliding timestamps.
// It also allocates nothing beyond growing the list.
func TestAssocAddOrderMatchesStableSortReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, _ := newTestStore(t)
		var ref []Assoc
		for op := 0; op < 400; op++ {
			id2 := ObjID(1 + rng.Intn(40))                         // few ids: most adds replace
			at := t0.Add(time.Duration(rng.Intn(8)) * time.Second) // few times: most collide
			i := 0
			for i < len(ref) && ref[i].ID2 != id2 {
				i++
			}
			data := strconv.Itoa(op)
			s.AssocAdd(1, "p", id2, at, data)
			if i < len(ref) {
				ref[i].Time, ref[i].Data = at, data
			} else {
				ref = append(ref, Assoc{ID1: 1, Type: "p", ID2: id2, Time: at, Data: data})
			}
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].Time.After(ref[j].Time) })
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
	f := NewFollower(s)
	key := assocKey{1, "c"}
	s.AssocAdd(key.id1, key.typ, 10, t0, "old")

	gen := f.gen // what a miss records before its leader read
	rows := s.rows(key)
	s.AssocAdd(key.id1, key.typ, 10, t0, "new")
	f.InvalidateAssoc(key.id1, key.typ)
	install(f, f.assocs, key, rows, gen)

	misses := f.Misses.Value()
	if got := f.AssocRange(key.id1, key.typ, 0, 0); len(got) != 1 || got[0].Data != "new" {
		t.Errorf("list read after the write = %+v, want data new", got)
	}
	if d := f.Misses.Value() - misses; d != 1 {
		t.Errorf("%d misses after the invalidation, want 1: a stale fill was installed", d)
	}
}

// A caller's limit bounds the answer, never the allocation: <= 0 means all,
// and the slice stops at the list length, from the leader or a follower.
func TestLimitIsNotACapacity(t *testing.T) {
	s, _ := newTestStore(t)
	f := NewFollower(s)
	const n = 5
	for i := range n {
		s.AssocAdd(1, "c", ObjID(10+i), t0.Add(time.Duration(i)*time.Second), "")
	}
	for _, c := range []struct{ limit, want int }{{-1, n}, {0, n}, {1, 1}, {n, n}, {math.MaxInt32, n}} {
		for _, r := range []struct {
			name string
			got  []Assoc
		}{{"Store.AssocRange", s.AssocRange(1, "c", 0, c.limit)}, {"Follower.AssocRange", f.AssocRange(1, "c", 0, c.limit)}} {
			if len(r.got) != c.want || cap(r.got) > n {
				t.Errorf("%s limit %d: len %d cap %d, want len %d (cap <= %d)", r.name, c.limit, len(r.got), cap(r.got), c.want, n)
			}
			if len(r.got) > 0 && r.got[0].ID2 != 10+n-1 {
				t.Errorf("%s limit %d: first %d, want the newest", r.name, c.limit, r.got[0].ID2)
			}
		}
	}
}

// The object table's one concurrency hazard is a slot write against chunk
// growth: a reader probing at and past the id counter while writers cross
// chunk boundaries must see either ErrNotFound or the object exactly as
// added — its type, typed fields and bag, Version 1 and Created the clock's
// time in UTC — never a zero object with a nil error, from the leader and
// through a follower.
func TestObjectTableConcurrentAddGet(t *testing.T) {
	const writers, per = 4, (3*chunkSlots + chunkSlots/2) / 4
	s, _ := newTestStore(t)
	f := NewFollower(s)
	tiers := []struct {
		who string
		get func(ObjID) (Object, error)
	}{{"leader", s.ObjectGet}, {"follower", f.ObjectGet}}
	// bag is what writer w adds as its seq-th object: 1 to 3 pairs, so
	// bags sit in the slot's room and beside it.
	bag := func(w, seq uint64) Props {
		b := Props{{"text", fmt.Sprint(w, "/", seq)}, {"a", "x"}, {"z", "y"}}
		return b[:1+seq%3]
	}
	check := func(who string, id ObjID, obj Object, err error) bool {
		if errors.Is(err, ErrNotFound) {
			return true
		}
		w, seq := obj.Author, obj.Parent
		want := slices.Clone(bag(w, seq))
		slices.SortFunc(want, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })
		if err != nil || obj.ID != id || obj.Type != ObjType(fmt.Sprint("t", w)) || w >= writers ||
			obj.Score != float64(seq)+0.5 || !slices.Equal(obj.Data, want) || obj.Version != 1 || obj.Created != t0 {
			t.Errorf("%s: object %d = %+v, %v; want ErrNotFound or the object as added", who, id, obj, err)
			return false
		}
		return true
	}
	var done atomic.Bool
	var readers sync.WaitGroup
	for _, r := range tiers {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				last := ObjID(s.lastID.Load())
				for id := last - min(last, 8); id <= last+64; id++ {
					if obj, err := r.get(id); !check(r.who, id, obj, err) {
						return
					}
				}
				if obj, err := r.get(0); !errors.Is(err, ErrNotFound) {
					t.Errorf("%s: object 0 = %+v, %v; want ErrNotFound", r.who, obj, err)
					return
				}
			}
		}()
	}
	ids := make([][]ObjID, writers)
	var wg sync.WaitGroup
	for w := range uint64(writers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range uint64(per) {
				ids[w] = append(ids[w], s.ObjectAdd(ObjType(fmt.Sprint("t", w)), w, seq, float64(seq)+0.5, bag(w, seq)))
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()

	last := ObjID(writers * per)
	if chunks := len(*s.table.Load()); chunks < 4 {
		t.Fatalf("%d objects fill %d chunks, want >= 4", last, chunks)
	}
	seen := make(map[ObjID]bool)
	for w, mine := range ids {
		for seq, id := range mine {
			for _, r := range tiers {
				obj, err := r.get(id)
				if err != nil || obj.Author != uint64(w) || obj.Parent != uint64(seq) || !check(r.who, id, obj, err) {
					t.Fatalf("%s: object %d = %+v, %v; want writer %d's object %d", r.who, id, obj, err, w, seq)
				}
			}
			seen[id] = true
		}
	}
	for id := ObjID(1); id <= last; id++ {
		if !seen[id] {
			t.Errorf("id %d was never handed out", id)
		}
	}
	for _, id := range []ObjID{0, last + 1, last + chunkSlots} {
		if _, err := s.ObjectGet(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("object %d of %d: %v, want ErrNotFound", id, last, err)
		}
	}
}

// The store keeps times as Unix nanoseconds, so a time read back is the
// instant written, in UTC, with no monotonic reading — from a clock whose
// times carry one in the local zone, as the real clock's do.
func TestTimesReadBackInUTC(t *testing.T) {
	s := MustNewStore(DefaultConfig(), sim.RealClock{})
	f := NewFollower(s)
	before := time.Now()
	id := s.ObjectAdd("comment", 1, 2, 0, nil)
	after := time.Now()
	at := time.Now().In(time.FixedZone("east", 3600))
	s.AssocAdd(1, "c", id, at, "")
	for _, r := range []struct {
		name string
		get  func(ObjID) (Object, error)
		rng  func(ObjID, AssocType, int, int) []Assoc
	}{{"leader", s.ObjectGet, s.AssocRange}, {"follower", f.ObjectGet, f.AssocRange}} {
		obj, err := r.get(id)
		if c := obj.Created; err != nil || c.Location() != time.UTC || c != c.Round(0) || c.Before(before.Round(0)) || c.After(after.Round(0)) {
			t.Errorf("%s: Created %v, %v; want a UTC time without a monotonic reading between %v and %v", r.name, c, err, before, after)
		}
		if as := r.rng(1, "c", 0, 0); len(as) != 1 || as[0].Time != at.UTC().Round(0) {
			t.Errorf("%s: %+v, want one association at %v", r.name, as, at.UTC().Round(0))
		}
	}
}

// A list is stored oldest first, so an add of the newest row is an append:
// a fresh id2 above the list's largest is never searched for, and no row
// moves. By the count of rows AssocAdd scanned or moved, such an add costs
// nothing at n = 100 and at n = 10 000, tied with the tail or newer, and a
// replace of the tail row with a newer time scans that one row. The list
// still reads as the stable-sort reference says — newest first, equal
// times in arrival order — after replaces that move middle rows among
// their new equals.
func TestAssocAddAppendsAtTheTail(t *testing.T) {
	costs := make(map[int][3]int)
	for _, n := range []int{100, 10000} {
		s, _ := newTestStore(t)
		sh := s.shardFor(1)
		var ref []Assoc
		add := func(id2 ObjID, at time.Time) int {
			before := sh.touched
			s.AssocAdd(1, "p", id2, at, "")
			if i := slices.IndexFunc(ref, func(a Assoc) bool { return a.ID2 == id2 }); i >= 0 {
				ref[i].Time = at
			} else {
				ref = append(ref, Assoc{ID1: 1, Type: "p", ID2: id2, Time: at})
			}
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].Time.After(ref[j].Time) })
			return sh.touched - before
		}
		for i := range n {
			at := t0.Add(time.Duration(i) * time.Millisecond)
			s.AssocAdd(1, "p", ObjID(2*i+2), at, "")
			ref = append(ref, Assoc{ID1: 1, Type: "p", ID2: ObjID(2*i + 2), Time: at})
		}
		slices.Reverse(ref)
		tail := t0.Add(time.Duration(n) * time.Millisecond)
		costs[n] = [3]int{
			add(ObjID(2*n+2), tail),                       // a fresh id2, newest
			add(ObjID(2*n+4), tail),                       // a fresh id2, tied with the tail
			add(ObjID(2*n+4), tail.Add(time.Millisecond)), // the tail row, replaced newer
		}
		add(ObjID(3), tail)                       // a fresh id2 below the largest: searched for
		add(ObjID(n), tail.Add(time.Millisecond)) // a middle row moved to the front, tied
		add(ObjID(n+2), t0.Add(time.Millisecond)) // a middle row moved back, tied
		if got := s.AssocRange(1, "p", 0, 0); !slices.Equal(got, ref) {
			t.Fatalf("n = %d: the list diverged from the stable-sort reference", n)
		}
	}
	t.Logf("rows scanned or moved by a fresh add, a tied add and a tail replace: %v at n = 100, %v at n = 10 000", costs[100], costs[10000])
	if costs[100] != costs[10000] || costs[100] != [3]int{0, 0, 1} {
		t.Errorf("rows scanned or moved: %v at n = 100, %v at n = 10 000; want [0 0 1] at both", costs[100], costs[10000])
	}
}
