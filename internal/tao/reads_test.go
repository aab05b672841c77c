package tao

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"bladerunner/internal/sim"
)

// The two representation-specific helpers below were a map assignment loop
// and a sorted walk of the map when the digests were recorded; readsDigest
// and the fold helpers are as they were then.

// mkBag is the bag ObjectAdd and ObjectUpdate are given for a list of pairs,
// in order; a later pair for the same key wins.
func mkBag(pairs [][2]string) Props { return pairs }

// bagPairs is an object's bag as (key, value) pairs sorted by key.
func bagPairs(obj Object) [][2]string { return obj.Data }

// readsDigest plays a seeded stream of object and association writes
// against a fresh store and folds every read the store answers after each
// step — objects, association points, counts, offset and time ranges,
// intersections and the query counters — into one FNV-64a digest.
func readsDigest(seed int64, ops int) uint64 {
	rng := rand.New(rand.NewSource(seed))
	clk := sim.NewManualClock(t0)
	s := MustNewStore(Config{Shards: 8, IndexShardCapacity: 4}, clk)
	h := fnv.New64a()
	keys := []string{"a", "author", "b", "post", "text", "z"}
	randPairs := func() [][2]string {
		pairs := make([][2]string, rng.Intn(13))
		for i := range pairs {
			v := ""
			if rng.Intn(4) > 0 {
				v = fmt.Sprint(rng.Intn(100))
			}
			pairs[i] = [2]string{keys[rng.Intn(len(keys))], v}
		}
		return pairs
	}
	types := []AssocType{"c", "f"}
	times := func() time.Time { return t0.Add(time.Duration(rng.Intn(6)) * time.Second) }
	var lastID ObjID
	for step := 0; step < ops; step++ {
		clk.Advance(time.Duration(rng.Intn(3)) * time.Second / 2)
		id := ObjID(1 + rng.Intn(int(lastID)+2))
		id1, typ, id2 := ObjID(1+rng.Intn(3)), types[rng.Intn(2)], ObjID(1+rng.Intn(12))
		switch op := rng.Intn(10); {
		case op < 2:
			lastID = s.ObjectAdd(ObjType(fmt.Sprint("t", op)), mkBag(randPairs()))
			id = lastID
		case op < 3:
			foldErr(h, s.ObjectUpdate(id, mkBag(randPairs())))
		case op < 4:
			foldErr(h, s.ObjectDelete(id))
		case op < 9:
			s.AssocAdd(id1, typ, id2, times(), fmt.Sprint(step%5))
		default:
			foldErr(h, s.AssocDelete(id1, typ, id2))
		}
		obj, err := s.ObjectGet(id)
		foldErr(h, err)
		fmt.Fprintf(h, "obj %d %s %d %q;", obj.ID, obj.Type, obj.Version, bagPairs(obj))
		if a, err := s.AssocGet(id1, typ, id2); err == nil {
			foldAssocs(h, []Assoc{a})
		} else {
			foldErr(h, err)
		}
		fmt.Fprintf(h, "count %d;", s.AssocCount(id1, typ))
		for _, off := range []int{0, 1, 3, -1} {
			for _, lim := range []int{0, 1, 3, -1} {
				foldAssocs(h, s.AssocRange(id1, typ, off, lim))
			}
		}
		since, until := times(), time.Time{}
		if rng.Intn(2) == 0 {
			until = times()
		}
		for _, lim := range []int{0, 1, 3} {
			foldAssocs(h, s.AssocTimeRange(id1, typ, since.Add(-time.Second), until, lim))
			foldAssocs(h, s.Intersect(id1, typ, ObjID(1+rng.Intn(3)), types[rng.Intn(2)], lim))
		}
		st := s.Stats()
		fmt.Fprintf(h, "stats %d %d %d %d %d;", st.PointQueries.Value(), st.RangeQueries.Value(),
			st.IntersectQueries.Value(), st.Writes.Value(), st.ShardAccesses.Value())
	}
	return h.Sum64()
}

func foldErr(h hash.Hash64, err error) {
	fmt.Fprintf(h, "err %t;", errors.Is(err, ErrNotFound))
}

func foldAssocs(h hash.Hash64, as []Assoc) {
	fmt.Fprintf(h, "assocs %t %d:", as == nil, len(as))
	for _, a := range as {
		fmt.Fprintf(h, "%d %s %d %d %q,", a.ID1, a.Type, a.ID2, a.Time.UnixNano(), a.Data)
	}
}

// TestReadsAreUnchanged pins what the store answers, not how it holds it:
// the digests were recorded from the map-backed store (commit 8086cec),
// before bags became sorted pair slices and association rows dropped their
// list key. A changed digest is a changed read surface, never a test to
// re-record.
func TestReadsAreUnchanged(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want uint64
	}{
		{1, 0xfb11d5f50c623002},
		{2, 0x5dd56d041dfde0cd},
		{3, 0xeb3127616c0a9ab1},
		{4, 0xd90f6c17bce1e6f2},
	} {
		if got := readsDigest(c.seed, 600); got != c.want {
			t.Errorf("seed %d: digest %#x, want %#x", c.seed, got, c.want)
		}
	}
}

// retainedPer is the heap one call of add leaves live, averaged over n calls:
// HeapAlloc after a GC, before and after. The caller keeps what add writes
// into alive past the call.
func retainedPer(n int, add func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range n {
		add(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestStoreHoldsWhatItStores pins the stored form. A 3-pair object is its
// 80-byte Object, one exact-size 96-byte bag and its shard-index slot (about
// 28 bytes at this size); as a 3-key map it held 428. An association row is
// 48 bytes plus its list's growth slack, filed under the list's key rather
// than repeating it (80-byte rows: 140). ObjectAdd copies the caller's bag,
// so the literal stays on the caller's stack.
func TestStoreHoldsWhatItStores(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement: 20 000 adds each, and the race detector allocates")
	}
	const n = 20000
	s := MustNewStore(DefaultConfig(), nil)
	obj := retainedPer(n, func(int) {
		s.ObjectAdd("comment", Props{{"text", "nice"}, {"author", "7"}, {"post", "17"}})
	})
	runtime.KeepAlive(s)
	// A post's comments, over focus_churn's 256 posts.
	s = MustNewStore(DefaultConfig(), nil)
	row := retainedPer(n, func(i int) {
		s.AssocAdd(ObjID(1+i%256), "post_comment", ObjID(1000+i), t0.Add(time.Duration(i)), "")
	})
	runtime.KeepAlive(s)
	allocs := testing.AllocsPerRun(1000, func() {
		s.ObjectAdd("comment", Props{{"text", "nice"}, {"author", "7"}, {"post", "17"}})
	})
	t.Logf("3-pair object %.1f B, association row %.1f B, ObjectAdd %v allocs", obj, row, allocs)
	if obj > 210 {
		t.Errorf("a 3-pair object retains %.1f B, want <= 210", obj)
	}
	if row > 90 {
		t.Errorf("an association row retains %.1f B, want <= 90", row)
	}
	if allocs > 2 {
		t.Errorf("ObjectAdd: %v allocs, want <= 2 (the Object and its bag)", allocs)
	}
}
