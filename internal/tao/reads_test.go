package tao

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"bladerunner/internal/sim"
)

// The two representation-specific helpers below were a map assignment loop
// and a sorted walk of the map when the digests were recorded; readsDigest
// and the fold helpers are as they were then.

// mkBag is the bag ObjectAdd is given for a list of pairs, in order; a later
// pair for the same key wins.
func mkBag(pairs [][2]string) Props { return pairs }

// bagPairs is an object's bag as (key, value) pairs sorted by key.
func bagPairs(obj Object) [][2]string { return obj.Data }

// readsDigest plays a seeded stream of object and association adds against
// a fresh store and folds every read the store answers after each step —
// the object, the list's count and its offset ranges, and the query
// counters — into one FNV-64a digest.
func readsDigest(seed int64, ops int) uint64 {
	rng := rand.New(rand.NewSource(seed))
	clk := sim.NewManualClock(t0)
	s := MustNewStore(Config{IndexShardCapacity: 4}, clk)
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
	var lastID ObjID
	for step := 0; step < ops; step++ {
		clk.Advance(time.Duration(rng.Intn(3)) * time.Second / 2)
		id := ObjID(1 + rng.Intn(int(lastID)+2))
		id1, typ, id2 := ObjID(1+rng.Intn(3)), types[rng.Intn(2)], ObjID(1+rng.Intn(12))
		if op := rng.Intn(10); op < 2 {
			lastID = s.ObjectAdd(ObjType(fmt.Sprint("t", op)), 0, 0, 0, mkBag(randPairs()))
			id = lastID
		} else {
			s.AssocAdd(id1, typ, id2, t0.Add(time.Duration(rng.Intn(6))*time.Second), fmt.Sprint(step%5))
		}
		obj, err := s.ObjectGet(id)
		foldErr(h, err)
		fmt.Fprintf(h, "obj %d %s %d %q;", obj.ID, obj.Type, obj.Version, bagPairs(obj))
		fmt.Fprintf(h, "count %d;", s.AssocCount(id1, typ))
		for _, off := range []int{0, 1, 3, -1} {
			for _, lim := range []int{0, 1, 3, -1} {
				foldAssocs(h, s.AssocRange(id1, typ, off, lim))
			}
		}
		st := s.Stats()
		fmt.Fprintf(h, "stats %d %d %d %d;", st.PointQueries.Value(), st.RangeQueries.Value(),
			st.Writes.Value(), st.ShardAccesses.Value())
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
// list key, by this readsDigest with that store's two helpers. A changed
// digest is a changed read surface, never a test to re-record.
func TestReadsAreUnchanged(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want uint64
	}{
		{1, 0x669813299c2378cc},
		{2, 0xaf4fa7a6ff410b70},
		{3, 0xd0160d0601f56d77},
		{4, 0x3c129da5238f2112},
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

// TestStoreHoldsWhatItStores pins the stored form. A comment with its text
// and two ids is one 128-byte slot of the object table — its type, ids,
// score and creation time, and room for two pairs that holds the text — and
// the table's 1024-slot chunks are whole 8-KiB pages, so a comment retains
// ~129 B and ObjectAdd allocates nothing. An association row is 32 bytes
// plus its list's growth slack, filed under the list's key rather than
// repeating it. A list grows by doubling into size classes, with an 8-byte
// malloc header past 512 B, so what a row retains is mostly where its
// list's length falls against that capacity: ~64 B over 256 video lists of
// 78 rows (151-row capacity, 4 832 B; 48-byte rows read ~54, their 85-row
// capacity, 4 080 B, nearer the length), ~61 B over 1 000 mailboxes of 40
// rows (71-row capacity, 2 272 B; 48-byte rows read ~105). ObjectAdd copies
// the caller's bag, so the literal stays on the caller's stack.
func TestStoreHoldsWhatItStores(t *testing.T) {
	if size := unsafe.Sizeof(chunk{}); size%8192 != 0 {
		t.Errorf("a chunk of the object table is %d B, not a whole number of 8-KiB pages", size)
	}
	if testing.Short() {
		t.Skip("heap measurement: 20 000 adds each, and the race detector allocates")
	}
	const n = 20000
	s := MustNewStore(DefaultConfig(), nil)
	obj := retainedPer(n, func(int) {
		s.ObjectAdd("comment", 7, 17, 0, Props{{"text", "nice"}})
	})
	runtime.KeepAlive(s)
	// A video's comments, over 256 videos.
	s = MustNewStore(DefaultConfig(), nil)
	row := retainedPer(n, func(i int) {
		s.AssocAdd(ObjID(1+i%256), "video_comment", ObjID(1000+i), t0.Add(time.Duration(i)), "")
	})
	runtime.KeepAlive(s)
	// A mailbox's messages, each row's data its seq, over 1 000 mailboxes.
	s = MustNewStore(DefaultConfig(), nil)
	mail := retainedPer(40*1000, func(i int) {
		s.AssocAdd(ObjID(1+i%1000), "mailbox_msg", ObjID(1000+i), t0.Add(time.Duration(i)), strconv.Itoa(1+i/1000))
	})
	runtime.KeepAlive(s)
	allocs := testing.AllocsPerRun(1000, func() {
		s.ObjectAdd("comment", 7, 17, 0, Props{{"text", "nice"}})
	})
	t.Logf("comment object %.1f B, association row %.1f B (video) %.1f B (mailbox), ObjectAdd %v allocs", obj, row, mail, allocs)
	if obj > 136 {
		t.Errorf("a comment object retains %.1f B, want <= 136", obj)
	}
	if row > 90 {
		t.Errorf("a video's association row retains %.1f B, want <= 90", row)
	}
	if mail > 72 {
		t.Errorf("a mailbox's association row retains %.1f B, want <= 72", mail)
	}
	if allocs != 0 {
		t.Errorf("ObjectAdd: %v allocs, want 0 (the object and its bag sit in the table's slot)", allocs)
	}
}
