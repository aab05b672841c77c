package tao

import (
	"errors"
	"maps"
	"slices"
	"sort"
	"testing"
	"time"

	"bladerunner/internal/sim"
)

// FuzzAssocOps drives the association surface the applications use with two
// bytes an op — AssocAdd and AssocRange — over 4 lists, 16 id2s and 4
// distinct times, so ties are common, and checks every range, and every
// list's AssocCount after every step, against a reference that appends and
// stable-sorts newest first.
//
// The first byte picks the op (low bit) and the list (bits 3 and 4); the
// second picks the id2 (low 4 bits), a time (next 2) and a count (top 2)
// that reads as an offset or limit of 0, 1, 3 or -1. Seeds are in
// testdata/fuzz/FuzzAssocOps.
func FuzzAssocOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		lists := []assocKey{{1, "a"}, {1, "b"}, {2, "a"}, {3, "a"}}
		times := []time.Time{t0, t0.Add(time.Second), t0.Add(2 * time.Second), t0.Add(3 * time.Second)}
		counts := []int{0, 1, 3, -1}
		s := MustNewStore(Config{IndexShardCapacity: 4}, sim.NewManualClock(t0.Add(time.Hour)))
		ref := make(map[assocKey][]Assoc)
		for i := 0; i+1 < len(ops); i += 2 {
			key := lists[ops[i]>>3&3]
			id2, at, n := ObjID(ops[i+1]&15), times[ops[i+1]>>4&3], counts[ops[i+1]>>6]
			lst := ref[key]
			if ops[i]&1 == 0 {
				data := string(rune('a' + i%26))
				s.AssocAdd(key.id1, key.typ, id2, at, data)
				if j := slices.IndexFunc(lst, func(a Assoc) bool { return a.ID2 == id2 }); j >= 0 {
					lst[j].Time, lst[j].Data = at, data
				} else {
					lst = append(lst, Assoc{ID1: key.id1, Type: key.typ, ID2: id2, Time: at, Data: data})
				}
				sort.SliceStable(lst, func(a, b int) bool { return lst[a].Time.After(lst[b].Time) })
				ref[key] = lst
			} else {
				off := counts[ops[i+1]>>4&3]
				want := lst[min(max(off, 0), len(lst)):]
				if n > 0 {
					want = want[:min(n, len(want))]
				}
				check(t, i/2, "range", s.AssocRange(key.id1, key.typ, off, n), want)
			}
			if got := s.AssocRange(key.id1, key.typ, 0, 0); !slices.Equal(got, ref[key]) {
				t.Fatalf("op %d: list %v = %v, reference %v", i/2, key, got, ref[key])
			}
			for _, k := range lists {
				if got := s.AssocCount(k.id1, k.typ); got != len(ref[k]) {
					t.Fatalf("op %d: count of %v = %d, reference %d", i/2, k, got, len(ref[k]))
				}
			}
		}
	})
}

// FuzzObjectAdd drives ObjectAdd with bags of 0 to 7 pairs over 4 keys, so
// repeated keys are common and bags fall on both sides of the room a stored
// object holds (bagRoom). After each add it overwrites the bag it passed,
// then reads every object added so far from the leader and through a
// Follower — a miss the first time, a hit after — and checks each against a
// map reference in which a key's last pair wins, its type and typed fields,
// Version 1 and Created, the clock's time at the add in UTC (==, so no
// monotonic reading). Id 0 and the id one past the last added read as
// ErrNotFound from both.
//
// An add is one header byte and a byte a pair. The header's low 3 bits are
// the bag's size and the whole byte seeds the typed fields; a pair's low 2
// bits pick its key and the rest its value. Seeds are in
// testdata/fuzz/FuzzObjectAdd.
func FuzzObjectAdd(f *testing.F) {
	type want struct {
		typ            ObjType
		author, parent uint64
		score          float64
		created        time.Time
		bag            map[string]string
	}
	keys := []string{"a", "kind", "text", "z"}
	f.Fuzz(func(t *testing.T, b []byte) {
		clk := sim.NewManualClock(t0)
		s := MustNewStore(DefaultConfig(), clk)
		fol := NewFollower(s)
		ref := make(map[ObjID]want)
		for i := 0; i < len(b) && len(ref) < 64; {
			h := b[i]
			i++
			bag := make(Props, min(int(h&7), len(b)-i))
			w := want{typ: ObjType(keys[h>>3&3]), author: uint64(h >> 3), parent: uint64(h) << 40,
				score: float64(h) / 8, created: clk.Now(), bag: make(map[string]string)}
			for j := range bag {
				bag[j] = [2]string{keys[b[i]&3], string(rune('0' + b[i]>>2))}
				w.bag[bag[j][0]] = bag[j][1]
				i++
			}
			id := s.ObjectAdd(w.typ, w.author, w.parent, w.score, bag)
			ref[id] = w
			for j := range bag {
				bag[j] = [2]string{"mutated", "by the adder"}
			}
			clk.Advance(time.Second)
			for _, none := range []ObjID{0, id + 1} {
				if _, err := s.ObjectGet(none); !errors.Is(err, ErrNotFound) {
					t.Fatalf("leader: object %d of %d: %v, want ErrNotFound", none, id, err)
				}
				if _, err := fol.ObjectGet(none); !errors.Is(err, ErrNotFound) {
					t.Fatalf("follower: object %d of %d: %v, want ErrNotFound", none, id, err)
				}
			}
			for id, w := range ref {
				for _, r := range []struct {
					name string
					get  func(ObjID) (Object, error)
				}{{"leader", s.ObjectGet}, {"follower", fol.ObjectGet}} {
					obj, err := r.get(id)
					if err != nil {
						t.Fatalf("%s: object %d: %v", r.name, id, err)
					}
					if obj.ID != id || obj.Type != w.typ || obj.Author != w.author || obj.Parent != w.parent ||
						obj.Score != w.score || obj.Version != 1 || obj.Created != w.created {
						t.Fatalf("%s: object %d = %+v, reference %+v", r.name, id, obj, w)
					}
					got := make(map[string]string)
					for j, kv := range obj.Data {
						if j > 0 && obj.Data[j-1][0] >= kv[0] {
							t.Fatalf("%s: object %d: bag %q not sorted with one pair per key", r.name, id, obj.Data)
						}
						got[kv[0]] = kv[1]
					}
					if !maps.Equal(got, w.bag) || cap(obj.Data) != len(obj.Data) {
						t.Fatalf("%s: object %d: bag %q (cap %d), reference %v", r.name, id, obj.Data, cap(obj.Data), w.bag)
					}
					for _, k := range keys {
						if obj.Data.Get(k) != w.bag[k] {
							t.Fatalf("%s: object %d: Get(%q) = %q, reference %q", r.name, id, k, obj.Data.Get(k), w.bag[k])
						}
					}
				}
			}
		}
	})
}

func check(t *testing.T, op int, what string, got, want []Assoc) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("op %d: %s = %v, reference %v", op, what, got, want)
	}
}
