package tao

import (
	"errors"
	"slices"
	"sort"
	"testing"
	"time"

	"bladerunner/internal/sim"
)

// FuzzAssocOps drives the association surface with two bytes an op — AssocAdd,
// AssocDelete, AssocGet, AssocRange, AssocTimeRange, Intersect — over 4
// lists, 16 id2s and 4 distinct times, so ties are common, and checks every
// read against a reference that appends and stable-sorts newest first.
//
// The first byte picks the op (low 3 bits, mod 6) and the list (next 2
// bits); the second picks the id2 (low 4 bits), a time (next 2) and a count
// (top 2) that reads as an offset or limit of 0, 1, 3 or -1. Seeds are in
// testdata/fuzz/FuzzAssocOps.
func FuzzAssocOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		lists := []assocKey{{1, "a"}, {1, "b"}, {2, "a"}, {3, "a"}}
		times := []time.Time{t0, t0.Add(time.Second), t0.Add(2 * time.Second), t0.Add(3 * time.Second)}
		counts := []int{0, 1, 3, -1}
		s := MustNewStore(Config{Shards: 2, IndexShardCapacity: 4}, sim.NewManualClock(t0.Add(time.Hour)))
		ref := make(map[assocKey][]Assoc)
		for i := 0; i+1 < len(ops); i += 2 {
			key := lists[ops[i]>>3&3]
			id2, at, n := ObjID(ops[i+1]&15), times[ops[i+1]>>4&3], counts[ops[i+1]>>6]
			lst := ref[key]
			j := slices.IndexFunc(lst, func(a Assoc) bool { return a.ID2 == id2 })
			switch ops[i] & 7 % 6 {
			case 0:
				data := string(rune('a' + i%26))
				s.AssocAdd(key.id1, key.typ, id2, at, data)
				if j >= 0 {
					lst[j].Time, lst[j].Data = at, data
				} else {
					lst = append(lst, Assoc{ID1: key.id1, Type: key.typ, ID2: id2, Time: at, Data: data})
				}
				sort.SliceStable(lst, func(a, b int) bool { return lst[a].Time.After(lst[b].Time) })
				ref[key] = lst
			case 1:
				err := s.AssocDelete(key.id1, key.typ, id2)
				if (err == nil) != (j >= 0) {
					t.Fatalf("op %d: delete %v: %v, reference has it: %v", i/2, id2, err, j >= 0)
				}
				if j >= 0 {
					ref[key] = slices.Delete(lst, j, j+1)
				}
			case 2:
				got, err := s.AssocGet(key.id1, key.typ, id2)
				if j < 0 && !errors.Is(err, ErrNotFound) || j >= 0 && (err != nil || got != lst[j]) {
					t.Fatalf("op %d: get %v = %+v, %v; reference %v", i/2, id2, got, err, lst)
				}
			case 3:
				off := counts[ops[i+1]>>4&3]
				want := lst[min(max(off, 0), len(lst)):]
				if n > 0 {
					want = want[:min(n, len(want))]
				}
				check(t, i/2, "range", s.AssocRange(key.id1, key.typ, off, n), want)
			case 4:
				since, until := times[id2&3].Add(-time.Second), times[id2>>2&3]
				var want []Assoc
				for _, a := range lst {
					if a.Time.After(since) && !a.Time.After(until) && (n <= 0 || len(want) < n) {
						want = append(want, a)
					}
				}
				check(t, i/2, "time range", s.AssocTimeRange(key.id1, key.typ, since, until, n), want)
			case 5:
				other := ref[lists[id2&3]]
				var want []Assoc
				for _, a := range lst {
					if slices.ContainsFunc(other, func(b Assoc) bool { return b.ID2 == a.ID2 }) && (n <= 0 || len(want) < n) {
						want = append(want, a)
					}
				}
				check(t, i/2, "intersect", s.Intersect(key.id1, key.typ, lists[id2&3].id1, lists[id2&3].typ, n), want)
			}
			if got := s.AssocRange(key.id1, key.typ, 0, 0); !slices.Equal(got, ref[key]) || s.AssocCount(key.id1, key.typ) != len(ref[key]) {
				t.Fatalf("op %d: list %v = %v, reference %v", i/2, key, got, ref[key])
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
