package tao

import (
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

func check(t *testing.T, op int, what string, got, want []Assoc) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("op %d: %s = %v, reference %v", op, what, got, want)
	}
}
