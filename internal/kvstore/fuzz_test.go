package kvstore

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzSetViewMerge builds up to three replica views from two bytes an entry
// — over 8 members and 4 versions, so version ties between a member and its
// own tombstone are common — and checks Merge, Get and Members against a
// map reference kept here, then that Merge is commutative, associative and
// idempotent and leaves its inputs alone.
//
// The first byte picks the member (low 3 bits), the view (next 2 bits, mod
// 3) and presence (top bit); the second picks the version (low 2 bits). A
// later entry for a member in the same view replaces the earlier one: a
// replica holds one record a member. Seeds are in
// testdata/fuzz/FuzzSetViewMerge.
func FuzzSetViewMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, entries []byte) {
		members := make([]Member, 9) // the ninth is never written
		for i := range members {
			members[i] = Member(fmt.Sprint("m", i))
		}
		held := make([]map[Member]VersionedMember, 3)
		for i := range held {
			held[i] = make(map[Member]VersionedMember)
		}
		for i := 0; i+1 < len(entries); i += 2 {
			m := members[entries[i]&7]
			held[entries[i]>>3&3%3][m] = VersionedMember{Member: m, Version: uint64(entries[i+1] & 3), Present: entries[i]&0x80 != 0}
		}
		ref := make(map[Member]VersionedMember)
		views := make([]SetView, len(held))
		for i, h := range held {
			for _, m := range members {
				r, ok := h[m]
				if !ok {
					continue
				}
				views[i] = append(views[i], r)
				cur, ok := ref[m]
				if !ok || r.Version > cur.Version || r.Version == cur.Version && !r.Present {
					ref[m] = r
				}
			}
		}
		inputs := make([]SetView, len(views))
		for i, v := range views {
			inputs[i] = slices.Clone(v)
		}

		merged := Merge(views...)
		if len(merged) != len(ref) {
			t.Fatalf("Merge = %v, reference %v", merged, ref)
		}
		for i, r := range merged {
			if i > 0 && merged[i-1].Member >= r.Member {
				t.Fatalf("Merge = %v: not sorted by member", merged)
			}
			if r != ref[r.Member] {
				t.Fatalf("Merge holds %+v, reference %+v", r, ref[r.Member])
			}
		}
		var present []Member
		for _, m := range members {
			want, ok := ref[m]
			if got, gotOK := merged.Get(m); gotOK != ok || got != want {
				t.Fatalf("Get(%s) = %+v, %v; reference %+v, %v", m, got, gotOK, want, ok)
			}
			if want.Present {
				present = append(present, m)
			}
		}
		if got := merged.Members(); !slices.Equal(got, present) {
			t.Fatalf("Members = %v, reference %v", got, present)
		}

		for _, again := range []struct {
			how  string
			view SetView
		}{
			{"reversed", Merge(views[2], views[1], views[0])},
			{"pairwise", Merge(Merge(views[0], views[1]), views[2])},
			{"with itself", Merge(merged, merged)},
			{"alone", Merge(merged)},
			{"with an input", Merge(views[1], merged)},
		} {
			if !slices.Equal(again.view, merged) {
				t.Fatalf("Merge %s = %v, want %v", again.how, again.view, merged)
			}
		}
		for i := range views {
			if !slices.Equal(views[i], inputs[i]) {
				t.Fatalf("Merge wrote its input %d: %v, was %v", i, views[i], inputs[i])
			}
		}
	})
}
