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

// FuzzReplicaApply drives one Node through apply, viewUnless and Patch, two
// bytes an op over 2 keys, 8 members and 4 versions, and checks it against a
// reference that keeps a map of LWW records a key: the node's view is that
// map, sorted by member; viewUnless answers nil exactly when the stored set
// equals a non-nil same; Patch reports whether the node differed; and a view
// a caller holds never changes after later applies.
//
// The first byte picks the op (low 2 bits: apply twice over, viewUnless,
// Patch), the key (bit 2), the member (bits 3–5) and presence (bit 6); the
// second picks the version (low 2 bits) and, for viewUnless, what same is
// (bits 2–3: nil, the reference view, the reference view merged with the
// op's entry, or the last view handed out). Seeds are in
// testdata/fuzz/FuzzReplicaApply.
func FuzzReplicaApply(f *testing.F) {
	type record struct {
		version uint64
		present bool
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		n := NewNode("n", "r")
		c := MustNewCluster([]*Node{n}, 1)
		ref := map[string]map[Member]record{"k0": {}, "k1": {}}
		refApply := func(key string, r VersionedMember) {
			if cur, ok := ref[key][r.Member]; !ok || newer(r.Version, r.Present, cur.version, cur.present) {
				ref[key][r.Member] = record{r.Version, r.Present}
			}
		}
		refView := func(key string) SetView {
			v := SetView{}
			for m, r := range ref[key] {
				v = append(v, VersionedMember{Member: m, Version: r.version, Present: r.present})
			}
			slices.SortFunc(v, memberOrder)
			return v
		}
		var held, kept []SetView
		var last SetView
		for i := 0; i+1 < len(ops); i += 2 {
			key := fmt.Sprint("k", ops[i]>>2&1)
			r := VersionedMember{Member: Member(fmt.Sprint("m", ops[i]>>3&7)), Version: uint64(ops[i+1] & 3), Present: ops[i]&0x40 != 0}
			want := refView(key)
			switch ops[i] & 3 {
			case 0, 1:
				if err := n.apply(key, r); err != nil {
					t.Fatal(err)
				}
				refApply(key, r)
			case 2:
				var same SetView
				switch ops[i+1] >> 2 & 3 {
				case 1:
					same = want
				case 2:
					same = Merge(want, SetView{r})
				case 3:
					same = last
				}
				v, err := n.viewUnless(key, same)
				if err != nil {
					t.Fatal(err)
				}
				if agree := same != nil && slices.Equal(same, want); agree != (v == nil) {
					t.Fatalf("viewUnless(%s, %v) = %v; the set is %v", key, same, v, want)
				}
				if v != nil {
					if !slices.Equal(v, want) {
						t.Fatalf("viewUnless(%s) = %v, reference %v", key, v, want)
					}
					held, kept, last = append(held, v), append(kept, slices.Clone(v)), v
				}
			case 3:
				merged := Merge(want, SetView{r})
				if got, differs := c.Patch(key, merged), !slices.Equal(want, merged); got != 1 && differs || got != 0 && !differs {
					t.Fatalf("Patch(%s, %v) on %v patched %d replicas", key, merged, want, got)
				}
				for _, m := range merged {
					refApply(key, m)
				}
			}
			for j := range held {
				if !slices.Equal(held[j], kept[j]) {
					t.Fatalf("a view handed out changed to %v, was %v", held[j], kept[j])
				}
			}
		}
		for key := range ref {
			v, err := n.viewUnless(key, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := refView(key); !slices.Equal(v, want) {
				t.Fatalf("view of %s = %v, reference %v", key, v, want)
			}
		}
	})
}
