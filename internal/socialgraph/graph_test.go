package socialgraph

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Users: 0}); err == nil {
		t.Error("Users=0 accepted")
	}
	if _, err := Generate(Config{Users: 10, MeanFriends: 10}); err == nil {
		t.Error("MeanFriends >= Users accepted")
	}
	if _, err := Generate(Config{Users: 10, MeanFriends: -1}); err == nil {
		t.Error("negative MeanFriends accepted")
	}
}

func TestFriendshipIsSymmetric(t *testing.T) {
	g := testGraph(t)
	for id := UserID(1); id <= UserID(g.NumUsers()); id++ {
		for _, f := range g.Friends(id) {
			if !slices.Contains(g.Friends(f), id) {
				t.Fatalf("friendship %d->%d not symmetric", id, f)
			}
		}
	}
}

func TestNoSelfFriendship(t *testing.T) {
	g := testGraph(t)
	for id := UserID(1); id <= UserID(g.NumUsers()); id++ {
		if slices.Contains(g.Friends(id), id) {
			t.Fatalf("user %d is friends with itself", id)
		}
	}
}

func TestFriendListsSortedAndUnique(t *testing.T) {
	g := testGraph(t)
	for id := UserID(1); id <= UserID(g.NumUsers()); id++ {
		fl := g.Friends(id)
		for i := 1; i < len(fl); i++ {
			if fl[i] <= fl[i-1] {
				t.Fatalf("friend list of %d not sorted/unique at %d: %v", id, i, fl[i-1:i+1])
			}
		}
	}
}

func TestDegreeDistributionHeavyTailed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 5000
	cfg.MeanFriends = 40
	g := MustGenerate(cfg)
	st := degrees(g)
	if st.Mean < 20 || st.Mean > 120 {
		t.Errorf("mean degree %v wildly off target 40", st.Mean)
	}
	// Heavy tail: max degree should far exceed the mean.
	if float64(st.Max) < 3*st.Mean {
		t.Errorf("max degree %d not heavy-tailed vs mean %v", st.Max, st.Mean)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	cfg := DefaultConfig()
	a, b := MustGenerate(cfg), MustGenerate(cfg)
	for id := UserID(1); id <= UserID(cfg.Users); id++ {
		fa, fb := a.Friends(id), b.Friends(id)
		if len(fa) != len(fb) {
			t.Fatalf("user %d: friend counts differ across runs", id)
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("user %d: friend lists differ", id)
			}
		}
		if a.User(id) != b.User(id) {
			t.Fatalf("user %d record differs", id)
		}
	}
}

// digest is an FNV-64a hash over every user's record (language, celebrity),
// friend row and block row, in id order.
func digest(g *Graph) uint64 {
	h := fnv.New64a()
	var b []byte
	for i, u := range g.users {
		b = append(b[:0], byte(u.Lang), 0)
		if u.Celebrity {
			b[1] = 1
		}
		for _, row := range [][]UserID{g.friends[i], g.blocked[i]} {
			b = binary.LittleEndian.AppendUint64(b, uint64(len(row)))
			for _, id := range row {
				b = binary.LittleEndian.AppendUint64(b, uint64(id))
			}
		}
		h.Write(b)
	}
	return h.Sum64()
}

// TestGenerateIsUnchanged pins the generated graph bit for bit. The digests
// were recorded from the map-based generator this one replaced, over the same
// byte sequence with its block sets read out in sorted order: the rng draws
// are the same calls in the same order, so every friend list and block set a
// cluster is built on is the one it had before.
func TestGenerateIsUnchanged(t *testing.T) {
	seed2 := DefaultConfig()
	seed2.Seed = 2
	big := DefaultConfig()
	big.Users, big.MeanFriends = 5000, 40
	for _, c := range []struct {
		cfg  Config
		want uint64
	}{
		{DefaultConfig(), 0x802b0dce3fa599d7},
		{seed2, 0x54a25634cbcec396},
		{big, 0x8a72e7469bd78986},
		{Config{Users: 100, MeanFriends: 5, BlockProb: 0.3}, 0x87767e5fc1992cde},
	} {
		if got := digest(MustGenerate(c.cfg)); got != c.want {
			t.Errorf("%+v: digest %#016x, want %#016x", c.cfg, got, c.want)
		}
	}
}

// TestGenerateAllocations holds what a cluster pays for its graph before its
// first stream opens. The map-based generator took 13 344 allocations and
// 5.13 MiB for the default graph.
func TestGenerateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc contract: the race detector allocates")
	}
	allocs := testing.AllocsPerRun(5, func() { MustGenerate(DefaultConfig()) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MustGenerate(DefaultConfig())
	runtime.ReadMemStats(&after)
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("Generate(DefaultConfig): %.0f allocs, %.2f MiB", allocs, mib)
	if allocs > 8000 || mib > 3 {
		t.Errorf("Generate(DefaultConfig) = %.0f allocs, %.2f MiB; want <= 8000 and <= 3 MiB", allocs, mib)
	}
}

func TestSeedChangesGraph(t *testing.T) {
	cfg := DefaultConfig()
	a := MustGenerate(cfg)
	cfg.Seed = 999
	b := MustGenerate(cfg)
	same := true
	for id := UserID(1); id <= UserID(cfg.Users) && same; id++ {
		if len(a.Friends(id)) != len(b.Friends(id)) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical degree sequences")
	}
}

func TestBlocks(t *testing.T) {
	g := testGraph(t)
	if g.Blocks(1, 2) {
		// Possible but astronomically unlikely for these exact IDs with
		// the default config; tolerate by skipping the explicit check.
		t.Log("users 1,2 blocked by generator; continuing")
	}
	g.Block(1, 2)
	if !g.Blocks(1, 2) {
		t.Error("Block(1,2) not visible")
	}
	if g.Blocks(2, 1) {
		t.Error("blocking is directional; 2 should not block 1")
	}
}

// TestBlockCopiesItsRow: generated block rows are views of one shared array,
// so Block replaces a row and never writes into that array; a duplicate
// block is a no-op; blocking stays directional.
func TestBlockCopiesItsRow(t *testing.T) {
	g := MustGenerate(Config{Users: 100, MeanFriends: 5, BlockProb: 0.3})
	// A viewer whose row ends where the next user's row starts, with room
	// for an author that sorts after all of its entries.
	v := 0
	for len(g.blocked[v]) == 0 || len(g.blocked[v+1]) == 0 || g.blocked[v][len(g.blocked[v])-1] == 100 {
		v++
	}
	before := make([][]UserID, len(g.blocked))
	for i, row := range g.blocked {
		before[i] = slices.Clone(row)
	}
	viewer := UserID(v + 1)
	// Sorting last, an insert in place would overwrite the next row's first entry.
	author := g.blocked[v][len(g.blocked[v])-1] + 1
	shared := g.blocked[v]
	g.Block(viewer, shared[0])
	if &g.blocked[v][0] != &shared[0] {
		t.Error("a duplicate block replaced the row")
	}
	g.Block(viewer, author)
	if want := append(slices.Clone(before[v]), author); !slices.Equal(g.blocked[v], want) {
		t.Errorf("row after Block(%d, %d) = %v, want %v", viewer, author, g.blocked[v], want)
	}
	for i := range g.blocked {
		if i != v && !slices.Equal(g.blocked[i], before[i]) {
			t.Errorf("Block(%d, %d) changed user %d's row to %v, was %v", viewer, author, i+1, g.blocked[i], before[i])
		}
	}
	if !g.Blocks(viewer, author) {
		t.Errorf("Block(%d, %d) not visible", viewer, author)
	}
	if g.Blocks(author, viewer) != slices.Contains(before[author-1], viewer) {
		t.Errorf("Block(%d, %d) changed what %d blocks", viewer, author, author)
	}
}

func TestGeneratorProducesSomeBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 2000
	cfg.BlockProb = 0.3
	g := MustGenerate(cfg)
	found := false
	for i := 0; i < 2000 && !found; i++ {
		for j := 1; j <= 2000; j++ {
			if g.Blocks(UserID(i+1), UserID(j)) {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("no blocks generated with BlockProb=0.3")
	}
}

func TestCelebrityFraction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 20000
	cfg.CelebrityFraction = 0.01
	g := MustGenerate(cfg)
	celebs := 0
	for id := UserID(1); id <= UserID(cfg.Users); id++ {
		if g.User(id).Celebrity {
			celebs++
		}
	}
	frac := float64(celebs) / float64(cfg.Users)
	if frac < 0.005 || frac > 0.02 {
		t.Errorf("celebrity fraction %v, want ~0.01", frac)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := testGraph(t)
	for _, fn := range []func(){
		func() { g.User(0) },
		func() { g.Friends(UserID(g.NumUsers() + 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range id")
				}
			}()
			fn()
		}()
	}
}

func TestZeroMeanFriends(t *testing.T) {
	g := MustGenerate(Config{Users: 10, Seed: 1})
	for id := UserID(1); id <= 10; id++ {
		if len(g.Friends(id)) != 0 {
			t.Errorf("user %d has friends with MeanFriends=0", id)
		}
	}
	if st := degrees(g); st.Max != 0 || st.Mean != 0 {
		t.Errorf("degrees = %+v", st)
	}
}

// degrees is the largest and the mean friend count over all users.
func degrees(g *Graph) (st struct {
	Max  int
	Mean float64
}) {
	total := 0
	for id := UserID(1); id <= UserID(g.NumUsers()); id++ {
		d := len(g.Friends(id))
		total += d
		st.Max = max(st.Max, d)
	}
	st.Mean = float64(total) / float64(g.NumUsers())
	return st
}
