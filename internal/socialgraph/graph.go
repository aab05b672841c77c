// Package socialgraph models the slice of the social graph that the
// Bladerunner applications operate on: users with power-law friend lists,
// block lists and languages. It replaces Facebook's production graph with a
// synthetic generator whose distributions are configurable; see DESIGN.md §4
// for why the substitution preserves the behaviour the paper measures.
package socialgraph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// UserID identifies a user. IDs are dense, starting at 1.
type UserID uint64

// Language tags the language a user posts and reads in.
type Language uint8

// numLanguages is the size of the language universe the generator draws
// from. The exact set does not matter; LiveVideoComments filters comments
// whose language differs from the viewer's.
const numLanguages = 6

// User is one node of the graph.
type User struct {
	ID        UserID
	Lang      Language
	Celebrity bool // celebrities bypass the "unknown commenter" down-rank
}

// Graph is an immutable-after-generation social graph. All read methods are
// safe for concurrent use. Friend rows and block rows are sorted,
// cap-clipped views of one exact-size array each; Block replaces a row, it
// never writes into the shared array.
type Graph struct {
	users   []User     // index = id-1
	friends [][]UserID // index = id-1
	blocked [][]UserID // index = id-1; nil blocks nobody
}

// Config parameterizes graph generation.
type Config struct {
	Users int // number of users; must be > 0
	// MeanFriends is the target mean friend-list size. Friend counts
	// follow a bounded power law, matching the heavy-tailed degree
	// distribution of real social graphs.
	MeanFriends int
	// BlockProb is the probability that a given user blocks any one of
	// their non-friends sampled during generation.
	BlockProb float64
	// CelebrityFraction is the fraction of users marked as celebrities.
	CelebrityFraction float64
	Seed              int64
}

// DefaultConfig returns a small graph configuration suitable for tests.
func DefaultConfig() Config {
	return Config{
		Users:             1000,
		MeanFriends:       50,
		BlockProb:         0.01,
		CelebrityFraction: 0.001,
		Seed:              1,
	}
}

// Generate builds a synthetic graph from cfg.
func Generate(cfg Config) (*Graph, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("socialgraph: Users must be positive, got %d", cfg.Users)
	}
	if cfg.MeanFriends < 0 || cfg.MeanFriends >= cfg.Users {
		return nil, fmt.Errorf("socialgraph: MeanFriends %d out of range for %d users",
			cfg.MeanFriends, cfg.Users)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Graph{
		users:   make([]User, cfg.Users),
		friends: make([][]UserID, cfg.Users),
		blocked: make([][]UserID, cfg.Users),
	}
	for i := range g.users {
		g.users[i] = User{
			ID:        UserID(i + 1),
			Lang:      Language(rng.Intn(numLanguages)),
			Celebrity: rng.Float64() < cfg.CelebrityFraction,
		}
	}
	g.generateFriendships(cfg, rng)
	g.generateBlocks(cfg, rng)
	return g, nil
}

// MustGenerate is Generate that panics on error, for tests and examples.
func MustGenerate(cfg Config) *Graph {
	g, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// generateFriendships draws a target degree per user from a bounded power
// law and wires mutual edges with preferential attachment toward low IDs,
// producing a heavy-tailed degree distribution.
func (g *Graph) generateFriendships(cfg Config, rng *rand.Rand) {
	if cfg.MeanFriends == 0 {
		return
	}
	n := len(g.users)
	// rows[i] holds user i+1's friends in draw order; while i draws,
	// mark[j] == i+1 says user j+1 is one of them already.
	rows := make([][]UserID, n)
	mark := make([]int32, n)
	// Bounded Pareto target degrees with the configured mean: shape 2.0
	// gives mean 2*xm, so xm = mean/2.
	xm := float64(cfg.MeanFriends) / 2
	if xm < 1 {
		xm = 1
	}
	maxDeg := n - 1
	entries := 0
	for i := 0; i < n; i++ {
		deg := int(xm / math.Pow(1-rng.Float64(), 0.5))
		if deg > maxDeg {
			deg = maxDeg
		}
		stamp := int32(i + 1)
		for _, f := range rows[i] {
			mark[f-1] = stamp
		}
		for len(rows[i]) < deg {
			// Preferential attachment: square the uniform to skew
			// toward low IDs, creating hub users.
			j := int(rng.Float64() * rng.Float64() * float64(n))
			if j >= n {
				j = n - 1
			}
			if j == i || mark[j] == stamp {
				continue
			}
			mark[j] = stamp
			rows[i] = append(rows[i], UserID(j+1))
			rows[j] = append(rows[j], UserID(i+1))
			entries += 2
		}
	}
	// One transpose into one exact-size array: each friend row starts empty
	// with its final capacity, and walking the users upward appends each to
	// its friends' rows, so every row comes out sorted.
	flat := make([]UserID, entries)
	at := 0
	for i, r := range rows {
		g.friends[i] = flat[at : at : at+len(r)]
		at += len(r)
	}
	for j, r := range rows {
		for _, f := range r {
			g.friends[f-1] = append(g.friends[f-1], UserID(j+1))
		}
	}
}

func (g *Graph) generateBlocks(cfg Config, rng *rand.Rand) {
	if cfg.BlockProb <= 0 {
		return
	}
	n := len(g.users)
	// Each user blocks a Poisson-ish number of random users. The draws
	// land behind the previous user's sorted, deduplicated row in one
	// scratch array, which is then copied to its exact size.
	meanBlocks := cfg.BlockProb * 20
	var drawn []UserID
	ends := make([]int, n)
	for i := 0; i < n; i++ {
		k := int(rng.ExpFloat64() * meanBlocks)
		start := len(drawn)
		for b := 0; b < k; b++ {
			j := UserID(rng.Intn(n) + 1)
			if int(j) != i+1 {
				drawn = append(drawn, j)
			}
		}
		slices.Sort(drawn[start:])
		drawn = drawn[:start+len(slices.Compact(drawn[start:]))]
		ends[i] = len(drawn)
	}
	flat := make([]UserID, len(drawn))
	copy(flat, drawn)
	start := 0
	for i, end := range ends {
		if end > start {
			g.blocked[i] = flat[start:end:end]
		}
		start = end
	}
}

// NumUsers returns the number of users in the graph.
func (g *Graph) NumUsers() int { return len(g.users) }

// User returns the user record for id. It panics on out-of-range IDs, which
// indicate a bug in the caller: an id that arrives from a device is input,
// range-checked by the WAS before any resolver reads the graph.
func (g *Graph) User(id UserID) User {
	g.check(id)
	return g.users[id-1]
}

// Friends returns the sorted friend list of id. The returned slice must not
// be modified.
func (g *Graph) Friends(id UserID) []UserID {
	g.check(id)
	return g.friends[id-1]
}

// AreFriends reports whether a and b are friends.
func (g *Graph) AreFriends(a, b UserID) bool {
	g.check(a)
	g.check(b)
	_, found := slices.BinarySearch(g.friends[a-1], b)
	return found
}

// Blocks reports whether viewer has blocked author.
func (g *Graph) Blocks(viewer, author UserID) bool {
	g.check(viewer)
	g.check(author)
	_, found := slices.BinarySearch(g.blocked[viewer-1], author)
	return found
}

// Block adds author to viewer's block list (used by tests and demos; the
// generator also produces blocks). Inserting into the clipped row always
// allocates, so the row is replaced by a fresh copy and the array the
// generated rows share is never written.
func (g *Graph) Block(viewer, author UserID) {
	g.check(viewer)
	g.check(author)
	row := g.blocked[viewer-1]
	if i, found := slices.BinarySearch(row, author); !found {
		g.blocked[viewer-1] = slices.Insert(slices.Clip(row), i, author)
	}
}

// RandomUser returns a uniformly random user ID using rng.
func (g *Graph) RandomUser(rng *rand.Rand) UserID {
	return UserID(rng.Intn(len(g.users)) + 1)
}

func (g *Graph) check(id UserID) {
	if id == 0 || int(id) > len(g.users) {
		panic(fmt.Sprintf("socialgraph: user id %d out of range [1,%d]", id, len(g.users)))
	}
}

// DegreeStats summarizes the friend-count distribution, used by tests to
// verify the generator produces a heavy tail.
type DegreeStats struct {
	Min, Max int
	Mean     float64
}

// Degrees computes DegreeStats over all users.
func (g *Graph) Degrees() DegreeStats {
	if len(g.users) == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: math.MaxInt}
	total := 0
	for _, f := range g.friends {
		d := len(f)
		total += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	st.Mean = float64(total) / float64(len(g.users))
	return st
}
