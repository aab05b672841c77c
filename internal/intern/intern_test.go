package intern

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternStableHandles(t *testing.T) {
	tb := New()
	a := tb.Intern("/TI/1/1")
	b := tb.Intern("/TI/1/2")
	if a == 0 || b == 0 {
		t.Fatalf("valid handles must not be 0: a=%d b=%d", a, b)
	}
	if a == b {
		t.Fatalf("distinct strings got the same handle %d", a)
	}
	if got := tb.Intern("/TI/1/1"); got != a {
		t.Fatalf("re-intern changed the handle: %d != %d", got, a)
	}
	if h, ok := tb.Lookup("/TI/1/1"); !ok || h != a {
		t.Fatalf("Lookup = (%d, %v), want (%d, true)", h, ok, a)
	}
	if h, ok := tb.Lookup("/TI/1/2"); !ok || h != b {
		t.Fatalf("Lookup = (%d, %v), want (%d, true)", h, ok, b)
	}
	if _, ok := tb.Lookup("nope"); ok {
		t.Fatal("Lookup of never-interned string reported ok")
	}
	if len(tb.byStr) != 2 {
		t.Fatalf("%d strings interned, want 2", len(tb.byStr))
	}
}

func TestInternDenseFromOne(t *testing.T) {
	tb := New()
	for i := 0; i < 100; i++ {
		h := tb.Intern(fmt.Sprintf("s%d", i))
		if h != uint32(i+1) {
			t.Fatalf("handle %d for %dth string, want dense %d", h, i, i+1)
		}
	}
}

// TestInternConcurrent hammers Intern and Lookup from many goroutines
// under -race: a reader finds a string's handle or nothing, and every
// handle stays the one its string was given.
func TestInternConcurrent(t *testing.T) {
	tb := New()
	const writers, strsPer = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < strsPer; i++ {
				s := fmt.Sprintf("w%d-%d", w, i)
				h := tb.Intern(s)
				if got, ok := tb.Lookup(s); !ok || got != h {
					t.Errorf("Lookup(%q) = (%d, %v), want (%d, true)", s, got, ok, h)
					return
				}
			}
		}(w)
	}
	// Concurrent readers sweeping the whole handle space.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				_, _ = tb.Lookup(fmt.Sprintf("w%d-%d", i%writers, i%strsPer))
			}
		}()
	}
	wg.Wait()
	if len(tb.byStr) != writers*strsPer {
		t.Fatalf("%d strings interned, want %d", len(tb.byStr), writers*strsPer)
	}
	// The handles are dense: every one from 1 to the count, each once.
	seen := make(map[uint32]bool, len(tb.byStr))
	for s, h := range tb.byStr {
		if h < 1 || int(h) > writers*strsPer || seen[h] {
			t.Fatalf("handle %d for %q is out of range or issued twice", h, s)
		}
		seen[h] = true
	}
}

// BenchmarkInternHit measures re-interning an existing string (the
// registration-path cache hit).
func BenchmarkInternHit(b *testing.B) {
	tb := New()
	tb.Intern("brass-us-east-0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tb.Intern("brass-us-east-0")
	}
}
