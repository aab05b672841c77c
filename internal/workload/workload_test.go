package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestDiurnalBoundsAndPeak(t *testing.T) {
	d := Diurnal{Min: 6.5, Max: 11, PeakHour: 19}
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	lo, hi := 1e18, -1e18
	for m := 0; m < 24*60; m += 15 {
		v := d.At(day.Add(time.Duration(m) * time.Minute))
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo < 6.49 || lo > 6.6 {
		t.Errorf("trough = %v", lo)
	}
	if hi < 10.9 || hi > 11.01 {
		t.Errorf("peak = %v", hi)
	}
	// Peak lands at the configured hour.
	atPeak := d.At(day.Add(19 * time.Hour))
	if atPeak < 10.99 {
		t.Errorf("value at peak hour = %v", atPeak)
	}
}

func TestPoissonSmallAndLargeMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Small mean: check the sample mean.
	var total int64
	const n = 100000
	for i := 0; i < n; i++ {
		total += Poisson(rng, 3.0)
	}
	mean := float64(total) / n
	if mean < 2.9 || mean > 3.1 {
		t.Errorf("small-mean Poisson mean = %v", mean)
	}
	// Large mean: normal approximation.
	total = 0
	for i := 0; i < 10000; i++ {
		v := Poisson(rng, 1e6)
		if v < 0 {
			t.Fatal("negative count")
		}
		total += v
	}
	mean = float64(total) / 10000
	if mean < 0.99e6 || mean > 1.01e6 {
		t.Errorf("large-mean Poisson mean = %v", mean)
	}
	if Poisson(rng, 0) != 0 || Poisson(rng, -1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

// TestZipfShape verifies the sampler's distribution: empirical frequencies
// must match the analytic 1/(k+1)^s masses at the head, be monotonically
// non-increasing in rank (within noise), and place the paper-shaped
// majority of mass on a small head of areas.
func TestZipfShape(t *testing.T) {
	const n, s, draws = 1000, 1.1, 500_000
	z := NewZipf(n, s)
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.Sample(rng)
		if k < 0 || k >= n {
			t.Fatalf("sample out of range: %d", k)
		}
		counts[k]++
	}
	// Head frequencies within 10% of analytic mass.
	for k := 0; k < 5; k++ {
		want := prob(z, k)
		got := float64(counts[k]) / draws
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("rank %d frequency %.5f, want %.5f ±10%%", k, got, want)
		}
	}
	// Rank-1 to rank-2 ratio ≈ 2^s.
	ratio := float64(counts[0]) / float64(counts[1])
	want := math.Pow(2, s)
	if ratio < want*0.85 || ratio > want*1.15 {
		t.Errorf("rank1/rank2 ratio %.3f, want ≈%.3f", ratio, want)
	}
	// Power law concentrates: top 1% of areas must hold far more than 1%
	// of the mass (for n=1000, s=1.1 the analytic head share is ~48%).
	head := 0
	for k := 0; k < n/100; k++ {
		head += counts[k]
	}
	if share := float64(head) / draws; share < 0.35 {
		t.Errorf("top 1%% of ranks holds %.1f%% of mass, want power-law head > 35%%", 100*share)
	}
	// Monotone tail (bucketed to smooth sampling noise).
	prev := math.Inf(1)
	for b := 0; b < 10; b++ {
		sum := 0
		for k := b * n / 10; k < (b+1)*n/10; k++ {
			sum += counts[k]
		}
		if float64(sum) > prev*1.05 {
			t.Errorf("bucket %d mass %d exceeds earlier bucket %.0f: not non-increasing", b, sum, prev)
		}
		prev = math.Max(float64(sum), 1)
	}
}

// prob is the probability mass of rank k.
func prob(z *Zipf, k int) float64 {
	if k == 0 {
		return z.cum[0]
	}
	return z.cum[k] - z.cum[k-1]
}

// TestZipfUniformDegenerate: s=0 must be uniform.
func TestZipfUniformDegenerate(t *testing.T) {
	z := NewZipf(10, 0)
	for k := 0; k < 10; k++ {
		if p := prob(z, k); math.Abs(p-0.1) > 1e-9 {
			t.Fatalf("Prob(%d) = %v, want 0.1", k, p)
		}
	}
}

// TestZipfDeterministic: same seed, same stream.
func TestZipfDeterministic(t *testing.T) {
	z := NewZipf(100, 1.2)
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if x, y := z.Sample(a), z.Sample(b); x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
	}
}
