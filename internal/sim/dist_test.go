package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func newRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

func sampleMean(d Dist, n int) time.Duration {
	rng := newRNG()
	var total time.Duration
	for i := 0; i < n; i++ {
		total += d.Sample(rng)
	}
	return total / time.Duration(n)
}

func TestConstant(t *testing.T) {
	d := Constant{V: 42 * time.Millisecond}
	if got := d.Sample(newRNG()); got != 42*time.Millisecond {
		t.Errorf("Sample = %v", got)
	}
	if d.Mean() != 42*time.Millisecond {
		t.Errorf("Mean = %v", d.Mean())
	}
}

func TestUniformBoundsAndMean(t *testing.T) {
	d := Uniform{Lo: 10 * time.Millisecond, Hi: 20 * time.Millisecond}
	rng := newRNG()
	for i := 0; i < 10000; i++ {
		v := d.Sample(rng)
		if v < d.Lo || v >= d.Hi {
			t.Fatalf("sample %v out of [%v,%v)", v, d.Lo, d.Hi)
		}
	}
	m := sampleMean(d, 20000)
	if m < 14*time.Millisecond || m > 16*time.Millisecond {
		t.Errorf("sample mean %v far from 15ms", m)
	}
}

func TestUniformDegenerate(t *testing.T) {
	d := Uniform{Lo: 5 * time.Millisecond, Hi: 5 * time.Millisecond}
	if got := d.Sample(newRNG()); got != 5*time.Millisecond {
		t.Errorf("degenerate uniform = %v", got)
	}
}

func TestExponentialMeanAndFloor(t *testing.T) {
	d := Exponential{MeanVal: 100 * time.Millisecond, Min: 20 * time.Millisecond}
	rng := newRNG()
	for i := 0; i < 10000; i++ {
		if v := d.Sample(rng); v < d.Min {
			t.Fatalf("sample %v below floor %v", v, d.Min)
		}
	}
	m := sampleMean(d, 50000)
	if m < 95*time.Millisecond || m > 105*time.Millisecond {
		t.Errorf("sample mean %v far from 100ms", m)
	}
}

func TestLogNormalMedianRoughly(t *testing.T) {
	d := LogNormalFromMedian(50*time.Millisecond, 0.5)
	rng := newRNG()
	samples := make([]time.Duration, 20000)
	for i := range samples {
		samples[i] = d.Sample(rng)
	}
	slices.Sort(samples)
	med := samples[len(samples)/2]
	if med < 45*time.Millisecond || med > 55*time.Millisecond {
		t.Errorf("median %v far from 50ms", med)
	}
	// Analytic mean must exceed median for sigma > 0.
	if d.Mean() <= 50*time.Millisecond {
		t.Errorf("lognormal mean %v should exceed median", d.Mean())
	}
}

func TestParetoTailAndCap(t *testing.T) {
	d := Pareto{Xm: 10 * time.Millisecond, Alpha: 1.5, Cap: time.Second}
	rng := newRNG()
	var capped int
	for i := 0; i < 50000; i++ {
		v := d.Sample(rng)
		if v < d.Xm {
			t.Fatalf("sample %v below Xm", v)
		}
		if v > d.Cap {
			t.Fatalf("sample %v above cap", v)
		}
		if v == d.Cap {
			capped++
		}
	}
	if capped == 0 {
		t.Error("no samples hit the cap; tail too light for alpha=1.5")
	}
	// Mean for alpha>1: alpha*xm/(alpha-1) = 30ms.
	if d.Mean() != 30*time.Millisecond {
		t.Errorf("Mean = %v, want 30ms", d.Mean())
	}
}

func TestParetoAlphaLEOneMean(t *testing.T) {
	d := Pareto{Xm: 7 * time.Millisecond, Alpha: 0.9}
	if d.Mean() != 7*time.Millisecond {
		t.Errorf("Mean = %v, want Xm fallback", d.Mean())
	}
}

func TestMixtureValidation(t *testing.T) {
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture accepted")
	}
	if _, err := NewMixture([]Dist{Constant{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewMixture([]Dist{Constant{1}}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewMixture([]Dist{Constant{1}}, []float64{0}); err == nil {
		t.Error("zero total weight accepted")
	}
}

func TestMixtureProportions(t *testing.T) {
	m := MustMixture(
		[]Dist{Constant{V: time.Millisecond}, Constant{V: time.Second}},
		[]float64{0.9, 0.1},
	)
	rng := newRNG()
	var slow int
	const n = 100000
	for i := 0; i < n; i++ {
		if m.Sample(rng) == time.Second {
			slow++
		}
	}
	frac := float64(slow) / n
	if frac < 0.08 || frac > 0.12 {
		t.Errorf("slow fraction = %v, want ~0.1", frac)
	}
	wantMean := time.Duration(0.9*float64(time.Millisecond) + 0.1*float64(time.Second))
	if diff := m.Mean() - wantMean; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("Mean = %v, want %v", m.Mean(), wantMean)
	}
}
