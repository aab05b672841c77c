package sim

import (
	"math/rand"
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
