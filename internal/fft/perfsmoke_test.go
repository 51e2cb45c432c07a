//go:build perfsmoke

package fft

import (
	"math/rand"
	"testing"
	"time"
)

// timeTransform returns the best-of-reps wall time of reps calls to f.
// Best-of (not mean) is the standard noise filter for smoke timing on
// shared CI runners: scheduling hiccups only ever make a run slower.
func timeTransform(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// TestPerfSmokeFastBeatsMatVec asserts that each O(N log N) pair
// transform, which runs two lines per call, beats two calls of its dense
// O(N²) MatVec reference at N = 512 — the guard that the production path
// of the spectral pipeline can never silently regress to reference speed.
// At N = 512 the fast path wins by well over an order of magnitude on
// idle hardware, so the 2× margin demanded here leaves ample headroom for
// CI noise while still catching any real inversion.
func TestPerfSmokeFastBeatsMatVec(t *testing.T) {
	const n, reps, inner = 512, 5, 20
	p := NewPlan(n)
	rng := rand.New(rand.NewSource(21))
	a0, a1 := make([]float64, n), make([]float64, n)
	for i := range a0 {
		a0[i], a1[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	out0, out1 := make([]float64, n), make([]float64, n)
	p.DCT2MatVec(a0, out0) // build the dense tables outside the timed region
	for _, tc := range []struct {
		name string
		pair func(a0, a1, out0, out1 []float64, stride int)
		ref  func(a, out []float64)
	}{
		{"DCT2", p.DCT2PairTo, p.DCT2MatVec},
		{"InvCos", p.InvCosPairTo, p.InvCosMatVec},
		{"InvSin", p.InvSinPairTo, p.InvSinMatVec},
	} {
		fast := timeTransform(reps, func() {
			for i := 0; i < inner; i++ {
				tc.pair(a0, a1, out0, out1, 1)
			}
		})
		ref := timeTransform(reps, func() {
			for i := 0; i < inner; i++ {
				tc.ref(a0, out0)
				tc.ref(a1, out1)
			}
		})
		t.Logf("%s n=%d: pair %v, 2× matVec %v (%.1fx)", tc.name, n, fast, ref, float64(ref)/float64(fast))
		if fast*2 > ref {
			t.Errorf("%s n=%d: pair transform %v not ≥2x faster than two matVec references %v", tc.name, n, fast, ref)
		}
	}
}
