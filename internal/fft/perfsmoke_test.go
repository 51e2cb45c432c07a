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

// TestPerfSmokeFastBeatsMatVec asserts the O(N log N) fast transforms
// beat the dense O(N²) MatVec references at N = 512 — the guard that the
// packed spectral pipeline's building blocks can never silently regress
// to reference speed. At N = 512 the fast path wins by ~50× on idle
// hardware, so the 2× margin demanded here leaves ample headroom for CI
// noise while still catching any real inversion.
func TestPerfSmokeFastBeatsMatVec(t *testing.T) {
	const n, reps, inner = 512, 5, 20
	p := NewPlan(n)
	rng := rand.New(rand.NewSource(21))
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	out := make([]float64, n)
	p.DCT2MatVec(a, out) // build the dense tables outside the timed region
	for _, tc := range []struct {
		name string
		fast func()
		ref  func()
	}{
		{"DCT2", func() { p.DCT2To(a, out) }, func() { p.DCT2MatVec(a, out) }},
		{"InvCos", func() { p.InvCosTo(a, out) }, func() { p.InvCosMatVec(a, out) }},
		{"InvSin", func() { p.InvSinTo(a, out) }, func() { p.InvSinMatVec(a, out) }},
	} {
		fast := timeTransform(reps, func() {
			for i := 0; i < inner; i++ {
				tc.fast()
			}
		})
		ref := timeTransform(reps, func() {
			for i := 0; i < inner; i++ {
				tc.ref()
			}
		})
		t.Logf("%s n=%d: fast %v, matVec %v (%.1fx)", tc.name, n, fast, ref, float64(ref)/float64(fast))
		if fast*2 > ref {
			t.Errorf("%s n=%d: fast path %v not ≥2x faster than matVec reference %v", tc.name, n, fast, ref)
		}
	}
}
