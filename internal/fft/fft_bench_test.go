package fft

import (
	"fmt"
	"testing"
)

// benchReal returns a deterministic length-n real signal.
func benchReal(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*2654435761)%1000)/500 - 1
	}
	return x
}

// benchPair returns two deterministic length-n real lines.
func benchPair(n int) (x0, x1 []float64) {
	x0 = benchReal(n)
	x1 = make([]float64, n)
	for i, v := range x0 {
		x1[i] = -v * 0.5
	}
	return x0, x1
}

var benchNs = []int{32, 64, 256, 1024}

// BenchmarkDCT2 measures the forward cosine transform of two lines — one
// line pair of a row or column pass of the density grid's spectral
// decomposition — with the fast O(N log N) pair transform (/fft) against
// two calls of the dense O(N²) reference (/matvec).
func BenchmarkDCT2(b *testing.B) {
	for _, n := range benchNs {
		p := NewPlan(n)
		x0, x1 := benchPair(n)
		o0, o1 := make([]float64, n), make([]float64, n)
		b.Run(fmt.Sprintf("fft/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.DCT2PairTo(x0, x1, o0, o1, 1)
			}
		})
		b.Run(fmt.Sprintf("matvec/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.DCT2MatVec(x0, o0)
				p.DCT2MatVec(x1, o1)
			}
		})
	}
}

// BenchmarkInverse measures the inverse sine/cosine reconstructions used
// to recover the field ξ from spectral coefficients, two lines per call,
// with the fast O(N log N) pair transforms (/fft) against two calls of the
// dense O(N²) reference they replaced (/matvec) — the doubling sizes make
// the asymptotic gap visible directly in the ns/op columns.
func BenchmarkInverse(b *testing.B) {
	for _, n := range benchNs {
		p := NewPlan(n)
		a0, a1 := benchPair(n)
		o0, o1 := make([]float64, n), make([]float64, n)
		b.Run(fmt.Sprintf("cos/fft/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.InvCosPairTo(a0, a1, o0, o1, 1)
			}
		})
		b.Run(fmt.Sprintf("cos/matvec/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.InvCosMatVec(a0, o0)
				p.InvCosMatVec(a1, o1)
			}
		})
		b.Run(fmt.Sprintf("sin/fft/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.InvSinPairTo(a0, a1, o0, o1, 1)
			}
		})
		b.Run(fmt.Sprintf("sin/matvec/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.InvSinMatVec(a0, o0)
				p.InvSinMatVec(a1, o1)
			}
		})
	}
}
