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

var benchNs = []int{32, 64, 256, 1024}

// BenchmarkFFT measures the complex radix-2 transform, the primitive under
// every spectral operation of the Poisson solver: a plan's butterflies over
// input loaded in bit-reversed order, as the trig transforms load it.
func BenchmarkFFT(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			p := NewPlan(n)
			src := benchReal(n)
			x := make([]complex128, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, v := range src {
					x[p.rev[j]] = complex(v, 0)
				}
				butterflies(x, p.fwdStage)
			}
		})
	}
}

// BenchmarkDCT2 measures the forward cosine transform of a Plan — one row
// or column pass of the density grid's spectral decomposition — with the
// fast O(N log N) path (/fft) against the dense O(N²) reference (/matvec).
func BenchmarkDCT2(b *testing.B) {
	for _, n := range benchNs {
		p := NewPlan(n)
		x := benchReal(n)
		out := make([]float64, n)
		b.Run(fmt.Sprintf("fft/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.DCT2To(x, out)
			}
		})
		b.Run(fmt.Sprintf("matvec/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.DCT2MatVec(x, out)
			}
		})
	}
}

// BenchmarkInverse measures the inverse sine/cosine reconstructions used
// to recover the potential ψ and field ξ from spectral coefficients, with
// the fast O(N log N) path (/fft) against the dense O(N²) reference it
// replaced (/matvec) — the doubling sizes make the asymptotic gap visible
// directly in the ns/op columns.
func BenchmarkInverse(b *testing.B) {
	for _, n := range benchNs {
		p := NewPlan(n)
		a := benchReal(n)
		out := make([]float64, n)
		b.Run(fmt.Sprintf("cos/fft/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.InvCosTo(a, out)
			}
		})
		b.Run(fmt.Sprintf("cos/matvec/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.InvCosMatVec(a, out)
			}
		})
		b.Run(fmt.Sprintf("sin/fft/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.InvSinTo(a, out)
			}
		})
		b.Run(fmt.Sprintf("sin/matvec/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.InvSinMatVec(a, out)
			}
		})
	}
}

// BenchmarkTransformPacked compares two single-line transforms against
// one packed pair call at the Poisson-solve line sizes — the two-for-one
// Hermitian-packing win the fused spectral pipeline is built on (one
// complex FFT instead of two).
func BenchmarkTransformPacked(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		p := NewPlan(n)
		x0 := benchReal(n)
		x1 := append([]float64(nil), x0...)
		for i := range x1 {
			x1[i] = -x1[i] * 0.5
		}
		o0 := make([]float64, n)
		o1 := make([]float64, n)
		for _, tr := range []struct {
			name   string
			single func(a, out []float64)
			pair   func(a0, a1, out0, out1 []float64, stride int)
		}{
			{"DCT2", p.DCT2To, p.DCT2PairTo},
			{"InvCos", p.InvCosTo, p.InvCosPairTo},
			{"InvSin", p.InvSinTo, p.InvSinPairTo},
		} {
			b.Run(fmt.Sprintf("%s/n%d/single2x", tr.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tr.single(x0, o0)
					tr.single(x1, o1)
				}
			})
			b.Run(fmt.Sprintf("%s/n%d/pair", tr.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tr.pair(x0, x1, o0, o1, 1)
				}
			})
		}
	}
}
