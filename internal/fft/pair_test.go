package fft

import (
	"math"
	"math/rand"
	"testing"
)

// randLine fills a fresh length-n line from rng.
func randLine(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestPairTransformsMatchMatVec cross-validates the pair transforms
// against the dense O(N²) references, the implementation they replaced,
// at every size from 8 to 1024: each packed line to 1e-12 relative to its
// own reference (the fast path typically lands near 1e-14).
func TestPairTransformsMatchMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 8; n <= 1024; n *= 2 {
		p := NewPlan(n)
		x0, x1 := randLine(rng, n), randLine(rng, n)
		ref0, ref1 := make([]float64, n), make([]float64, n)
		got0, got1 := make([]float64, n), make([]float64, n)
		for _, tr := range []struct {
			name string
			ref  func(a, out []float64)
			pair func(a0, a1, out0, out1 []float64, stride int)
		}{
			{"DCT2", p.DCT2MatVec, p.DCT2PairTo},
			{"InvCos", p.InvCosMatVec, p.InvCosPairTo},
			{"InvSin", p.InvSinMatVec, p.InvSinPairTo},
		} {
			tr.ref(x0, ref0)
			tr.ref(x1, ref1)
			tr.pair(x0, x1, got0, got1, 1)
			far := func(got, ref float64) bool { return math.Abs(got-ref) > 1e-12*(1+math.Abs(ref)) }
			for i := 0; i < n; i++ {
				if far(got0[i], ref0[i]) || far(got1[i], ref1[i]) {
					t.Fatalf("n=%d %s pair[%d] = (%.17g, %.17g), matVec (%.17g, %.17g)",
						n, tr.name, i, got0[i], got1[i], ref0[i], ref1[i])
				}
			}
		}
	}
}

// TestDCT2PairInPlace checks the documented pairwise aliasing contract (outi
// may alias ai) of every pair transform: each reads its whole input before
// writing output.
func TestDCT2PairInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{8, 32} {
		p := NewPlan(n)
		for _, tr := range []struct {
			name string
			pair func(a0, a1, out0, out1 []float64, stride int)
		}{
			{"DCT2PairTo", p.DCT2PairTo},
			{"InvCosPairTo", p.InvCosPairTo},
			{"InvSinPairTo", p.InvSinPairTo},
		} {
			x0, x1 := randLine(rng, n), randLine(rng, n)
			want0, want1 := make([]float64, n), make([]float64, n)
			tr.pair(x0, x1, want0, want1, 1)
			tr.pair(x0, x1, x0, x1, 1)
			for i := 0; i < n; i++ {
				if x0[i] != want0[i] || x1[i] != want1[i] {
					t.Fatalf("n=%d %s in place [%d] = (%g, %g), want (%g, %g)",
						n, tr.name, i, x0[i], x1[i], want0[i], want1[i])
				}
			}
		}
	}
}

// TestColumnOutputsMatchRowsTransposed pins the strided outputs the
// Poisson solve writes down grid columns: running every pair transform
// over eight lines with stride 8 must give, bit for bit, the transpose of
// the same lines written as rows with stride 1.
func TestColumnOutputsMatchRowsTransposed(t *testing.T) {
	const lines = 8
	rng := rand.New(rand.NewSource(17))
	for n := 8; n <= 1024; n *= 2 {
		p := NewPlan(n)
		for _, tr := range []struct {
			name string
			pair func(a0, a1, out0, out1 []float64, stride int)
		}{
			{"DCT2PairTo", p.DCT2PairTo},
			{"InvCosPairTo", p.InvCosPairTo},
			{"InvSinPairTo", p.InvSinPairTo},
		} {
			for kind := 0; kind < refLineKinds; kind++ {
				in := make([][]float64, lines)
				for l := range in {
					in[l] = refLine(rng, n, kind)
				}
				rows := make([]float64, lines*n) // [line][k]
				cols := make([]float64, n*lines) // [k][line]
				for l := 0; l < lines; l += 2 {
					tr.pair(in[l], in[l+1], rows[l*n:(l+1)*n], rows[(l+1)*n:(l+2)*n], 1)
					tr.pair(in[l], in[l+1], cols[l:], cols[l+1:], lines)
				}
				for l := 0; l < lines; l++ {
					for k := 0; k < n; k++ {
						got, want := cols[k*lines+l], rows[l*n+k]
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("n=%d kind=%d %s line %d [%d]: column %v (%#x), row %v (%#x)", n, kind, tr.name,
								l, k, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestConvenienceFFTMatchesPlanTables: the plan's FFT stages, fed their
// input in bit-reversed order and reading the per-stage twiddle runs —
// first4 for the size-2 and size-4 stages, radix2 for the middle ones
// and last for the final stage — must reproduce the fftTab-driven FFT
// (forward) and unscaled inverse bit for bit, not merely closely, on
// complex inputs with signed zeros. The pair transforms run the same
// stages on packed real lines; this checks them on general complex input.
func TestConvenienceFFTMatchesPlanTables(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for n := 8; n <= 1024; n *= 2 {
		p := NewPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			if i%7 == 3 {
				x[i] = complex(math.Copysign(0, -1), real(x[i]))
			}
		}
		for _, dir := range []struct {
			name string
			tab  []complex128
			tw   []complex128
		}{
			{"forward", convTables(n).fwd, p.fwdStage},
			{"inverse", convTables(n).inv, p.invStage},
		} {
			want := append([]complex128(nil), x...)
			fftTab(want, dir.tab)
			c := make([]complex128, n)
			for s := 0; s < n; s += 4 {
				first4(c[s:s+4:s+4], x[p.rev[s]], x[p.rev[s+1]], x[p.rev[s+2]], x[p.rev[s+3]], dir.tw[3])
			}
			h := n / 2
			radix2(c, dir.tw, 4, h)
			got := make([]complex128, n)
			for k := 0; k < h; k++ {
				got[k], got[k+h] = last(c, dir.tw[h:n], k, h)
			}
			for k := range got {
				if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
					math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
					t.Fatalf("n=%d %s: [%d] = %v, fftTab %v (must be bit-equal)", n, dir.name, k, got[k], want[k])
				}
			}
		}
	}
}
