package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(N²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			out[k] += x[j] * cmplx.Exp(complex(0, ang))
		}
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 32, 128} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		FFT(got)
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*(1+cmplx.Abs(want[k])) {
				t.Fatalf("n=%d: FFT[%d] = %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 16, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		FFT(y)
		IFFT(y)
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-10 {
				t.Fatalf("n=%d: roundtrip[%d] = %v, want %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestFFTPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FFT accepted non-power-of-two length")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestNewPlanPanicsOnBadLength(t *testing.T) {
	for _, n := range []int{6, 4, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan accepted length %d", n)
				}
			}()
			NewPlan(n)
		}()
	}
}

// naiveDCT2 is the O(N²) reference for the unnormalized DCT-II, each
// cosine taken straight from its textbook argument.
func naiveDCT2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			out[k] += x[j] * math.Cos(math.Pi*float64(k)*(2*float64(j)+1)/(2*float64(n)))
		}
	}
	return out
}

// TestDCT2MatchesNaive checks both lines of DCT2PairTo against the
// textbook DCT-II sum.
func TestDCT2MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 16, 64} {
		p := NewPlan(n)
		x0, x1 := randLine(rng, n), randLine(rng, n)
		got0, got1 := make([]float64, n), make([]float64, n)
		p.DCT2PairTo(x0, x1, got0, got1, 1)
		for line, gw := range [][2][]float64{{got0, naiveDCT2(x0)}, {got1, naiveDCT2(x1)}} {
			got, want := gw[0], gw[1]
			for k := range got {
				if math.Abs(got[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
					t.Fatalf("n=%d line %d: DCT2[%d] = %g, want %g", n, line, k, got[k], want[k])
				}
			}
		}
	}
}

// TestDCT2InPlace runs DCT2PairTo with each output aliasing its input and
// checks the result against the textbook DCT-II sum.
func TestDCT2InPlace(t *testing.T) {
	p := NewPlan(8)
	x0 := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	x1 := []float64{8, -7, 6, -5, 4, -3, 2, -1}
	want0, want1 := naiveDCT2(x0), naiveDCT2(x1)
	p.DCT2PairTo(x0, x1, x0, x1, 1)
	for k := range x0 {
		if math.Abs(x0[k]-want0[k]) > 1e-9 || math.Abs(x1[k]-want1[k]) > 1e-9 {
			t.Fatalf("in-place DCT2[%d] = (%g, %g), want (%g, %g)", k, x0[k], x1[k], want0[k], want1[k])
		}
	}
}

// TestDCT2InvCosRoundtrip checks the DCT-II / cosine-series inverse pair:
// with a[0] scaled by 1/2 and the whole spectrum by 2/N, InvCos recovers x.
func TestDCT2InvCosRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 32} {
		p := NewPlan(n)
		x0, x1 := randLine(rng, n), randLine(rng, n)
		a0, a1 := make([]float64, n), make([]float64, n)
		p.DCT2PairTo(x0, x1, a0, a1, 1)
		for _, a := range [][]float64{a0, a1} {
			for k := range a {
				a[k] *= 2 / float64(n)
			}
			a[0] /= 2
		}
		got0, got1 := make([]float64, n), make([]float64, n)
		p.InvCosPairTo(a0, a1, got0, got1, 1)
		for i := 0; i < n; i++ {
			if math.Abs(got0[i]-x0[i]) > 1e-9 || math.Abs(got1[i]-x1[i]) > 1e-9 {
				t.Fatalf("n=%d: roundtrip[%d] = (%g, %g), want (%g, %g)", n, i, got0[i], got1[i], x0[i], x1[i])
			}
		}
	}
}

// TestInvSinMatchesNaive checks both lines of InvSinPairTo against the
// textbook sine-series sum.
func TestInvSinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 16
	p := NewPlan(n)
	a0, a1 := randLine(rng, n), randLine(rng, n)
	got0, got1 := make([]float64, n), make([]float64, n)
	p.InvSinPairTo(a0, a1, got0, got1, 1)
	for line, l := range []struct{ a, got []float64 }{{a0, got0}, {a1, got1}} {
		for j := 0; j < n; j++ {
			var want float64
			for k := 0; k < n; k++ {
				want += l.a[k] * math.Sin(math.Pi*float64(k)*(2*float64(j)+1)/(2*float64(n)))
			}
			if math.Abs(l.got[j]-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("line %d: InvSin[%d] = %g, want %g", line, j, l.got[j], want)
			}
		}
	}
}

// TestInvSinDerivativeConsistency: the sine series is the (negated, scaled)
// derivative of the cosine series — the relationship the field computation
// relies on. d/dt cos(k·t) = -k·sin(k·t), so for a single harmonic the sine
// reconstruction equals -(1/k)·d/dt of the cosine reconstruction. Line 0
// carries harmonic k and line 1 harmonic k+1, so both packed lines are
// checked.
func TestInvSinDerivativeConsistency(t *testing.T) {
	for _, n := range []int{8, 32} {
		p := NewPlan(n)
		for _, k := range []int{1, 3, 6} {
			a0, a1 := make([]float64, n), make([]float64, n)
			a0[k], a1[k+1] = 1, 1
			cos0, cos1 := make([]float64, n), make([]float64, n)
			sin0, sin1 := make([]float64, n), make([]float64, n)
			p.InvCosPairTo(a0, a1, cos0, cos1, 1)
			p.InvSinPairTo(a0, a1, sin0, sin1, 1)
			for line, l := range []struct {
				k          int
				cosv, sinv []float64
			}{{k, cos0, sin0}, {k + 1, cos1, sin1}} {
				// cos(w(2j+1)) with w = πk/(2n) has the exact central-difference
				// identity (cos(w(2j+3)) - cos(w(2j-1)))/2 = -sin(w(2j+1))·sin(2w),
				// tying the sine reconstruction to the cosine one.
				w := math.Pi * float64(l.k) / (2 * float64(n))
				for j := 1; j < n-1; j++ {
					d := (l.cosv[j+1] - l.cosv[j-1]) / 2
					want := -l.sinv[j] * math.Sin(2*w)
					if math.Abs(d-want) > 1e-12 {
						t.Fatalf("n=%d line %d k=%d j=%d: FD %g vs -sin(ws)·sin(2w) %g", n, line, l.k, j, d, want)
					}
				}
			}
		}
	}
}

// TestInverseMatchesMatVec validates each slot of the pair transforms on
// its own against the dense O(N²) matVec reference (the implementation
// they replaced) across every production-relevant size: a line packed
// beside a zero partner, in either slot, must match the reference to
// 1e-12, and the zero partner's output must stay within 1e-12 of zero, so
// the Hermitian unpacking leaks nothing of one line into the other.
func TestInverseMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 8; n <= 1024; n *= 2 {
		p := NewPlan(n)
		a := randLine(rng, n)
		zero := make([]float64, n)
		ref := make([]float64, n)
		out0, out1 := make([]float64, n), make([]float64, n)
		for _, tr := range []struct {
			name string
			ref  func(a, out []float64)
			pair func(a0, a1, out0, out1 []float64, stride int)
		}{
			{"DCT2", p.DCT2MatVec, p.DCT2PairTo},
			{"InvCos", p.InvCosMatVec, p.InvCosPairTo},
			{"InvSin", p.InvSinMatVec, p.InvSinPairTo},
		} {
			tr.ref(a, ref)
			for slot := 0; slot < 2; slot++ {
				line, partner := out0, out1
				if slot == 0 {
					tr.pair(a, zero, out0, out1, 1)
				} else {
					tr.pair(zero, a, out0, out1, 1)
					line, partner = out1, out0
				}
				for j := 0; j < n; j++ {
					if math.Abs(line[j]-ref[j]) > 1e-12*(1+math.Abs(ref[j])) || math.Abs(partner[j]) > 1e-12 {
						t.Fatalf("n=%d %s slot %d [%d] = %.17g (partner %.3g), matVec %.17g",
							n, tr.name, slot, j, line[j], partner[j], ref[j])
					}
				}
			}
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkDCT2_64(b *testing.B) {
	p := NewPlan(64)
	x0, x1 := make([]float64, 64), make([]float64, 64)
	for i := range x0 {
		x0[i], x1[i] = float64(i), float64(63-i)
	}
	out0, out1 := make([]float64, 64), make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DCT2PairTo(x0, x1, out0, out1, 1)
	}
}
