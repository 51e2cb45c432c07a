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
	defer func() {
		if recover() == nil {
			t.Error("NewPlan accepted non-power-of-two length")
		}
	}()
	NewPlan(6)
}

// naiveDCT2 is the O(N²) reference for the unnormalized DCT-II.
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

func TestDCT2MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 4, 16, 64} {
		p := NewPlan(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := naiveDCT2(x)
		got := make([]float64, n)
		p.DCT2To(x, got)
		for k := range got {
			if math.Abs(got[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
				t.Fatalf("n=%d: DCT2[%d] = %g, want %g", n, k, got[k], want[k])
			}
		}
	}
}

func TestDCT2InPlace(t *testing.T) {
	p := NewPlan(8)
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	want := naiveDCT2(x)
	p.DCT2To(x, x)
	for k := range x {
		if math.Abs(x[k]-want[k]) > 1e-9 {
			t.Fatalf("in-place DCT2[%d] = %g, want %g", k, x[k], want[k])
		}
	}
}

// TestDCT2InvCosRoundtrip checks the DCT-II / cosine-series inverse pair:
// with a[0] scaled by 1/2 and the whole spectrum by 2/N, InvCos recovers x.
func TestDCT2InvCosRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 8, 32} {
		p := NewPlan(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		a := make([]float64, n)
		p.DCT2To(x, a)
		for k := range a {
			a[k] *= 2 / float64(n)
		}
		a[0] /= 2
		got := make([]float64, n)
		p.InvCosTo(a, got)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: roundtrip[%d] = %g, want %g", n, i, got[i], x[i])
			}
		}
	}
}

func TestInvSinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 16
	p := NewPlan(n)
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	got := make([]float64, n)
	p.InvSinTo(a, got)
	for j := 0; j < n; j++ {
		var want float64
		for k := 0; k < n; k++ {
			want += a[k] * math.Sin(math.Pi*float64(k)*(2*float64(j)+1)/(2*float64(n)))
		}
		if math.Abs(got[j]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("InvSin[%d] = %g, want %g", j, got[j], want)
		}
	}
}

// TestInvSinDerivativeConsistency: the sine series is the (negated, scaled)
// derivative of the cosine series — the relationship the field computation
// relies on. d/dt cos(k·t) = -k·sin(k·t), so for a single harmonic the sine
// reconstruction equals -(1/k)·d/dt of the cosine reconstruction.
func TestInvSinDerivativeConsistency(t *testing.T) {
	n := 32
	p := NewPlan(n)
	for _, k := range []int{1, 3, 7} {
		a := make([]float64, n)
		a[k] = 1
		cosv := make([]float64, n)
		sinv := make([]float64, n)
		p.InvCosTo(a, cosv)
		p.InvSinTo(a, sinv)
		// cos(w(2j+1)) with w = πk/(2n) has the exact central-difference
		// identity (cos(w(2j+3)) - cos(w(2j-1)))/2 = -sin(w(2j+1))·sin(2w),
		// tying the sine reconstruction to the cosine one.
		w := math.Pi * float64(k) / (2 * float64(n))
		for j := 1; j < n-1; j++ {
			d := (cosv[j+1] - cosv[j-1]) / 2
			want := -sinv[j] * math.Sin(2*w)
			if math.Abs(d-want) > 1e-12 {
				t.Fatalf("k=%d j=%d: FD %g vs -sin(ws)·sin(2w) %g", k, j, d, want)
			}
		}
	}
}

// TestInverseMatchesMatVec validates the fast O(N log N) inverse
// reconstructions against the dense O(N²) matVec reference (the
// implementation they replaced) across every production-relevant size.
// 1e-12 is the acceptance bound; the FFT path typically lands near 1e-14.
func TestInverseMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 8; n <= 1024; n *= 2 {
		p := NewPlan(n)
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		fast := make([]float64, n)
		ref := make([]float64, n)
		p.DCT2To(a, fast)
		p.DCT2MatVec(a, ref)
		for k := range fast {
			if math.Abs(fast[k]-ref[k]) > 1e-12*(1+math.Abs(ref[k])) {
				t.Fatalf("n=%d: DCT2[%d] = %.17g, matVec %.17g", n, k, fast[k], ref[k])
			}
		}
		p.InvCosTo(a, fast)
		p.InvCosMatVec(a, ref)
		for j := range fast {
			if math.Abs(fast[j]-ref[j]) > 1e-12*(1+math.Abs(ref[j])) {
				t.Fatalf("n=%d: InvCos[%d] = %.17g, matVec %.17g", n, j, fast[j], ref[j])
			}
		}
		p.InvSinTo(a, fast)
		p.InvSinMatVec(a, ref)
		for j := range fast {
			if math.Abs(fast[j]-ref[j]) > 1e-12*(1+math.Abs(ref[j])) {
				t.Fatalf("n=%d: InvSin[%d] = %.17g, matVec %.17g", n, j, fast[j], ref[j])
			}
		}
	}
}

func TestPlanN(t *testing.T) {
	if got := NewPlan(16).N(); got != 16 {
		t.Errorf("N = %d", got)
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
	x := make([]float64, 64)
	for i := range x {
		x[i] = float64(i)
	}
	out := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DCT2To(x, out)
	}
}
