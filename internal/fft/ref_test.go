package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// This file keeps the transforms the bit-reversed, per-stage-table path
// replaced: a radix-2 FFT that swaps its input into bit-reversed order in
// place and reads its twiddles from one full-length table at a
// stage-dependent stride, and the three pair transforms built on it. They
// are the bit-identity reference for the Plan transforms, and the naive
// DFT tests validate the FFT in turn.

// FFT computes the in-place forward discrete Fourier transform
// X[k] = Σ_n x[n]·e^{-2πi·kn/N}. len(x) must be a power of two.
func FFT(x []complex128) {
	if len(x) == 0 {
		return
	}
	fftTab(x, convTables(len(x)).fwd)
}

// IFFT computes the in-place inverse DFT (including the 1/N scale), the
// exact inverse of FFT. len(x) must be a power of two.
func IFFT(x []complex128) {
	if len(x) == 0 {
		return
	}
	fftTab(x, convTables(len(x)).inv)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

// convTab holds the per-size twiddle tables of FFT and IFFT: e^{∓2πik/N},
// k = 0..N/2-1, the same expressions NewPlan's stage tables are drawn
// from.
type convTab struct {
	fwd, inv []complex128
}

var convCache sync.Map // int -> *convTab

func convTables(n int) *convTab {
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	if t, ok := convCache.Load(n); ok {
		return t.(*convTab)
	}
	t := &convTab{
		fwd: make([]complex128, n/2),
		inv: make([]complex128, n/2),
	}
	for k := 0; k < n/2; k++ {
		arg := 2 * math.Pi * float64(k) / float64(n)
		t.fwd[k] = cmplx.Exp(complex(0, -arg))
		t.inv[k] = cmplx.Exp(complex(0, arg))
	}
	actual, _ := convCache.LoadOrStore(n, t)
	return actual.(*convTab)
}

// fftTab is the radix-2 transform driven by a full-length twiddle table:
// an in-place bit-reversal swap pass, then every stage reading tab at
// stride n/size. len(x) must be a power of two and len(tab) == len(x)/2.
// No scaling is applied.
func fftTab(x []complex128, tab []complex128) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			// k = 0 has w = 1 exactly: skip the multiply.
			a, b := x[start], x[start+half]
			x[start], x[start+half] = a+b, a-b
			for k, ti := 1, stride; k < half; k, ti = k+1, ti+stride {
				w := tab[ti]
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// refDCT2Pair is DCT2PairTo on fftTab.
func refDCT2Pair(p *Plan, x0, x1, out0, out1 []float64) {
	n := p.n
	c := make([]complex128, n)
	for i := 0; i < n/2; i++ {
		c[i] = complex(x0[2*i], x1[2*i])
		c[n-1-i] = complex(x0[2*i+1], x1[2*i+1])
	}
	fftTab(c, convTables(n).fwd)
	out0[0] = real(c[0])
	out1[0] = imag(c[0])
	for k := 1; k < n; k++ {
		zk, zn := c[k], c[n-k]
		v0r := (real(zk) + real(zn)) / 2
		v0i := (imag(zk) - imag(zn)) / 2
		v1r := (imag(zk) + imag(zn)) / 2
		v1i := (real(zn) - real(zk)) / 2
		twr, twi := real(p.twiddle[k]), imag(p.twiddle[k])
		out0[k] = twr*v0r - twi*v0i
		out1[k] = twr*v1r - twi*v1i
	}
}

// refInvCosPair is InvCosPairTo on fftTab.
func refInvCosPair(p *Plan, a0, a1, out0, out1 []float64) {
	n := p.n
	c := make([]complex128, n)
	c[0] = complex(a0[0], a1[0])
	for k := 1; k < n; k++ {
		c[k] = p.untwiddle[k] * complex((a0[k]+a1[n-k])/2, (a1[k]-a0[n-k])/2)
	}
	fftTab(c, convTables(n).inv)
	for i := 0; i < n/2; i++ {
		zi, zo := c[i], c[n-1-i]
		out0[2*i] = real(zi)
		out0[2*i+1] = real(zo)
		out1[2*i] = imag(zi)
		out1[2*i+1] = imag(zo)
	}
}

// refInvSinPair is InvSinPairTo on fftTab.
func refInvSinPair(p *Plan, a0, a1, out0, out1 []float64) {
	n := p.n
	c := make([]complex128, n)
	for k := 1; k < n; k++ {
		c[k] = p.untwiddle[k] * complex((a0[n-k]+a1[k])/2, (a1[n-k]-a0[k])/2)
	}
	fftTab(c, convTables(n).inv)
	for i := 0; i < n/2; i++ {
		zi, zo := c[i], c[n-1-i]
		out0[2*i] = real(zi)
		out0[2*i+1] = -real(zo)
		out1[2*i] = imag(zi)
		out1[2*i+1] = -imag(zo)
	}
}

// refLineKinds is the number of kinds refLine draws.
const refLineKinds = 5

// refLine returns a length-n line of one of refLineKinds kinds: standard
// normal values; values spread over 2^±60; a mix of +0, −0, subnormals
// and normals, where the sign of every zero and the rounding of every
// subnormal product must survive unchanged; only signed zeros; or signed
// zeros with some infinities. The last two make every skipped multiply by
// w = 1 show: (−0)·(1 − 0i) and ∞·(1 − 0i) do not give back their input.
func refLine(rng *rand.Rand, n, kind int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch kind {
		case 0:
			x[i] = rng.NormFloat64()
		case 1:
			x[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(121)-60)
		case 3, 4:
			x[i] = math.Copysign(0, float64(2*rng.Intn(2)-1))
			if kind == 4 && rng.Intn(8) == 0 {
				x[i] = math.Inf(2*rng.Intn(2) - 1)
			}
		default:
			switch rng.Intn(5) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = math.Copysign(0, -1)
			case 2:
				x[i] = float64(rng.Intn(1<<20)-1<<19) * math.SmallestNonzeroFloat64
			case 3:
				x[i] = rng.NormFloat64() * 0x1p-1020
			default:
				x[i] = rng.NormFloat64()
			}
		}
	}
	return x
}

// sameBits reports the first index where got and want differ in any bit.
func sameBits(got, want []float64) (int, bool) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestTransformsMatchFFTTabReference pins every Plan pair transform to its
// fftTab-driven reference bit for bit (Float64bits equality, so signed
// zeros count) at every power of two from 8 to 1024.
func TestTransformsMatchFFTTabReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 8; n <= 1024; n *= 2 {
		p := NewPlan(n)
		pairs := []struct {
			name string
			got  func(a0, a1, out0, out1 []float64, stride int)
			want func(p *Plan, a0, a1, out0, out1 []float64)
		}{
			{"DCT2PairTo", p.DCT2PairTo, refDCT2Pair},
			{"InvCosPairTo", p.InvCosPairTo, refInvCosPair},
			{"InvSinPairTo", p.InvSinPairTo, refInvSinPair},
		}
		for kind := 0; kind < refLineKinds; kind++ {
			for trial := 0; trial < 4; trial++ {
				x0, x1 := refLine(rng, n, kind), refLine(rng, n, kind)
				got0, got1 := make([]float64, n), make([]float64, n)
				want0, want1 := make([]float64, n), make([]float64, n)
				for _, tr := range pairs {
					tr.got(x0, x1, got0, got1, 1)
					tr.want(p, x0, x1, want0, want1)
					for line, gw := range [][2][]float64{{got0, want0}, {got1, want1}} {
						if i, ok := sameBits(gw[0], gw[1]); !ok {
							t.Fatalf("n=%d kind=%d %s line %d [%d] = %v (%#x), reference %v (%#x)", n, kind, tr.name, line, i,
								gw[0][i], math.Float64bits(gw[0][i]), gw[1][i], math.Float64bits(gw[1][i]))
						}
					}
				}
			}
		}
	}
}
