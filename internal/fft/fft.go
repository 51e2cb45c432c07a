// Package fft provides the spectral transforms behind ePlace-style
// electrostatic placement: an iterative radix-2 complex FFT, an FFT-based
// forward DCT-II, and the inverse cosine/sine reconstructions used to
// evaluate the electrostatic potential ψ and field ξ from frequency-domain
// Poisson coefficients. Every trig transform is O(N log N): the forward
// DCT-II uses the Makhoul even-odd permutation and one length-N FFT, the
// inverse cosine series inverts that recombination with one length-N IFFT,
// and the sine series reduces to the cosine series by index reversal
// (see the derivation on InvCosTo/InvSinTo).
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Plan holds precomputed tables and the staging buffer for 1-D trig
// transforms of a fixed size N (a power of two). Its transforms share the
// buffer, so a Plan is not safe for concurrent use.
type Plan struct {
	n         int
	rev       []int        // bit-reversal permutation of 0..N-1
	twiddle   []complex128 // e^{-iπk/(2N)}, k = 0..N-1 (forward)
	untwiddle []complex128 // e^{+iπk/(2N)}, k = 0..N-1 (inverse)
	fwdStage  []complex128 // per-stage forward FFT twiddles; see stageTables
	invStage  []complex128 // per-stage inverse FFT twiddles
	cbuf      []complex128 // FFT staging buffer, filled in bit-reversed order
}

// NewPlan builds a plan for transforms of length n (power of two).
func NewPlan(n int) *Plan {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: plan size %d is not a positive power of two", n))
	}
	p := &Plan{
		n:         n,
		rev:       make([]int, n),
		twiddle:   make([]complex128, n),
		untwiddle: make([]complex128, n),
		cbuf:      make([]complex128, n),
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	for k := 0; k < n; k++ {
		arg := math.Pi * float64(k) / (2 * float64(n))
		p.twiddle[k] = cmplx.Exp(complex(0, -arg))
		p.untwiddle[k] = cmplx.Exp(complex(0, arg))
	}
	p.fwdStage, p.invStage = stageTables(n)
	return p
}

// stageTables returns the FFT twiddles of every radix-2 stage, forward and
// inverse, each stage's run contiguous: the stage that merges blocks of
// half-size h reads tw[h:2h], where tw[h+k] = e^{∓2πi·j/N} at j = k·N/(2h).
// Each entry is computed from j and N, not from k and 2h, because the
// rounded value depends on the expression: this one gives the bits of the
// single-table reference FFT in ref_test.go.
func stageTables(n int) (fwd, inv []complex128) {
	fwd = make([]complex128, n)
	inv = make([]complex128, n)
	for h := 1; h < n; h <<= 1 {
		stride := n / (2 * h)
		for k := 0; k < h; k++ {
			arg := 2 * math.Pi * float64(k*stride) / float64(n)
			fwd[h+k] = cmplx.Exp(complex(0, -arg))
			inv[h+k] = cmplx.Exp(complex(0, arg))
		}
	}
	return fwd, inv
}

// butterflies runs the radix-2 decimation-in-time stages of an unscaled
// FFT over x, whose input the caller has already stored in bit-reversed
// order, with tw a plan's per-stage twiddles (fwdStage or invStage).
// len(x) must be the plan's N.
//
// The arithmetic is that of the textbook in-place loop: each butterfly
// computes a ± b·w with Go's complex multiply, b on the left, and the k = 0
// butterfly of every block skips its multiply by w = 1. The stages of size
// 2 and 4 run fused, one pass over each block of four. Their twiddles are
// w = 1 except tw[3] = e^{∓iπ/2}, whose real part is 6.1e-17 rather than
// 0, so that one stays a full complex multiply.
func butterflies(x, tw []complex128) {
	n := len(x)
	if n < 4 {
		if n == 2 {
			a, b := x[0], x[1]
			x[0], x[1] = a+b, a-b
		}
		return
	}
	w3 := tw[3]
	for s := 0; s+4 <= len(x); s += 4 {
		q := x[s : s+4 : s+4]
		a0, a1 := q[0]+q[1], q[0]-q[1]
		b0, b1 := q[2]+q[3], q[2]-q[3]
		t := b1 * w3
		q[0], q[2] = a0+b0, a0-b0
		q[1], q[3] = a1+t, a1-t
	}
	for half := 4; half < n; half <<= 1 {
		for s := 0; s < n; s += 2 * half {
			// Three slices of one length, so the inner loop runs without
			// bounds checks.
			lo := x[s : s+half]
			hi := x[s+half : s+2*half][:len(lo)]
			w := tw[half : 2*half][:len(lo)]
			a, b := lo[0], hi[0]
			lo[0], hi[0] = a+b, a-b
			for k := 1; k < len(lo); k++ {
				a := lo[k]
				b := hi[k] * w[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// N returns the plan's transform length.
func (p *Plan) N() int { return p.n }

// DCT2To computes the unnormalized DCT-II
//
//	out[k] = Σ_{n} x[n]·cos(πk(2n+1)/(2N))
//
// using the Makhoul even-odd permutation and a single length-N FFT.
// x and out may alias.
func (p *Plan) DCT2To(x, out []float64) {
	n := p.n
	if len(x) != n || len(out) != n {
		panic("fft: DCT2 size mismatch")
	}
	half := n / 2
	rev := p.rev
	for i := 0; i < half; i++ {
		p.cbuf[rev[i]] = complex(x[2*i], 0)
		p.cbuf[rev[n-1-i]] = complex(x[2*i+1], 0)
	}
	if n == 1 {
		p.cbuf[0] = complex(x[0], 0)
	}
	butterflies(p.cbuf, p.fwdStage)
	for k := 0; k < n; k++ {
		out[k] = real(p.twiddle[k] * p.cbuf[k])
	}
}

// InvCosTo evaluates the cosine series
//
//	out[j] = Σ_{k=0}^{N-1} a[k]·cos(πk(2j+1)/(2N))
//
// (the caller folds any α_k normalization into a). a and out may not alias.
//
// Derivation (the Makhoul recombination run backwards): DCT2To computes
// C[k] = Re(e^{-iπk/(2N)}·V[k]) with V the FFT of the even-odd permuted
// input v. For real v, V has Hermitian symmetry, which pins the imaginary
// part too: Im(e^{-iπk/(2N)}·V[k]) = -C[N-k] (with C[N] ≡ 0). The desired
// series out[j] = Σ a[k]·cos(πk(2j+1)/(2N)) is the exact inverse of the
// unnormalized DCT-II of the coefficients b[0] = N·a[0], b[k] = N/2·a[k],
// so the spectrum is recovered as V[k] = e^{+iπk/(2N)}·(b[k] − i·b[N−k]),
// one IFFT yields v, and undoing the even-odd permutation yields out —
// O(N log N) against the O(N²) dense evaluation of the series.
func (p *Plan) InvCosTo(a, out []float64) {
	n := p.n
	if len(a) != n || len(out) != n {
		panic("fft: transform size mismatch")
	}
	if n == 1 {
		out[0] = a[0]
		return
	}
	rev := p.rev
	p.cbuf[0] = complex(a[0], 0)
	for k := 1; k < n; k++ {
		p.cbuf[rev[k]] = p.untwiddle[k] * complex(a[k]/2, -a[n-k]/2)
	}
	butterflies(p.cbuf, p.invStage)
	for i := 0; i < n/2; i++ {
		out[2*i] = real(p.cbuf[i])
		out[2*i+1] = real(p.cbuf[n-1-i])
	}
}

// InvSinTo evaluates the sine series
//
//	out[j] = Σ_{k=0}^{N-1} a[k]·sin(πk(2j+1)/(2N))
//
// (the k = 0 term is identically zero). a and out may not alias.
//
// The sine series reduces to the cosine series through the identity
// sin(πk(2j+1)/(2N)) = (−1)^j·cos(π(N−k)(2j+1)/(2N)): running InvCosTo on
// the index-reversed coefficients (ã[m] = a[N−m], ã[0] = 0 — the k = 0
// term vanishes) and alternating the output sign yields the sine
// reconstruction at the same O(N log N) cost. The reversal is folded
// directly into the spectrum construction (ã[k] = a[n−k], ã[n−k] = a[k]),
// so no coefficient staging buffer is needed — the float operations are
// bit-identical to materializing ã and calling InvCosTo.
func (p *Plan) InvSinTo(a, out []float64) {
	n := p.n
	if len(a) != n || len(out) != n {
		panic("fft: transform size mismatch")
	}
	if n == 1 {
		out[0] = 0
		return
	}
	rev := p.rev
	p.cbuf[0] = 0
	for k := 1; k < n; k++ {
		p.cbuf[rev[k]] = p.untwiddle[k] * complex(a[n-k]/2, -a[k]/2)
	}
	butterflies(p.cbuf, p.invStage)
	for i := 0; i < n/2; i++ {
		out[2*i] = real(p.cbuf[i])
		out[2*i+1] = -real(p.cbuf[n-1-i])
	}
}

// DCT2PairTo computes the unnormalized DCT-II of two independent real
// lines with a single complex FFT: the classic two-for-one Hermitian
// packing z = v₀ + i·v₁ (each line even-odd permuted as in DCT2To). The
// FFT of a real line has Hermitian symmetry, so the two interleaved
// spectra separate exactly as V₀[k] = (Z[k] + conj(Z[N−k]))/2 and
// V₁[k] = (Z[k] − conj(Z[N−k]))/(2i), after which each line gets the
// usual quarter-wave post-twiddle. Halves the FFT work of the row/column
// passes in the spectral Poisson solve. xi and outi may alias pairwise.
func (p *Plan) DCT2PairTo(x0, x1, out0, out1 []float64) {
	n := p.n
	if len(x0) != n || len(x1) != n || len(out0) != n || len(out1) != n {
		panic("fft: transform size mismatch")
	}
	if n == 1 {
		out0[0], out1[0] = x0[0], x1[0]
		return
	}
	rev := p.rev
	for i := 0; i < n/2; i++ {
		p.cbuf[rev[i]] = complex(x0[2*i], x1[2*i])
		p.cbuf[rev[n-1-i]] = complex(x0[2*i+1], x1[2*i+1])
	}
	butterflies(p.cbuf, p.fwdStage)
	out0[0] = real(p.cbuf[0])
	out1[0] = imag(p.cbuf[0])
	for k := 1; k < n; k++ {
		zk, zn := p.cbuf[k], p.cbuf[n-k]
		v0r := (real(zk) + real(zn)) / 2
		v0i := (imag(zk) - imag(zn)) / 2
		v1r := (imag(zk) + imag(zn)) / 2
		v1i := (real(zn) - real(zk)) / 2
		twr, twi := real(p.twiddle[k]), imag(p.twiddle[k])
		out0[k] = twr*v0r - twi*v0i
		out1[k] = twr*v1r - twi*v1i
	}
}

// InvCosPairTo evaluates the cosine series of two independent coefficient
// lines with a single complex FFT. Each line's spectrum V[k] (see
// InvCosTo) is Hermitian — its inverse FFT is real — so both pack into
// one complex spectrum Z = V₀ + i·V₁; after one inverse FFT the real part
// carries line 0 and the imaginary part line 1, each undoing the even-odd
// permutation. ai and outi may alias pairwise.
func (p *Plan) InvCosPairTo(a0, a1, out0, out1 []float64) {
	n := p.n
	if len(a0) != n || len(a1) != n || len(out0) != n || len(out1) != n {
		panic("fft: transform size mismatch")
	}
	if n == 1 {
		out0[0], out1[0] = a0[0], a1[0]
		return
	}
	rev := p.rev
	p.cbuf[0] = complex(a0[0], a1[0])
	for k := 1; k < n; k++ {
		// V₀[k] + i·V₁[k] with Vj[k] = untwiddle[k]·(aj[k] − i·aj[n−k])/2.
		p.cbuf[rev[k]] = p.untwiddle[k] * complex((a0[k]+a1[n-k])/2, (a1[k]-a0[n-k])/2)
	}
	butterflies(p.cbuf, p.invStage)
	for i := 0; i < n/2; i++ {
		zi, zo := p.cbuf[i], p.cbuf[n-1-i]
		out0[2*i] = real(zi)
		out0[2*i+1] = real(zo)
		out1[2*i] = imag(zi)
		out1[2*i+1] = imag(zo)
	}
}

// InvSinPairTo evaluates the sine series of two independent coefficient
// lines with a single complex FFT: InvCosPairTo on the index-reversed
// coefficients of both lines (folded into the spectrum construction, as
// in InvSinTo) with the odd-output sign flip applied to both unpacked
// lines. ai and outi may alias pairwise.
func (p *Plan) InvSinPairTo(a0, a1, out0, out1 []float64) {
	n := p.n
	if len(a0) != n || len(a1) != n || len(out0) != n || len(out1) != n {
		panic("fft: transform size mismatch")
	}
	if n == 1 {
		out0[0], out1[0] = 0, 0
		return
	}
	rev := p.rev
	p.cbuf[0] = 0
	for k := 1; k < n; k++ {
		p.cbuf[rev[k]] = p.untwiddle[k] * complex((a0[n-k]+a1[k])/2, (a1[n-k]-a0[k])/2)
	}
	butterflies(p.cbuf, p.invStage)
	for i := 0; i < n/2; i++ {
		zi, zo := p.cbuf[i], p.cbuf[n-1-i]
		out0[2*i] = real(zi)
		out0[2*i+1] = -real(zo)
		out1[2*i] = imag(zi)
		out1[2*i+1] = -imag(zo)
	}
}

// transposeTile is the edge of the square blocks the tiled transpose
// moves at a time: 32×32 float64 tiles (8 KiB working set for the two
// faces) keep both the row-major reads and the column-major writes inside
// L1 instead of striding the full matrix.
const transposeTile = 32

// Transpose writes the transpose of the n×n row-major matrix src into dst
// (dst[j*n+i] = src[i*n+j]). Cache-blocked in transposeTile×transposeTile
// tiles so neither side of the copy strides the whole matrix. dst and src
// must not overlap.
func Transpose(dst, src []float64, n int) {
	for i0 := 0; i0 < n; i0 += transposeTile {
		i1 := min(i0+transposeTile, n)
		for j0 := 0; j0 < n; j0 += transposeTile {
			j1 := min(j0+transposeTile, n)
			for i := i0; i < i1; i++ {
				row := src[i*n : i*n+n]
				for j := j0; j < j1; j++ {
					dst[j*n+i] = row[j]
				}
			}
		}
	}
}
