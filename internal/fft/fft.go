// Package fft provides the spectral transforms behind ePlace-style
// electrostatic placement: the forward DCT-II that decomposes the charge
// density, and the inverse cosine and sine series that evaluate the
// electrostatic field ξ from frequency-domain Poisson coefficients. There
// is one method per transform, and each runs on two real lines at once:
// the lines pack into one complex radix-2 FFT, so a pair costs O(N log N).
// The forward DCT-II uses the Makhoul even-odd permutation, the inverse
// cosine series inverts that recombination, and the sine series reduces
// to the cosine series by index reversal (DESIGN.md §9 derives all three).
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Plan holds precomputed tables and the staging buffer for the pair
// transforms of a fixed size N, a power of two of at least 8. Its
// transforms share the buffer, so a Plan is not safe for concurrent use.
type Plan struct {
	n         int
	rev       []int        // bit-reversal permutation of 0..N-1
	src       []int        // DCT-II gather: slot j holds x[src[j]]; see NewPlan
	twiddle   []complex128 // e^{-iπk/(2N)}, k = 0..N-1 (forward)
	untwiddle []complex128 // e^{+iπk/(2N)}, k = 0..N-1 (inverse)
	fwdStage  []complex128 // per-stage forward FFT twiddles; see stageTables
	invStage  []complex128 // per-stage inverse FFT twiddles
	cbuf      []complex128 // FFT staging buffer, filled in bit-reversed order
}

// NewPlan builds a plan for transforms of length n. It panics unless n is
// a power of two of at least 8: the transforms run the size-2 and size-4
// butterflies fused over blocks of four and then unpack the last radix-2
// stage, which must be a stage of its own.
func NewPlan(n int) *Plan {
	if n < 8 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: plan size %d is not a power of two of at least 8", n))
	}
	p := &Plan{
		n:         n,
		rev:       make([]int, n),
		src:       make([]int, n),
		twiddle:   make([]complex128, n),
		untwiddle: make([]complex128, n),
		cbuf:      make([]complex128, n),
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	// The DCT-II's even-odd permutation puts x[2k] at position k < N/2 and
	// x[2N−1−2k] at k ≥ N/2, and the FFT takes position k from slot rev[k];
	// src composes the two, so slot j loads x[src[j]] with no permutation
	// sweep.
	for j, k := range p.rev {
		if 2*k < n {
			p.src[j] = 2 * k
		} else {
			p.src[j] = 2*n - 1 - 2*k
		}
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

// first4 runs the size-2 and size-4 butterflies of one block of four
// inputs x0…x3, taken in bit-reversed order, and stores the block in q.
// Their twiddles are w = 1 except w3 = tw[3] = e^{∓iπ/2}, whose real part
// is 6.1e-17 rather than 0, so that one stays a full complex multiply. The
// pair transforms pass inputs they load straight from their lines, so the
// first pass needs no staging sweep.
func first4(q []complex128, x0, x1, x2, x3, w3 complex128) {
	a0, a1 := x0+x1, x0-x1
	b0, b1 := x2+x3, x2-x3
	t := b1 * w3
	q[0], q[2] = a0+b0, a0-b0
	q[1], q[3] = a1+t, a1-t
}

// radix2 runs the radix-2 stages over x that merge blocks of half-size
// from, 2·from, … while the half-size is below to.
func radix2(x, tw []complex128, from, to int) {
	n := len(x)
	for half := from; half < to; half <<= 1 {
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

// last returns butterfly k of the final radix-2 stage, X[k] and X[k+h]
// with h = N/2, from x after every earlier stage; w is the stage's
// twiddle run tw[h:2h]. The pair transforms unpack these straight from
// registers instead of storing the stage.
func last(x, w []complex128, k, h int) (complex128, complex128) {
	a, b := x[k], x[k+h]
	if k > 0 {
		b *= w[k]
	}
	return a + b, a - b
}

// checkPair panics unless a0 and a1 hold N values each and out0 and out1
// have room for N values stride apart.
func (p *Plan) checkPair(a0, a1, out0, out1 []float64, stride int) {
	n := p.n
	if len(a0) != n || len(a1) != n || stride < 1 ||
		len(out0) < (n-1)*stride+1 || len(out1) < (n-1)*stride+1 {
		panic("fft: transform size mismatch")
	}
}

// DCT2PairTo computes the unnormalized DCT-II
//
//	outj[k] = Σ_n xj[n]·cos(πk(2n+1)/(2N))
//
// of two independent real lines with a single complex FFT. Each line is
// permuted even-odd (Makhoul: v = [x₀, x₂, …, x₃, x₁]), and the two pack
// into z = v₀ + i·v₁, the two-for-one Hermitian packing. The FFT of a
// real line has Hermitian symmetry, so the two interleaved spectra
// separate exactly as V₀[k] = (Z[k] + conj(Z[N−k]))/2 and
// V₁[k] = (Z[k] − conj(Z[N−k]))/(2i), after which each line gets the
// quarter-wave post-twiddle, C[k] = Re(e^{−iπk/(2N)}·V[k]).
//
// Output k of line j goes to outj[k·stride]: stride 1 writes a row, and
// stride m into an m×m row-major grid writes a column. Every input is read
// before any output is written, so xi and outi may alias.
//
// The input loads straight from the lines into the first butterfly pass,
// and the last radix-2 stage hands each butterfly pair to the unpack in
// registers: butterflies k and N/2−k produce Z[k], Z[N−k], Z[N/2−k] and
// Z[N/2+k], which are all that outputs k, N−k, N/2−k and N/2+k read.
func (p *Plan) DCT2PairTo(x0, x1, out0, out1 []float64, stride int) {
	p.checkPair(x0, x1, out0, out1, stride)
	n, c, src, tw := p.n, p.cbuf, p.src, p.twiddle
	w3 := p.fwdStage[3]
	for s := 0; s < n; s += 4 {
		i0, i1, i2, i3 := src[s], src[s+1], src[s+2], src[s+3]
		first4(c[s:s+4:s+4], complex(x0[i0], x1[i0]), complex(x0[i1], x1[i1]),
			complex(x0[i2], x1[i2]), complex(x0[i3], x1[i3]), w3)
	}
	h := n / 2
	radix2(c, p.fwdStage, 4, h)
	w := p.fwdStage[h:n]
	z0, zh := last(c, w, 0, h)
	out0[0], out1[0] = real(z0), imag(z0)
	dctOut(out0, out1, h*stride, tw[h], zh, zh)
	for k := 1; k < h/2; k++ {
		j := h - k
		zk, zkh := last(c, w, k, h) // Z[k], Z[N/2+k]
		zj, zjh := last(c, w, j, h) // Z[N/2−k], Z[N−k]
		dctOut(out0, out1, k*stride, tw[k], zk, zjh)
		dctOut(out0, out1, (n-k)*stride, tw[n-k], zjh, zk)
		dctOut(out0, out1, j*stride, tw[j], zj, zkh)
		dctOut(out0, out1, (h+k)*stride, tw[h+k], zkh, zj)
	}
	q := h / 2
	zq, zqh := last(c, w, q, h) // Z[N/4], Z[3N/4]
	dctOut(out0, out1, q*stride, tw[q], zq, zqh)
	dctOut(out0, out1, (h+q)*stride, tw[h+q], zqh, zq)
}

// dctOut unpacks output k ≥ 1 of both DCT2PairTo lines from the packed
// spectrum entries zk = Z[k] and zn = Z[N−k], with tw = twiddle[k], and
// stores it at offset at.
func dctOut(out0, out1 []float64, at int, tw, zk, zn complex128) {
	v0r := (real(zk) + real(zn)) / 2
	v0i := (imag(zk) - imag(zn)) / 2
	v1r := (imag(zk) + imag(zn)) / 2
	v1i := (real(zn) - real(zk)) / 2
	twr, twi := real(tw), imag(tw)
	out0[at] = twr*v0r - twi*v0i
	out1[at] = twr*v1r - twi*v1i
}

// InvCosPairTo evaluates the cosine series
//
//	outj[i] = Σ_{k=0}^{N-1} aj[k]·cos(πk(2i+1)/(2N))
//
// of two independent coefficient lines with a single complex FFT; the
// caller folds any α_k normalization into aj. It runs the DCT-II's
// Makhoul recombination backwards: each line's spectrum,
// V[0] = a[0] and V[k] = e^{+iπk/(2N)}·(a[k] − i·a[N−k])/2, is Hermitian,
// since its inverse FFT is the real, even-odd permuted output. So both
// pack into one complex spectrum Z = V₀ + i·V₁; after one inverse FFT the
// real part carries line 0 and the imaginary part line 1, each undoing
// the even-odd permutation. Outputs are strided as in DCT2PairTo, and ai
// and outi may alias.
func (p *Plan) InvCosPairTo(a0, a1, out0, out1 []float64, stride int) {
	p.invPairTo(a0, a1, out0, out1, stride, false)
}

// InvSinPairTo evaluates the sine series
//
//	outj[i] = Σ_{k=0}^{N-1} aj[k]·sin(πk(2i+1)/(2N))
//
// of two independent coefficient lines with a single complex FFT; the
// k = 0 term is identically zero. The identity
// sin(πk(2i+1)/(2N)) = (−1)^i·cos(π(N−k)(2i+1)/(2N)) makes it
// InvCosPairTo on the index-reversed coefficients ã[k] = a[N−k],
// ã[0] = 0, with the sign of every odd output flipped; the reversal is
// folded into the spectrum construction. Outputs are strided as in
// DCT2PairTo, and ai and outi may alias.
func (p *Plan) InvSinPairTo(a0, a1, out0, out1 []float64, stride int) {
	p.invPairTo(a0, a1, out0, out1, stride, true)
}

// invPairTo is InvCosPairTo, or InvSinPairTo when sin is set. It fuses
// like DCT2PairTo: each spectrum entry is built straight into the first
// butterfly pass, and butterflies i and N/2−1−i of the last stage produce
// Z[i], Z[N/2+i], Z[N/2−1−i] and Z[N−1−i], which are all that outputs 2i,
// 2i+1, N−2−2i and N−1−2i read.
func (p *Plan) invPairTo(a0, a1, out0, out1 []float64, stride int, sin bool) {
	p.checkPair(a0, a1, out0, out1, stride)
	n, c, rev := p.n, p.cbuf, p.rev
	var z0 complex128 // the k = 0 term: zero for the sine series
	if !sin {
		z0 = complex(a0[0], a1[0])
	}
	w3 := p.invStage[3]
	first4(c[0:4:4], z0, p.invIn(a0, a1, rev[1], sin), p.invIn(a0, a1, rev[2], sin),
		p.invIn(a0, a1, rev[3], sin), w3)
	for s := 4; s < n; s += 4 {
		first4(c[s:s+4:s+4], p.invIn(a0, a1, rev[s], sin), p.invIn(a0, a1, rev[s+1], sin),
			p.invIn(a0, a1, rev[s+2], sin), p.invIn(a0, a1, rev[s+3], sin), w3)
	}
	h := n / 2
	radix2(c, p.invStage, 4, h)
	w := p.invStage[h:n]
	for i := 0; i < h/2; i++ {
		j := h - 1 - i
		zi, zih := last(c, w, i, h) // Z[i], Z[N/2+i]
		zj, zjh := last(c, w, j, h) // Z[N/2−1−i], Z[N−1−i]
		invOut(out0, out1, 2*i*stride, stride, zi, zjh, sin)
		invOut(out0, out1, 2*j*stride, stride, zj, zih, sin)
	}
}

// invIn returns the packed spectrum entry of frequency k ≥ 1:
// V₀[k] + i·V₁[k] with Vj[k] = untwiddle[k]·(aj[k] − i·aj[N−k])/2, and
// with k and N−k swapped in the coefficient reads for the sine series.
func (p *Plan) invIn(a0, a1 []float64, k int, sin bool) complex128 {
	ka, kb := k, p.n-k
	if sin {
		ka, kb = kb, ka
	}
	return p.untwiddle[k] * complex((a0[ka]+a1[kb])/2, (a1[ka]-a0[kb])/2)
}

// invOut stores outputs 2i and 2i+1 of both inverse lines, at offsets at
// and at+stride, from zi = Z[i] and zo = Z[N−1−i]; the sine series flips
// the odd output's sign.
func invOut(out0, out1 []float64, at, stride int, zi, zo complex128, sin bool) {
	ro, io := real(zo), imag(zo)
	if sin {
		ro, io = -ro, -io
	}
	out0[at], out0[at+stride] = real(zi), ro
	out1[at], out1[at+stride] = imag(zi), io
}
