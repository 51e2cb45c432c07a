// Package fft provides the spectral transforms behind ePlace-style
// electrostatic placement: an iterative radix-2 complex FFT, an FFT-based
// forward DCT-II, and the inverse cosine/sine reconstructions used to
// evaluate the electrostatic potential ψ and field ξ from frequency-domain
// Poisson coefficients. Every trig transform is O(N log N): the forward
// DCT-II uses the Makhoul even-odd permutation and one length-N FFT, the
// inverse cosine series inverts that recombination with one length-N IFFT,
// and the sine series reduces to the cosine series by index reversal
// (see the derivation on InvCosTo/InvSinTo). The dense O(N²) matVec path
// the package used to ship survives as the *MatVec reference methods,
// which validation tests and micro-benchmarks diff the fast path against.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Plan holds precomputed tables for 1-D trig transforms of a fixed size N
// (a power of two). A Plan is immutable after construction and safe to
// share between goroutines through the *To methods, each caller passing
// its own Scratch; the scratch-less convenience methods (DCT2, InvCos,
// InvSin) reuse one plan-owned Scratch and are therefore not safe for
// concurrent use.
type Plan struct {
	n         int
	rev       []int        // bit-reversal permutation of 0..N-1
	twiddle   []complex128 // e^{-iπk/(2N)}, k = 0..N-1 (forward)
	untwiddle []complex128 // e^{+iπk/(2N)}, k = 0..N-1 (inverse)
	fwdStage  []complex128 // per-stage forward FFT twiddles; see stageTables
	invStage  []complex128 // per-stage inverse FFT twiddles
	own       *Scratch     // scratch for the non-concurrent methods

	// Dense O(N²) reference tables, built lazily by the *MatVec methods
	// only: the production transforms never touch them.
	refOnce sync.Once
	cosTab  []float64 // cos(πk(2n+1)/(2N)) at [k*N+n]
	sinTab  []float64 // sin(πk(2n+1)/(2N)) at [k*N+n]
}

// Scratch is the per-goroutine workspace of a Plan's transforms. Distinct
// goroutines sharing one Plan must use distinct Scratches.
type Scratch struct {
	cbuf []complex128 // FFT staging buffer, filled in bit-reversed order
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
	p.own = p.NewScratch()
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

// NewScratch allocates a workspace sized for this plan.
func (p *Plan) NewScratch() *Scratch {
	return &Scratch{
		cbuf: make([]complex128, p.n),
	}
}

// N returns the plan's transform length.
func (p *Plan) N() int { return p.n }

// DCT2 computes the unnormalized DCT-II
//
//	out[k] = Σ_{n} x[n]·cos(πk(2n+1)/(2N))
//
// using the Makhoul even-odd permutation and a single length-N FFT.
// x and out may alias. Not safe for concurrent use; see DCT2To.
func (p *Plan) DCT2(x, out []float64) { p.DCT2To(x, out, p.own) }

// InvCos evaluates the cosine series
//
//	out[j] = Σ_{k=0}^{N-1} a[k]·cos(πk(2j+1)/(2N))
//
// (the caller folds any α_k normalization into a). a and out may not alias.
// Not safe for concurrent use; see InvCosTo.
func (p *Plan) InvCos(a, out []float64) { p.InvCosTo(a, out, p.own) }

// InvSin evaluates the sine series
//
//	out[j] = Σ_{k=0}^{N-1} a[k]·sin(πk(2j+1)/(2N))
//
// (the k = 0 term is identically zero). a and out may not alias.
// Not safe for concurrent use; see InvSinTo.
func (p *Plan) InvSin(a, out []float64) { p.InvSinTo(a, out, p.own) }

// DCT2To is DCT2 with caller-supplied scratch, safe for concurrent use with
// a scratch per goroutine.
func (p *Plan) DCT2To(x, out []float64, s *Scratch) {
	n := p.n
	if len(x) != n || len(out) != n {
		panic("fft: DCT2 size mismatch")
	}
	half := n / 2
	rev := p.rev
	for i := 0; i < half; i++ {
		s.cbuf[rev[i]] = complex(x[2*i], 0)
		s.cbuf[rev[n-1-i]] = complex(x[2*i+1], 0)
	}
	if n == 1 {
		s.cbuf[0] = complex(x[0], 0)
	}
	butterflies(s.cbuf, p.fwdStage)
	for k := 0; k < n; k++ {
		out[k] = real(p.twiddle[k] * s.cbuf[k])
	}
}

// InvCosTo is InvCos with caller-supplied scratch, safe for concurrent use
// with a scratch per goroutine.
//
// Derivation (the Makhoul recombination run backwards): DCT2To computes
// C[k] = Re(e^{-iπk/(2N)}·V[k]) with V the FFT of the even-odd permuted
// input v. For real v, V has Hermitian symmetry, which pins the imaginary
// part too: Im(e^{-iπk/(2N)}·V[k]) = -C[N-k] (with C[N] ≡ 0). The desired
// series out[j] = Σ a[k]·cos(πk(2j+1)/(2N)) is the exact inverse of the
// unnormalized DCT-II of the coefficients b[0] = N·a[0], b[k] = N/2·a[k],
// so the spectrum is recovered as V[k] = e^{+iπk/(2N)}·(b[k] − i·b[N−k]),
// one IFFT yields v, and undoing the even-odd permutation yields out —
// O(N log N) against the O(N²) dense evaluation of InvCosMatVec.
func (p *Plan) InvCosTo(a, out []float64, s *Scratch) {
	n := p.n
	if len(a) != n || len(out) != n {
		panic("fft: transform size mismatch")
	}
	if n == 1 {
		out[0] = a[0]
		return
	}
	rev := p.rev
	s.cbuf[0] = complex(a[0], 0)
	for k := 1; k < n; k++ {
		s.cbuf[rev[k]] = p.untwiddle[k] * complex(a[k]/2, -a[n-k]/2)
	}
	butterflies(s.cbuf, p.invStage)
	for i := 0; i < n/2; i++ {
		out[2*i] = real(s.cbuf[i])
		out[2*i+1] = real(s.cbuf[n-1-i])
	}
}

// InvSinTo is InvSin with caller-supplied scratch, safe for concurrent use
// with a scratch per goroutine.
//
// The sine series reduces to the cosine series through the identity
// sin(πk(2j+1)/(2N)) = (−1)^j·cos(π(N−k)(2j+1)/(2N)): running InvCosTo on
// the index-reversed coefficients (ã[m] = a[N−m], ã[0] = 0 — the k = 0
// term vanishes) and alternating the output sign yields the sine
// reconstruction at the same O(N log N) cost. The reversal is folded
// directly into the spectrum construction (ã[k] = a[n−k], ã[n−k] = a[k]),
// so no coefficient staging buffer is needed — the float operations are
// bit-identical to materializing ã and calling InvCosTo.
func (p *Plan) InvSinTo(a, out []float64, s *Scratch) {
	n := p.n
	if len(a) != n || len(out) != n {
		panic("fft: transform size mismatch")
	}
	if n == 1 {
		out[0] = 0
		return
	}
	rev := p.rev
	s.cbuf[0] = 0
	for k := 1; k < n; k++ {
		s.cbuf[rev[k]] = p.untwiddle[k] * complex(a[n-k]/2, -a[k]/2)
	}
	butterflies(s.cbuf, p.invStage)
	for i := 0; i < n/2; i++ {
		out[2*i] = real(s.cbuf[i])
		out[2*i+1] = -real(s.cbuf[n-1-i])
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
// Safe for concurrent use with a scratch per goroutine.
func (p *Plan) DCT2PairTo(x0, x1, out0, out1 []float64, s *Scratch) {
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
		s.cbuf[rev[i]] = complex(x0[2*i], x1[2*i])
		s.cbuf[rev[n-1-i]] = complex(x0[2*i+1], x1[2*i+1])
	}
	butterflies(s.cbuf, p.fwdStage)
	out0[0] = real(s.cbuf[0])
	out1[0] = imag(s.cbuf[0])
	for k := 1; k < n; k++ {
		zk, zn := s.cbuf[k], s.cbuf[n-k]
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
// permutation. ai and outi may alias pairwise. Safe for concurrent use
// with a scratch per goroutine.
func (p *Plan) InvCosPairTo(a0, a1, out0, out1 []float64, s *Scratch) {
	n := p.n
	if len(a0) != n || len(a1) != n || len(out0) != n || len(out1) != n {
		panic("fft: transform size mismatch")
	}
	if n == 1 {
		out0[0], out1[0] = a0[0], a1[0]
		return
	}
	rev := p.rev
	s.cbuf[0] = complex(a0[0], a1[0])
	for k := 1; k < n; k++ {
		// V₀[k] + i·V₁[k] with Vj[k] = untwiddle[k]·(aj[k] − i·aj[n−k])/2.
		s.cbuf[rev[k]] = p.untwiddle[k] * complex((a0[k]+a1[n-k])/2, (a1[k]-a0[n-k])/2)
	}
	butterflies(s.cbuf, p.invStage)
	for i := 0; i < n/2; i++ {
		zi, zo := s.cbuf[i], s.cbuf[n-1-i]
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
// lines. ai and outi may alias pairwise. Safe for concurrent use with a
// scratch per goroutine.
func (p *Plan) InvSinPairTo(a0, a1, out0, out1 []float64, s *Scratch) {
	n := p.n
	if len(a0) != n || len(a1) != n || len(out0) != n || len(out1) != n {
		panic("fft: transform size mismatch")
	}
	if n == 1 {
		out0[0], out1[0] = 0, 0
		return
	}
	rev := p.rev
	s.cbuf[0] = 0
	for k := 1; k < n; k++ {
		s.cbuf[rev[k]] = p.untwiddle[k] * complex((a0[n-k]+a1[k])/2, (a1[n-k]-a0[k])/2)
	}
	butterflies(s.cbuf, p.invStage)
	for i := 0; i < n/2; i++ {
		zi, zo := s.cbuf[i], s.cbuf[n-1-i]
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

// TransposeBand writes the transpose of rows [lo, hi) of the n×n
// row-major matrix src into dst (dst[j*n+i] = src[i*n+j] for i in
// [lo, hi), all j). Cache-blocked in transposeTile×transposeTile tiles so
// neither side of the copy strides the whole matrix. dst and src must not
// overlap. Bands write disjoint dst columns, so callers may shard bands
// across workers; the result is a pure element move, identical under any
// sharding.
func TransposeBand(dst, src []float64, n, lo, hi int) {
	for i0 := lo; i0 < hi; i0 += transposeTile {
		i1 := i0 + transposeTile
		if i1 > hi {
			i1 = hi
		}
		for j0 := 0; j0 < n; j0 += transposeTile {
			j1 := j0 + transposeTile
			if j1 > n {
				j1 = n
			}
			for i := i0; i < i1; i++ {
				row := src[i*n : i*n+n]
				for j := j0; j < j1; j++ {
					dst[j*n+i] = row[j]
				}
			}
		}
	}
}

// Transpose writes the transpose of the n×n row-major matrix src into
// dst. dst and src must not overlap; see TransposeBand.
func Transpose(dst, src []float64, n int) {
	TransposeBand(dst, src, n, 0, n)
}

// refTables lazily builds the dense cosine/sine basis tables backing the
// *MatVec reference methods. Production code never calls this; only the
// validation tests and micro-benchmarks pay the O(N²) memory.
func (p *Plan) refTables() ([]float64, []float64) {
	p.refOnce.Do(func() {
		n := p.n
		p.cosTab = make([]float64, n*n)
		p.sinTab = make([]float64, n*n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				// Reduce the angle index k(2j+1) mod 4N in exact integer
				// arithmetic before converting to radians: the basis has
				// period 4N in that index, and keeping the float64 argument
				// below 2π avoids the ~ε·|arg| trig-argument rounding that a
				// direct πk(2j+1)/(2N) evaluation accumulates at large N.
				m := (k * (2*j + 1)) % (4 * n)
				arg := math.Pi * float64(m) / (2 * float64(n))
				p.cosTab[k*n+j] = math.Cos(arg)
				p.sinTab[k*n+j] = math.Sin(arg)
			}
		}
	})
	return p.cosTab, p.sinTab
}

// InvCosMatVec is the dense O(N²) reference evaluation of InvCos, the
// implementation the fast path replaced. It exists to validate and
// benchmark InvCosTo and is safe for concurrent use after the first call.
func (p *Plan) InvCosMatVec(a, out []float64) {
	cosTab, _ := p.refTables()
	p.matVec(cosTab, a, out)
}

// InvSinMatVec is the dense O(N²) reference evaluation of InvSin; see
// InvCosMatVec.
func (p *Plan) InvSinMatVec(a, out []float64) {
	_, sinTab := p.refTables()
	p.matVec(sinTab, a, out)
}

// DCT2MatVec is the dense O(N²) reference evaluation of DCT2: the forward
// transform shares the cosine basis with InvCos, with the roles of k and j
// swapped (out[k] = Σ_j x[j]·cos(πk(2j+1)/(2N))). x and out must not
// alias. See InvCosMatVec for why this exists.
func (p *Plan) DCT2MatVec(x, out []float64) {
	cosTab, _ := p.refTables()
	n := p.n
	if len(x) != n || len(out) != n {
		panic("fft: transform size mismatch")
	}
	for k := 0; k < n; k++ {
		row := cosTab[k*n : (k+1)*n]
		var sum float64
		for j := 0; j < n; j++ {
			sum += x[j] * row[j]
		}
		out[k] = sum
	}
}

// matVec computes out[j] = Σ_k a[k]·tab[k*N+j].
func (p *Plan) matVec(tab, a, out []float64) {
	n := p.n
	if len(a) != n || len(out) != n {
		panic("fft: transform size mismatch")
	}
	for j := 0; j < n; j++ {
		out[j] = 0
	}
	for k := 0; k < n; k++ {
		ak := a[k]
		if ak == 0 {
			continue
		}
		row := tab[k*n : (k+1)*n]
		for j := 0; j < n; j++ {
			out[j] += ak * row[j]
		}
	}
}
