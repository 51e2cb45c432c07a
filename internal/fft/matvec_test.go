package fft

import (
	"math"
	"sync"
)

// This file keeps the dense O(N²) evaluation of the trig transforms, the
// implementation the FFT-based path replaced, one line per call.
// Validation tests and micro-benchmarks diff the pair transforms against
// it.

// denseBasis is the cosine/sine basis of one transform size, built once.
type denseBasis struct {
	once   sync.Once
	cosTab []float64 // cos(πk(2n+1)/(2N)) at [k*N+n]
	sinTab []float64 // sin(πk(2n+1)/(2N)) at [k*N+n]
}

var denseBases sync.Map // int -> *denseBasis

// refTables returns the dense cosine/sine basis tables of p's size,
// building them on first use.
func (p *Plan) refTables() ([]float64, []float64) {
	v, _ := denseBases.LoadOrStore(p.n, &denseBasis{})
	b := v.(*denseBasis)
	b.once.Do(func() {
		n := p.n
		b.cosTab = make([]float64, n*n)
		b.sinTab = make([]float64, n*n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				// Reduce the angle index k(2j+1) mod 4N in exact integer
				// arithmetic before converting to radians: the basis has
				// period 4N in that index, and keeping the float64 argument
				// below 2π avoids the ~ε·|arg| trig-argument rounding that a
				// direct πk(2j+1)/(2N) evaluation accumulates at large N.
				m := (k * (2*j + 1)) % (4 * n)
				arg := math.Pi * float64(m) / (2 * float64(n))
				b.cosTab[k*n+j] = math.Cos(arg)
				b.sinTab[k*n+j] = math.Sin(arg)
			}
		}
	})
	return b.cosTab, b.sinTab
}

// InvCosMatVec is the dense O(N²) reference evaluation of one line of
// InvCosPairTo.
func (p *Plan) InvCosMatVec(a, out []float64) {
	cosTab, _ := p.refTables()
	p.matVec(cosTab, a, out)
}

// InvSinMatVec is the dense O(N²) reference evaluation of one line of
// InvSinPairTo.
func (p *Plan) InvSinMatVec(a, out []float64) {
	_, sinTab := p.refTables()
	p.matVec(sinTab, a, out)
}

// DCT2MatVec is the dense O(N²) reference evaluation of one line of
// DCT2PairTo: the forward transform shares the cosine basis with InvCosMatVec, with the
// roles of k and j swapped (out[k] = Σ_j x[j]·cos(πk(2j+1)/(2N))). x and
// out must not alias.
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
