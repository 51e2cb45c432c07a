package density

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/geom"
)

// denseBasis evaluates the trig transforms of length m as dense O(m²)
// matrix-vector products over the basis cos/sin(πk(2j+1)/(2m)), stored at
// [k*m+j].
type denseBasis struct {
	m              int
	cosTab, sinTab []float64
}

func newDenseBasis(m int) *denseBasis {
	b := &denseBasis{m: m, cosTab: make([]float64, m*m), sinTab: make([]float64, m*m)}
	for k := 0; k < m; k++ {
		for j := 0; j < m; j++ {
			// Reduce the angle index k(2j+1) mod 4m in exact integer
			// arithmetic, so the float64 argument stays below 2π.
			arg := math.Pi * float64((k*(2*j+1))%(4*m)) / (2 * float64(m))
			b.cosTab[k*m+j] = math.Cos(arg)
			b.sinTab[k*m+j] = math.Sin(arg)
		}
	}
	return b
}

// DCT2 computes out[k] = Σ_j x[j]·cos(πk(2j+1)/(2m)).
func (b *denseBasis) DCT2(x, out []float64) {
	m := b.m
	for k := 0; k < m; k++ {
		row := b.cosTab[k*m : (k+1)*m]
		var sum float64
		for j := 0; j < m; j++ {
			sum += x[j] * row[j]
		}
		out[k] = sum
	}
}

// InvCos computes out[j] = Σ_k a[k]·cos(πk(2j+1)/(2m)).
func (b *denseBasis) InvCos(a, out []float64) { b.series(b.cosTab, a, out) }

// InvSin computes out[j] = Σ_k a[k]·sin(πk(2j+1)/(2m)).
func (b *denseBasis) InvSin(a, out []float64) { b.series(b.sinTab, a, out) }

func (b *denseBasis) series(tab, a, out []float64) {
	m := b.m
	for j := range out {
		out[j] = 0
	}
	for k := 0; k < m; k++ {
		row := tab[k*m : (k+1)*m]
		for j := 0; j < m; j++ {
			out[j] += a[k] * row[j]
		}
	}
}

// denseReference recomputes ξx, ξy, and the ψ-based energy of g's current ρ
// with the textbook dense pipeline the packed solve replaced: explicit
// mean neutralization, 2-D DCT-II via dense O(N²) transforms (rows, then
// stride-gathered columns), a separate normalization sweep, three
// independently built coefficient grids with per-element wu/wv math, and
// three independent dense 2-D reconstructions. Deliberately naive — it
// shares no code with the fast path.
func denseReference(g *Electrostatic) (ex, ey []float64, energy float64) {
	m := g.m
	p := newDenseBasis(m)
	a := make([]float64, m*m)
	var mean float64
	for _, v := range g.rho {
		mean += v
	}
	mean /= float64(m * m)
	for i, v := range g.rho {
		a[i] = v - mean
	}
	// Forward 2-D DCT-II: rows over x, then columns over y.
	buf := make([]float64, m)
	out := make([]float64, m)
	for y := 0; y < m; y++ {
		copy(buf, a[y*m:(y+1)*m])
		p.DCT2(buf, a[y*m:(y+1)*m])
	}
	for u := 0; u < m; u++ {
		for y := 0; y < m; y++ {
			buf[y] = a[y*m+u]
		}
		p.DCT2(buf, out)
		for v := 0; v < m; v++ {
			a[v*m+u] = out[v]
		}
	}
	// Exact cosine-series normalization.
	nrm := 4 / (float64(m) * float64(m))
	for v := 0; v < m; v++ {
		for u := 0; u < m; u++ {
			c := a[v*m+u] * nrm
			if u == 0 {
				c /= 2
			}
			if v == 0 {
				c /= 2
			}
			a[v*m+u] = c
		}
	}
	wu := func(u int) float64 { return math.Pi * float64(u) / (float64(m) * g.binW) }
	wv := func(v int) float64 { return math.Pi * float64(v) / (float64(m) * g.binH) }
	coef := make([]float64, m*m)
	build := func(weight func(u, v int) float64) {
		for v := 0; v < m; v++ {
			for u := 0; u < m; u++ {
				if u == 0 && v == 0 {
					coef[0] = 0
					continue
				}
				coef[v*m+u] = a[v*m+u] * weight(u, v) / (wu(u)*wu(u) + wv(v)*wv(v))
			}
		}
	}
	reconstruct := func(dst []float64, sinX, sinY bool) {
		invX, invY := p.InvCos, p.InvCos
		if sinX {
			invX = p.InvSin
		}
		if sinY {
			invY = p.InvSin
		}
		for v := 0; v < m; v++ {
			copy(buf, coef[v*m:(v+1)*m])
			invX(buf, dst[v*m:(v+1)*m]) // dst temporarily holds [v][x]
		}
		for x := 0; x < m; x++ {
			for v := 0; v < m; v++ {
				buf[v] = dst[v*m+x]
			}
			invY(buf, out)
			for y := 0; y < m; y++ {
				dst[y*m+x] = out[y]
			}
		}
	}
	psi := make([]float64, m*m)
	ex = make([]float64, m*m)
	ey = make([]float64, m*m)
	build(func(u, v int) float64 { return 1 })
	reconstruct(psi, false, false)
	build(func(u, v int) float64 { return wu(u) })
	reconstruct(ex, true, false)
	build(func(u, v int) float64 { return wv(v) })
	reconstruct(ey, false, true)
	binArea := g.binW * g.binH
	for i, r := range g.rho {
		energy += r * binArea * psi[i]
	}
	energy /= 2
	return ex, ey, energy
}

// scatter places k overlapping square devices deterministically across
// the region so ρ (and the spectrum) is dense and asymmetric.
func scatter(k int, side, span float64) (*circuit.Netlist, *circuit.Placement) {
	n, p := cluster(k, side)
	for i := range p.X {
		p.X[i] = math.Mod(float64(i)*span*0.37+side, span-side) + side/2
		p.Y[i] = math.Mod(float64(i)*span*0.61+2*side, span-side) + side/2
	}
	return n, p
}

// TestElectrostaticMatchesDenseReference cross-validates the full packed,
// fused solve — ξx and ξy on the row pairs the footprints cover
// (refCoveredPairs), and Energy — against the dense-reference build at
// every production grid size up to m = 256. 1e-10 relative (against the
// field's max magnitude) is the acceptance bound; the packed path
// typically lands several digits inside it.
func TestElectrostaticMatchesDenseReference(t *testing.T) {
	for m := 8; m <= 256; m *= 2 {
		span := float64(4 * m)
		n, p := scatter(25, span/10, span)
		g := NewElectrostatic(m, geom.RectWH(0, 0, span, span))
		g.Update(n, p)
		refEx, refEy, refE := denseReference(g)
		pairs := refCoveredPairs(g, n, p)
		maxAbs := func(a []float64) float64 {
			var mx float64
			for _, v := range a {
				if av := math.Abs(v); av > mx {
					mx = av
				}
			}
			return mx
		}
		for name, pair := range map[string][2][]float64{
			"ex": {g.ex, refEx},
			"ey": {g.ey, refEy},
		} {
			got, ref := pair[0], pair[1]
			tol := 1e-10 * (1 + maxAbs(ref))
			for i := range got {
				if pairs[i/(2*m)] && math.Abs(got[i]-ref[i]) > tol {
					t.Fatalf("m=%d: %s[%d] = %.17g, dense reference %.17g (tol %g)",
						m, name, i, got[i], ref[i], tol)
				}
			}
		}
		if d := math.Abs(g.Energy() - refE); d > 1e-10*(1+math.Abs(refE)) {
			t.Fatalf("m=%d: Energy = %.17g, dense reference %.17g", m, g.Energy(), refE)
		}
	}
}
