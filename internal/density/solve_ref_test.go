package density

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/geom"
)

// refSolve is the seven-pass form of Electrostatic's solve that the fused
// pipeline replaced: it builds the potential ψ, turns the grid between
// passes with explicit transposes, and sums the energy as ½·binArea·Σρψ
// in per-row partials merged in row order. It reads g's ρ and frequency
// tables, leaves g untouched, and returns ψ, ξx, ξy and that energy. Its
// transforms are fft's pair transforms writing rows, which fft's reference
// tests pin bit for bit to the staged FFT. Kept only as the reference
// solve is pinned to.
func refSolve(g *Electrostatic) (psi, ex, ey []float64, energy float64) {
	m, plan := g.m, g.plan
	grid := func() []float64 { return make([]float64, m*m) }
	auv, work, coef := grid(), grid(), grid()
	psi, ex, ey = grid(), grid(), grid()
	row := func(a []float64, i int) []float64 { return a[i*m : i*m+m] }
	b0, b1 := make([]float64, m), make([]float64, m)
	lineE := make([]float64, m)
	// F1: DCT over x of every ρ row → auv[y][u]; T1 → work[u][y].
	for y := 0; y < m; y += 2 {
		plan.DCT2PairTo(row(g.rho, y), row(g.rho, y+1), row(auv, y), row(auv, y+1), 1)
	}
	transpose(work, auv, m)
	// F2: DCT over y, scaled in place to ψ coefficients → auv[u][v].
	for u := 0; u < m; u += 2 {
		plan.DCT2PairTo(row(work, u), row(work, u+1), row(auv, u), row(auv, u+1), 1)
		for _, r := range []int{u, u + 1} {
			for v, s := range row(g.scaleTab, r) {
				auv[r*m+v] *= s
			}
		}
	}
	// R1: Q = InvCos over v → work[u][y]; T2 → coef[y][u].
	for u := 0; u < m; u += 2 {
		plan.InvCosPairTo(row(auv, u), row(auv, u+1), row(work, u), row(work, u+1), 1)
	}
	transpose(coef, work, m)
	// R2a: ψ rows = InvCos over u of Q^T; ξx rows = InvSin over u of the
	// wu-scaled rows; Σ ρ·ψ per finished ψ row.
	for y := 0; y < m; y += 2 {
		q0, q1 := row(coef, y), row(coef, y+1)
		plan.InvCosPairTo(q0, q1, row(psi, y), row(psi, y+1), 1)
		for u := 0; u < m; u++ {
			w := g.wuTab[u]
			b0[u] = w * q0[u]
			b1[u] = w * q1[u]
		}
		plan.InvSinPairTo(b0, b1, row(ex, y), row(ex, y+1), 1)
		for _, r := range []int{y, y + 1} {
			var s float64
			for x, v := range row(g.rho, r) {
				s += v * psi[r*m+x]
			}
			lineE[r] = s
		}
	}
	// R1b: S = InvSin over v of the wv-scaled auv rows → work[u][y];
	// T3 → coef[y][u].
	for u := 0; u < m; u += 2 {
		for v, a := range row(auv, u) {
			b0[v] = g.wvTab[v] * a
		}
		for v, a := range row(auv, u+1) {
			b1[v] = g.wvTab[v] * a
		}
		plan.InvSinPairTo(b0, b1, row(work, u), row(work, u+1), 1)
	}
	transpose(coef, work, m)
	// R2b: ξy rows = InvCos over u of S^T.
	for y := 0; y < m; y += 2 {
		plan.InvCosPairTo(row(coef, y), row(coef, y+1), row(ey, y), row(ey, y+1), 1)
	}
	var e float64
	for _, v := range lineE {
		e += v
	}
	return psi, ex, ey, e * g.binW * g.binH / 2
}

// transpose writes the transpose of the m×m row-major grid src into dst.
func transpose(dst, src []float64, m int) {
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			dst[j*m+i] = src[i*m+j]
		}
	}
}

// TestSolveMatchesSevenPassReference pins the six-pass solve to refSolve
// at every grid size from m = 8 to 256, on scatter layouts and on the
// reference trials (refTrialNets): ξx and ξy must be bit-identical, and
// Energy, now read off the spectrum, must match the ψ-based energy to
// 1e-12 relative.
func TestSolveMatchesSevenPassReference(t *testing.T) {
	nets := refTrialNets(t)
	for m := 8; m <= 256; m *= 2 {
		check := func(label string, g *Electrostatic) {
			t.Helper()
			_, ex, ey, e := refSolve(g)
			if k := bitsDiffer(g.ex, ex); k >= 0 {
				t.Fatalf("m=%d %s: ex[%d] = %v, seven-pass reference %v", m, label, k, g.ex[k], ex[k])
			}
			if k := bitsDiffer(g.ey, ey); k >= 0 {
				t.Fatalf("m=%d %s: ey[%d] = %v, seven-pass reference %v", m, label, k, g.ey[k], ey[k])
			}
			if got := g.Energy(); !(math.Abs(got-e) <= 1e-12*math.Abs(e)) {
				t.Fatalf("m=%d %s: Energy = %.17g, ψ-based %.17g (rel %.3g)", m, label, got, e, math.Abs(got-e)/math.Abs(e))
			}
		}
		for _, k := range []int{3, 25, 80} {
			span := float64(4 * m)
			n, p := scatter(k, span/10, span)
			g := NewElectrostatic(m, geom.RectWH(0, 0, span, span))
			g.Update(n, p)
			check("scatter", g)
		}
		rng := rand.New(rand.NewSource(int64(m)))
		for _, n := range nets {
			region := refTrialRegion(n)
			g := NewElectrostatic(m, region)
			p := circuit.NewPlacement(n)
			for trial := 0; trial < refTrials; trial++ {
				refTrialPlacement(rng, p, region, trial)
				g.Update(n, p)
				check(n.Name, g)
			}
		}
	}
}
