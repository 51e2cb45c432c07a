package density

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/geom"
)

// refField is what refSolve computes from a grid's ρ, on every row.
type refField struct {
	auv       []float64 // ψ coefficients [u*m+v]
	psi       []float64 // potential per bin
	ex, ey    []float64 // field per bin
	psiEnergy float64   // ½·binArea·Σρψ, per-row partials merged in row order
	// specEnergy is ½·binArea·Σ s·R², summed as Energy sums it: each
	// u-row's Σ_v r·(r·s) in v order, the rows merged in u order.
	specEnergy float64
}

// refSolve is the seven-pass form of Electrostatic's solve that the fused
// pipeline replaced: it transforms every row, builds the potential ψ,
// turns the grid between passes with explicit transposes, and sums the
// energy as ½·binArea·Σρψ in per-row partials merged in row order. It
// also sums the spectral energy from the raw spectrum before scaling it.
// It reads g's ρ and frequency tables and leaves g untouched. Its
// transforms are fft's pair transforms writing rows, which fft's reference
// tests pin bit for bit to the staged FFT. Kept only as the reference
// solve is pinned to.
func refSolve(g *Electrostatic) refField {
	m, plan := g.m, g.plan
	grid := func() []float64 { return make([]float64, m*m) }
	auv, work, coef := grid(), grid(), grid()
	psi, ex, ey := grid(), grid(), grid()
	row := func(a []float64, i int) []float64 { return a[i*m : i*m+m] }
	b0, b1 := make([]float64, m), make([]float64, m)
	lineE, lineS := make([]float64, m), make([]float64, m)
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
				x := auv[r*m+v]
				lineS[r] += x * (x * s)
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
	var e, es float64
	for r := range lineE {
		e += lineE[r]
		es += lineS[r]
	}
	return refField{
		auv: auv, psi: psi, ex: ex, ey: ey,
		psiEnergy:  e * g.binW * g.binH / 2,
		specEnergy: es * g.binW * g.binH / 2,
	}
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
// reference trials (refTrialNets): the ψ coefficients must be
// bit-identical everywhere, ξx and ξy on the row pairs the footprints
// cover (refCoveredPairs), and Energy to refSolve's spectral sum. Energy
// must also match the ψ-based energy to 1e-12 relative.
func TestSolveMatchesSevenPassReference(t *testing.T) {
	nets := refTrialNets(t)
	for m := 8; m <= 256; m *= 2 {
		check := func(label string, g *Electrostatic, n *circuit.Netlist, p *circuit.Placement) {
			t.Helper()
			ref := refSolve(g)
			pairs := refCoveredPairs(g, n, p)
			if k := bitsDiffer(g.auv, ref.auv); k >= 0 {
				t.Fatalf("m=%d %s: auv[%d] = %v, seven-pass reference %v", m, label, k, g.auv[k], ref.auv[k])
			}
			if k := coveredDiffer(g.ex, ref.ex, pairs, m); k >= 0 {
				t.Fatalf("m=%d %s: ex[%d] = %v, seven-pass reference %v", m, label, k, g.ex[k], ref.ex[k])
			}
			if k := coveredDiffer(g.ey, ref.ey, pairs, m); k >= 0 {
				t.Fatalf("m=%d %s: ey[%d] = %v, seven-pass reference %v", m, label, k, g.ey[k], ref.ey[k])
			}
			got := g.Energy()
			if math.Float64bits(got) != math.Float64bits(ref.specEnergy) {
				t.Fatalf("m=%d %s: Energy = %.17g, spectral reference %.17g", m, label, got, ref.specEnergy)
			}
			if e := ref.psiEnergy; !(math.Abs(got-e) <= 1e-12*math.Abs(e)) {
				t.Fatalf("m=%d %s: Energy = %.17g, ψ-based %.17g (rel %.3g)", m, label, got, e, math.Abs(got-e)/math.Abs(e))
			}
		}
		for _, k := range []int{3, 25, 80} {
			span := float64(4 * m)
			n, p := scatter(k, span/10, span)
			g := NewElectrostatic(m, geom.RectWH(0, 0, span, span))
			g.Update(n, p)
			check("scatter", g, n, p)
		}
		rng := rand.New(rand.NewSource(int64(m)))
		for _, n := range nets {
			region := refTrialRegion(n)
			g := NewElectrostatic(m, region)
			p := circuit.NewPlacement(n)
			for trial := 0; trial < refTrials; trial++ {
				refTrialPlacement(rng, p, region, trial)
				g.Update(n, p)
				check(n.Name, g, n, p)
			}
		}
	}
}

// TestClumpedSolveReadsOnlyCoveredRows places the reference trial
// netlists at m = 32 in a clump within the central 15 % of the region, as
// eplacea.Start does, so the footprints leave row pairs uncovered and the
// solve skips them. ex and ey are filled with NaN before Update, so a row
// the solve did not write and AddGrad read would turn the gradient NaN.
// AddGrad, Energy and Overflow must be finite and bit-identical to the
// full reference path: per-bin ρ, refSolve, per-bin AddGrad and a
// full-grid overflow scan.
func TestClumpedSolveReadsOnlyCoveredRows(t *testing.T) {
	const m = 32
	rng := rand.New(rand.NewSource(15))
	for _, n := range refTrialNets(t) {
		region := refTrialRegion(n)
		g := NewElectrostatic(m, region)
		ref := NewElectrostatic(m, region)
		nd := len(n.Devices)
		p := circuit.NewPlacement(n)
		side := region.W()
		c := region.Center()
		for i := range p.X {
			p.X[i] = c.X + (rng.Float64()-0.5)*side*0.15
			p.Y[i] = c.Y + (rng.Float64()-0.5)*side*0.15
		}
		for i := range g.ex {
			g.ex[i], g.ey[i] = math.NaN(), math.NaN()
		}
		g.Update(n, p)
		if !slices.Contains(g.covered, false) {
			t.Fatalf("%s: the clump covers every row pair; nothing is skipped", n.Name)
		}
		refAccumulate(ref, n, p)
		rf := refSolve(ref)
		gx, gy := make([]float64, nd), make([]float64, nd)
		rx, ry := make([]float64, nd), make([]float64, nd)
		g.AddGrad(gx, gy)
		refAddGrad(ref, rf.ex, rf.ey, n, p, rx, ry)
		for _, f := range []struct {
			name      string
			got, want []float64
		}{
			{"gradX", gx, rx},
			{"gradY", gy, ry},
		} {
			for i, v := range f.got {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: %s[%d] = %v", n.Name, f.name, i, v)
				}
			}
			if k := bitsDiffer(f.got, f.want); k >= 0 {
				t.Fatalf("%s: %s[%d] = %v, reference %v", n.Name, f.name, k, f.got[k], f.want[k])
			}
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"Energy", g.Energy(), rf.specEnergy},
			{"Overflow", g.Overflow(n), refOverflow(ref, n)},
		} {
			if math.IsNaN(f.got) || math.IsInf(f.got, 0) || math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("%s: %s = %v, reference %v", n.Name, f.name, f.got, f.want)
			}
		}
	}
}
