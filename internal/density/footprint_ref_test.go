package density

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/testcircuits"
)

// refAccumulate is the per-bin form of Electrostatic's rasterization that
// the footprint tables replaced: every bin row and column of a device's
// inflated rectangle recomputes its overlap, and devices are rasterized in
// the same shards, merged in shard order. It writes ρ into g.rho. Kept only
// as the bit-identity reference for Update.
func refAccumulate(g *Electrostatic, n *circuit.Netlist, p *circuit.Placement) {
	for i := range g.rho {
		g.rho[i] = 0
	}
	nd := len(n.Devices)
	shards := par.ShardCount(nd, devGrain)
	if shards == 1 {
		refRasterize(g, n, p, 0, nd, g.rho)
		return
	}
	part := make([]float64, len(g.rho))
	for s := 0; s < shards; s++ {
		lo, hi := par.ShardRange(nd, shards, s)
		for i := range part {
			part[i] = 0
		}
		refRasterize(g, n, p, lo, hi, part)
		for i, v := range part {
			g.rho[i] += v
		}
	}
}

func refRasterize(g *Electrostatic, n *circuit.Netlist, p *circuit.Placement, lo, hi int, dst []float64) {
	m := g.m
	invBinArea := 1 / (g.binW * g.binH)
	for i := lo; i < hi; i++ {
		r, scale := g.inflated(n, p, i)
		if r.Empty() {
			continue
		}
		sb := scale * invBinArea
		x0, x1 := binRange(r.Lo.X, r.Hi.X, g.region.Lo.X, g.binW, m)
		y0, y1 := binRange(r.Lo.Y, r.Hi.Y, g.region.Lo.Y, g.binH, m)
		for by := y0; by < y1; by++ {
			ylo := g.region.Lo.Y + float64(by)*g.binH
			oy := math.Min(r.Hi.Y, ylo+g.binH) - math.Max(r.Lo.Y, ylo)
			if oy <= 0 {
				continue
			}
			for bx := x0; bx < x1; bx++ {
				xlo := g.region.Lo.X + float64(bx)*g.binW
				ox := math.Min(r.Hi.X, xlo+g.binW) - math.Max(r.Lo.X, xlo)
				if ox <= 0 {
					continue
				}
				dst[by*m+bx] += sb * ox * oy
			}
		}
	}
}

// refAddGrad is the per-bin form of AddGrad, re-deriving each device's
// inflated rectangle and overlaps from the netlist and placement, and
// sampling the field ex, ey.
func refAddGrad(g *Electrostatic, ex, ey []float64, n *circuit.Netlist, p *circuit.Placement, gradX, gradY []float64) {
	m := g.m
	for i := range n.Devices {
		r, scale := g.inflated(n, p, i)
		if r.Empty() {
			continue
		}
		x0, x1 := binRange(r.Lo.X, r.Hi.X, g.region.Lo.X, g.binW, m)
		y0, y1 := binRange(r.Lo.Y, r.Hi.Y, g.region.Lo.Y, g.binH, m)
		var fx, fy float64
		for by := y0; by < y1; by++ {
			ylo := g.region.Lo.Y + float64(by)*g.binH
			oy := math.Min(r.Hi.Y, ylo+g.binH) - math.Max(r.Lo.Y, ylo)
			if oy <= 0 {
				continue
			}
			for bx := x0; bx < x1; bx++ {
				xlo := g.region.Lo.X + float64(bx)*g.binW
				ox := math.Min(r.Hi.X, xlo+g.binW) - math.Max(r.Lo.X, xlo)
				if ox <= 0 {
					continue
				}
				q := scale * ox * oy
				fx += q * ex[by*m+bx]
				fy += q * ey[by*m+bx]
			}
		}
		gradX[i] -= fx
		gradY[i] -= fy
	}
}

// refCoveredPairs returns, for each row pair (2k, 2k+1), whether some
// device's inflated rectangle overlaps a bin row of the pair by a positive
// length: the pairs the per-bin loops rasterize into and sample ξ on, and
// the ones the solve must reconstruct ξ on.
func refCoveredPairs(g *Electrostatic, n *circuit.Netlist, p *circuit.Placement) []bool {
	pairs := make([]bool, g.m/2)
	for i := range n.Devices {
		r, _ := g.inflated(n, p, i)
		if r.Empty() {
			continue
		}
		y0, y1 := binRange(r.Lo.Y, r.Hi.Y, g.region.Lo.Y, g.binH, g.m)
		for by := y0; by < y1; by++ {
			ylo := g.region.Lo.Y + float64(by)*g.binH
			if math.Min(r.Hi.Y, ylo+g.binH)-math.Max(r.Lo.Y, ylo) > 0 {
				pairs[by/2] = true
			}
		}
	}
	return pairs
}

// refOverflow is the full-grid form of Overflow: every bin of ρ is
// scanned.
func refOverflow(g *Electrostatic, n *circuit.Netlist) float64 {
	binArea := g.binW * g.binH
	var over float64
	for _, r := range g.rho {
		if r > 1 {
			over += (r - 1) * binArea
		}
	}
	return over / n.TotalDeviceArea()
}

// bitsDiffer returns the first index where a and b differ in any bit.
func bitsDiffer(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// coveredDiffer is bitsDiffer over the rows of the m×m grids a and b that
// lie in a row pair marked in pairs.
func coveredDiffer(a, b []float64, pairs []bool, m int) int {
	for k, c := range pairs {
		if !c {
			continue
		}
		lo := 2 * k * m
		if i := bitsDiffer(a[lo:lo+2*m], b[lo:lo+2*m]); i >= 0 {
			return lo + i
		}
	}
	return -1
}

// refTrialNets returns the netlists of the reference trials: the five
// circuits the eplace benchmark places plus gen:48@49, whose 48 devices
// make two raster shards. gen:48@49 also gets devices narrower, shorter,
// or both, than an m = 32 bin (inflated, with their charge scaled), and
// one wider than the region (clipped).
func refTrialNets(t testing.TB) []*circuit.Netlist {
	gen48, _ := bellBenchNetlist(t)
	bin := math.Sqrt(gen48.TotalDeviceArea()/0.8) / 32
	gen48.Devices[1].W = 0.3 * bin
	gen48.Devices[2].H = 0.4 * bin
	gen48.Devices[3].W, gen48.Devices[3].H = 0.5*bin, 0.7*bin
	gen48.Devices[4].W = 40 * bin
	nets := []*circuit.Netlist{gen48}
	for _, name := range []string{"Adder", "CC-OTA", "VCO2", "Comp1", "VGA"} {
		c, err := testcircuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, c.Netlist)
	}
	return nets
}

// refTrialRegion is the square region ePlace-A gives n at its default
// utilization of 0.8.
func refTrialRegion(n *circuit.Netlist) geom.Rect {
	side := math.Sqrt(n.TotalDeviceArea() / 0.8)
	return geom.RectWH(0, 0, side, side)
}

// refTrialPlacement fills p with trial's placement in region: devices
// spread across and beyond the region edges (where the inflated rectangle
// is clamped), from 0.2 to 1.5 region sides around the center, and every
// third trial puts the last device far outside.
func refTrialPlacement(rng *rand.Rand, p *circuit.Placement, region geom.Rect, trial int) {
	side := region.W()
	nd := len(p.X)
	spread := 0.2 + 1.3*float64(trial%4)/3 // 0.2 … 1.5 × side around the center
	for i := 0; i < nd; i++ {
		p.X[i] = side/2 + (rng.Float64()-0.5)*spread*side
		p.Y[i] = side/2 + (rng.Float64()-0.5)*spread*side
	}
	if trial%3 == 0 {
		p.X[nd-1], p.Y[nd-1] = -3*side, 4*side
	}
}

// refTrials is the number of placements each reference trial netlist gets.
const refTrials = 24

// TestElectrostaticMatchesPerBinReference pins the footprint tables to the
// per-bin loops bit for bit over the reference trials (refTrialNets). The
// m = 32 grid covers the region ePlace-A gives each netlist at its default
// utilization of 0.8. The reference field comes from refSolve on the
// reference ρ, so the covered row pairs, ξ on them, Energy and AddGrad
// check the pipeline around the tables; TestSolveMatchesSevenPassReference
// and fft's reference tests pin the solve and the transforms themselves.
// One grid is reused throughout, so stale table entries from a previous
// Update would show.
func TestElectrostaticMatchesPerBinReference(t *testing.T) {
	const m = 32
	rng := rand.New(rand.NewSource(32))
	for _, n := range refTrialNets(t) {
		region := refTrialRegion(n)
		g := NewElectrostatic(m, region)
		ref := NewElectrostatic(m, region)
		nd := len(n.Devices)
		p := circuit.NewPlacement(n)
		for trial := 0; trial < refTrials; trial++ {
			refTrialPlacement(rng, p, region, trial)
			refAccumulate(ref, n, p)
			rf := refSolve(ref)
			pairs := refCoveredPairs(ref, n, p)
			g0 := make([]float64, nd)
			for i := range g0 {
				g0[i] = rng.NormFloat64()
			}
			rx := append([]float64(nil), g0...)
			ry := append([]float64(nil), g0...)
			refAddGrad(ref, rf.ex, rf.ey, n, p, rx, ry)
			g.Update(n, p)
			if k := bitsDiffer(g.rho, ref.rho); k >= 0 {
				t.Fatalf("%s trial %d: rho[%d] = %v, reference %v", n.Name, trial, k, g.rho[k], ref.rho[k])
			}
			if !slices.Equal(g.covered, pairs) {
				t.Fatalf("%s trial %d: covered row pairs %v, reference %v", n.Name, trial, g.covered, pairs)
			}
			for _, f := range []struct {
				name      string
				got, want []float64
			}{
				{"ex", g.ex, rf.ex},
				{"ey", g.ey, rf.ey},
			} {
				if k := coveredDiffer(f.got, f.want, pairs, m); k >= 0 {
					t.Fatalf("%s trial %d: %s[%d] = %v, reference %v",
						n.Name, trial, f.name, k, f.got[k], f.want[k])
				}
			}
			if got, want := g.Energy(), rf.specEnergy; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s trial %d: Energy = %v, reference %v", n.Name, trial, got, want)
			}
			gx := append([]float64(nil), g0...)
			gy := append([]float64(nil), g0...)
			g.AddGrad(gx, gy)
			if k := bitsDiffer(gx, rx); k >= 0 {
				t.Fatalf("%s trial %d: gradX[%d] = %v, reference %v", n.Name, trial, k, gx[k], rx[k])
			}
			if k := bitsDiffer(gy, ry); k >= 0 {
				t.Fatalf("%s trial %d: gradY[%d] = %v, reference %v", n.Name, trial, k, gy[k], ry[k])
			}
		}
	}
}
