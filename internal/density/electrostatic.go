// Package density implements the two smoothed cell-overlap models compared
// in the paper: the electrostatics-based potential-energy model of ePlace
// (density as charge, overlap penalty as system energy, solved spectrally
// via DCT/DST transforms) used by ePlace-A, and the bell-shaped bin-density
// penalty of NTUplace3 used by the previous analytical work [11].
package density

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/fft"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/par"
)

// devGrain is the minimum number of devices per shard when rasterization
// is split. Fixed so shard geometry — and with it the bin-sum merge order
// — depends only on the netlist size.
const devGrain = 32

// Electrostatic is the ePlace density model: devices are positive charges
// whose density field ρ drives a Poisson equation ∇²ψ = -ρ; the overlap
// penalty N(v) is the system potential energy and its gradient is the
// electric field ξ = -∇ψ scaled by device charge. The Poisson solve is
// spectral: a 2-D DCT of ρ, per-frequency scaling, and inverse cosine/sine
// reconstructions for ξx and ξy. The potential ψ itself is never built:
// the energy is read off the spectrum (see Energy).
//
// The solve is a packed, fused pipeline of six line passes (see solve):
// every pass packs two real grid lines into one complex FFT (fft's
// *PairTo transforms), the passes that change direction write their
// outputs down grid columns instead of transposing, the spectral scaling
// reads one precomputed per-frequency table (built once, by setRegion),
// and the ξx and ξy coefficients are row scalings of the ψ coefficients
// rather than grids of their own.
//
// The passes that run one line per grid row (F1, R2a and R2b) visit only
// the row pairs the device footprints cover: ρ is zero on the others, and
// AddGrad samples ξ only on footprint rows. So after an Update, ξ is
// defined on the covered row pairs only; the other rows of ex and ey hold
// whatever an earlier Update left there.
//
// Every pass runs inline on the calling goroutine. Rasterization keeps its
// fixed device shards, a partial ρ grid per shard merged in shard order,
// and the line passes their fixed pairing, so the result bits depend only
// on the input. The grid is not safe for concurrent use by multiple
// goroutines.
type Electrostatic struct {
	m      int
	region geom.Rect
	binW   float64
	binH   float64

	plan *fft.Plan
	rho  []float64 // device area density per bin (area units / bin area)
	auv  []float64 // scaled DCT spectrum of rho (ψ coefficients, [u*m+v])
	ex   []float64 // field x-component per bin, on covered row pairs
	ey   []float64 // field y-component per bin, on covered row pairs

	work    []float64 // scratch: half-transformed grids
	lineE   []float64 // per-u Σ_v s·R² partials (deterministic energy)
	b0, b1  []float64 // scratch: frequency-scaled coefficient lines
	partRho []float64 // scratch: one raster shard's partial ρ grid

	// Device footprints of the last Update, flat over devices: device i's
	// charge scale is scale[i], and the bins its inflated rectangle
	// overlaps are xOv[xOff[i]:xOff[i+1]] along x and yOv[yOff[i]:yOff[i+1]]
	// along y. Rasterization and field sampling both read them.
	scale      []float64
	xOv, yOv   []overlap
	xOff, yOff []int
	// covered[k] reports whether a footprint of the last Update has a y
	// bin in row 2k or 2k+1. Every other row of ρ is zero.
	covered []bool

	// Frequency tables, built by setRegion: wu[u] = πu/(m·binW),
	// wv[v] = πv/(m·binH), and scaleTab[u*m+v] — the DCT normalization
	// (2/m)² with the α₀ = ½ edge factors folded into 1/(wu²+wv²), zero at
	// the DC term. One table lookup replaces the per-element trig, division
	// and branch work the solve used to redo three times per call.
	wuTab    []float64
	wvTab    []float64
	scaleTab []float64

	// Tracer, when non-nil, times the grid's kernels: density_raster and
	// poisson_solve (Update's two passes) and field_sample (AddGrad). It
	// also counts the row pairs each solve transforms in F1, as
	// poisson.row_pairs.
	Tracer *obs.Tracer
}

// overlap is one bin of a device footprint along one axis: the bin index
// and the length of the device's inflated rectangle inside that bin.
type overlap struct {
	bin int
	ov  float64
}

// NewElectrostatic creates an m×m electrostatic grid covering region. m
// must be a power of two of at least 8, the sizes fft.NewPlan accepts; it
// panics otherwise.
func NewElectrostatic(m int, region geom.Rect) *Electrostatic {
	g := &Electrostatic{
		m:        m,
		plan:     fft.NewPlan(m),
		rho:      make([]float64, m*m),
		auv:      make([]float64, m*m),
		ex:       make([]float64, m*m),
		ey:       make([]float64, m*m),
		work:     make([]float64, m*m),
		lineE:    make([]float64, m),
		b0:       make([]float64, m),
		b1:       make([]float64, m),
		partRho:  make([]float64, m*m),
		covered:  make([]bool, m/2),
		wuTab:    make([]float64, m),
		wvTab:    make([]float64, m),
		scaleTab: make([]float64, m*m),
	}
	g.setRegion(region)
	return g
}

// setRegion targets the grid onto a placement region and builds the
// frequency tables the spectral scaling reads.
func (g *Electrostatic) setRegion(region geom.Rect) {
	g.region = region
	m := g.m
	g.binW = region.W() / float64(m)
	g.binH = region.H() / float64(m)
	for u := 0; u < m; u++ {
		g.wuTab[u] = math.Pi * float64(u) / (float64(m) * g.binW)
	}
	for v := 0; v < m; v++ {
		g.wvTab[v] = math.Pi * float64(v) / (float64(m) * g.binH)
	}
	// scaleTab[u*m+v] turns the raw 2-D DCT-II output directly into ψ
	// coefficients: the exact cosine-series normalization (2/m)² with the
	// α₀ = ½ factors on the u = 0 / v = 0 edges, times the Poisson kernel
	// 1/(wu²+wv²). The DC entry is zero — dividing out the kernel at the
	// (0,0) frequency is exactly where the mean (neutralization) term
	// lives, so zeroing it here subsumes the explicit mean-subtraction
	// sweep the solve used to run over the whole grid.
	nrm := 4 / (float64(m) * float64(m))
	for u := 0; u < m; u++ {
		au := nrm
		if u == 0 {
			au /= 2
		}
		wu2 := g.wuTab[u] * g.wuTab[u]
		row := g.scaleTab[u*m : u*m+m]
		for v := 0; v < m; v++ {
			c := au
			if v == 0 {
				c /= 2
			}
			wv := g.wvTab[v]
			row[v] = c / (wu2 + wv*wv)
		}
	}
	g.scaleTab[0] = 0
}

// inflated returns the rasterization rectangle and charge-density scale for
// device i: devices narrower than a bin are inflated to one bin in that
// axis with their total charge (area) preserved, the standard ePlace
// treatment that keeps gradients smooth for small cells.
func (g *Electrostatic) inflated(n *circuit.Netlist, p *circuit.Placement, i int) (geom.Rect, float64) {
	d := &n.Devices[i]
	w, h := d.W, d.H
	scale := 1.0
	if w < g.binW {
		scale *= w / g.binW
		w = g.binW
	}
	if h < g.binH {
		scale *= h / g.binH
		h = g.binH
	}
	r := geom.RectCenter(geom.Point{X: p.X[i], Y: p.Y[i]}, w, h)
	// Clamp the rect into the region, preserving its size when possible.
	if dx := g.region.Lo.X - r.Lo.X; dx > 0 {
		r = r.Translate(geom.Point{X: dx})
	}
	if dx := g.region.Hi.X - r.Hi.X; dx < 0 {
		r = r.Translate(geom.Point{X: dx})
	}
	if dy := g.region.Lo.Y - r.Lo.Y; dy > 0 {
		r = r.Translate(geom.Point{Y: dy})
	}
	if dy := g.region.Hi.Y - r.Hi.Y; dy < 0 {
		r = r.Translate(geom.Point{Y: dy})
	}
	return g.region.Intersect(r), scale
}

// binRange returns the bin index range [lo, hi) overlapped by [a, b) along
// an axis with bin size s anchored at origin o.
func binRange(a, b, o, s float64, m int) (int, int) {
	lo := int(math.Floor((a - o) / s))
	hi := int(math.Ceil((b - o) / s))
	if lo < 0 {
		lo = 0
	}
	if hi > m {
		hi = m
	}
	return lo, hi
}

// Update rebuilds the density field from placement p and re-solves the
// Poisson system, refreshing ξ, the energy and the device footprints
// AddGrad samples the field over.
func (g *Electrostatic) Update(n *circuit.Netlist, p *circuit.Placement) {
	t0 := g.Tracer.Now()
	g.accumulate(n, p)
	g.Tracer.Kernel("density_raster", t0)
	t1 := g.Tracer.Now()
	pairs := g.solve()
	g.Tracer.Kernel("poisson_solve", t1)
	g.Tracer.Count("poisson.row_pairs", float64(pairs))
}

// accumulate builds the device footprints and rasterizes them into the ρ
// bins. Devices are split into shards; each shard rasterizes into a
// partial grid that is added into ρ before the next shard, so the per-bin
// summation tree depends only on the netlist.
func (g *Electrostatic) accumulate(n *circuit.Netlist, p *circuit.Placement) {
	g.buildFootprints(n, p)
	for i := range g.rho {
		g.rho[i] = 0
	}
	nd := len(n.Devices)
	shards := par.ShardCount(nd, devGrain)
	if shards == 1 {
		g.rasterize(0, nd, g.rho)
		return
	}
	part := g.partRho
	for s := 0; s < shards; s++ {
		lo, hi := par.ShardRange(nd, shards, s)
		for i := range part {
			part[i] = 0
		}
		g.rasterize(lo, hi, part)
		for i, v := range part {
			g.rho[i] += v
		}
	}
}

// buildFootprints records every device's footprint for placement p: the
// charge scale of its inflated rectangle and, per axis, the bins that
// rectangle overlaps with the overlap lengths. A device's rectangle covers
// the product of its x and y bins, so each overlap is computed once per
// axis bin rather than once per grid bin, and once per Update rather than
// again in AddGrad. It also marks the row pairs the y bins cover.
func (g *Electrostatic) buildFootprints(n *circuit.Netlist, p *circuit.Placement) {
	nd := len(n.Devices)
	if len(g.scale) != nd {
		g.scale = make([]float64, nd)
		g.xOff = make([]int, nd+1)
		g.yOff = make([]int, nd+1)
	}
	g.xOv, g.yOv = g.xOv[:0], g.yOv[:0]
	for i := 0; i < nd; i++ {
		r, scale := g.inflated(n, p, i)
		g.scale[i] = scale
		if !r.Empty() {
			g.xOv = appendOverlaps(g.xOv, r.Lo.X, r.Hi.X, g.region.Lo.X, g.binW, g.m)
			g.yOv = appendOverlaps(g.yOv, r.Lo.Y, r.Hi.Y, g.region.Lo.Y, g.binH, g.m)
		}
		g.xOff[i+1] = len(g.xOv)
		g.yOff[i+1] = len(g.yOv)
	}
	clear(g.covered)
	for _, y := range g.yOv {
		g.covered[y.bin/2] = true
	}
}

// appendOverlaps appends the bins that [a, b) overlaps along an axis with
// bin size s anchored at origin o, each with the overlap length. Bins whose
// overlap is not positive are left out: they contribute nothing.
func appendOverlaps(dst []overlap, a, b, o, s float64, m int) []overlap {
	lo, hi := binRange(a, b, o, s, m)
	for k := lo; k < hi; k++ {
		klo := o + float64(k)*s
		ov := min(b, klo+s) - max(a, klo)
		if ov <= 0 {
			continue
		}
		dst = append(dst, overlap{bin: k, ov: ov})
	}
	return dst
}

// footprint returns device i's x and y overlaps from the last Update.
func (g *Electrostatic) footprint(i int) (xs, ys []overlap) {
	return g.xOv[g.xOff[i]:g.xOff[i+1]], g.yOv[g.yOff[i]:g.yOff[i+1]]
}

// rasterize adds the footprints of devices [lo, hi) into the dst grid.
func (g *Electrostatic) rasterize(lo, hi int, dst []float64) {
	m := g.m
	invBinArea := 1 / (g.binW * g.binH)
	for i := lo; i < hi; i++ {
		sb := g.scale[i] * invBinArea
		xs, ys := g.footprint(i)
		for _, y := range ys {
			row := dst[y.bin*m : y.bin*m+m]
			for _, x := range xs {
				row[x.bin] += sb * x.ov * y.ov
			}
		}
	}
}

// solve computes ξ and the energy partials from the current ρ via the
// packed, fused spectral Poisson solve, and returns the number of row
// pairs F1 transformed. Data flow (DESIGN.md §14 has the derivation), with
// R the raw 2-D DCT-II of ρ and s = scaleTab:
//
//	F1  DCT over x of covered ρ row pairs, down work's columns → work[u][y]
//	F2  DCT over y of every row, fused ·s and Σ_v s·R² per u   → auv[u][v]  (ψ coefficients)
//	R1  InvCos over v of every row, written down columns       → work[y][u] (shared half-reconstruction Q)
//	R2a InvSin over u of wu-scaled rows, covered pairs         → ξx rows
//	R1b InvSin over v of wv-scaled auv rows, down columns      → work[y][u]
//	R2b InvCos over u of rows, covered pairs                   → ξy rows
//
// The field coefficients a·wu/(wu²+wv²) and a·wv/(wu²+wv²) are the ψ
// coefficients times a constant per u-line or per v-line, so neither needs
// a coefficient grid: ξx scales Q's rows by wu before its inverse over u,
// and ξy scales auv's rows by wv before its inverse over v. That is two
// forward and four inverse line passes, and with two real lines packed per
// complex FFT, at most 3m length-m FFTs per solve. The passes that turn
// the grid from rows to columns (F1, R1, R1b) write each output line down
// a column of work, so no pass transposes.
//
// The three passes with one line per grid row run only on the row pairs
// the footprints cover (g.covered). An uncovered pair's two ρ rows are
// all zero, and the pair DCT of two zero lines is +0 in every output, so
// F1 writes +0 down its two columns instead, and F2 reads the bits it
// would have read. R2a and R2b skip the pair: AddGrad samples ξ only on
// footprint rows. Every line that is computed keeps its pairing and its
// order of operations, so ξ on covered rows, auv and the energy are the
// bits of the full solve.
//
// Mean neutralization is implicit: subtracting the mean density only
// changes the (0,0) DCT term, and scaleTab zeroes exactly that term, so
// no explicit neutralization sweep is needed. The DCT normalization and
// Poisson kernel are likewise one fused table multiply (see setRegion).
func (g *Electrostatic) solve() int {
	m := g.m
	plan := g.plan
	rho, auv, work := g.rho, g.auv, g.work
	b0, b1 := g.b0, g.b1
	covered := g.covered
	// F1: forward DCT along x of every covered ρ row pair, two rows per
	// complex FFT, row y's spectrum written down column y of work.
	pairs := 0
	for y := 0; y < m; y += 2 {
		if !covered[y/2] {
			for u := 0; u < m*m; u += m {
				work[u+y], work[u+y+1] = 0, 0
			}
			continue
		}
		plan.DCT2PairTo(rho[y*m:y*m+m], rho[y*m+m:y*m+2*m], work[y:], work[y+1:], m)
		pairs++
	}
	// F2: forward DCT along y, scaled in place to ψ coefficients while the
	// rows are cache-hot. Each raw coefficient r is also folded into its
	// row's energy partial as r·(r·s) = s·R² (see Energy).
	for u := 0; u < m; u += 2 {
		o0, o1 := auv[u*m:u*m+m], auv[u*m+m:u*m+2*m]
		plan.DCT2PairTo(work[u*m:u*m+m], work[u*m+m:u*m+2*m], o0, o1, 1)
		g.lineE[u] = scaleLine(o0, g.scaleTab[u*m:u*m+m])
		g.lineE[u+1] = scaleLine(o1, g.scaleTab[u*m+m:u*m+2*m])
	}
	// R1: shared half-reconstruction Q = InvCos over v of the ψ
	// coefficient rows, row u written down column u: work[y][u].
	for u := 0; u < m; u += 2 {
		plan.InvCosPairTo(auv[u*m:u*m+m], auv[u*m+m:u*m+2*m], work[u:], work[u+1:], m)
	}
	// R2a: per covered output row y, ξx = InvSin over u of Q's row y
	// scaled by wu (the per-u constant that turns ψ coefficients into ξx
	// coefficients).
	for y := 0; y < m; y += 2 {
		if !covered[y/2] {
			continue
		}
		q0, q1 := work[y*m:y*m+m], work[y*m+m:y*m+2*m]
		for u, w := range g.wuTab {
			b0[u] = w * q0[u]
			b1[u] = w * q1[u]
		}
		plan.InvSinPairTo(b0, b1, g.ex[y*m:y*m+m], g.ex[y*m+m:y*m+2*m], 1)
	}
	// R1b: S = InvSin over v of the wv-scaled ψ coefficient rows (wv is
	// constant per v, so scaling the row is the whole ξy coefficient
	// build), row u written down column u: work[y][u].
	for u := 0; u < m; u += 2 {
		a0, a1 := auv[u*m:u*m+m], auv[u*m+m:u*m+2*m]
		for v, w := range g.wvTab {
			b0[v] = w * a0[v]
			b1[v] = w * a1[v]
		}
		plan.InvSinPairTo(b0, b1, work[u:], work[u+1:], m)
	}
	// R2b: covered ξy rows = InvCos over u of S's rows.
	for y := 0; y < m; y += 2 {
		if !covered[y/2] {
			continue
		}
		plan.InvCosPairTo(work[y*m:y*m+m], work[y*m+m:y*m+2*m],
			g.ey[y*m:y*m+m], g.ey[y*m+m:y*m+2*m], 1)
	}
	return pairs
}

// scaleLine scales the raw DCT line r by s in place and returns
// Σ r·(r·s), accumulated in index order.
func scaleLine(r, s []float64) float64 {
	var e float64
	s = s[:len(r)]
	for v, x := range r {
		a := x * s[v]
		r[v] = a
		e += x * a
	}
	return e
}

// Energy returns the electrostatic potential energy N(v) = ½·Σ q·ψ of the
// last Update, without ψ. With R the raw (unnormalized) 2-D DCT-II of ρ
// and a = s·R the ψ coefficients, ψ = Σ_uv a_uv·cos·cos, so
// Σ_xy ρ·ψ = Σ_uv a_uv·Σ_xy ρ·cos·cos = Σ_uv s_uv·R_uv² exactly. solve
// accumulated each u-row's Σ_v s·R² while it scaled the spectrum; only
// the merge in fixed u order (deterministic) and the ½·binArea scaling
// remain. The value equals the ψ-based sum up to rounding.
func (g *Electrostatic) Energy() float64 {
	var e float64
	for _, v := range g.lineE {
		e += v
	}
	return e * g.binW * g.binH / 2
}

// AddGrad accumulates ∂N/∂x_i = -q_i·ξ(i) at the last Update's placement
// into gradX/gradY, sampling that Update's field over each device's
// (inflated) footprint weighted by bin overlap.
func (g *Electrostatic) AddGrad(gradX, gradY []float64) {
	t0 := g.Tracer.Now()
	m := g.m
	for i, scale := range g.scale {
		xs, ys := g.footprint(i)
		var fx, fy float64
		for _, y := range ys {
			ex := g.ex[y.bin*m : y.bin*m+m]
			ey := g.ey[y.bin*m : y.bin*m+m]
			for _, x := range xs {
				q := scale * x.ov * y.ov
				fx += q * ex[x.bin]
				fy += q * ey[x.bin]
			}
		}
		gradX[i] -= fx
		gradY[i] -= fy
	}
	g.Tracer.Kernel("field_sample", t0)
}

// Overflow returns the density overflow ratio τ at the last Update: the
// device area above density 1 (the target) in each bin, summed over the
// bins and normalized by total device area. ePlace-style global placement
// stops when τ drops below a threshold. Only covered row pairs are
// scanned, since every other row of ρ is zero, below the target.
func (g *Electrostatic) Overflow(n *circuit.Netlist) float64 {
	m := g.m
	binArea := g.binW * g.binH
	var over float64
	for k, c := range g.covered {
		if !c {
			continue
		}
		for _, r := range g.rho[2*k*m : 2*k*m+2*m] {
			if r > 1 {
				over += (r - 1) * binArea
			}
		}
	}
	total := n.TotalDeviceArea()
	if total == 0 {
		return 0
	}
	return over / total
}
