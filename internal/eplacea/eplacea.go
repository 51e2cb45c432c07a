// Package eplacea implements the global-placement stage of ePlace-A, the
// paper's analytical analog placer: the ePlace framework (Weighted-Average
// wirelength smoothing, electrostatic density penalty solved spectrally,
// Nesterov's method with Lipschitz step prediction) extended with the analog
// terms of Eq. (3) — a soft symmetry penalty Sym(v), and an explicit
// WA-smoothed total-area term Area(v).
//
// The full ePlace-A flow is global placement from this package followed by
// the ILP legalization/detailed placement in package detailed.
package eplacea

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/nlopt"
	"repro/internal/obs"
	"repro/internal/wl"
)

// Options configures global placement.
type Options struct {
	Seed int64

	// Util is the placement-region utilization: the region side is
	// sqrt(totalDeviceArea/Util). Default 0.8.
	Util float64

	// AreaWeight scales the Area(v) term η relative to the wirelength
	// gradient (default 0.45; 0 disables the term — the Fig. 2 ablation).
	AreaWeight float64
	// NoArea disables the area term entirely even if AreaWeight is unset
	// (distinguishes "default" from "explicitly zero").
	NoArea bool

	// HardSym switches the Table I ablation: enforce symmetry from the
	// first iteration with a rigid (1000×) penalty instead of the soft,
	// gradually increasing one.
	HardSym bool

	// MaxIter caps Nesterov iterations (default 900; 350 for a warm
	// start).
	MaxIter int
	// StopOverflow ends global placement once density overflow drops below
	// this ratio (default 0.08).
	StopOverflow float64

	// ExtraWeight scales the optional extra objective term (ePlace-AP's
	// α·Φ) relative to the wirelength gradient (default 0.5).
	ExtraWeight float64

	// Lambda0 is the initial density-multiplier ratio against the
	// wirelength gradient (default 1e-3).
	Lambda0 float64
	// LambdaGrowth is the per-iteration density multiplier growth
	// (default 1.05).
	LambdaGrowth float64

	// UseLSE swaps the WA wirelength smoothing for Log-Sum-Exponential,
	// the ablation isolating the paper's reason (2) for ePlace-A's edge
	// over [11] (WA has lower estimation error [23]).
	UseLSE bool

	// Tracer, when non-nil, wraps the run in a "gp" span and emits one
	// "eplace-gp" iteration event per Nesterov iteration (objective, exact
	// HPWL, overflow, λ, symmetry penalty, and per-term gradient norms)
	// alongside the underlying solver's own events, and times the GP
	// kernels (wl_grad, density_raster, poisson_solve, field_sample; see
	// obs.Tracer.Kernel). Telemetry is observation-only; a nil Tracer
	// costs one pointer check.
	Tracer *obs.Tracer

	// Warm, when non-nil, turns the run into an incremental (ECO)
	// re-solve: device coordinates start from a prior placement and
	// anchored devices get anchor pseudonets. Nil reproduces the blessed
	// cold-start behavior exactly.
	Warm *circuit.Prior
}

// The warm-start anchor schedule. Anchor pseudonets are quadratic pulls
// w·((x−ax)²+(y−ay)²) toward the prior positions whose weight starts at
// anchorStart of the wirelength force (see AnchorScale) and grows by
// anchorGrowth per iteration — the starting-weight-plus-increase anchor
// schedule of the SNIPPETS analytical placers and ePlace-3D. The solve
// therefore stays near the known-good layout except where the netlist
// changed.
const (
	anchorStart  = 0.3
	anchorGrowth = 1.03
)

func (o *Options) defaults() {
	if o.Util == 0 {
		o.Util = 0.8
	}
	if o.AreaWeight == 0 && !o.NoArea {
		o.AreaWeight = 0.45
	}
	if o.NoArea {
		o.AreaWeight = 0
	}
	if o.MaxIter == 0 {
		o.MaxIter = 900
		if o.Warm != nil {
			// The overflow-based early stop fires quickly from a
			// nearly-legal start; the cap only guards pathological edits.
			o.MaxIter = 350
		}
	}
	if o.StopOverflow == 0 {
		o.StopOverflow = 0.08
	}
	if o.ExtraWeight == 0 {
		o.ExtraWeight = 0.5
	}
	if o.Lambda0 == 0 {
		o.Lambda0 = 1e-3
	}
	if o.LambdaGrowth == 0 {
		o.LambdaGrowth = 1.05
	}
}

// Result reports the global-placement outcome.
type Result struct {
	Placement  *circuit.Placement
	Iterations int
	Overflow   float64 // final density overflow
	HPWL       float64 // exact HPWL of the GP solution
	Region     geom.Rect
	Stop       Stop // the exit that ended the run
}

// Stop names the exit that ended a global-placement run. Its value is
// also the suffix of the run's "gp.<stop>" trace counter.
type Stop string

const (
	// Converged: density overflow fell below StopOverflow.
	Converged Stop = "converged"
	// Stalled: overflow fell to stallArm of its starting value, then
	// made no new low for stallWindow iterations.
	Stalled Stop = "stalled"
	// Capped: no other exit fired before MaxIter ran out.
	Capped Stop = "capped"
	// Diverged: the objective became non-finite. The result is the last
	// iterate whose objective was finite.
	Diverged Stop = "diverged"
)

// gridM is the density grid dimension: m×m bins over the placement
// region.
const gridM = 32

// symWeight scales the symmetry penalty τ relative to the wirelength
// gradient.
const symWeight = 0.4

// The stall exit. A run whose overflow has stopped falling only trades
// wirelength for nothing: λ keeps growing, the density force pins the
// devices in place and the WA force stretches the nets. Overflow counts as
// falling while each stallWindow iterations bring a new low at least a
// fraction stallGain below the last one. The exit arms only once overflow has
// reached stallArm of its first value, so a slow λ ramp's opening phase,
// where the density force is still too weak to spread anything, does not
// read as a stall.
const (
	stallWindow = 100
	stallGain   = 0.01
	stallArm    = 0.8
)

// ExtraGrad lets callers add terms to the GP objective; used by ePlace-AP
// to inject the GNN performance gradient α·∂Φ/∂v. It returns the term's
// value and accumulates its gradient.
type ExtraGrad func(p *circuit.Placement, gradX, gradY []float64) float64

// Place runs ePlace-A global placement on netlist n, with an optional
// extra objective term (the performance-driven hook of ePlace-AP; nil for
// none). The Nesterov progress callback polls ctx once per iteration and
// stops the solve, and a canceled run returns ctx.Err() instead of a
// partial placement.
func Place(ctx context.Context, n *circuit.Netlist, opt Options, extra ExtraGrad) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	opt.defaults()
	sp := opt.Tracer.StartSpan("gp")
	defer sp.End()
	nd := len(n.Devices)

	side := math.Sqrt(n.TotalDeviceArea() / opt.Util)
	region := geom.RectWH(0, 0, side, side)
	grid := density.NewElectrostatic(gridM, region)
	binW := region.W() / float64(gridM)

	smoother := wl.WA
	if opt.UseLSE {
		smoother = wl.LSE
	}
	wlEv := wl.NewEvaluator(n, smoother, 4*binW)
	areaEv := wl.NewAreaEvaluator(n, 4*binW)
	grid.Tracer, wlEv.Tracer = opt.Tracer, opt.Tracer

	p := Start(n, region, opt.Seed, opt.Warm)

	st := &solveState{
		n: n, opt: &opt, grid: grid, wlEv: wlEv, areaEv: areaEv,
		p: p, region: region, binW: binW, extra: extra,
		gx: make([]float64, nd), gy: make([]float64, nd),
		sgx: make([]float64, nd), sgy: make([]float64, nd),
	}
	st.calibrate()

	x := make([]float64, 2*nd)
	copy(x[:nd], p.X)
	copy(x[nd:], p.Y)

	iterRun := 0
	stop := Capped
	// The stall exit's state: the overflow at iteration 0, its running
	// low and the iteration that set it.
	first, low, lowIter := 0.0, math.Inf(1), 0
	// The last iterate whose objective was finite, returned on divergence.
	last := append([]float64(nil), x...)
	done := ctx.Done()
	nlopt.Nesterov(st.objective, x, nlopt.NesterovOptions{
		MaxIter:  opt.MaxIter,
		InitStep: binW, // about one bin per step to start
		Tracer:   opt.Tracer,
		Callback: func(iter int, cur []float64, f float64) bool {
			select {
			case <-done:
				return false
			default:
			}
			iterRun = iter + 1
			// The grid's last Update was the accepted step's objective
			// evaluation; rejected backtracking trials never reach here.
			st.lastOverflow = grid.Overflow(n)
			if opt.Tracer.Enabled() {
				copy(p.X, cur[:nd])
				copy(p.Y, cur[nd:])
				opt.Tracer.IterEvent(obs.IterRecord{
					Solver: "eplace-gp", Iter: iter, F: f,
					HPWL: n.HPWL(p), Overflow: st.lastOverflow,
					Lambda: st.lambda, Sym: st.lastSym,
					GradWL: st.gWL, GradDensity: st.gDen,
					GradSym: st.gSym, GradArea: st.gArea, GradExtra: st.gExtra,
				})
			}
			// Stop at the first non-finite objective. The iterates only
			// run further off from there, and once they turn NaN the
			// density grid's overflow reads 0, which the overflow exit
			// below would take for convergence.
			if math.IsInf(f, 0) || math.IsNaN(f) {
				stop = Diverged
				return false
			}
			copy(last, cur)
			st.schedule(iter)
			if iter >= 50 && st.lastOverflow < opt.StopOverflow {
				stop = Converged
				return false
			}
			if iter == 0 {
				first = st.lastOverflow
			}
			if st.lastOverflow < low*(1-stallGain) {
				low, lowIter = st.lastOverflow, iter
			}
			if low <= stallArm*first && iter-lowIter >= stallWindow {
				stop = Stalled
				return false
			}
			return true
		},
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if stop == Diverged {
		x = last
	}
	copy(p.X, x[:nd])
	copy(p.Y, x[nd:])
	Finish(n, p, region)

	grid.Update(n, p)
	res := &Result{
		Placement:  p,
		Iterations: iterRun,
		Overflow:   grid.Overflow(n),
		HPWL:       n.HPWL(p),
		Region:     region,
		Stop:       stop,
	}
	if opt.Tracer.Enabled() {
		opt.Tracer.Count("gp.runs", 1)
		opt.Tracer.Count("gp."+string(stop), 1)
		opt.Tracer.Count("gp.iterations", float64(iterRun))
		opt.Tracer.Gauge("gp.final_overflow", res.Overflow)
		opt.Tracer.Gauge("gp.final_hpwl", res.HPWL)
	}
	return res, nil
}

// solveState carries the objective's mutable weights and scratch space.
type solveState struct {
	n      *circuit.Netlist
	opt    *Options
	grid   *density.Electrostatic
	wlEv   *wl.Evaluator
	areaEv *wl.AreaEvaluator
	p      *circuit.Placement
	region geom.Rect
	binW   float64
	extra  ExtraGrad

	lambda  float64 // density multiplier
	tau     float64 // symmetry multiplier
	eta     float64 // area multiplier
	alpha   float64 // extra-term multiplier (1 when extra != nil)
	anchorW float64 // anchor-pseudonet multiplier (warm starts only)

	// lastOverflow is the density overflow at the last accepted step,
	// set at the top of the Nesterov callback.
	lastOverflow float64

	// Telemetry snapshots of the most recent objective evaluation, filled
	// only when the tracer is enabled: the symmetry penalty value and the
	// L2 norm of each weighted gradient component (the force balance).
	lastSym                        float64
	gWL, gDen, gSym, gArea, gExtra float64

	gx, gy   []float64
	sgx, sgy []float64
}

// calibrate sets the initial multipliers from gradient L1 norms so each
// term starts at a controlled fraction of the wirelength force, the
// standard ePlace initialization.
func (st *solveState) calibrate() {
	clear(st.gx)
	clear(st.gy)
	st.wlEv.Eval(st.p, st.gx, st.gy)
	wlNorm := nlopt.Norm1(st.gx) + nlopt.Norm1(st.gy) + 1e-12

	st.grid.Update(st.n, st.p)
	clear(st.sgx)
	clear(st.sgy)
	st.grid.AddGrad(st.sgx, st.sgy)
	denNorm := nlopt.Norm1(st.sgx) + nlopt.Norm1(st.sgy) + 1e-12
	st.lambda = st.opt.Lambda0 * wlNorm / denNorm

	clear(st.sgx)
	clear(st.sgy)
	SymPenalty(st.n, st.p, st.sgx, st.sgy)
	symNorm := nlopt.Norm1(st.sgx) + nlopt.Norm1(st.sgy)
	if symNorm < 1e-12 {
		symNorm = wlNorm // no symmetry constraints: weight is irrelevant
	}
	st.tau = symWeight * wlNorm / symNorm
	if st.opt.HardSym {
		st.tau *= 1000
	}

	clear(st.sgx)
	clear(st.sgy)
	st.areaEv.Eval(st.p, st.sgx, st.sgy)
	areaNorm := nlopt.Norm1(st.sgx) + nlopt.Norm1(st.sgy) + 1e-12
	st.eta = st.opt.AreaWeight * wlNorm / areaNorm

	st.alpha = 0
	if st.extra != nil {
		clear(st.sgx)
		clear(st.sgy)
		st.extra(st.p, st.sgx, st.sgy)
		exNorm := nlopt.Norm1(st.sgx) + nlopt.Norm1(st.sgy)
		if exNorm < 1e-12 {
			exNorm = wlNorm
		}
		st.alpha = st.opt.ExtraWeight * wlNorm / exNorm
	}
	st.anchorW = AnchorScale(st.opt.Warm, wlNorm, st.binW)
}

// AnchorScale returns the starting anchor-pseudonet weight of a warm start,
// or 0 when w is nil or anchors nothing. At a warm start the anchored
// devices sit exactly on their anchors, so the anchor gradient is zero and
// cannot be norm-calibrated like the other terms. Its scale is estimated
// instead: a device one bin (binW) off its anchor contributes a gradient of
// 2·binW, so the term's L1 norm at that typical displacement is 2·binW per
// anchored device, set to anchorStart of the wirelength norm wlNorm.
func AnchorScale(w *circuit.Prior, wlNorm, binW float64) float64 {
	if w == nil {
		return 0
	}
	na := w.AnchorCount()
	if na == 0 {
		return 0
	}
	return anchorStart * wlNorm / (2 * binW * float64(na))
}

// AnchorPenalty returns the anchor pseudonets' Σ (x−ax)²+(y−ay)² over the
// devices w anchors, and adds weight times its gradient into gx, gy unless
// gx is nil.
func AnchorPenalty(w *circuit.Prior, p *circuit.Placement, weight float64, gx, gy []float64) float64 {
	var av float64
	for i, a := range w.Anchored {
		if !a {
			continue
		}
		dx := p.X[i] - w.X[i]
		dy := p.Y[i] - w.Y[i]
		av += dx*dx + dy*dy
		if gx != nil {
			gx[i] += weight * 2 * dx
			gy[i] += weight * 2 * dy
		}
	}
	return av
}

// schedule advances the multiplier and smoothing schedules once per
// Nesterov iteration: λ grows geometrically, the soft symmetry weight
// tightens, and the WA smoothing parameter anneals with overflow.
func (st *solveState) schedule(iter int) {
	st.lambda *= st.opt.LambdaGrowth
	if !st.opt.HardSym && iter%10 == 0 {
		st.tau *= 1.10
	}
	if st.anchorW > 0 {
		st.anchorW *= anchorGrowth
	}
	gamma := st.binW * (0.5 + 7.5*math.Min(st.lastOverflow, 1))
	st.wlEv.SetGamma(gamma)
	st.areaEv.SetGamma(gamma)
}

// objective evaluates Eq. (3) (plus the optional extra term) and its
// gradient at the packed coordinate vector x = (x₀..x_{n−1}, y₀..y_{n−1}).
func (st *solveState) objective(x, grad []float64) float64 {
	nd := len(st.n.Devices)
	copy(st.p.X, x[:nd])
	copy(st.p.Y, x[nd:])
	traced := st.opt.Tracer.Enabled()

	clear(st.gx)
	clear(st.gy)
	f := st.wlEv.Eval(st.p, st.gx, st.gy)
	if traced {
		st.gWL = norm2xy(st.gx, st.gy)
	}

	st.grid.Update(st.n, st.p)
	clear(st.sgx)
	clear(st.sgy)
	st.grid.AddGrad(st.sgx, st.sgy)
	f += st.lambda * st.grid.Energy()
	for i := 0; i < nd; i++ {
		st.gx[i] += st.lambda * st.sgx[i]
		st.gy[i] += st.lambda * st.sgy[i]
	}
	if traced {
		st.gDen = st.lambda * norm2xy(st.sgx, st.sgy)
	}

	if len(st.n.SymGroups) > 0 {
		clear(st.sgx)
		clear(st.sgy)
		sp := SymPenalty(st.n, st.p, st.sgx, st.sgy)
		f += st.tau * sp
		for i := 0; i < nd; i++ {
			st.gx[i] += st.tau * st.sgx[i]
			st.gy[i] += st.tau * st.sgy[i]
		}
		if traced {
			st.lastSym = sp
			st.gSym = st.tau * norm2xy(st.sgx, st.sgy)
		}
	}

	if st.eta > 0 {
		clear(st.sgx)
		clear(st.sgy)
		av := st.areaEv.Eval(st.p, st.sgx, st.sgy)
		f += st.eta * av
		for i := 0; i < nd; i++ {
			st.gx[i] += st.eta * st.sgx[i]
			st.gy[i] += st.eta * st.sgy[i]
		}
		if traced {
			st.gArea = st.eta * norm2xy(st.sgx, st.sgy)
		}
	}

	if st.anchorW > 0 {
		f += st.anchorW * AnchorPenalty(st.opt.Warm, st.p, st.anchorW, st.gx, st.gy)
	}

	if st.extra != nil {
		clear(st.sgx)
		clear(st.sgy)
		ev := st.extra(st.p, st.sgx, st.sgy)
		f += st.alpha * ev
		for i := 0; i < nd; i++ {
			st.gx[i] += st.alpha * st.sgx[i]
			st.gy[i] += st.alpha * st.sgy[i]
		}
		if traced {
			st.gExtra = st.alpha * norm2xy(st.sgx, st.sgy)
		}
	}

	copy(grad[:nd], st.gx)
	copy(grad[nd:], st.gy)
	return f
}

// SymPenalty evaluates the soft symmetry penalty of Eq. (3),
// Σ_groups [ Σ_pairs (y_q1 − y_q2)² + (x_q1 + x_q2 − 2x_m)²
//
//   - Σ_self  (x_r − x_m)² ],
//
// with the axis x_m of each group chosen optimally (its minimizing value,
// by the envelope theorem the gradient treats it as constant), and
// accumulates the gradient.
func SymPenalty(n *circuit.Netlist, p *circuit.Placement, gradX, gradY []float64) float64 {
	var total float64
	for gi := range n.SymGroups {
		g := &n.SymGroups[gi]
		axis := OptimalAxis(n, p, gi)
		for _, pr := range g.Pairs {
			q1, q2 := pr[0], pr[1]
			dy := p.Y[q1] - p.Y[q2]
			dx := p.X[q1] + p.X[q2] - 2*axis
			total += dy*dy + dx*dx
			gradY[q1] += 2 * dy
			gradY[q2] -= 2 * dy
			gradX[q1] += 2 * dx
			gradX[q2] += 2 * dx
		}
		for _, r := range g.Self {
			dx := p.X[r] - axis
			total += dx * dx
			gradX[r] += 2 * dx
		}
	}
	return total
}

// OptimalAxis returns the axis x_m minimizing the group's penalty:
// the quadratic is minimized at a weighted mean of pair midpoints (weight 4
// per pair via (…−2x_m)²) and self positions (weight 1).
func OptimalAxis(n *circuit.Netlist, p *circuit.Placement, gi int) float64 {
	g := &n.SymGroups[gi]
	var num, den float64
	for _, pr := range g.Pairs {
		num += 2 * (p.X[pr[0]] + p.X[pr[1]])
		den += 4
	}
	for _, r := range g.Self {
		num += p.X[r]
		den++
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Start returns the standard ePlace start in region: devices gathered at
// its center with a small jitter drawn from seed. A warm start then
// overwrites every device it has a usable coordinate for (the jitter draws
// still happen for every device, so the rng stream is identical either
// way) and clamps into the possibly different region.
func Start(n *circuit.Netlist, region geom.Rect, seed int64, warm *circuit.Prior) *circuit.Placement {
	rng := rand.New(rand.NewSource(seed))
	p := circuit.NewPlacement(n)
	side := region.W()
	cx, cy := region.Center().X, region.Center().Y
	for i := range n.Devices {
		p.X[i] = cx + (rng.Float64()-0.5)*side*0.15
		p.Y[i] = cy + (rng.Float64()-0.5)*side*0.15
	}
	if warm != nil {
		for i := range n.Devices {
			if warm.ValidAt(i) {
				p.X[i] = warm.X[i]
				p.Y[i] = warm.Y[i]
			}
		}
		clampInto(n, p, region)
	}
	return p
}

// Finish turns a GP solution into global placement's output: every
// footprint clamped into region, each symmetry group's optimal axis
// stored, and the placement normalized.
func Finish(n *circuit.Netlist, p *circuit.Placement, region geom.Rect) {
	clampInto(n, p, region)
	for gi := range n.SymGroups {
		p.AxisX[gi] = OptimalAxis(n, p, gi)
	}
	n.Normalize(p)
}

// clampInto forces every device footprint inside the region.
func clampInto(n *circuit.Netlist, p *circuit.Placement, region geom.Rect) {
	for i := range n.Devices {
		d := &n.Devices[i]
		p.X[i] = geom.Interval{Lo: region.Lo.X + d.W/2, Hi: region.Hi.X - d.W/2}.Clamp(p.X[i])
		p.Y[i] = geom.Interval{Lo: region.Lo.Y + d.H/2, Hi: region.Hi.Y - d.H/2}.Clamp(p.Y[i])
	}
}

// norm2xy is the Euclidean norm of the concatenated (gx, gy) gradient.
func norm2xy(gx, gy []float64) float64 {
	var s float64
	for _, v := range gx {
		s += v * v
	}
	for _, v := range gy {
		s += v * v
	}
	return math.Sqrt(s)
}
