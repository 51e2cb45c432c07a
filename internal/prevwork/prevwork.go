// Package prevwork implements the previous analytical analog placer the
// paper compares against ([11], Xu et al. ISPD'19, the MAGICAL lineage,
// itself built on the NTUplace3 framework [10]): global placement with
// Log-Sum-Exponential wirelength smoothing and a bell-shaped bin-density
// penalty, solved by conjugate gradient in epochs of increasing density
// weight. Unlike ePlace-A it has no explicit area term, no electrostatic
// model, and no Nesterov solver. Its legalization/detailed placement is the
// two-stage LP in package detailed (ModeTwoStageLP).
//
// Place's extra argument adds an arbitrary gradient term to the objective —
// the "Perf*" performance-driven extension of [11] evaluated in Tables V
// and VII.
package prevwork

import (
	"context"
	"math"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/eplacea"
	"repro/internal/geom"
	"repro/internal/nlopt"
	"repro/internal/obs"
	"repro/internal/wl"
)

// gridM is the bin grid dimension: m×m bins over the placement region.
const gridM = 64

// symWeight scales the soft symmetry penalty relative to the wirelength
// gradient.
const symWeight = 0.4

// Options configures the NTUplace3-style global placement.
type Options struct {
	Seed int64

	// Util sets the placement-region utilization (default 0.5).
	Util float64
	// Epochs of conjugate gradient with doubling density weight
	// (default 14; 7 for a warm start).
	Epochs int
	// ItersPerEpoch caps CG iterations per epoch (default 100).
	ItersPerEpoch int
	// ExtraWeight scales the optional extra objective term (the Perf*
	// extension) relative to the wirelength gradient (default 0.5).
	ExtraWeight float64

	// Tracer, when non-nil, wraps the run in a "gp" span, passes through
	// to the CG solver's per-iteration events, emits one "prev-epoch"
	// record per density epoch (objective, exact HPWL, density weight β,
	// symmetry penalty), and times the GP kernels (wl_grad,
	// density_raster, density_grad; see obs.Tracer.Kernel). Nil costs one
	// pointer check.
	Tracer *obs.Tracer

	// Warm, when non-nil, turns the run into an incremental (ECO)
	// re-solve: device coordinates start from the prior placement and
	// anchored devices get quadratic anchor pseudonets (see
	// eplacea.AnchorPenalty). The anchor weight starts as eplace-a's
	// (eplacea.AnchorScale) and doubles per CG epoch, in step with the
	// density weight β. Nil reproduces the blessed cold-start behavior
	// exactly.
	Warm *circuit.Prior
}

func (o *Options) defaults() {
	if o.Util == 0 {
		o.Util = 0.5
	}
	if o.Epochs == 0 {
		o.Epochs = 14
		if o.Warm != nil {
			// Starting near the prior optimum, the CG epochs converge in
			// half the cold schedule.
			o.Epochs = 7
		}
	}
	if o.ItersPerEpoch == 0 {
		o.ItersPerEpoch = 100
	}
	if o.ExtraWeight == 0 {
		o.ExtraWeight = 0.5
	}
}

// Result reports the global-placement outcome.
type Result struct {
	Placement  *circuit.Placement
	Iterations int
	HPWL       float64
	Region     geom.Rect
}

// Place runs the [11]-style global placement, with an optional extra
// objective term (the Perf* extension; nil for none). The CG progress
// callback polls ctx once per iteration and stops the solve, and a
// canceled run returns ctx.Err() instead of a partial placement.
func Place(ctx context.Context, n *circuit.Netlist, opt Options, extra eplacea.ExtraGrad) (*Result, error) {
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
	// The prior-work model is the spatial-domain bell-shaped penalty of
	// NTUplace3 — no spectral solve, so unlike eplacea it gets nothing
	// from density's packed-FFT Poisson pipeline; its per-iteration cost
	// is rasterization and gradient sampling only.
	bell := density.NewBell(gridM, region, 1.0)
	binW := side / float64(gridM)

	wlEv := wl.NewEvaluator(n, wl.LSE, 4*binW)
	wlEv.Tracer = opt.Tracer
	// The bell model's two kernels are timed here at the call sites.
	bellUpdate := func(pl *circuit.Placement) {
		t0 := opt.Tracer.Now()
		bell.Update(n, pl)
		opt.Tracer.Kernel("density_raster", t0)
	}
	bellAddGrad := func(dgx, dgy []float64) {
		t0 := opt.Tracer.Now()
		bell.AddGrad(dgx, dgy)
		opt.Tracer.Kernel("density_grad", t0)
	}

	p := eplacea.Start(n, region, opt.Seed, opt.Warm)

	gx := make([]float64, nd)
	gy := make([]float64, nd)
	sgx := make([]float64, nd)
	sgy := make([]float64, nd)

	// Calibrate the initial density and symmetry weights against the
	// wirelength gradient, NTUplace3-style.
	clear(gx)
	clear(gy)
	wlEv.Eval(p, gx, gy)
	wlNorm := nlopt.Norm1(gx) + nlopt.Norm1(gy) + 1e-12
	bellUpdate(p)
	clear(sgx)
	clear(sgy)
	bellAddGrad(sgx, sgy)
	dNorm := nlopt.Norm1(sgx) + nlopt.Norm1(sgy) + 1e-12
	beta := 2e-2 * wlNorm / dNorm

	clear(sgx)
	clear(sgy)
	eplacea.SymPenalty(n, p, sgx, sgy)
	sNorm := nlopt.Norm1(sgx) + nlopt.Norm1(sgy)
	if sNorm < 1e-12 {
		sNorm = wlNorm
	}
	tau := symWeight * wlNorm / sNorm

	anchorW := eplacea.AnchorScale(opt.Warm, wlNorm, binW)

	alpha := 0.0
	if extra != nil {
		clear(sgx)
		clear(sgy)
		extra(p, sgx, sgy)
		exNorm := nlopt.Norm1(sgx) + nlopt.Norm1(sgy)
		if exNorm < 1e-12 {
			exNorm = wlNorm
		}
		alpha = opt.ExtraWeight * wlNorm / exNorm
	}

	// The objective is split for CG: value computes f and stashes each
	// term's gradient (wirelength in gx/gy, symmetry in sgx/sgy, extra in
	// egx/egy), and grad, which CG calls only at accepted steps, adds the
	// bell gradient and sums the terms in the order of f.
	var egx, egy []float64
	if extra != nil {
		egx = make([]float64, nd)
		egy = make([]float64, nd)
	}
	value := func(x []float64) float64 {
		copy(p.X, x[:nd])
		copy(p.Y, x[nd:])
		clear(gx)
		clear(gy)
		f := wlEv.Eval(p, gx, gy)

		bellUpdate(p)
		f += beta * bell.Penalty()

		if len(n.SymGroups) > 0 {
			clear(sgx)
			clear(sgy)
			f += tau * eplacea.SymPenalty(n, p, sgx, sgy)
		}
		if anchorW > 0 {
			f += anchorW * eplacea.AnchorPenalty(opt.Warm, p, anchorW, nil, nil)
		}
		if extra != nil {
			clear(egx)
			clear(egy)
			f += alpha * extra(p, egx, egy)
		}
		return f
	}
	grad := func(g []float64) {
		ggx, ggy := g[:nd], g[nd:]
		clear(g)
		bellAddGrad(ggx, ggy)
		for i := 0; i < nd; i++ {
			ggx[i] = gx[i] + beta*ggx[i]
			ggy[i] = gy[i] + beta*ggy[i]
		}
		if len(n.SymGroups) > 0 {
			for i := 0; i < nd; i++ {
				ggx[i] += tau * sgx[i]
				ggy[i] += tau * sgy[i]
			}
		}
		if anchorW > 0 {
			eplacea.AnchorPenalty(opt.Warm, p, anchorW, ggx, ggy)
		}
		if extra != nil {
			for i := 0; i < nd; i++ {
				ggx[i] += alpha * egx[i]
				ggy[i] += alpha * egy[i]
			}
		}
	}

	x := make([]float64, 2*nd)
	copy(x[:nd], p.X)
	copy(x[nd:], p.Y)

	totalIters := 0
	done := ctx.Done()
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		fEpoch, it := nlopt.CG(value, grad, x, nlopt.CGOptions{
			MaxIter:  opt.ItersPerEpoch,
			GradTol:  1e-7,
			InitStep: binW,
			Tracer:   opt.Tracer,
			Callback: func(iter int, cur []float64, f float64) bool {
				select {
				case <-done:
					return false
				default:
					return true
				}
			},
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		totalIters += it
		if opt.Tracer.Enabled() {
			copy(p.X, x[:nd])
			copy(p.Y, x[nd:])
			clear(sgx)
			clear(sgy)
			opt.Tracer.IterEvent(obs.IterRecord{
				Solver: "prev-epoch", Iter: epoch, F: fEpoch,
				HPWL: n.HPWL(p), Lambda: beta,
				Sym: eplacea.SymPenalty(n, p, sgx, sgy),
			})
		}
		beta *= 2
		tau *= 1.5
		anchorW *= 2
	}
	copy(p.X, x[:nd])
	copy(p.Y, x[nd:])
	eplacea.Finish(n, p, region)

	res := &Result{
		Placement:  p,
		Iterations: totalIters,
		HPWL:       n.HPWL(p),
		Region:     region,
	}
	if opt.Tracer.Enabled() {
		opt.Tracer.Count("prev.runs", 1)
		opt.Tracer.Count("prev.iterations", float64(totalIters))
		opt.Tracer.Gauge("prev.final_hpwl", res.HPWL)
	}
	return res, nil
}
