// Package core is the public entry point of the library: one-call analog
// placement flows for the three placers the paper compares —
//
//   - MethodSA:      simulated annealing over symmetry-island sequence pairs
//   - MethodPrev:    the previous analytical work [11] (NTUplace3-style GP +
//     two-stage LP detailed placement)
//   - MethodEPlaceA: the paper's ePlace-A (electrostatic GP + integrated ILP
//     detailed placement)
//
// and their performance-driven variants (performance-driven SA [19], the
// Perf* extension of [11], and ePlace-AP), enabled by attaching a trained
// GNN performance model to Options.Perf. Package core also provides GNN
// training-set generation, so a caller can go from a netlist plus a
// performance model to a performance-driven placement without touching the
// internals.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/anneal"
	"repro/internal/circuit"
	"repro/internal/detailed"
	"repro/internal/eplacea"
	"repro/internal/gnn"
	"repro/internal/netio"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/prevwork"
	"repro/internal/refine"
)

// Method selects a placement algorithm.
type Method int

// The three placers compared throughout the paper.
const (
	MethodSA Method = iota
	MethodPrev
	MethodEPlaceA
)

func (m Method) String() string {
	switch m {
	case MethodSA:
		return "simulated-annealing"
	case MethodPrev:
		return "prev-analytical[11]"
	default:
		return "eplace-a"
	}
}

// ShortName returns the short method name used by the CLI flags, the
// placement service, and metric labels ("sa", "prev", "eplace-a") — the
// inverse of ParseMethod.
func (m Method) ShortName() string {
	switch m {
	case MethodSA:
		return "sa"
	case MethodPrev:
		return "prev"
	default:
		return "eplace-a"
	}
}

// ParseMethod maps the short method names used by the CLI flags and the
// placement service ("sa", "prev", "eplace-a") to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "sa":
		return MethodSA, nil
	case "prev":
		return MethodPrev, nil
	case "eplace-a":
		return MethodEPlaceA, nil
	}
	return 0, fmt.Errorf("core: unknown method %q (want sa, prev, or eplace-a)", s)
}

// PerfTerm attaches a trained GNN performance model, turning each method
// into its performance-driven variant.
type PerfTerm struct {
	Model *gnn.Model
	// Weight is the performance term's relative weight α (default 0.5 for
	// the analytical placers, 0.6 for SA cost).
	Weight float64
}

// Options configures a placement run. The zero value gives the defaults
// used in the paper-reproduction experiments.
type Options struct {
	Seed int64

	// AreaWeight biases the area/wirelength tradeoff: it scales the GP
	// area term for ePlace-A and the SA area cost weight. Zero keeps each
	// method's default. (The [11] baseline has no explicit area term —
	// faithfully to the paper.)
	AreaWeight float64
	// Mu scales the detailed-placement area objective (Eq. 4a, ePlace-A
	// integrated mode only; default 1).
	Mu float64

	// Perf switches on the performance-driven variant.
	Perf *PerfTerm

	// Portfolio is the number of GP starts ePlace-A tries (varying seed and
	// region utilization), keeping the best area×HPWL result. Global
	// placement is cheap enough that a small portfolio still leaves the
	// analytical flow far faster than annealing. Default 3; set 1 for a
	// single run.
	Portfolio int

	// Chains is the simulated-annealing portfolio width: SA runs as this
	// many independent chains (deterministic per-chain seeds, best-of
	// reduction on exact HPWL/area), up to Threads of them at once. 0 runs
	// 2 chains cold and 1 warm. Results are bit-identical at every thread
	// count.
	Chains int

	// Refine, when non-nil, appends the ILP large-neighborhood refinement
	// stage (internal/refine) to any method: small windows of the legal
	// result are re-solved exactly and kept only when they improve. The
	// stage's Tracer defaults to this run's. The refined placement
	// is never worse than the unrefined one in HPWL or area.
	Refine *refine.Options

	// Tracer, when non-nil, wraps the flow in a "place" span and is
	// threaded into every stage (global placement, annealing, detailed
	// placement), whose packages emit their own spans, per-iteration
	// events and kernel timings. A sink such as metrics.SpanSink turns
	// those into production aggregates. Per-stage overrides that already
	// carry a tracer keep it.
	Tracer *obs.Tracer

	// Threads is how many SA portfolio chains may run at once, each on
	// its own goroutine. Zero means runtime.NumCPU(); 1 runs the chains
	// one after another. The eplace-a and prev flows run single-threaded
	// whatever the value. Results are bit-identical at every thread
	// count: the chains' seeds and their best-of reduction do not depend
	// on scheduling.
	Threads int

	// WarmStart, when non-nil, runs the flow as an incremental (ECO)
	// re-solve against a prior placement: the netlist diff
	// (netio.DiffNetlists) derives the anchor set, the solvers start from
	// the prior coordinates with anchor pseudonets on unchanged devices,
	// and the analytical methods swap the expensive from-scratch detailed
	// placement for cheap legalization plus window refinement focused on
	// the perturbed region. Nil — the zero value — reproduces the blessed
	// cold behavior byte for byte.
	WarmStart *WarmStart

	// Advanced per-stage overrides (optional).
	GP   *eplacea.Options
	Prev *prevwork.Options
	SA   *anneal.Options
	DP   *detailed.Options
}

// WarmStart names a prior placement to re-solve against.
type WarmStart struct {
	// Base is the netlist Placement was solved for. Nil means Placement
	// belongs to the netlist being placed (a pure re-polish).
	Base *circuit.Netlist
	// Placement is the prior placement, indexed by Base's devices.
	Placement *circuit.Placement
}

// Result is the outcome of a full placement flow.
type Result struct {
	Method    Method
	Placement *circuit.Placement

	AreaUM2 float64 // bounding-box area, µm²
	HPWLUM  float64 // weighted HPWL, µm
	Runtime time.Duration

	GPIterations int // analytical methods
	ILPNodes     int // ePlace-A detailed placement + refinement windows
	SAProposals  int // simulated annealing

	RefineWindows int // window ILPs solved by the refinement stage
	RefineAccepts int // windows whose re-solve improved the placement

	// Warm-start runs only: the number of devices that actually received
	// anchor pseudonets (zero when the adaptive policy ran the warm start
	// as initialization only) and the perturbed-region size in devices.
	WarmAnchored  int
	WarmPerturbed int

	Legal bool
}

// Place runs the selected method end to end: global placement (or
// annealing) plus legalization/detailed placement, returning a legal
// placement and its quality metrics.
func Place(n *circuit.Netlist, method Method, opt Options) (*Result, error) {
	return PlaceCtx(context.Background(), n, method, opt)
}

// PlaceCtx is Place honoring cancellation and deadlines: ctx is threaded
// into every stage (the Nesterov/CG solvers stop through their callback
// contract, the annealer polls between move batches, detailed placement
// between LP/ILP passes). A canceled run returns ctx.Err() — never a
// partial placement — so completed runs stay byte-identical to uncanceled
// ones at the same seed.
func PlaceCtx(ctx context.Context, n *circuit.Netlist, method Method, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opt.Portfolio < 0 {
		return nil, fmt.Errorf("core: negative Portfolio %d", opt.Portfolio)
	}
	start := time.Now()
	placeSpan := opt.Tracer.StartSpan("place")
	defer placeSpan.End()
	r := &run{ctx: ctx, n: n, opt: opt, res: &Result{Method: method}}
	if opt.WarmStart != nil {
		w, err := buildWarmPlan(n, opt.WarmStart)
		if err != nil {
			return nil, err
		}
		r.warm = w
		r.res.WarmAnchored, r.res.WarmPerturbed = w.prior.AnchorCount(), w.perturbed
	}

	var err error
	switch method {
	case MethodSA:
		err = r.placeSA()
	case MethodPrev:
		err = r.placePrev()
	case MethodEPlaceA:
		err = r.placeEPlaceA()
	default:
		return nil, fmt.Errorf("core: unknown method %d", int(method))
	}
	if err == nil && r.warm != nil && method != MethodSA && r.warm.perturbed > 0 {
		// Warm analytical flows finish with exact window re-solves focused
		// on the perturbed region — the matheuristic cleanup that lets the
		// cheap legalization match the cold flow's QoR where it matters.
		// Accept-if-improved, so it never hurts.
		err = r.refineStage(refine.Options{Focus: r.warm.focus})
	}
	if err == nil && opt.Refine != nil {
		err = r.refineStage(*opt.Refine)
	}
	if err != nil {
		return nil, err
	}

	res := r.res
	res.Runtime = time.Since(start)
	res.AreaUM2 = circuit.AreaUM2(n.Area(res.Placement))
	res.HPWLUM = circuit.LenUM(n.HPWL(res.Placement))
	res.Legal = n.CheckLegal(res.Placement, 1e-6).OK()
	if opt.Tracer.Enabled() {
		opt.Tracer.Count("place.runs", 1)
		opt.Tracer.Gauge("place.area_um2", res.AreaUM2)
		opt.Tracer.Gauge("place.hpwl_um", res.HPWLUM)
	}
	return res, nil
}

// run is one PlaceCtx call's resolved state, shared by its stages.
type run struct {
	ctx  context.Context
	n    *circuit.Netlist
	opt  Options
	warm *warmPlan
	res  *Result
}

// shared points at a per-stage override's fields that default to the
// run's; a stage leaves out the fields its options lack.
type shared struct {
	seed   *int64
	tracer **obs.Tracer
}

// inherit fills a per-stage override's unset shared fields: a zero seed
// takes Options.Seed, and a nil tracer the run's.
func (r *run) inherit(f shared) {
	if f.seed != nil && *f.seed == 0 {
		*f.seed = r.opt.Seed
	}
	if *f.tracer == nil {
		*f.tracer = r.opt.Tracer
	}
}

// override returns a copy of a per-stage override, or the zero options
// when none was passed.
func override[T any](o *T) T {
	var v T
	if o != nil {
		v = *o
	}
	return v
}

// placeSA anneals as a portfolio of chains (refine.Portfolio), warm-seeded
// from the prior placement when the run has one. Up to Options.Threads
// chains run at once.
func (r *run) placeSA() error {
	threads := r.opt.Threads
	if threads == 0 {
		threads = runtime.NumCPU()
	}
	sa := override(r.opt.SA)
	r.inherit(shared{seed: &sa.Seed, tracer: &sa.Tracer})
	if w := r.opt.AreaWeight; w > 0 {
		sa.AreaWeight, sa.WLWeight = w, 1-math.Min(w, 0.9)
	}
	if pt := r.opt.Perf; pt != nil {
		sa.Perf, sa.PerfWeight = pt.Model, pt.Weight
		if sa.PerfWeight == 0 {
			sa.PerfWeight = 0.6
		}
	}
	if r.warm != nil {
		sa.Warm = &r.warm.prior
	}
	p, stats, err := refine.Portfolio(r.ctx, r.n, sa, refine.PortfolioOptions{
		Chains:  r.opt.Chains,
		Threads: threads,
		Tracer:  r.opt.Tracer,
	})
	if err != nil {
		return err
	}
	r.res.Placement, r.res.SAProposals = p, stats.Proposals
	return nil
}

// placePrev runs the [11] flow: conjugate-gradient GP, then the two-stage
// LP detailed placement.
func (r *run) placePrev() error {
	gpOpt := override(r.opt.Prev)
	r.inherit(shared{seed: &gpOpt.Seed, tracer: &gpOpt.Tracer})
	if r.warm != nil {
		gpOpt.Warm = &r.warm.prior
	}
	extra := perfExtra(r.opt.Perf, &gpOpt.ExtraWeight)
	gp, err := prevwork.Place(r.ctx, r.n, gpOpt, extra)
	if err != nil {
		return err
	}
	r.res.GPIterations = gp.Iterations
	dp, err := detailed.Place(r.ctx, r.n, gp.Placement, r.dpOptions(detailed.ModeTwoStageLP))
	if err != nil {
		return err
	}
	r.res.Placement = dp.Placement
	return nil
}

// placeEPlaceA runs the paper's flow over a portfolio of GP starts:
// electrostatic GP then detailed placement of every candidate, keeping the
// best.
func (r *run) placeEPlaceA() error {
	opt := r.opt
	portfolio := opt.Portfolio
	if portfolio == 0 {
		portfolio = 3
		if r.warm != nil {
			// Diversified starts defeat the purpose of a warm start —
			// every variant would converge back to the anchor basin.
			portfolio = 1
		}
	}
	baseGP := override(opt.GP)
	r.inherit(shared{seed: &baseGP.Seed, tracer: &baseGP.Tracer})
	if opt.AreaWeight > 0 {
		baseGP.AreaWeight = opt.AreaWeight
	}
	mode := detailed.ModeIntegratedILP
	if r.warm != nil {
		baseGP.Warm = &r.warm.prior
		// The from-scratch integrated ILP dominates cold ePlace-A wall
		// time; a warm solve exits global placement nearly legal, so the
		// cheap two-stage legalization plus the focused window refinement
		// recovers the QoR at a fraction of the cost.
		mode = detailed.ModeTwoStageLP
	}
	dpOpt := r.dpOptions(mode)
	// Portfolio variants diversify the density schedule: a standard
	// run, a roomier region with a gentler multiplier ramp, and a slow
	// ramp that preserves net locality on large circuits. The
	// performance-driven flow additionally varies the performance
	// weight α, which the paper itself treats as a sweep parameter.
	variants := []eplacea.Options{
		{},
		{Util: 0.5, Lambda0: 1e-4, LambdaGrowth: 1.025, MaxIter: 1500},
		{Util: 0.8, Lambda0: 1e-4, LambdaGrowth: 1.015, MaxIter: 2000},
	}
	perfWeights := []float64{0.3, 0.15, 0.5}
	runs := portfolio
	if opt.Perf != nil && opt.GP == nil {
		// The performance-driven portfolio also evaluates the full set
		// of conventional candidates: if the model does not prefer a
		// guided result, the flow keeps an unguided one rather than
		// trading real quality for gradient noise. (The paper's
		// performance-driven analytical runtimes are likewise an order
		// of magnitude above the conventional ones.)
		runs += portfolio
	}
	var cands []candidate
	for v := 0; v < runs; v++ {
		gpOpt := baseGP
		gpOpt.Seed = baseGP.Seed + int64(101*(v%portfolio))
		if opt.GP == nil {
			vr := variants[v%len(variants)]
			if vr.Util != 0 {
				gpOpt.Util = vr.Util
				gpOpt.Lambda0 = vr.Lambda0
				gpOpt.LambdaGrowth = vr.LambdaGrowth
				gpOpt.MaxIter = vr.MaxIter
			}
		}
		perfTerm := opt.Perf
		if v >= portfolio {
			perfTerm = nil // the conventional candidate
		} else if perfTerm != nil && perfTerm.Weight == 0 {
			pt := *perfTerm
			pt.Weight = perfWeights[v%len(perfWeights)]
			perfTerm = &pt
		}
		extra := perfExtra(perfTerm, &gpOpt.ExtraWeight)
		gp, err := eplacea.Place(r.ctx, r.n, gpOpt, extra)
		if err != nil {
			return err
		}
		dp, err := detailed.Place(r.ctx, r.n, gp.Placement, dpOpt)
		if err != nil {
			return err
		}
		r.res.GPIterations += gp.Iterations
		r.res.ILPNodes += dp.ILPNodes
		c := candidate{placement: dp.Placement, quality: dp.Area * dp.HPWL, guided: perfTerm != nil}
		if opt.Perf != nil {
			// Performance-driven quality uses the UNWEIGHTED wirelength:
			// the objective's net weights deliberately de-emphasize some
			// nets, but a performance-driven selection must not share
			// that blind spot.
			c.quality = dp.Area * r.n.RawHPWL(dp.Placement)
			c.phi = opt.Perf.Model.Prob(r.n, dp.Placement)
		}
		cands = append(cands, c)
	}
	r.res.Placement = cands[bestCandidate(cands)].placement
	return nil
}

// candidate is one detailed-placed ePlace-A portfolio result.
type candidate struct {
	placement *circuit.Placement
	quality   float64 // area × HPWL
	phi       float64 // the performance model's failure probability Φ
	guided    bool    // produced with the performance gradient active
}

// bestCandidate returns the index of the portfolio's pick. Without a
// performance model every Φ is zero and nothing is guided, so the pick is
// the first candidate of least area × HPWL. With one, Φ decides, softly
// penalized by the geometric premium over the best candidate — a guided
// layout that pays a large area×HPWL cost for a tiny Φ edge is usually the
// model being fooled off-distribution, not a real performance win.
func bestCandidate(cands []candidate) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		c, b := cands[i], cands[best]
		switch {
		case c.phi < b.phi-1e-3:
			best = i
		case c.phi <= b.phi+1e-3 && c.guided != b.guided:
			// Φ-tie: prefer the candidate the performance gradient
			// shaped — the model judged both safe, and the guided
			// one additionally descended the performance objective.
			if c.guided {
				best = i
			}
		case c.phi <= b.phi+1e-3 && c.quality < b.quality:
			best = i // same guidance status: keep better geometry
		}
	}
	return best
}

// dpOptions returns the detailed-placement options for a mode: the DP
// override with the mode set, its μ defaulting to Options.Mu.
func (r *run) dpOptions(mode detailed.Mode) detailed.Options {
	dp := override(r.opt.DP)
	dp.Mode = mode
	if dp.Mu == 0 {
		dp.Mu = r.opt.Mu
	}
	r.inherit(shared{tracer: &dp.Tracer})
	return dp
}

// refineStage runs ILP window refinement on the current placement and
// adds its counts to the result.
func (r *run) refineStage(ro refine.Options) error {
	r.inherit(shared{tracer: &ro.Tracer})
	p, stats, err := refine.Refine(r.ctx, r.n, r.res.Placement, ro)
	if err != nil {
		return err
	}
	r.res.Placement = p
	r.res.ILPNodes += stats.Nodes
	r.res.RefineWindows += stats.Windows
	r.res.RefineAccepts += stats.Accepts
	return nil
}

// perfExtra adapts a PerfTerm into the analytical GP extra-objective hook,
// and propagates its weight into the GP's calibrated ExtraWeight.
func perfExtra(pt *PerfTerm, extraWeight *float64) eplacea.ExtraGrad {
	if pt == nil {
		return nil
	}
	if pt.Weight > 0 {
		*extraWeight = pt.Weight
	}
	m := pt.Model
	return func(p *circuit.Placement, gx, gy []float64) float64 {
		return m.ProbGrad(p, gx, gy)
	}
}

// TrainOptions configures TrainPerfGNN.
type TrainOptions struct {
	Seed    int64
	Samples int // training placements to generate (default 1200)
	Epochs  int // training epochs (default 60)
	// Anchors is the number of quick placer runs whose (jittered) layouts
	// join the dataset, teaching the model to discriminate among
	// placer-quality layouts rather than only rows-vs-random (default 10;
	// set negative to disable).
	Anchors int

	// Tracer, when non-nil, wraps dataset generation and training in a
	// "gnn-train" span and receives per-epoch Adam loss events.
	Tracer *obs.Tracer
}

// TrainPerfGNN generates a labeled dataset for netlist n — half
// near-compact layouts (jittered greedy rows of varying aspect, the region
// a real placer lands in) and half random spreads — labeled by whether the
// performance model's FOM falls below threshold, and trains a GNN on it,
// mirroring the paper's >1000-sample per-circuit training setup.
//
// Passing threshold <= 0 selects it automatically as the median FOM of the
// near-compact sub-population, which centers the learned decision boundary
// where performance-driven placement actually operates.
func TrainPerfGNN(n *circuit.Netlist, pm *perfmodel.Model, threshold float64,
	opt TrainOptions) (*gnn.Model, *gnn.TrainStats, error) {
	return TrainPerfGNNCtx(context.Background(), n, pm, threshold, opt)
}

// TrainPerfGNNCtx is TrainPerfGNN honoring cancellation and deadlines: ctx
// is threaded into the anchor placements and polled between dataset samples,
// so a timed-out training run fails promptly with ctx.Err().
func TrainPerfGNNCtx(ctx context.Context, n *circuit.Netlist, pm *perfmodel.Model, threshold float64,
	opt TrainOptions) (*gnn.Model, *gnn.TrainStats, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Samples == 0 {
		opt.Samples = 1200
	}
	if opt.Epochs == 0 {
		opt.Epochs = 60
	}
	trainSpan := opt.Tracer.StartSpan("gnn-train")
	defer trainSpan.End()
	rng := rand.New(rand.NewSource(opt.Seed))
	scale := math.Sqrt(n.TotalDeviceArea())
	model := gnn.New(n, scale*2, opt.Seed+1)
	model.SetMatchedNets(pm.MatchedNets)

	if opt.Anchors == 0 {
		opt.Anchors = 10
	}
	samples := make([]gnn.Sample, 0, opt.Samples)
	foms := make([]float64, 0, opt.Samples)
	var compactFOMs []float64
	p := circuit.NewPlacement(n)

	// Placer-anchored samples: quick runs of the fast analytical baseline
	// plus small jitters of each, so the dataset covers the region where
	// performance-driven placement actually operates.
	if opt.Anchors > 0 {
		addSample := func(q *circuit.Placement) {
			f := pm.FOM(n, q)
			foms = append(foms, f)
			compactFOMs = append(compactFOMs, f)
			samples = append(samples, gnn.Sample{
				X: append([]float64(nil), q.X...),
				Y: append([]float64(nil), q.Y...),
			})
		}
		for a := 0; a < opt.Anchors; a++ {
			res, err := PlaceCtx(ctx, n, MethodPrev, Options{
				Seed: opt.Seed + int64(1000+a),
				Prev: &prevwork.Options{Seed: opt.Seed + int64(1000+a), Util: 0.35 + 0.07*float64(a%5)},
			})
			if err != nil {
				return nil, nil, fmt.Errorf("core: training anchor %d: %w", a, err)
			}
			addSample(res.Placement)
			for j := 0; j < 4; j++ {
				q := res.Placement.Clone()
				jit := scale * (0.01 + 0.03*float64(j))
				for i := range q.X {
					q.X[i] += rng.NormFloat64() * jit
					q.Y[i] += rng.NormFloat64() * jit
				}
				n.ResolveAxes(q)
				addSample(q)
			}
		}
	}

	for k := len(samples); k < opt.Samples; k++ {
		if k%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		compact := k%2 == 0
		if compact {
			rowLayout(n, p, 1.0+rng.Float64()*0.8)
			jitter := scale * (0.01 + rng.Float64()*0.14)
			for i := range p.X {
				p.X[i] += rng.NormFloat64() * jitter
				p.Y[i] += rng.NormFloat64() * jitter
			}
		} else {
			spread := scale * (0.9 + rng.Float64()*2.2)
			for i := range p.X {
				p.X[i] = rng.Float64() * spread
				p.Y[i] = rng.Float64() * spread
			}
		}
		n.ResolveAxes(p)
		f := pm.FOM(n, p)
		foms = append(foms, f)
		if compact {
			compactFOMs = append(compactFOMs, f)
		}
		samples = append(samples, gnn.Sample{
			X: append([]float64(nil), p.X...),
			Y: append([]float64(nil), p.Y...),
		})
	}
	if threshold <= 0 {
		sorted := append([]float64(nil), compactFOMs...)
		sort.Float64s(sorted)
		threshold = sorted[len(sorted)/2]
	}
	var bad int
	for i := range samples {
		samples[i].Bad = foms[i] < threshold
		if samples[i].Bad {
			bad++
		}
	}
	if bad == 0 || bad == len(samples) {
		return nil, nil, fmt.Errorf("core: degenerate training labels for %s (bad=%d of %d; adjust threshold %.2f)",
			n.Name, bad, len(samples), threshold)
	}
	stats, err := model.Train(samples, gnn.TrainOptions{Seed: opt.Seed + 2, Epochs: opt.Epochs, Tracer: opt.Tracer})
	if err != nil {
		return nil, nil, err
	}
	return model, stats, nil
}

// rowLayout writes a greedy row packing into p with the given width factor
// (relative to the square-root area side).
func rowLayout(n *circuit.Netlist, p *circuit.Placement, widthFactor float64) {
	side := math.Sqrt(n.TotalDeviceArea()) * widthFactor
	var x, y, rowH float64
	for i := range n.Devices {
		d := &n.Devices[i]
		if x+d.W > side && x > 0 {
			x = 0
			y += rowH
			rowH = 0
		}
		p.X[i] = x + d.W/2
		p.Y[i] = y + d.H/2
		x += d.W
		rowH = math.Max(rowH, d.H)
	}
}

// warmPlan is a WarmStart resolved against the netlist being placed: the
// prior coordinates mapped onto its device indices with the diff-derived
// anchor mask, and the perturbed region.
type warmPlan struct {
	prior     circuit.Prior
	focus     []bool // the perturbed region, for the window-refinement stage
	perturbed int
}

// buildWarmPlan diffs the edited netlist n against the warm start's base
// and maps the prior placement onto n: matched devices take their prior
// coordinates, devices outside the perturbed region become anchors, and
// added devices start at the centroid of their prior-placed net neighbors
// (falling back to the default centered init when they have none).
func buildWarmPlan(n *circuit.Netlist, ws *WarmStart) (*warmPlan, error) {
	if ws.Placement == nil {
		return nil, fmt.Errorf("core: WarmStart needs a base placement")
	}
	base := ws.Base
	if base == nil {
		base = n
	}
	if err := base.CheckSized(ws.Placement); err != nil {
		return nil, fmt.Errorf("core: warm-start placement does not fit its base netlist: %w", err)
	}
	d := netio.DiffNetlists(base, n)

	nd := len(n.Devices)
	w := &warmPlan{
		prior: circuit.Prior{
			X:        make([]float64, nd),
			Y:        make([]float64, nd),
			Valid:    make([]bool, nd),
			Anchored: d.Anchored(),
		},
		focus:     d.Perturbed,
		perturbed: d.PerturbedCount(),
	}
	pr := &w.prior
	// Anchor pseudonets exist to hold an untouched bulk in place while the
	// edit's influence region re-solves around it. They only earn their keep
	// when that bulk is the clear majority of the design: pinning a scattered
	// minority fights the global rearrangement a grown netlist demands, and
	// the geometric anchor ramp comes to dominate the objective before the
	// density overflow converges. Below the threshold the warm start is kept
	// as an initialization only, with every device free to move.
	if pr.AnchorCount()*5 < nd*3 {
		pr.Anchored = nil
	}
	for i, bi := range d.BaseIndex {
		if bi >= 0 {
			pr.Valid[i] = true
			pr.X[i] = ws.Placement.X[bi]
			pr.Y[i] = ws.Placement.Y[bi]
		}
	}
	// Added devices: centroid of prior-placed neighbors through local nets
	// first, any net as a fallback (a supply-only passive still lands near
	// its rail mates rather than at the region center).
	for pass := 0; pass < 2; pass++ {
		resolved := 0
		for i := range n.Devices {
			if pr.Valid[i] {
				resolved++
			}
		}
		if resolved == nd {
			break
		}
		sx := make([]float64, nd)
		sy := make([]float64, nd)
		cnt := make([]int, nd)
		for ni := range n.Nets {
			net := &n.Nets[ni]
			if pass == 0 && len(net.Pins) > netio.MaxFanout {
				continue
			}
			for _, pa := range net.Pins {
				if pr.Valid[pa.Device] {
					continue
				}
				for _, pb := range net.Pins {
					if pb.Device != pa.Device && pr.Valid[pb.Device] {
						sx[pa.Device] += pr.X[pb.Device]
						sy[pa.Device] += pr.Y[pb.Device]
						cnt[pa.Device]++
					}
				}
			}
		}
		for i := 0; i < nd; i++ {
			if !pr.Valid[i] && cnt[i] > 0 {
				pr.Valid[i] = true
				pr.X[i] = sx[i] / float64(cnt[i])
				pr.Y[i] = sy[i] / float64(cnt[i])
			}
		}
	}
	return w, nil
}
