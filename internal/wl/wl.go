// Package wl implements the smoothed wirelength models used by analytical
// placement: the Weighted-Average (WA) function of Eq. (2) adopted by
// ePlace-A, and the Log-Sum-Exponential (LSE) function used by the
// NTUplace3-lineage baseline. Both provide analytic gradients with respect
// to device center coordinates. The package also provides the WA-smoothed
// total-area term Area(v) = WA_{V,x}(v) · WA_{V,y}(v) from Section IV-A.
package wl

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/par"
)

// Smoother selects the smoothing function for the max/min terms.
type Smoother int

// Supported smoothing functions.
const (
	// WA is the Weighted-Average smoothing of Hsu et al. (used by ePlace-A).
	WA Smoother = iota
	// LSE is the Log-Sum-Exponential smoothing (used by the [11] baseline).
	LSE
)

func (s Smoother) String() string {
	if s == WA {
		return "WA"
	}
	return "LSE"
}

// netGrain is the minimum number of nets per shard of Eval's net loop.
// It is a fixed constant, so the shard geometry, and with it the gradient
// summation order, depends only on the netlist.
const netGrain = 32

// netScratch holds the per-net working buffers Eval uses while walking
// the nets.
type netScratch struct {
	xs, ys []float64 // pin coordinates
	gx, gy []float64 // per-pin gradients
	ep, em []float64 // per-pin exponentials, value pass to gradient pass
	own    []int     // owning device per pin
}

func newNetScratch(maxPins int) netScratch {
	return netScratch{
		xs:  make([]float64, maxPins),
		ys:  make([]float64, maxPins),
		gx:  make([]float64, maxPins),
		gy:  make([]float64, maxPins),
		ep:  make([]float64, maxPins),
		em:  make([]float64, maxPins),
		own: make([]int, maxPins),
	}
}

// Evaluator computes a smoothed total wirelength and its gradient. It is
// bound to one netlist and reusable across iterations.
//
// The net loop is split into shards whose geometry depends only on the
// netlist size (par.ShardCount with a fixed grain). Each shard accumulates
// gradients into a partial buffer that is merged into the caller's
// gradX/gradY in shard order, so the summation order is fixed by the
// netlist alone.
//
// An Evaluator is not safe for concurrent use by multiple goroutines: it
// owns its scratch.
type Evaluator struct {
	n     *circuit.Netlist
	kind  Smoother
	gamma float64

	shards int        // fixed shard count for this netlist
	sc     netScratch // per-net buffers

	// One shard's gradient partials, merged into the caller's gradient
	// as each shard finishes.
	partX, partY []float64

	// Tracer, when non-nil, times every Eval call as the wl_grad kernel.
	Tracer *obs.Tracer
}

// NewEvaluator returns an evaluator for netlist n using the given smoother
// and smoothing parameter gamma (> 0). Smaller gamma tracks exact HPWL more
// tightly but yields stiffer gradients. The constructor allocates all the
// scratch Eval needs, so Eval itself stays allocation-free.
func NewEvaluator(n *circuit.Netlist, kind Smoother, gamma float64) *Evaluator {
	maxPins := 0
	for e := range n.Nets {
		if len(n.Nets[e].Pins) > maxPins {
			maxPins = len(n.Nets[e].Pins)
		}
	}
	nd := len(n.Devices)
	return &Evaluator{
		n:      n,
		kind:   kind,
		gamma:  gamma,
		shards: par.ShardCount(len(n.Nets), netGrain),
		sc:     newNetScratch(maxPins),
		partX:  make([]float64, nd),
		partY:  make([]float64, nd),
	}
}

// SetGamma updates the smoothing parameter (ePlace anneals gamma downward
// as density overflow shrinks).
func (ev *Evaluator) SetGamma(g float64) { ev.gamma = g }

// Eval returns the smoothed total weighted wirelength at placement p and
// accumulates its gradient into gradX/gradY (which must be zeroed by the
// caller if a fresh gradient is wanted; pass nil to skip gradients).
// Device flips are honored for pin positions but treated as constants.
//
// When the evaluator has more than one shard, each shard's contributions
// are summed shard-locally and merged in shard order.
func (ev *Evaluator) Eval(p *circuit.Placement, gradX, gradY []float64) float64 {
	t0 := ev.Tracer.Now()
	v := ev.eval(p, gradX, gradY)
	ev.Tracer.Kernel("wl_grad", t0)
	return v
}

func (ev *Evaluator) eval(p *circuit.Placement, gradX, gradY []float64) float64 {
	nNets := len(ev.n.Nets)
	shards := ev.shards
	if shards == 1 {
		return ev.evalShard(p, 0, nNets, gradX, gradY)
	}
	var total float64
	for s := 0; s < shards; s++ {
		lo, hi := par.ShardRange(nNets, shards, s)
		var px, py []float64
		if gradX != nil {
			px = ev.partX
			clear(px)
		}
		if gradY != nil {
			py = ev.partY
			clear(py)
		}
		total += ev.evalShard(p, lo, hi, px, py)
		merge(gradX, px)
		merge(gradY, py)
	}
	return total
}

// evalShard walks nets [lo, hi), accumulating gradients into gradX/gradY
// (nil to skip) and returning the shard's wirelength sum.
func (ev *Evaluator) evalShard(p *circuit.Placement, lo, hi int, gradX, gradY []float64) float64 {
	sc := &ev.sc
	var total float64
	for e := lo; e < hi; e++ {
		net := &ev.n.Nets[e]
		w := net.Weight
		if w == 0 {
			w = 1
		}
		k := len(net.Pins)
		for i, pr := range net.Pins {
			pt := ev.n.PinPos(p, pr)
			sc.xs[i], sc.ys[i] = pt.X, pt.Y
			sc.own[i] = pr.Device
		}
		lx := ev.axis(sc.xs[:k], sc.gx[:k], sc, gradX != nil)
		ly := ev.axis(sc.ys[:k], sc.gy[:k], sc, gradY != nil)
		total += w * (lx + ly)
		if gradX != nil {
			for i := 0; i < k; i++ {
				gradX[sc.own[i]] += w * sc.gx[i]
			}
		}
		if gradY != nil {
			for i := 0; i < k; i++ {
				gradY[sc.own[i]] += w * sc.gy[i]
			}
		}
	}
	return total
}

// merge adds src into dst element-wise; either may be nil (no-op).
func merge(dst, src []float64) {
	if dst == nil {
		return
	}
	for i, v := range src {
		dst[i] += v
	}
}

// axis evaluates the smoothed (max - min) of coords and writes per-pin
// gradients into grad when wantGrad is set, using sc's exponential buffers.
// It dispatches on the smoother.
func (ev *Evaluator) axis(coords, grad []float64, sc *netScratch, wantGrad bool) float64 {
	k := len(coords)
	switch ev.kind {
	case WA:
		return waAxis(coords, grad, sc.ep[:k], sc.em[:k], ev.gamma, wantGrad)
	default:
		return lseAxis(coords, grad, sc.ep[:k], sc.em[:k], ev.gamma, wantGrad)
	}
}

// waAxis computes the WA approximation of max(coords) - min(coords) per
// Eq. (2); see waSpan.
func waAxis(coords, grad, ep, em []float64, gamma float64, wantGrad bool) float64 {
	return waSpan(coords, coords, grad, ep, em, gamma, wantGrad)
}

// waSpan computes the WA approximation of max(hi) - min(lo), with
// exp-shift for numerical stability, and writes d span / d coordinate i
// into grad when wantGrad is set (an item whose lo and hi edges move
// together, as a net pin or a device's two edges do). The value pass
// stores each item's two exponentials in ep/em (len(lo) each) for the
// gradient pass, so an item costs two math.Exp calls.
func waSpan(lo, hi, grad, ep, em []float64, gamma float64, wantGrad bool) float64 {
	if len(lo) == 0 {
		return 0
	}
	maxC, minC := hi[0], lo[0]
	for i := 1; i < len(lo); i++ {
		maxC = max(maxC, hi[i])
		minC = min(minC, lo[i])
	}
	var sp, tp, sm, tm float64 // S+, T+, S-, T-
	for i := range lo {
		ep[i] = math.Exp((hi[i] - maxC) / gamma)
		em[i] = math.Exp((minC - lo[i]) / gamma)
		sp += ep[i]
		tp += hi[i] * ep[i]
		sm += em[i]
		tm += lo[i] * em[i]
	}
	waMax := tp / sp
	waMin := tm / sm
	if wantGrad {
		for i := range lo {
			dMax := (ep[i] / sp) * (1 + (hi[i]-waMax)/gamma)
			dMin := (em[i] / sm) * (1 - (lo[i]-waMin)/gamma)
			grad[i] = dMax - dMin
		}
	}
	return waMax - waMin
}

// lseAxis computes the LSE approximation gamma·(ln Σe^{x/γ} + ln Σe^{-x/γ}),
// with exp-shift for numerical stability. Like waAxis, it keeps each pin's
// exponentials in ep/em between the value and gradient passes.
func lseAxis(coords, grad, ep, em []float64, gamma float64, wantGrad bool) float64 {
	if len(coords) == 0 {
		return 0
	}
	maxC, minC := coords[0], coords[0]
	for _, c := range coords[1:] {
		maxC = max(maxC, c)
		minC = min(minC, c)
	}
	var sp, sm float64
	for i, c := range coords {
		ep[i] = math.Exp((c - maxC) / gamma)
		em[i] = math.Exp((minC - c) / gamma)
		sp += ep[i]
		sm += em[i]
	}
	val := maxC + gamma*math.Log(sp) - (minC - gamma*math.Log(sm))
	if wantGrad {
		for i := range coords {
			grad[i] = ep[i]/sp - em[i]/sm
		}
	}
	return val
}

// AreaEvaluator computes the WA-smoothed layout area term
// Area(v) = WA_{V,x}(v) · WA_{V,y}(v), where the per-axis WA smooths the
// span between the extreme device edges, and its gradient with respect to
// device centers.
type AreaEvaluator struct {
	n     *circuit.Netlist
	gamma float64

	lo, hi []float64 // device edge coordinates, scratch
	ep, em []float64 // per-device exponentials, scratch
	gLo    []float64
	gHi    []float64
}

// NewAreaEvaluator returns an area evaluator with smoothing parameter gamma.
func NewAreaEvaluator(n *circuit.Netlist, gamma float64) *AreaEvaluator {
	k := len(n.Devices)
	return &AreaEvaluator{
		n:     n,
		gamma: gamma,
		lo:    make([]float64, k),
		hi:    make([]float64, k),
		ep:    make([]float64, k),
		em:    make([]float64, k),
		gLo:   make([]float64, k),
		gHi:   make([]float64, k),
	}
}

// SetGamma updates the smoothing parameter.
func (ae *AreaEvaluator) SetGamma(g float64) { ae.gamma = g }

// Eval returns the smoothed area at placement p and accumulates its gradient
// into gradX/gradY (pass nil to skip).
func (ae *AreaEvaluator) Eval(p *circuit.Placement, gradX, gradY []float64) float64 {
	k := len(ae.n.Devices)
	if k == 0 {
		return 0
	}
	for i := 0; i < k; i++ {
		d := &ae.n.Devices[i]
		ae.lo[i] = p.X[i] - d.W/2
		ae.hi[i] = p.X[i] + d.W/2
	}
	wantGrad := gradX != nil && gradY != nil
	wx := waSpan(ae.lo, ae.hi, ae.gLo, ae.ep, ae.em, ae.gamma, wantGrad)
	if wantGrad {
		copy(ae.gHi, ae.gLo) // stash x-gradient
	}
	for i := 0; i < k; i++ {
		d := &ae.n.Devices[i]
		ae.lo[i] = p.Y[i] - d.H/2
		ae.hi[i] = p.Y[i] + d.H/2
	}
	gy := ae.gLo
	wy := waSpan(ae.lo, ae.hi, gy, ae.ep, ae.em, ae.gamma, wantGrad)
	if wantGrad {
		for i := 0; i < k; i++ {
			gradX[i] += ae.gHi[i] * wy
			gradY[i] += gy[i] * wx
		}
	}
	return wx * wy
}
