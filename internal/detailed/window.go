package detailed

import (
	"context"
	"slices"

	"repro/internal/circuit"
	"repro/internal/ilp"
	"repro/internal/obs"
)

// windowNodes caps branch-and-bound nodes per axis solve. Windows are meant
// to be cheap: the budget is an iteration count, not wall-clock, so
// refinement cost is deterministic.
const windowNodes = 64

// WindowSolver re-solves small device windows of a legal placement exactly
// with the Eq. (4) ILP, holding everything outside the window fixed — the
// matheuristic large-neighborhood step. It builds the detailed stage's own
// model with a free mask: variables exist only for window devices, nets
// they pin, and symmetry axes they fully own; the rest of the placement
// enters as constants. That keeps each solve at window scale (tens of
// variables) rather than netlist scale.
//
// A WindowSolver is bound to one netlist and one reference topology: call
// Rederive whenever the placement has changed enough that the separation
// DAGs should be recomputed (the refine loop does this once per pass).
type WindowSolver struct {
	n  *circuit.Netlist
	tr *obs.Tracer
	gs constraintGraphs
}

// NewWindowSolver creates a window solver for n. Call Rederive before the
// first Improve. A non-nil tracer receives the per-window ilp events
// (labels "refine-x"/"refine-y").
func NewWindowSolver(n *circuit.Netlist, tracer *obs.Tracer) *WindowSolver {
	return &WindowSolver{n: n, tr: tracer}
}

// Rederive recomputes the separation constraint graphs from p. The graphs
// fix which device pairs separate horizontally vs vertically; window
// solves then move devices only within that topology, which is what makes
// an accepted window provably legal.
func (ws *WindowSolver) Rederive(p *circuit.Placement) {
	ws.gs = deriveGraphs(ws.n, snapReference(ws.n, p))
}

// Improve re-solves the window (a set of device indices) on each axis and
// commits the result iff it strictly reduces weighted HPWL without growing
// the bounding box and passes the full legality check. p is mutated only
// on acceptance. Returns whether p improved and the branch-and-bound nodes
// spent. Solver failures on a window are not errors — the window is simply
// left unchanged and counted as refine.solver_failures — so the only error
// is context cancellation.
func (ws *WindowSolver) Improve(ctx context.Context, p *circuit.Placement, window []int) (bool, int, error) {
	n := ws.n
	free := make([]bool, len(n.Devices))
	for _, i := range window {
		free[i] = true
	}
	improved := false
	nodes := 0
	for _, kind := range []axisKind{axisX, axisY} {
		if err := ctx.Err(); err != nil {
			return improved, nodes, err
		}
		m := ws.model(kind, p, free)
		if m == nil {
			continue
		}
		cand, sol := ws.solve(m, p)
		if cand == nil {
			continue
		}
		nodes += sol.Nodes
		if n.HPWL(cand) < n.HPWL(p)-1e-9 && n.Area(cand) <= n.Area(p)+1e-9 && n.CheckLegal(cand, 1e-6).OK() {
			*p = *cand
			improved = true
		}
	}
	return improved, nodes, nil
}

// model builds one axis of the window's ILP over p, or returns nil when
// the window pins no net: there is nothing to optimize.
func (ws *WindowSolver) model(kind axisKind, p *circuit.Placement, free []bool) *axisModel {
	// The bounding box may not grow: free devices stay inside p's extent.
	xs, _ := axisOf(p, kind)
	box := 0.0
	for i := range ws.n.Devices {
		box = max(box, xs[i]+kind.dim(&ws.n.Devices[i])/2)
	}
	m := buildAxisModel(ws.n, kind, ws.gs, modelSpec{
		withNets: true, withFlips: true, free: free, at: p, box: box,
	})
	if !slices.ContainsFunc(m.loVar, func(v int) bool { return v >= 0 }) {
		return nil
	}
	return m
}

// solve re-solves the window model m by branch and bound, starting from p.
// It returns the solution written into a clone of p and the solver's
// result, or a nil clone when the solve fails.
func (ws *WindowSolver) solve(m *axisModel, p *circuit.Placement) (*circuit.Placement, *ilp.Solution) {
	inc, incObj := m.incumbent(ws.n, p)
	sol, err := ilp.Solve(&ilp.Problem{LP: m.prob, Ints: m.ints}, ilp.Options{
		MaxNodes:     windowNodes,
		Incumbent:    inc,
		IncumbentObj: incObj,
		Tracer:       ws.tr,
		Label:        "refine-" + m.kind.String(),
	})
	if err != nil {
		// A failed window is skipped, not fatal: the placement is
		// unchanged, and the failure is counted so it cannot go unseen.
		ws.tr.Count("refine.solver_failures", 1)
		return nil, nil
	}
	if sol.X == nil {
		return nil, nil
	}
	cand := p.Clone()
	m.extract(sol.X, cand)
	return cand, sol
}

// incumbent is p in the model's variables, with its objective: the
// weighted span of every modelled net, summed in net order. It prunes
// branch and bound from the start and guarantees the returned solution is
// never worse than the placement the window started from.
func (m *axisModel) incumbent(n *circuit.Netlist, p *circuit.Placement) ([]float64, float64) {
	xs, fs := axisOf(p, m.kind)
	x := make([]float64, m.prob.NumVars())
	for i, v := range m.coordVar {
		if v >= 0 {
			x[v] = xs[i]
		}
	}
	for i, v := range m.flipVar {
		if v >= 0 {
			x[v] = b2f(fs[i])
		}
	}
	for g, v := range m.symVar {
		if v >= 0 {
			x[v] = p.AxisX[g]
		}
	}
	obj := 0.0
	for e, v := range m.loVar {
		if v < 0 {
			continue
		}
		var lo, hi float64
		for pi, pr := range n.Nets[e].Pins {
			c0, cf := pinTerms(n, m.kind, pr)
			pos := xs[pr.Device] + c0 + cf*b2f(fs[pr.Device])
			if pi == 0 || pos < lo {
				lo = pos
			}
			if pi == 0 || pos > hi {
				hi = pos
			}
		}
		x[v], x[m.hiVar[e]] = lo, hi
		w := n.Nets[e].Weight
		if w == 0 {
			w = 1
		}
		obj += w * (hi - lo)
	}
	return x, obj
}
