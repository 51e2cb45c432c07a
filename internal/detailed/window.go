package detailed

import (
	"context"
	"math"
	"sort"

	"repro/internal/circuit"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/obs"
)

// WindowOptions tunes the large-neighborhood window re-solves.
type WindowOptions struct {
	// MaxNodes caps branch-and-bound nodes per axis solve (default 64).
	// Windows are meant to be cheap: the budget is an iteration count, not
	// wall-clock, so refinement cost is deterministic.
	MaxNodes int
	// Tracer, when non-nil, receives the per-window ilp events (labels
	// "refine-x"/"refine-y").
	Tracer *obs.Tracer
}

// WindowSolver re-solves small device windows of a legal placement exactly
// with the Eq. (4) ILP, holding everything outside the window fixed — the
// matheuristic large-neighborhood step. Unlike the full detailed model it
// builds a compact per-window problem: variables exist only for window
// devices, nets they pin, and symmetry axes they fully own; the rest of
// the placement enters as constants. That keeps each solve at window scale
// (tens of variables) rather than netlist scale.
//
// A WindowSolver is bound to one netlist and one reference topology: call
// Rederive whenever the placement has changed enough that the separation
// DAGs should be recomputed (the refine loop does this once per pass).
type WindowSolver struct {
	n   *circuit.Netlist
	opt WindowOptions
	gs  constraintGraphs
}

// NewWindowSolver creates a window solver for n. Call Rederive before the
// first Improve.
func NewWindowSolver(n *circuit.Netlist, opt WindowOptions) *WindowSolver {
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 64
	}
	return &WindowSolver{n: n, opt: opt}
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
	free := make(map[int]bool, len(window))
	for _, i := range window {
		free[i] = true
	}
	improved := false
	nodes := 0
	for _, kind := range []axisKind{axisX, axisY} {
		if err := ctx.Err(); err != nil {
			return improved, nodes, err
		}
		nd, ok := ws.solveAxis(kind, p, free)
		nodes += nd
		if ok {
			improved = true
		}
	}
	return improved, nodes, nil
}

func (ws *WindowSolver) solveAxis(kind axisKind, p *circuit.Placement, free map[int]bool) (int, bool) {
	m := ws.buildWindowModel(kind, p, free)
	if m == nil {
		return 0, false
	}
	label := "refine-x"
	if kind == axisY {
		label = "refine-y"
	}
	sol, err := ilp.Solve(&ilp.Problem{LP: m.prob, Ints: m.ints}, ilp.Options{
		MaxNodes:     ws.opt.MaxNodes,
		Incumbent:    m.incumbent,
		IncumbentObj: m.incObj,
		Tracer:       ws.opt.Tracer,
		Label:        label,
	})
	if err != nil {
		// A failed window is skipped, not fatal: the placement is
		// unchanged, and the failure is counted so it cannot go unseen.
		ws.opt.Tracer.Count("refine.solver_failures", 1)
		return 0, false
	}
	if sol.X == nil {
		return 0, false
	}
	cand := p.Clone()
	m.extract(sol.X, cand)
	n := ws.n
	curWL, curArea := n.HPWL(p), n.Area(p)
	newWL, newArea := n.HPWL(cand), n.Area(cand)
	if newWL < curWL-1e-9 && newArea <= curArea+1e-9 && n.CheckLegal(cand, 1e-6).OK() {
		*p = *cand
		return sol.Nodes, true
	}
	return sol.Nodes, false
}

// windowModel is the compact per-window, per-axis ILP. Variable indices
// exist only for window ("free") devices and the nets/axes they touch.
type windowModel struct {
	kind     axisKind
	prob     *lp.Problem
	coordVar map[int]int
	flipVar  map[int]int
	symVar   map[int]int // axisX, fully-free groups only
	ints     []int
	// incumbent is the current placement expressed in model variables; its
	// objective prunes branch-and-bound immediately and guarantees the
	// returned solution is never worse than the placement we started from.
	incumbent []float64
	incObj    float64
}

// buildWindowModel assembles the window ILP for one axis, or returns nil
// when the window touches no net on this axis (nothing to optimize).
//
// Constraint families mirror buildAxisModel exactly, with every non-window
// device folded in as a constant:
//   - separation edges with both endpoints outside the window are dropped
//     (both fixed — and the snapped reference the graphs were derived from
//     may disagree with the actual placement by ~1e-4, so keeping such
//     rows could make the model spuriously infeasible);
//   - symmetry groups not fully inside the window keep their current axis
//     (free members mirror about the existing AxisX); fully-free groups
//     get a free axis variable;
//   - the bounding box may not grow: window coords are capped by the
//     placement's current per-axis extent instead of a free extent var.
func (ws *WindowSolver) buildWindowModel(kind axisKind, p *circuit.Placement, free map[int]bool) *windowModel {
	n := ws.n
	dim := func(i int) float64 {
		if kind == axisX {
			return n.Devices[i].W
		}
		return n.Devices[i].H
	}
	pinOff := func(i, pin int) float64 {
		if kind == axisX {
			return n.Devices[i].Pins[pin].Offset.X
		}
		return n.Devices[i].Pins[pin].Offset.Y
	}
	coord := func(i int) float64 {
		if kind == axisX {
			return p.X[i]
		}
		return p.Y[i]
	}
	flipOf := func(i int) float64 {
		on := p.FlipX[i]
		if kind == axisY {
			on = p.FlipY[i]
		}
		if on {
			return 1
		}
		return 0
	}

	freeList := make([]int, 0, len(free))
	for i := range free {
		freeList = append(freeList, i)
	}
	sort.Ints(freeList)

	touched := make([]int, 0, 8) // net indices with ≥1 free pin, ascending
	for e := range n.Nets {
		for _, pr := range n.Nets[e].Pins {
			if free[pr.Device] {
				touched = append(touched, e)
				break
			}
		}
	}
	if len(touched) == 0 {
		return nil
	}

	m := &windowModel{
		kind:     kind,
		coordVar: make(map[int]int, len(freeList)),
		flipVar:  make(map[int]int, len(freeList)),
		symVar:   map[int]int{},
	}
	next := 0
	for _, i := range freeList {
		m.coordVar[i] = next
		next++
	}
	for _, i := range freeList {
		m.flipVar[i] = next
		next++
	}
	loVar := make(map[int]int, len(touched))
	hiVar := make(map[int]int, len(touched))
	for _, e := range touched {
		loVar[e] = next
		hiVar[e] = next + 1
		next += 2
	}
	fullyFree := make([]bool, len(n.SymGroups))
	if kind == axisX {
		for gi := range n.SymGroups {
			all, any := true, false
			for _, d := range n.SymGroups[gi].Devices() {
				if free[d] {
					any = true
				} else {
					all = false
				}
			}
			if any && all {
				fullyFree[gi] = true
				m.symVar[gi] = next
				next++
			}
		}
	}
	prob := lp.NewProblem(next)
	m.prob = prob
	// Single-variable constraints become bounds, intersected as they
	// accumulate (a window device may be pinned by several fixed partners).
	tighten := func(v int, lo, hi float64) {
		l, h := prob.Bounds(v)
		prob.SetBounds(v, math.Max(l, lo), math.Min(h, hi))
	}
	inf := math.Inf(1)
	fix := func(v int, val float64) { tighten(v, val, val) }
	m.incumbent = make([]float64, next)
	for _, i := range freeList {
		m.incumbent[m.coordVar[i]] = coord(i)
		m.incumbent[m.flipVar[i]] = flipOf(i)
		m.ints = append(m.ints, m.flipVar[i])
	}
	for gi, v := range m.symVar {
		m.incumbent[v] = p.AxisX[gi]
	}

	// Pin windows + objective over touched nets. Fixed pins collapse to
	// constant bounds on lo/hi; the model objective over touched nets then
	// equals their exact weighted HPWL contribution (untouched nets are
	// constant), so "model objective improved" means "placement HPWL
	// improved" up to the acceptance tolerance.
	pinPos := func(d, pin int) (c0, cf float64) {
		c0 = -dim(d)/2 + pinOff(d, pin)
		cf = dim(d) - 2*pinOff(d, pin)
		return
	}
	for _, e := range touched {
		w := n.Nets[e].Weight
		if w == 0 {
			w = 1
		}
		prob.AddObj(hiVar[e], w)
		prob.AddObj(loVar[e], -w)
		haveFixed := false
		var cmin, cmax float64
		incLo, incHi := 0.0, 0.0
		for pi, pr := range n.Nets[e].Pins {
			d := pr.Device
			c0, cf := pinPos(d, pr.Pin)
			pos := coord(d) + c0 + cf*flipOf(d)
			if pi == 0 || pos < incLo {
				incLo = pos
			}
			if pi == 0 || pos > incHi {
				incHi = pos
			}
			if free[d] {
				terms := []lp.Term{{Var: m.coordVar[d], Coeff: 1}, {Var: hiVar[e], Coeff: -1}}
				if cf != 0 {
					terms = append(terms, lp.Term{Var: m.flipVar[d], Coeff: cf})
				}
				prob.AddConstraint(terms, lp.LE, -c0)
				terms = []lp.Term{{Var: loVar[e], Coeff: 1}, {Var: m.coordVar[d], Coeff: -1}}
				if cf != 0 {
					terms = append(terms, lp.Term{Var: m.flipVar[d], Coeff: -cf})
				}
				prob.AddConstraint(terms, lp.LE, c0)
			} else {
				if !haveFixed || pos < cmin {
					cmin = pos
				}
				if !haveFixed || pos > cmax {
					cmax = pos
				}
				haveFixed = true
			}
		}
		if haveFixed {
			tighten(loVar[e], 0, cmin)
			tighten(hiVar[e], cmax, inf)
		}
		m.incumbent[loVar[e]] = incLo
		m.incumbent[hiVar[e]] = incHi
		m.incObj += w * (incHi - incLo)
	}

	// Boundary: stay inside [0, current extent] on this axis.
	extent := 0.0
	for i := range n.Devices {
		if top := coord(i) + dim(i)/2; top > extent {
			extent = top
		}
	}
	for _, i := range freeList {
		tighten(m.coordVar[i], dim(i)/2, extent-dim(i)/2)
	}

	// Separation edges with at least one free endpoint.
	edges := ws.gs.h
	if kind == axisY {
		edges = ws.gs.v
	}
	for _, e := range edges {
		sep := (dim(e.from) + dim(e.to)) / 2
		switch {
		case free[e.from] && free[e.to]:
			prob.AddConstraint([]lp.Term{
				{Var: m.coordVar[e.from], Coeff: 1}, {Var: m.coordVar[e.to], Coeff: -1},
			}, lp.LE, -sep)
		case free[e.from]:
			tighten(m.coordVar[e.from], -inf, coord(e.to)-sep)
		case free[e.to]:
			tighten(m.coordVar[e.to], coord(e.from)+sep, inf)
		}
	}

	// Symmetry.
	for gi := range n.SymGroups {
		g := &n.SymGroups[gi]
		if kind == axisX {
			if av, ok := m.symVar[gi]; ok {
				for _, pr := range g.Pairs {
					prob.AddConstraint([]lp.Term{
						{Var: m.coordVar[pr[0]], Coeff: 1},
						{Var: m.coordVar[pr[1]], Coeff: 1},
						{Var: av, Coeff: -2},
					}, lp.EQ, 0)
				}
				for _, r := range g.Self {
					prob.AddConstraint([]lp.Term{
						{Var: m.coordVar[r], Coeff: 1}, {Var: av, Coeff: -1},
					}, lp.EQ, 0)
				}
				continue
			}
			a := p.AxisX[gi]
			for _, pr := range g.Pairs {
				q1, q2 := pr[0], pr[1]
				switch {
				case free[q1] && free[q2]:
					prob.AddConstraint([]lp.Term{
						{Var: m.coordVar[q1], Coeff: 1}, {Var: m.coordVar[q2], Coeff: 1},
					}, lp.EQ, 2*a)
				case free[q1]:
					fix(m.coordVar[q1], 2*a-coord(q2))
				case free[q2]:
					fix(m.coordVar[q2], 2*a-coord(q1))
				}
			}
			for _, r := range g.Self {
				if free[r] {
					fix(m.coordVar[r], a)
				}
			}
		} else {
			for _, pr := range g.Pairs {
				q1, q2 := pr[0], pr[1]
				switch {
				case free[q1] && free[q2]:
					prob.AddConstraint([]lp.Term{
						{Var: m.coordVar[q1], Coeff: 1}, {Var: m.coordVar[q2], Coeff: -1},
					}, lp.EQ, 0)
				case free[q1]:
					fix(m.coordVar[q1], coord(q2))
				case free[q2]:
					fix(m.coordVar[q2], coord(q1))
				}
			}
		}
	}

	// Alignment.
	if kind == axisY {
		for _, pr := range n.BottomAlign {
			b1, b2 := pr[0], pr[1]
			rhs := (n.Devices[b1].H - n.Devices[b2].H) / 2
			switch {
			case free[b1] && free[b2]:
				prob.AddConstraint([]lp.Term{
					{Var: m.coordVar[b1], Coeff: 1}, {Var: m.coordVar[b2], Coeff: -1},
				}, lp.EQ, rhs)
			case free[b1]:
				fix(m.coordVar[b1], coord(b2)+rhs)
			case free[b2]:
				fix(m.coordVar[b2], coord(b1)-rhs)
			}
		}
	} else {
		for _, pr := range n.VCenterAlign {
			v1, v2 := pr[0], pr[1]
			switch {
			case free[v1] && free[v2]:
				prob.AddConstraint([]lp.Term{
					{Var: m.coordVar[v1], Coeff: 1}, {Var: m.coordVar[v2], Coeff: -1},
				}, lp.EQ, 0)
			case free[v1]:
				fix(m.coordVar[v1], coord(v2))
			case free[v2]:
				fix(m.coordVar[v2], coord(v1))
			}
		}
	}

	// Flip binaries: bounded to [0, 1], mirror-paired as in the full model
	// (complementary horizontally, identical vertically).
	for _, i := range freeList {
		tighten(m.flipVar[i], 0, 1)
	}
	for gi := range n.SymGroups {
		for _, pr := range n.SymGroups[gi].Pairs {
			q1, q2 := pr[0], pr[1]
			if kind == axisX {
				switch {
				case free[q1] && free[q2]:
					prob.AddConstraint([]lp.Term{
						{Var: m.flipVar[q1], Coeff: 1}, {Var: m.flipVar[q2], Coeff: 1},
					}, lp.EQ, 1)
				case free[q1]:
					fix(m.flipVar[q1], 1-flipOf(q2))
				case free[q2]:
					fix(m.flipVar[q2], 1-flipOf(q1))
				}
			} else {
				switch {
				case free[q1] && free[q2]:
					prob.AddConstraint([]lp.Term{
						{Var: m.flipVar[q1], Coeff: 1}, {Var: m.flipVar[q2], Coeff: -1},
					}, lp.EQ, 0)
				case free[q1]:
					fix(m.flipVar[q1], flipOf(q2))
				case free[q2]:
					fix(m.flipVar[q2], flipOf(q1))
				}
			}
		}
	}
	return m
}

// extract writes the window solution back into a placement clone.
func (m *windowModel) extract(x []float64, p *circuit.Placement) {
	for i, v := range m.coordVar {
		if m.kind == axisX {
			p.X[i] = x[v]
		} else {
			p.Y[i] = x[v]
		}
	}
	for i, v := range m.flipVar {
		on := x[v] > 0.5
		if m.kind == axisX {
			p.FlipX[i] = on
		} else {
			p.FlipY[i] = on
		}
	}
	for gi, v := range m.symVar {
		p.AxisX[gi] = x[v]
	}
}
