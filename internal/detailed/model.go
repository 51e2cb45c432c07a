package detailed

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/lp"
)

// axisKind selects which coordinate an axisModel works on.
type axisKind int

const (
	axisX axisKind = iota
	axisY
)

// axisModel is the per-axis LP/ILP of the detailed-placement formulation
// (Eq. 4): the x- and y-subproblems are fully separable because every
// constraint family in the paper couples only one coordinate.
type axisModel struct {
	kind  axisKind
	prob  *lp.Problem
	flips bool

	coordVar  []int // device center coordinate
	flipVar   []int // flip binary (flips mode only)
	loVar     []int // per-net lower bound
	hiVar     []int // per-net upper bound
	extentVar int   // W (axisX) or H (axisY)
	symVar    []int // symmetry-axis variable per group (axisX only)
	numVars   int
}

// modelSpec controls which pieces of the formulation are emitted.
type modelSpec struct {
	withNets   bool    // net-span variables + pin-window rows + span objective
	withFlips  bool    // flip binaries in pin positions
	withExtent bool    // extent variable + boundary rows
	extentObj  float64 // objective coefficient on the extent variable
	extentCap  float64 // if > 0, add extent ≤ extentCap
}

// buildAxisModel assembles the LP for one axis.
func buildAxisModel(n *circuit.Netlist, kind axisKind, gs constraintGraphs, spec modelSpec) *axisModel {
	nd := len(n.Devices)
	m := &axisModel{kind: kind, flips: spec.withFlips}

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

	// Variable layout.
	next := 0
	alloc := func(k int) int { v := next; next += k; return v }
	base := alloc(nd)
	m.coordVar = make([]int, nd)
	for i := range m.coordVar {
		m.coordVar[i] = base + i
	}
	if spec.withFlips {
		base = alloc(nd)
		m.flipVar = make([]int, nd)
		for i := range m.flipVar {
			m.flipVar[i] = base + i
		}
	}
	if spec.withNets {
		base = alloc(2 * len(n.Nets))
		m.loVar = make([]int, len(n.Nets))
		m.hiVar = make([]int, len(n.Nets))
		for e := range n.Nets {
			m.loVar[e] = base + 2*e
			m.hiVar[e] = base + 2*e + 1
		}
	}
	if spec.withExtent {
		m.extentVar = alloc(1)
	}
	if kind == axisX {
		base = alloc(len(n.SymGroups))
		m.symVar = make([]int, len(n.SymGroups))
		for g := range m.symVar {
			m.symVar[g] = base + g
		}
	}
	m.numVars = next
	p := lp.NewProblem(next)
	m.prob = p

	// Objective.
	if spec.withNets {
		for e := range n.Nets {
			w := n.Nets[e].Weight
			if w == 0 {
				w = 1
			}
			p.AddObj(m.hiVar[e], w)
			p.AddObj(m.loVar[e], -w)
		}
	}
	if spec.withExtent && spec.extentObj != 0 {
		p.AddObj(m.extentVar, spec.extentObj)
	}

	// Pin windows (4b) with flip-dependent pin positions (4d).
	if spec.withNets {
		for e := range n.Nets {
			for _, pr := range n.Nets[e].Pins {
				d := pr.Device
				c0 := -dim(d)/2 + pinOff(d, pr.Pin)
				cf := dim(d) - 2*pinOff(d, pr.Pin)
				// pin = coord + c0 + cf·f  ≤ hi  →  coord + cf·f − hi ≤ −c0
				terms := []lp.Term{{Var: m.coordVar[d], Coeff: 1}, {Var: m.hiVar[e], Coeff: -1}}
				if spec.withFlips && cf != 0 {
					terms = append(terms, lp.Term{Var: m.flipVar[d], Coeff: cf})
				}
				p.AddConstraint(terms, lp.LE, -c0)
				// pin ≥ lo  →  lo − coord − cf·f ≤ c0
				terms = []lp.Term{{Var: m.loVar[e], Coeff: 1}, {Var: m.coordVar[d], Coeff: -1}}
				if spec.withFlips && cf != 0 {
					terms = append(terms, lp.Term{Var: m.flipVar[d], Coeff: -cf})
				}
				p.AddConstraint(terms, lp.LE, c0)
			}
		}
	}

	// Boundary (4c): the bound coord ≥ dim/2 and the row
	// coord + dim/2 ≤ extent.
	for i := 0; i < nd; i++ {
		p.SetBounds(m.coordVar[i], dim(i)/2, math.Inf(1))
		if spec.withExtent {
			p.AddConstraint([]lp.Term{
				{Var: m.coordVar[i], Coeff: 1}, {Var: m.extentVar, Coeff: -1},
			}, lp.LE, -dim(i)/2)
		}
	}
	if spec.extentCap > 0 {
		p.SetBounds(m.extentVar, 0, spec.extentCap)
	}

	// Separation edges (4e / 4i): from.right ≤ to.left.
	edges := gs.h
	if kind == axisY {
		edges = gs.v
	}
	for _, e := range edges {
		p.AddConstraint([]lp.Term{
			{Var: m.coordVar[e.from], Coeff: 1}, {Var: m.coordVar[e.to], Coeff: -1},
		}, lp.LE, -(dim(e.from)+dim(e.to))/2)
	}

	// Symmetry (4f).
	for gi := range n.SymGroups {
		g := &n.SymGroups[gi]
		if kind == axisX {
			for _, pr := range g.Pairs {
				p.AddConstraint([]lp.Term{
					{Var: m.coordVar[pr[0]], Coeff: 1},
					{Var: m.coordVar[pr[1]], Coeff: 1},
					{Var: m.symVar[gi], Coeff: -2},
				}, lp.EQ, 0)
			}
			for _, r := range g.Self {
				p.AddConstraint([]lp.Term{
					{Var: m.coordVar[r], Coeff: 1}, {Var: m.symVar[gi], Coeff: -1},
				}, lp.EQ, 0)
			}
		} else {
			for _, pr := range g.Pairs {
				p.AddConstraint([]lp.Term{
					{Var: m.coordVar[pr[0]], Coeff: 1}, {Var: m.coordVar[pr[1]], Coeff: -1},
				}, lp.EQ, 0)
			}
		}
	}

	// Alignment (4g, 4h).
	if kind == axisY {
		for _, pr := range n.BottomAlign {
			b1, b2 := pr[0], pr[1]
			p.AddConstraint([]lp.Term{
				{Var: m.coordVar[b1], Coeff: 1}, {Var: m.coordVar[b2], Coeff: -1},
			}, lp.EQ, (n.Devices[b1].H-n.Devices[b2].H)/2)
		}
	} else {
		for _, pr := range n.VCenterAlign {
			p.AddConstraint([]lp.Term{
				{Var: m.coordVar[pr[0]], Coeff: 1}, {Var: m.coordVar[pr[1]], Coeff: -1},
			}, lp.EQ, 0)
		}
	}

	// Flip binaries bounded to [0, 1] (integrality handled by branch &
	// bound). Symmetric pairs flip as mirror images: complementary
	// horizontally, identical vertically, so the matched layout stays a
	// true reflection.
	if spec.withFlips {
		for i := 0; i < nd; i++ {
			p.SetBounds(m.flipVar[i], 0, 1)
		}
		for gi := range n.SymGroups {
			for _, pr := range n.SymGroups[gi].Pairs {
				if kind == axisX {
					p.AddConstraint([]lp.Term{
						{Var: m.flipVar[pr[0]], Coeff: 1}, {Var: m.flipVar[pr[1]], Coeff: 1},
					}, lp.EQ, 1)
				} else {
					p.AddConstraint([]lp.Term{
						{Var: m.flipVar[pr[0]], Coeff: 1}, {Var: m.flipVar[pr[1]], Coeff: -1},
					}, lp.EQ, 0)
				}
			}
		}
	}
	return m
}

// warmFlips returns the default feasible flip assignment: everything
// unflipped except the right-hand member of each symmetric pair, which is
// mirrored to satisfy the complementary-flip rows.
func warmFlips(n *circuit.Netlist, kind axisKind) []bool {
	f := make([]bool, len(n.Devices))
	if kind == axisX {
		for gi := range n.SymGroups {
			for _, pr := range n.SymGroups[gi].Pairs {
				f[pr[1]] = true
			}
		}
	}
	return f
}

// withFixedFlips returns a clone of the model's LP with every flip binary
// pinned to the given values. It keeps the model's rows, so it re-solves
// from (and warm-starts) the model's own bases.
func (m *axisModel) withFixedFlips(vals []bool) *lp.Problem {
	q := m.prob.Clone()
	for i, v := range m.flipVar {
		f := 0.0
		if vals[i] {
			f = 1
		}
		q.SetBounds(v, f, f)
	}
	return q
}

// extract reads device coordinates (and flips) out of an LP solution.
func (m *axisModel) extract(x []float64, n *circuit.Netlist, p *circuit.Placement) {
	for i := range n.Devices {
		if m.kind == axisX {
			p.X[i] = x[m.coordVar[i]]
		} else {
			p.Y[i] = x[m.coordVar[i]]
		}
	}
	if m.flips {
		for i := range n.Devices {
			on := x[m.flipVar[i]] > 0.5
			if m.kind == axisX {
				p.FlipX[i] = on
			} else {
				p.FlipY[i] = on
			}
		}
	}
	if m.kind == axisX {
		for gi := range n.SymGroups {
			p.AxisX[gi] = x[m.symVar[gi]]
		}
	}
}

func (m *axisModel) name() string {
	if m.kind == axisX {
		return "x"
	}
	return "y"
}

// infeasErr formats an infeasibility error for one axis.
func (m *axisModel) infeasErr(stage string) error {
	return fmt.Errorf("detailed: %s-axis %s LP infeasible", m.name(), stage)
}

// solverErr wraps a solver failure with the axis and stage it hit.
func (m *axisModel) solverErr(stage string, err error) error {
	return fmt.Errorf("detailed: %s-axis %s solve: %w", m.name(), stage, err)
}
