package detailed

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/circuit"
	"repro/internal/lp"
)

// axisKind selects which coordinate an axisModel works on.
type axisKind int

const (
	axisX axisKind = iota
	axisY
)

func (k axisKind) String() string {
	if k == axisX {
		return "x"
	}
	return "y"
}

// dim returns the device's size along the axis.
func (k axisKind) dim(d *circuit.Device) float64 {
	if k == axisX {
		return d.W
	}
	return d.H
}

// axisOf returns p's coordinates and flips along one axis.
func axisOf(p *circuit.Placement, kind axisKind) ([]float64, []bool) {
	if kind == axisX {
		return p.X, p.FlipX
	}
	return p.Y, p.FlipY
}

// pinTerms returns c0 and cf in pin = coord + c0 + cf·flip (Eq. 4d): a
// flip mirrors the pin's offset within its device.
func pinTerms(n *circuit.Netlist, kind axisKind, pr circuit.PinRef) (c0, cf float64) {
	d := &n.Devices[pr.Device]
	off := d.Pins[pr.Pin].Offset.X
	if kind == axisY {
		off = d.Pins[pr.Pin].Offset.Y
	}
	dim := kind.dim(d)
	return -dim/2 + off, dim - 2*off
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// axisModel is the per-axis LP/ILP of the detailed-placement formulation
// (Eq. 4): the x- and y-subproblems are fully separable because every
// constraint family in the paper couples only one coordinate. Index slices
// hold −1 where no variable exists: a held device, a net with no free pin,
// a symmetry group with a held member.
type axisModel struct {
	kind axisKind
	prob *lp.Problem

	coordVar  []int // device center coordinate
	flipVar   []int // flip binary (flips mode only)
	loVar     []int // per-net lower bound
	hiVar     []int // per-net upper bound
	extentVar int   // W (axisX) or H (axisY)
	symVar    []int // symmetry-axis variable per group (axisX only)
	ints      []int // the flip binaries, for branch and bound
}

// modelSpec controls which pieces of the formulation are emitted.
type modelSpec struct {
	withNets   bool    // net-span variables + pin-window rows + span objective
	withFlips  bool    // flip binaries in pin positions
	withExtent bool    // extent variable + boundary rows
	extentObj  float64 // objective coefficient on the extent variable
	extentCap  float64 // if > 0, add extent ≤ extentCap

	// free marks the devices that may move; nil frees every device. The
	// others are held at their coordinates, flips and symmetry axes in at.
	free []bool
	at   *circuit.Placement
	box  float64 // if > 0, free devices stay inside [0, box]
}

// end is one side of a two-variable row: a model variable, or −1 and the
// value it is held at.
type end struct {
	v int
	x float64
}

// buildAxisModel assembles the LP for one axis. With a free mask, a row
// whose devices are all held is dropped, and a row with one held side
// becomes a bound on the free variable; held pins bound their net's span.
func buildAxisModel(n *circuit.Netlist, kind axisKind, gs constraintGraphs, spec modelSpec) *axisModel {
	nd := len(n.Devices)
	m := &axisModel{kind: kind}
	dim := func(i int) float64 { return kind.dim(&n.Devices[i]) }
	free := func(i int) bool { return spec.free == nil || spec.free[i] }
	var atX []float64
	var atF []bool
	if spec.at != nil {
		atX, atF = axisOf(spec.at, kind)
	}

	// Variable layout.
	next := 0
	alloc := func(k int, want func(int) bool) []int {
		idx := make([]int, k)
		for i := range idx {
			idx[i] = -1
			if want(i) {
				idx[i] = next
				next++
			}
		}
		return idx
	}
	m.coordVar = alloc(nd, free)
	if spec.withFlips {
		m.flipVar = alloc(nd, free)
		m.ints = slices.DeleteFunc(slices.Clone(m.flipVar), func(v int) bool { return v < 0 })
	}
	if spec.withNets {
		m.loVar = make([]int, len(n.Nets))
		m.hiVar = make([]int, len(n.Nets))
		for e := range n.Nets {
			m.loVar[e], m.hiVar[e] = -1, -1
			if slices.ContainsFunc(n.Nets[e].Pins, func(pr circuit.PinRef) bool { return free(pr.Device) }) {
				m.loVar[e], m.hiVar[e] = next, next+1
				next += 2
			}
		}
	}
	if spec.withExtent {
		m.extentVar = next
		next++
	}
	if kind == axisX {
		m.symVar = alloc(len(n.SymGroups), func(g int) bool {
			return !slices.ContainsFunc(n.SymGroups[g].Devices(), func(d int) bool { return !free(d) })
		})
	}
	p := lp.NewProblem(next)
	m.prob = p

	// Bounds accumulate by intersection, starting from [0, +Inf).
	tighten := func(v int, lo, hi float64) {
		l, h := p.Bounds(v)
		p.SetBounds(v, math.Max(l, lo), math.Min(h, hi))
	}
	coord := func(i int) end {
		if v := m.coordVar[i]; v >= 0 {
			return end{v: v}
		}
		return end{-1, atX[i]}
	}
	flip := func(i int) end {
		if v := m.flipVar[i]; v >= 0 {
			return end{v: v}
		}
		return end{-1, b2f(atF[i])}
	}
	axis := func(g int) end {
		if v := m.symVar[g]; v >= 0 {
			return end{v: v}
		}
		return end{-1, spec.at.AxisX[g]}
	}
	// relate emits ca·a + cb·b {sense} rhs. With one side held it folds
	// into a bound on the other, whose coefficient is ±1; with both held
	// it is dropped.
	relate := func(a, b end, ca, cb float64, sense lp.Sense, rhs float64) {
		if a.v >= 0 && b.v >= 0 {
			p.AddConstraint([]lp.Term{{Var: a.v, Coeff: ca}, {Var: b.v, Coeff: cb}}, sense, rhs)
			return
		}
		if a.v < 0 {
			a, b, ca, cb = b, a, cb, ca
		}
		if a.v < 0 {
			return
		}
		k := cb * b.x
		bound, lower, upper := rhs-k, sense != lp.LE, sense != lp.GE
		if ca < 0 {
			bound, lower, upper = k-rhs, upper, lower
		}
		lo, hi := math.Inf(-1), math.Inf(1)
		if lower {
			lo = bound
		}
		if upper {
			hi = bound
		}
		tighten(a.v, lo, hi)
	}

	// Objective.
	if spec.withNets {
		for e := range n.Nets {
			if m.loVar[e] < 0 {
				continue
			}
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

	// Pin windows (4b) with flip-dependent pin positions (4d). Held pins
	// are constants: they bound the span instead.
	if spec.withNets {
		for e := range n.Nets {
			if m.loVar[e] < 0 {
				continue
			}
			held := false
			var lo, hi float64
			for _, pr := range n.Nets[e].Pins {
				d := pr.Device
				c0, cf := pinTerms(n, kind, pr)
				if !free(d) {
					pos := atX[d] + c0 + cf*b2f(atF[d])
					if !held || pos < lo {
						lo = pos
					}
					if !held || pos > hi {
						hi = pos
					}
					held = true
					continue
				}
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
			if held {
				tighten(m.loVar[e], 0, lo)
				tighten(m.hiVar[e], hi, math.Inf(1))
			}
		}
	}

	// Boundary (4c): the bound coord ≥ dim/2 (≤ box − dim/2 with a box)
	// and the row coord + dim/2 ≤ extent.
	for i := 0; i < nd; i++ {
		if v := m.coordVar[i]; v >= 0 {
			hi := math.Inf(1)
			if spec.box > 0 {
				hi = spec.box - dim(i)/2
			}
			tighten(v, dim(i)/2, hi)
		}
		if spec.withExtent {
			relate(coord(i), end{v: m.extentVar}, 1, -1, lp.LE, -dim(i)/2)
		}
	}
	if spec.extentCap > 0 {
		tighten(m.extentVar, 0, spec.extentCap)
	}

	// Separation edges (4e / 4i): from.right ≤ to.left.
	edges := gs.h
	if kind == axisY {
		edges = gs.v
	}
	for _, e := range edges {
		relate(coord(e.from), coord(e.to), 1, -1, lp.LE, -(dim(e.from)+dim(e.to))/2)
	}

	// Symmetry (4f). A group with a held member keeps its axis.
	for gi := range n.SymGroups {
		g := &n.SymGroups[gi]
		for _, pr := range g.Pairs {
			switch {
			case kind == axisY:
				relate(coord(pr[0]), coord(pr[1]), 1, -1, lp.EQ, 0)
			case m.symVar[gi] >= 0:
				p.AddConstraint([]lp.Term{
					{Var: m.coordVar[pr[0]], Coeff: 1},
					{Var: m.coordVar[pr[1]], Coeff: 1},
					{Var: m.symVar[gi], Coeff: -2},
				}, lp.EQ, 0)
			default:
				relate(coord(pr[0]), coord(pr[1]), 1, 1, lp.EQ, 2*spec.at.AxisX[gi])
			}
		}
		if kind == axisX {
			for _, r := range g.Self {
				relate(coord(r), axis(gi), 1, -1, lp.EQ, 0)
			}
		}
	}

	// Alignment (4g, 4h).
	if kind == axisY {
		for _, pr := range n.BottomAlign {
			b1, b2 := pr[0], pr[1]
			relate(coord(b1), coord(b2), 1, -1, lp.EQ, (n.Devices[b1].H-n.Devices[b2].H)/2)
		}
	} else {
		for _, pr := range n.VCenterAlign {
			relate(coord(pr[0]), coord(pr[1]), 1, -1, lp.EQ, 0)
		}
	}

	// Flip binaries bounded to [0, 1] (integrality handled by branch &
	// bound). Symmetric pairs flip as mirror images: complementary
	// horizontally, identical vertically, so the matched layout stays a
	// true reflection.
	if spec.withFlips {
		for _, v := range m.ints {
			tighten(v, 0, 1)
		}
		for gi := range n.SymGroups {
			for _, pr := range n.SymGroups[gi].Pairs {
				if kind == axisX {
					relate(flip(pr[0]), flip(pr[1]), 1, 1, lp.EQ, 1)
				} else {
					relate(flip(pr[0]), flip(pr[1]), 1, -1, lp.EQ, 0)
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
		f := b2f(vals[i])
		q.SetBounds(v, f, f)
	}
	return q
}

// extract writes the model's variables of an LP solution into p: the
// coordinates and flips of free devices and the axes of free groups.
func (m *axisModel) extract(x []float64, p *circuit.Placement) {
	xs, fs := axisOf(p, m.kind)
	for i, v := range m.coordVar {
		if v >= 0 {
			xs[i] = x[v]
		}
	}
	for i, v := range m.flipVar {
		if v >= 0 {
			fs[i] = x[v] > 0.5
		}
	}
	for g, v := range m.symVar {
		if v >= 0 {
			p.AxisX[g] = x[v]
		}
	}
}

// infeasErr formats an infeasibility error for one axis.
func (m *axisModel) infeasErr(stage string) error {
	return fmt.Errorf("detailed: %s-axis %s LP infeasible", m.kind, stage)
}

// solverErr wraps a solver failure with the axis and stage it hit.
func (m *axisModel) solverErr(stage string, err error) error {
	return fmt.Errorf("detailed: %s-axis %s solve: %w", m.kind, stage, err)
}
