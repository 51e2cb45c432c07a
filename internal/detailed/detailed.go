// Package detailed implements legalization and detailed placement for the
// analytical analog placers.
//
// Two back-ends are provided, matching the paper's comparison in Table IV:
//
//   - ModeIntegratedILP is ePlace-A's single-stage integrated area +
//     wirelength minimization (Eq. 4a–4j), with hard symmetry, alignment and
//     ordering constraints and binary device-flipping variables, solved by
//     LP-based branch and bound.
//
//   - ModeTwoStageLP is the previous analytical work [11]: an area
//     compaction stage followed by a wirelength-minimization stage, both
//     plain LPs, without device flipping.
//
// Both back-ends share the constraint-graph extraction: each device pair is
// assigned a horizontal or vertical separation from the global-placement
// geometry (Fig. 4), and the resulting DAGs are transitively reduced.
package detailed

import (
	"context"
	"math"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/obs"
)

// Mode selects the detailed-placement back-end.
type Mode int

// Back-ends.
const (
	// ModeIntegratedILP is ePlace-A's integrated ILP detailed placement.
	ModeIntegratedILP Mode = iota
	// ModeTwoStageLP is the two-stage LP detailed placement of [11].
	ModeTwoStageLP
)

func (m Mode) String() string {
	if m == ModeIntegratedILP {
		return "integrated-ilp"
	}
	return "two-stage-lp"
}

// Options configures detailed placement.
type Options struct {
	Mode Mode

	// Mu weights the area term in the integrated objective (Eq. 4a),
	// default 1.0. Larger favors area over wirelength.
	Mu float64
	// MaxNodes caps the branch-and-bound tree per axis (default 60).
	MaxNodes int
	// NoFlips disables the device-flipping binaries (used for ablation).
	NoFlips bool
	// Refinements is the number of compaction iterations in integrated
	// mode: after each solve the constraint graphs are re-derived from the
	// solved placement (whose separations reflect actual gaps rather than
	// the rough GP geometry) and the ILP is solved again. Each iteration's
	// incumbent remains feasible, so quality is monotone. Default 3.
	Refinements int

	// Tracer, when non-nil, wraps the run in a "detailed" span (one
	// "refine-N" sub-span per integrated refinement pass) and threads
	// through to every LP/ILP solve, which emit per-solve events. Nil
	// costs one pointer check.
	Tracer *obs.Tracer
}

func (o *Options) defaults() {
	if o.Mu == 0 {
		o.Mu = 1.0
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 60
	}
	if o.Refinements == 0 {
		o.Refinements = 3
	}
}

// Result is the outcome of detailed placement.
type Result struct {
	Placement *circuit.Placement
	Area      float64 // exact bounding-box area, grid units²
	HPWL      float64 // exact weighted HPWL, grid units
	ILPNodes  int     // branch-and-bound nodes solved (integrated mode)
}

// Place legalizes and detail-places the global-placement solution gp. The
// context is polled between LP/ILP solves (the individual solves are short
// — dozens of devices — so pass boundaries bound the cancellation latency),
// and a canceled run returns ctx.Err() instead of a partial placement.
func Place(ctx context.Context, n *circuit.Netlist, gp *circuit.Placement, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if err := n.CheckSized(gp); err != nil {
		return nil, err
	}
	opt.defaults()
	sp := opt.Tracer.StartSpan("detailed")
	defer sp.End()

	ref := snapReference(n, gp)
	gs := deriveGraphs(n, ref)

	out := circuit.NewPlacement(n)
	var nodes int

	switch opt.Mode {
	case ModeTwoStageLP:
		if err := twoStageAxis(n, axisX, gs, opt.Tracer, out); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := twoStageAxis(n, axisY, gs, opt.Tracer, out); err != nil {
			return nil, err
		}
	default:
		// The constant estimates W̃ = H̃ = sqrt(Σ areas) of Eq. (4a).
		tilde := math.Sqrt(n.TotalDeviceArea())
		prevScore := math.Inf(1)
		for iter := 0; iter < opt.Refinements; iter++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			refineSpan := opt.Tracer.StartSpan(refineName(iter))
			// Full ILP (branch and bound over flip binaries) on the first
			// pass; later passes keep the flip assignment and re-optimize
			// coordinates, which is where refinement pays.
			var solved [2]*solvedAxis
			if iter == 0 || opt.NoFlips {
				for _, kind := range []axisKind{axisX, axisY} {
					sa, err := integratedAxis(n, kind, gs, opt, tilde, out)
					if err != nil {
						refineSpan.End()
						return nil, err
					}
					solved[kind] = sa
					nodes += sa.nodes
				}
			}
			if !opt.NoFlips {
				improveFlips(n, out)
				// Re-tighten coordinates for the final flip assignment.
				for _, kind := range []axisKind{axisX, axisY} {
					if err := resolveCoords(n, kind, gs, opt, tilde, solved[kind], out); err != nil {
						refineSpan.End()
						return nil, err
					}
				}
			}
			score := n.Area(out) + n.HPWL(out)
			refineSpan.End()
			if score > prevScore*0.999 {
				break // converged: further refinement cannot pay off
			}
			prevScore = score
			if iter+1 < opt.Refinements {
				// Re-derive separations from the now-legal placement: the
				// solved geometry exposes cheaper H/V choices than the
				// original global-placement overlaps did.
				gs = deriveGraphs(n, snapReference(n, out))
			}
		}
	}

	n.Normalize(out)
	res := &Result{
		Placement: out,
		Area:      n.Area(out),
		HPWL:      n.HPWL(out),
		ILPNodes:  nodes,
	}
	if opt.Tracer.Enabled() {
		opt.Tracer.Count("dp.runs", 1)
		opt.Tracer.Gauge("dp.final_area", res.Area)
		opt.Tracer.Gauge("dp.final_hpwl", res.HPWL)
	}
	return res, nil
}

// refineName labels the integrated mode's refinement-pass spans.
func refineName(iter int) string {
	return "refine-" + strconv.Itoa(iter)
}

// integratedSpec is the Eq. 4 model of one axis: net spans, flips (unless
// disabled), and the extent weighted by μ·W̃/2.
func integratedSpec(opt Options, tilde float64) modelSpec {
	return modelSpec{
		withNets:   true,
		withFlips:  !opt.NoFlips,
		withExtent: true,
		extentObj:  opt.Mu * tilde / 2,
	}
}

// solvedAxis is one axis's integrated model with its final optimal basis,
// so the pass's flip-fixed re-solve of the same rows starts from it.
type solvedAxis struct {
	m     *axisModel
	basis *lp.Solution
	nodes int
}

// integratedAxis solves one axis of the integrated ILP: LP warm start with
// the default flips fixed, branch and bound over the flip binaries from
// that start's basis, best solution extracted into out. Solver failures
// are returned wrapped with the axis and stage; a node-capped search keeps
// its best point and is counted as dp.ilp_node_cap.
func integratedAxis(n *circuit.Netlist, kind axisKind, gs constraintGraphs,
	opt Options, tilde float64, out *circuit.Placement) (*solvedAxis, error) {

	m := buildAxisModel(n, kind, gs, integratedSpec(opt, tilde))
	if opt.NoFlips {
		sol, err := lp.SolveTraced(m.prob, opt.Tracer, "integrated-"+kind.String())
		if err != nil {
			return nil, m.solverErr("integrated", err)
		}
		if sol.Status != lp.Optimal {
			return nil, m.infeasErr("integrated")
		}
		m.extract(sol.X, out)
		return &solvedAxis{m: m, basis: sol}, nil
	}

	// Warm start: default (mirror-consistent) flip assignment.
	warm, err := lp.SolveTraced(m.withFixedFlips(warmFlips(n, kind)), opt.Tracer, "warm-start-"+kind.String())
	if err != nil {
		return nil, m.solverErr("warm-start", err)
	}
	if warm.Status != lp.Optimal {
		return nil, m.infeasErr("warm-start")
	}
	isol, err := ilp.Solve(&ilp.Problem{LP: m.prob, Ints: m.ints, Start: warm}, ilp.Options{
		MaxNodes:     opt.MaxNodes,
		Incumbent:    warm.X,
		IncumbentObj: warm.Obj,
		Tracer:       opt.Tracer,
		Label:        "integrated-" + kind.String(),
	})
	if err != nil {
		return nil, m.solverErr("integrated", err)
	}
	if isol.Status == ilp.Feasible {
		opt.Tracer.Count("dp.ilp_node_cap", 1)
	}
	m.extract(isol.X, out)
	basis := isol.LP
	if basis == nil {
		basis = warm // the warm start was never improved on
	}
	return &solvedAxis{m: m, basis: basis, nodes: isol.Nodes}, nil
}

// resolveCoords re-solves one axis as a pure LP with the placement's
// current flip assignment fixed, updating coordinates in place. When the
// pass solved this axis's integrated model (prev non-nil), the re-solve
// reuses its rows and starts from its final basis.
func resolveCoords(n *circuit.Netlist, kind axisKind, gs constraintGraphs,
	opt Options, tilde float64, prev *solvedAxis, out *circuit.Placement) error {

	var m *axisModel
	var from *lp.Solution
	if prev != nil {
		m, from = prev.m, prev.basis
	} else {
		m = buildAxisModel(n, kind, gs, integratedSpec(opt, tilde))
	}
	_, flips := axisOf(out, kind)
	sol, err := lp.Resolve(m.withFixedFlips(flips), from, opt.Tracer, "flip-fixed-"+kind.String())
	if err != nil {
		return m.solverErr("flip-fixed", err)
	}
	if sol.Status != lp.Optimal {
		return m.infeasErr("flip-fixed")
	}
	m.extract(sol.X, out)
	return nil
}

// twoStageAxis runs the [11] flow on one axis: minimize extent, then
// minimize wirelength subject to the achieved extent.
func twoStageAxis(n *circuit.Netlist, kind axisKind, gs constraintGraphs, tr *obs.Tracer, out *circuit.Placement) error {
	// Stage 1: area compaction.
	m1 := buildAxisModel(n, kind, gs, modelSpec{withExtent: true, extentObj: 1})
	s1, err := lp.SolveTraced(m1.prob, tr, "compaction-"+kind.String())
	if err != nil {
		return m1.solverErr("compaction", err)
	}
	if s1.Status != lp.Optimal {
		return m1.infeasErr("compaction")
	}
	extent := s1.X[m1.extentVar]

	// Stage 2: wirelength minimization within the compacted extent.
	m2 := buildAxisModel(n, kind, gs, modelSpec{
		withNets:   true,
		withExtent: true,
		extentCap:  extent + 1e-9,
	})
	s2, err := lp.SolveTraced(m2.prob, tr, "wirelength-"+kind.String())
	if err != nil {
		return m2.solverErr("wirelength", err)
	}
	if s2.Status != lp.Optimal {
		return m2.infeasErr("wirelength")
	}
	m2.extract(s2.X, out)
	return nil
}
