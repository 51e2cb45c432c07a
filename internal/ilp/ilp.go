// Package ilp solves small mixed-integer linear programs by LP-based branch
// and bound over package lp. It exists for the paper's detailed-placement
// formulation (Eq. 4a–4j), where the integer variables are the binary
// device-flipping decisions; analog problem sizes keep the tree small, and
// a node cap bounds worst-case runtime the way practical ILP time limits do.
//
// Branching tightens a variable bound: each child is a clone of its
// parent's LP with one bound moved, re-optimized from the parent's optimal
// basis by the dual simplex, so a node costs a few pivots rather than a
// from-scratch solve.
package ilp

import (
	"errors"
	"math"

	"repro/internal/lp"
	"repro/internal/obs"
)

// Problem couples an LP with integrality requirements.
type Problem struct {
	LP   *lp.Problem
	Ints []int // variable indices that must take integer values

	// Start optionally warm-starts the root relaxation: an optimal
	// solution of LP's rows under other bounds (e.g. with the integer
	// variables fixed), whose basis the root re-optimizes from.
	Start *lp.Solution
}

// Options tunes the branch-and-bound search.
type Options struct {
	MaxNodes int     // node cap (default 2000)
	Tol      float64 // integrality tolerance (default 1e-6)

	// Incumbent optionally seeds the search with a known feasible solution
	// (its objective prunes the tree immediately). IncumbentObj must be the
	// exact objective of Incumbent.
	Incumbent    []float64
	IncumbentObj float64

	// Tracer, when non-nil, emits one "ilp" event per run (root problem
	// size, branch-and-bound nodes, simplex pivots over all nodes, best
	// objective, status) plus one "incumbent"-labeled event per improving
	// integer-feasible point, and bumps the ilp.solves/ilp.nodes/ilp.pivots
	// counters.
	Tracer *obs.Tracer
	// Label tags the run's telemetry events with the caller's purpose.
	Label string
}

// Status reports the outcome of a branch-and-bound run.
type Status int

// Solve outcomes.
const (
	// Optimal: the tree was fully explored; the returned solution is a
	// global optimum.
	Optimal Status = iota
	// Feasible: the node cap was hit; the returned solution is the best
	// integer-feasible point found, with no optimality guarantee.
	Feasible
	// Infeasible: no integer-feasible point exists.
	Infeasible
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	default:
		return "infeasible"
	}
}

// Solution is the result of a branch-and-bound run.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
	Nodes  int // LP nodes solved
	Pivots int // simplex iterations over all node LPs

	// LP is the optimal relaxation of the node that produced X: a warm
	// start for re-solving the same rows under other bounds. Nil when X is
	// the seeded incumbent.
	LP *lp.Solution
}

// ErrNoSolution is returned when the node cap is exhausted before any
// integer-feasible point is found.
var ErrNoSolution = errors.New("ilp: node limit reached without a feasible solution")

// observe, when non-nil, sees every run with its result; the package's
// tests set it to replay the models callers build against a reference.
var observe func(p *Problem, opt Options, sol *Solution, err error)

// node is a pending subproblem: its parent's relaxation with variable j
// restricted to [lo, hi].
type node struct {
	parent *lp.Problem
	from   *lp.Solution // the parent's optimum, warm start for the child
	j      int
	lo, hi float64
}

// Solve runs depth-first branch and bound. A non-nil error indicates an LP
// solver failure or an exhausted node cap with no feasible point; Status
// distinguishes proven optima from cap-limited bests.
func Solve(p *Problem, opt Options) (*Solution, error) {
	sol, err := solve(p, opt)
	if observe != nil {
		observe(p, opt, sol, err)
	}
	return sol, err
}

func solve(p *Problem, opt Options) (*Solution, error) {
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 2000
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-6
	}
	bestObj := math.Inf(1)
	var bestX []float64
	var bestLP *lp.Solution
	if opt.Incumbent != nil {
		bestObj = opt.IncumbentObj
		bestX = append([]float64(nil), opt.Incumbent...)
	}

	nodes, pivots := 0, 0
	capped := false
	// The root is the one node without a branching bound (j < 0).
	stack := []node{{parent: p.LP, from: p.Start, j: -1}}
	for len(stack) > 0 {
		if nodes >= opt.MaxNodes {
			capped = true
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		sub := nd.parent
		if nd.j >= 0 {
			sub = nd.parent.Clone()
			sub.SetBounds(nd.j, nd.lo, nd.hi)
		}
		sol, err := lp.Resolve(sub, nd.from, nil, "")
		if sol != nil {
			pivots += sol.Pivots
		}
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			continue // infeasible (or unbounded relaxation: nothing to explore)
		}
		if sol.Obj >= bestObj-1e-9 {
			continue // bound
		}
		// Find the most fractional integer variable.
		branchVar := -1
		worstFrac := opt.Tol
		for _, j := range p.Ints {
			f := sol.X[j] - math.Floor(sol.X[j])
			frac := math.Min(f, 1-f)
			if frac > worstFrac {
				worstFrac = frac
				branchVar = j
			}
		}
		if branchVar < 0 {
			// Integer feasible: new incumbent.
			bestObj, bestX, bestLP = sol.Obj, sol.X, sol
			if opt.Tracer != nil {
				opt.Tracer.LPEvent(obs.LPRecord{
					Solver: "ilp", Label: "incumbent",
					Rows: p.LP.NumRows(), Cols: p.LP.NumVars(),
					Nodes: nodes, Obj: bestObj, Status: "feasible",
				})
			}
			continue
		}
		v := sol.X[branchVar]
		lo, hi := sub.Bounds(branchVar)
		down := node{parent: sub, from: sol, j: branchVar, lo: lo, hi: math.Floor(v)}
		up := node{parent: sub, from: sol, j: branchVar, lo: math.Ceil(v), hi: hi}
		// Dive toward the nearer integer first (pushed last = popped first).
		if v-math.Floor(v) < 0.5 {
			stack = append(stack, up, down)
		} else {
			stack = append(stack, down, up)
		}
	}

	s := &Solution{Status: Optimal, X: bestX, Obj: bestObj, Nodes: nodes, Pivots: pivots, LP: bestLP}
	var err error
	switch {
	case bestX == nil:
		s = &Solution{Status: Infeasible, Nodes: nodes, Pivots: pivots}
		if capped {
			err = ErrNoSolution
		}
	case capped:
		s.Status = Feasible
	}
	if opt.Tracer != nil {
		opt.Tracer.LPEvent(obs.LPRecord{
			Solver: "ilp", Label: opt.Label,
			Rows: p.LP.NumRows(), Cols: p.LP.NumVars(),
			Pivots: s.Pivots, Nodes: s.Nodes, Obj: s.Obj, Status: s.Status.String(),
		})
		opt.Tracer.Count("ilp.solves", 1)
		opt.Tracer.Count("ilp.nodes", float64(s.Nodes))
		opt.Tracer.Count("ilp.pivots", float64(s.Pivots))
	}
	return s, err
}
