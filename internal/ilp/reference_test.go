package ilp

import (
	"math"

	"repro/internal/lp"
)

// ReferenceSolve is a test-only branch and bound that shares no
// warm-start machinery with Solve: every node clones the root LP, appends
// its branching bounds as rows, and solves from scratch. It explores the
// tree in the same order as Solve (depth first, nearer integer first, most
// fractional variable), so on the same model and options both must agree
// on the best objective.
func ReferenceSolve(p *Problem, opt Options) (*Solution, error) {
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 2000
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-6
	}
	bestObj := math.Inf(1)
	var bestX []float64
	if opt.Incumbent != nil {
		bestObj = opt.IncumbentObj
		bestX = append([]float64(nil), opt.Incumbent...)
	}
	type refNode struct{ lb, ub map[int]float64 }
	child := func(nd refNode, j int, v float64, isLB bool) refNode {
		c := refNode{lb: map[int]float64{}, ub: map[int]float64{}}
		for k, x := range nd.lb {
			c.lb[k] = x
		}
		for k, x := range nd.ub {
			c.ub[k] = x
		}
		if isLB {
			c.lb[j] = v
		} else {
			c.ub[j] = v
		}
		return c
	}
	stack := []refNode{{lb: map[int]float64{}, ub: map[int]float64{}}}
	nodes := 0
	capped := false
	for len(stack) > 0 {
		if nodes >= opt.MaxNodes {
			capped = true
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++
		sub := p.LP.Clone()
		for j, v := range nd.lb {
			sub.AddConstraint([]lp.Term{{Var: j, Coeff: 1}}, lp.GE, v)
		}
		for j, v := range nd.ub {
			sub.AddConstraint([]lp.Term{{Var: j, Coeff: 1}}, lp.LE, v)
		}
		sol, err := lp.Solve(sub)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal || sol.Obj >= bestObj-1e-9 {
			continue
		}
		branchVar, worstFrac := -1, opt.Tol
		for _, j := range p.Ints {
			f := sol.X[j] - math.Floor(sol.X[j])
			if frac := math.Min(f, 1-f); frac > worstFrac {
				worstFrac, branchVar = frac, j
			}
		}
		if branchVar < 0 {
			bestObj, bestX = sol.Obj, sol.X
			continue
		}
		v := sol.X[branchVar]
		down := child(nd, branchVar, math.Floor(v), false)
		up := child(nd, branchVar, math.Ceil(v), true)
		if v-math.Floor(v) < 0.5 {
			stack = append(stack, up, down)
		} else {
			stack = append(stack, down, up)
		}
	}
	switch {
	case bestX == nil && capped:
		return &Solution{Status: Infeasible, Nodes: nodes}, ErrNoSolution
	case bestX == nil:
		return &Solution{Status: Infeasible, Nodes: nodes}, nil
	case capped:
		return &Solution{Status: Feasible, X: bestX, Obj: bestObj, Nodes: nodes}, nil
	}
	return &Solution{Status: Optimal, X: bestX, Obj: bestObj, Nodes: nodes}, nil
}
