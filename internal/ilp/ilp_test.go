package ilp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/obs"
)

func TestKnapsack(t *testing.T) {
	// max 8a + 11b + 6c + 4d s.t. 5a + 7b + 4c + 3d <= 14, binary.
	// Optimum: a=0? Known answer: {b,c,d}: 11+6+4=21, weight 14. vs {a,b}: 19.
	p := lp.NewProblem(4)
	vals := []float64{8, 11, 6, 4}
	wts := []float64{5, 7, 4, 3}
	var cap []lp.Term
	for j := 0; j < 4; j++ {
		p.SetObj(j, -vals[j])
		cap = append(cap, lp.Term{Var: j, Coeff: wts[j]})
		p.AddConstraint([]lp.Term{{Var: j, Coeff: 1}}, lp.LE, 1)
	}
	p.AddConstraint(cap, lp.LE, 14)
	sol, err := Solve(&Problem{LP: p, Ints: []int{0, 1, 2, 3}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Obj+21) > 1e-6 {
		t.Errorf("obj = %g, want -21 (x=%v)", sol.Obj, sol.X)
	}
	want := []float64{0, 1, 1, 1}
	for j := range want {
		if math.Abs(sol.X[j]-want[j]) > 1e-6 {
			t.Errorf("x[%d] = %g, want %g", j, sol.X[j], want[j])
		}
	}
}

func TestIntegerRounding(t *testing.T) {
	// max x s.t. 2x <= 7, x integer -> x = 3 (LP gives 3.5).
	p := lp.NewProblem(1)
	p.SetObj(0, -1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 2}}, lp.LE, 7)
	sol, err := Solve(&Problem{LP: p, Ints: []int{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[0]-3) > 1e-6 {
		t.Errorf("x = %g, want 3", sol.X[0])
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -x - 10y, y binary, x <= 2.5 continuous, x + y <= 3.
	// Best: y=1, x=2 -> -22.
	p := lp.NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -10)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}}, lp.LE, 2.5)
	p.AddConstraint([]lp.Term{{Var: 1, Coeff: 1}}, lp.LE, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, lp.LE, 3)
	sol, err := Solve(&Problem{LP: p, Ints: []int{1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Obj+12) > 1e-6 {
		t.Errorf("obj = %g, want -12 (x=%v)", sol.Obj, sol.X)
	}
	if math.Abs(sol.X[1]-1) > 1e-6 || math.Abs(sol.X[0]-2) > 1e-6 {
		t.Errorf("x = %v, want (2, 1)", sol.X)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6 has no integer point.
	p := lp.NewProblem(1)
	p.SetObj(0, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}}, lp.GE, 0.4)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}}, lp.LE, 0.6)
	sol, err := Solve(&Problem{LP: p, Ints: []int{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestIncumbentPruning(t *testing.T) {
	// Seeding the optimal incumbent should keep it when the tree is cut off.
	p := lp.NewProblem(1)
	p.SetObj(0, -1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 2}}, lp.LE, 7)
	sol, err := Solve(&Problem{LP: p, Ints: []int{0}}, Options{
		Incumbent:    []float64{3},
		IncumbentObj: -3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Obj+3) > 1e-9 || math.Abs(sol.X[0]-3) > 1e-9 {
		t.Errorf("sol = %v obj %g, want incumbent kept", sol.X, sol.Obj)
	}
}

func TestNodeCapReturnsBestEffort(t *testing.T) {
	// A problem needing branching, capped to 1 node, with an incumbent:
	// should return Feasible with the incumbent.
	p := lp.NewProblem(1)
	p.SetObj(0, -1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 2}}, lp.LE, 7)
	sol, err := Solve(&Problem{LP: p, Ints: []int{0}}, Options{
		MaxNodes:     1,
		Incumbent:    []float64{2},
		IncumbentObj: -2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Feasible {
		t.Errorf("status = %v, want feasible (capped)", sol.Status)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 {
		t.Errorf("x = %v, want incumbent", sol.X)
	}
}

func TestNodeCapWithoutIncumbentErrors(t *testing.T) {
	p := lp.NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 2}, {Var: 1, Coeff: 3}}, lp.LE, 7.5)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 3}, {Var: 1, Coeff: 2}}, lp.LE, 7.5)
	_, err := Solve(&Problem{LP: p, Ints: []int{0, 1}}, Options{MaxNodes: 1})
	if err == nil {
		t.Error("want ErrNoSolution when capped with no feasible point found")
	}
}

// TestRandomAgainstBruteForce compares branch and bound with exhaustive
// enumeration on random binary problems.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5) // up to 6 binaries
		obj := make([]float64, n)
		w := make([]float64, n)
		for j := range obj {
			obj[j] = rng.NormFloat64()
			w[j] = rng.Float64() * 3
		}
		budget := rng.Float64() * 6

		p := lp.NewProblem(n)
		var capRow []lp.Term
		ints := make([]int, n)
		for j := 0; j < n; j++ {
			p.SetObj(j, obj[j])
			p.AddConstraint([]lp.Term{{Var: j, Coeff: 1}}, lp.LE, 1)
			capRow = append(capRow, lp.Term{Var: j, Coeff: w[j]})
			ints[j] = j
		}
		p.AddConstraint(capRow, lp.LE, budget)

		sol, err := Solve(&Problem{LP: p, Ints: ints}, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force.
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			var tot, wt float64
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					tot += obj[j]
					wt += w[j]
				}
			}
			if wt <= budget && tot < best {
				best = tot
			}
		}
		if sol.Status != Optimal || math.Abs(sol.Obj-best) > 1e-6 {
			t.Errorf("trial %d: B&B obj %g (status %v), brute force %g", trial, sol.Obj, sol.Status, best)
		}
	}
}

// knapsack builds the TestKnapsack model with binaries bounded to [0, 1].
func knapsack() (*lp.Problem, []int) {
	p := lp.NewProblem(4)
	var cap []lp.Term
	for j, v := range []float64{8, 11, 6, 4} {
		p.SetObj(j, -v)
		p.SetBounds(j, 0, 1)
		cap = append(cap, lp.Term{Var: j, Coeff: []float64{5, 7, 4, 3}[j]})
	}
	p.AddConstraint(cap, lp.LE, 14)
	return p, []int{0, 1, 2, 3}
}

// TestStartWarmStartsRoot seeds the root with the optimum of the same rows
// under fixed integers (as detailed placement does with its flip-fixed
// warm start): the result must not change, and the returned LP solution
// must be the best node's, reusable as a warm start itself.
func TestStartWarmStartsRoot(t *testing.T) {
	p, ints := knapsack()
	cold, err := Solve(&Problem{LP: p, Ints: ints}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fixed := p.Clone()
	for _, j := range ints {
		fixed.SetBounds(j, 0, 0)
	}
	start, err := lp.Solve(fixed)
	if err != nil || start.Status != lp.Optimal {
		t.Fatalf("fixed LP: %v %v", start, err)
	}
	warm, err := Solve(&Problem{LP: p, Ints: ints, Start: start}, Options{
		Incumbent: start.X, IncumbentObj: start.Obj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || math.Abs(warm.Obj-cold.Obj) > 1e-9 {
		t.Fatalf("warm-started ILP: %v obj %g, cold %v obj %g", warm.Status, warm.Obj, cold.Status, cold.Obj)
	}
	if warm.LP == nil || math.Abs(warm.LP.Obj-warm.Obj) > 1e-9 {
		t.Fatalf("LP = %+v, want the best node's relaxation", warm.LP)
	}
	// The relaxation re-solved from the ILP's basis bounds the ILP optimum.
	again, err := lp.Resolve(p.Clone(), warm.LP, nil, "")
	if err != nil || again.Status != lp.Optimal || again.Obj > cold.Obj+1e-9 {
		t.Fatalf("re-solve from the ILP's basis: %+v %v", again, err)
	}
}

// TestTracerReportsPivots checks branch and bound reports the simplex work
// of all its nodes in its event and the ilp.pivots counter, next to the
// unchanged ilp.solves/ilp.nodes counters.
func TestTracerReportsPivots(t *testing.T) {
	p, ints := knapsack()
	sink := &obs.MemorySink{}
	tr := obs.New(sink)
	sol, err := Solve(&Problem{LP: p, Ints: ints}, Options{Tracer: tr, Label: "knapsack"})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Pivots <= 0 || sol.Nodes <= 1 {
		t.Fatalf("pivots %d over %d nodes: want a branching search", sol.Pivots, sol.Nodes)
	}
	var ev *obs.LPRecord
	for _, e := range sink.ByKind(obs.KindLP) {
		if e.LP.Label == "knapsack" {
			ev = e.LP
		}
	}
	if ev == nil || ev.Pivots != sol.Pivots || ev.Nodes != sol.Nodes {
		t.Fatalf("ilp event %+v, want pivots %d nodes %d", ev, sol.Pivots, sol.Nodes)
	}
	c := tr.Summary().Counters
	if c["ilp.pivots"] != float64(sol.Pivots) || c["ilp.nodes"] != float64(sol.Nodes) || c["ilp.solves"] != 1 {
		t.Errorf("counters %v, want ilp.pivots=%d ilp.nodes=%d ilp.solves=1", c, sol.Pivots, sol.Nodes)
	}
	if c["lp.solves"] != 0 {
		t.Errorf("node LPs counted as lp.solves (%v); they belong to ilp.pivots", c["lp.solves"])
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Feasible.String() != "feasible" || Infeasible.String() != "infeasible" {
		t.Error("Status.String wrong")
	}
}
