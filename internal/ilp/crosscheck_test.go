package ilp_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ilp"
	"repro/internal/refine"
	"repro/internal/testcircuits"
)

// TestDetailedILPsMatchReference records every branch and bound the
// detailed stage runs — the integrated flip ILPs of ePlace-A and the
// refinement windows — on five paper circuits and the quick suite's two
// smaller cases, and re-runs each with the reference branch and bound
// (rows for branching bounds, every node solved from scratch) under the
// same node cap and incumbent: best objectives must agree, and statuses
// too unless exactly one of the two searches hit the node cap.
func TestDetailedILPsMatchReference(t *testing.T) {
	type record struct {
		p   *ilp.Problem
		opt ilp.Options
		sol *ilp.Solution
		err error
	}
	var mu sync.Mutex
	var recs []record
	restore := ilp.Observe(func(p *ilp.Problem, opt ilp.Options, sol *ilp.Solution, err error) {
		mu.Lock()
		recs = append(recs, record{p, opt, sol, err})
		mu.Unlock()
	})
	for _, n := range crossCheckNetlists(t) {
		opt := core.Options{Seed: 1, Threads: 1, Refine: &refine.Options{}}
		if _, err := core.Place(n, core.MethodEPlaceA, opt); err != nil {
			restore()
			t.Fatalf("%s: %v", n.Name, err)
		}
	}
	restore()

	integrated := 0
	for i, r := range recs {
		what := fmt.Sprintf("ILP %d %q (%d×%d, %d ints, cap %d)", i, r.opt.Label,
			r.p.LP.NumRows(), r.p.LP.NumVars(), len(r.p.Ints), r.opt.MaxNodes)
		if r.p.Start != nil {
			integrated++
		}
		if r.err != nil {
			t.Fatalf("%s: %v", what, r.err)
		}
		ref, err := ilp.ReferenceSolve(r.p, r.opt)
		if err != nil {
			t.Fatalf("%s: reference: %v", what, err)
		}
		// Degenerate LP optima let the two searches visit different
		// vertices and so branch differently: one may exhaust the node cap
		// where the other proves optimality. The best objective must agree
		// regardless; the status must agree unless the cap split them.
		capSplit := (r.sol.Status == ilp.Feasible) != (ref.Status == ilp.Feasible) &&
			r.sol.Status != ilp.Infeasible && ref.Status != ilp.Infeasible
		if r.sol.Status != ref.Status && !capSplit {
			t.Errorf("%s: status %v, reference %v", what, r.sol.Status, ref.Status)
			continue
		}
		if d := math.Abs(r.sol.Obj - ref.Obj); d > 1e-9*math.Max(1, math.Abs(ref.Obj)) {
			t.Errorf("%s: best objective %.15g (%v, %d nodes), reference %.15g (%v, %d nodes)",
				what, r.sol.Obj, r.sol.Status, r.sol.Nodes, ref.Obj, ref.Status, ref.Nodes)
		}
	}
	if integrated == 0 || integrated == len(recs) {
		t.Fatalf("recorded %d ILPs, %d warm-started: want both integrated and window runs", len(recs), integrated)
	}
	t.Logf("%d ILPs cross-checked (%d integrated, %d windows)", len(recs), integrated, len(recs)-integrated)
}

// crossCheckNetlists returns the circuits whose ILPs the cross-check
// replays: five paper circuits and the quick suite's two smaller synthetic
// cases, or under the race detector (~10x slower sequential solves) the
// three smallest.
func crossCheckNetlists(t *testing.T) []*circuit.Netlist {
	t.Helper()
	papers, synth := []string{"Adder", "CC-OTA", "VCO2", "Comp1", "VGA"}, 2
	if raceEnabled {
		papers, synth = []string{"Adder", "CC-OTA"}, 1
	}
	var nets []*circuit.Netlist
	for _, name := range papers {
		c, err := testcircuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, c.Netlist)
	}
	cases, err := gen.Suite("quick", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases[:synth] {
		nets = append(nets, gen.MustGenerate(c.Params))
	}
	return nets
}
