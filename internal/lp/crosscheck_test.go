package lp_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/refine"
	"repro/internal/testcircuits"
)

// crossCheckNetlists returns the circuits whose detailed-stage models the
// cross-checks replay: five paper circuits and the quick suite's two
// smaller synthetic cases, or under the race detector (~10x slower
// sequential solves) the three smallest.
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

// TestDetailedModelsMatchReference records every LP the detailed stage
// solves — integrated, warm-start and flip-fixed models with their
// branch-and-bound nodes (ePlace-A), two-stage models (prev), and window
// ILP nodes (refinement) — and replays each against the dense reference:
// the production result and a cold re-solve must both match the
// reference's status, its objective within 1e-9 relative, and be primal
// feasible within 1e-7.
func TestDetailedModelsMatchReference(t *testing.T) {
	type record struct {
		p    *lp.Problem
		warm bool
		sol  *lp.Solution
		err  error
	}
	var mu sync.Mutex
	var recs []record
	restore := lp.Observe(func(p *lp.Problem, warm bool, sol *lp.Solution, err error) {
		mu.Lock()
		recs = append(recs, record{p, warm, sol, err})
		mu.Unlock()
	})
	for _, n := range crossCheckNetlists(t) {
		for _, m := range []core.Method{core.MethodEPlaceA, core.MethodPrev} {
			opt := core.Options{Seed: 1, Threads: 1, Refine: &refine.Options{}}
			if _, err := core.Place(n, m, opt); err != nil {
				restore()
				t.Fatalf("%s/%v: %v", n.Name, m, err)
			}
		}
	}
	restore()

	warm := 0
	for i, r := range recs {
		what := fmt.Sprintf("model %d (%d×%d, warm=%v)", i, r.p.NumRows(), r.p.NumVars(), r.warm)
		if r.warm {
			warm++
		}
		if r.err != nil {
			t.Fatalf("%s: production solve failed: %v", what, r.err)
		}
		ref, err := lp.ReferenceSolve(r.p)
		if err != nil {
			t.Fatalf("%s: reference: %v", what, err)
		}
		cold, err := lp.Solve(r.p)
		if err != nil {
			t.Fatalf("%s: cold re-solve: %v", what, err)
		}
		for _, got := range []struct {
			name string
			sol  *lp.Solution
		}{{"production", r.sol}, {"cold", cold}} {
			if msg := mismatch(r.p, got.sol, ref); msg != "" {
				t.Errorf("%s %s solve: %s", what, got.name, msg)
			}
		}
	}
	if len(recs) == 0 || warm == 0 {
		t.Fatalf("recorded %d models (%d warm-started); the observer saw no detailed solves", len(recs), warm)
	}
	t.Logf("%d models cross-checked, %d of them warm-started", len(recs), warm)
}

// mismatch compares sol with the reference solution on p.
func mismatch(p *lp.Problem, sol, ref *lp.Solution) string {
	if sol.Status != ref.Status {
		return fmt.Sprintf("status %v, reference %v", sol.Status, ref.Status)
	}
	if sol.Status != lp.Optimal {
		return ""
	}
	if d := math.Abs(sol.Obj - ref.Obj); d > 1e-9*math.Max(1, math.Abs(ref.Obj)) {
		return fmt.Sprintf("objective %.15g, reference %.15g", sol.Obj, ref.Obj)
	}
	return lp.Infeasibility(p, sol.X, 1e-7)
}
