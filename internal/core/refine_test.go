package core

import (
	"testing"

	"repro/internal/anneal"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/refine"
)

// TestWarmRefineCountsAccumulate runs a warm (ECO) eplace-a re-place with
// the explicit refinement stage on top: both the warm flow's focused
// window cleanup and the -refine stage solve windows, and the result must
// report their sum — the same totals the trace's refine counters hold.
func TestWarmRefineCountsAccumulate(t *testing.T) {
	base := gen.Params{Seed: 13, Devices: 12}
	n := gen.MustGenerate(base)
	edited := gen.MustGenerate(gen.Edited(base, 4))
	prior, err := Place(n, MethodEPlaceA, Options{Seed: 1, Threads: 1, Portfolio: 1})
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New()
	res, err := Place(edited, MethodEPlaceA, Options{
		Seed: 1, Threads: 1, Portfolio: 1, Tracer: tr,
		WarmStart: &WarmStart{Base: n, Placement: prior.Placement},
		Refine:    &refine.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	if runs := sum.Spans["place/refine"].Count; runs != 2 {
		t.Fatalf("refine stage ran %d times, want 2 (warm cleanup + explicit refine)", runs)
	}
	if got, want := res.RefineWindows, int(sum.Counters["refine.windows"]); got != want || got == 0 {
		t.Errorf("RefineWindows = %d, trace refine.windows = %d", got, want)
	}
	if got, want := res.RefineAccepts, int(sum.Counters["refine.accepts"]); got != want {
		t.Errorf("RefineAccepts = %d, trace refine.accepts = %d", got, want)
	}
}

// TestQuickSuiteRefineHasNoSolverFailures runs every method with window
// refinement on the quick suite: windows whose solve fails are skipped and
// counted, and none may fail.
func TestQuickSuiteRefineHasNoSolverFailures(t *testing.T) {
	cases, err := gen.Suite("quick", 1)
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		cases = cases[:2] // synth-48's sequential solves are ~10x slower raced
	}
	for _, c := range cases {
		n := gen.MustGenerate(c.Params)
		for _, m := range []Method{MethodSA, MethodPrev, MethodEPlaceA} {
			tr := obs.New()
			res, err := Place(n, m, Options{
				Seed: 1, Threads: 1, Portfolio: 1, Chains: 1, Tracer: tr,
				SA:     &anneal.Options{Seed: 1, Moves: 30000},
				Refine: &refine.Options{},
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", c.Name, m, err)
			}
			cnt := tr.Summary().Counters
			if res.RefineWindows == 0 {
				t.Errorf("%s/%v: no refinement windows solved", c.Name, m)
			}
			if f := cnt["refine.solver_failures"]; f != 0 {
				t.Errorf("%s/%v: %v refine windows failed to solve", c.Name, m, f)
			}
		}
	}
}
