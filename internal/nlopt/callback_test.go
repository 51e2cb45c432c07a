package nlopt

import (
	"testing"

	"repro/internal/obs"
)

// illQuadratic is an ill-conditioned quadratic that takes many iterations to
// converge, so a mid-run callback stop is observably earlier than natural
// termination.
func illQuadratic(n int) Objective {
	lambda := make([]float64, n)
	c := make([]float64, n)
	for i := range lambda {
		lambda[i] = float64(1 + i*i*20)
		c[i] = float64(i%3) - 1
	}
	return quadratic(lambda, c)
}

// TestNesterovCallbackStops checks the callback-stop contract: returning
// false at iteration k halts the solver immediately and the reported
// iteration count is exactly k+1 (iterations actually run).
func TestNesterovCallbackStops(t *testing.T) {
	const stopAt = 5
	obj := illQuadratic(8)

	// Baseline: unconstrained run must go well past stopAt, otherwise the
	// stopped run proves nothing.
	xFree := make([]float64, 8)
	_, freeIters := Nesterov(obj, xFree, NesterovOptions{MaxIter: 400, GradTol: 1e-10, InitStep: 1e-3})
	if freeIters <= stopAt+1 {
		t.Fatalf("baseline converged in %d iters; need > %d for the stop test to be meaningful", freeIters, stopAt+1)
	}

	var calls []int
	sink := &obs.MemorySink{}
	tr := obs.New(sink)
	x := make([]float64, 8)
	_, iters := Nesterov(obj, x, NesterovOptions{
		MaxIter: 400, GradTol: 1e-10, InitStep: 1e-3,
		Tracer: tr,
		Callback: func(iter int, x []float64, f float64) bool {
			calls = append(calls, iter)
			return iter < stopAt
		},
	})
	if iters != stopAt+1 {
		t.Errorf("Nesterov ran %d iterations, want exactly %d", iters, stopAt+1)
	}
	if len(calls) != stopAt+1 {
		t.Errorf("callback invoked %d times, want %d", len(calls), stopAt+1)
	}
	for i, c := range calls {
		if c != i {
			t.Fatalf("callback saw iteration %d at position %d", c, i)
		}
	}
	// The tracer's per-iteration events must agree with the reported count.
	if ev := sink.ByKind(obs.KindIter); len(ev) != iters {
		t.Errorf("tracer recorded %d iter events, want %d", len(ev), iters)
	} else if last := ev[len(ev)-1].Iter; last.Solver != "nesterov" || last.Iter != stopAt {
		t.Errorf("last iter event = %s/%d, want nesterov/%d", last.Solver, last.Iter, stopAt)
	}
}

// TestCGCallbackStops is the same contract for the conjugate-gradient solver.
func TestCGCallbackStops(t *testing.T) {
	const stopAt = 4
	obj := illQuadratic(10)

	xFree := make([]float64, 10)
	_, freeIters := cg(obj, xFree, CGOptions{MaxIter: 400, GradTol: 1e-10})
	if freeIters <= stopAt+1 {
		t.Fatalf("baseline converged in %d iters; need > %d for the stop test to be meaningful", freeIters, stopAt+1)
	}

	var calls []int
	sink := &obs.MemorySink{}
	tr := obs.New(sink)
	x := make([]float64, 10)
	_, iters := cg(obj, x, CGOptions{
		MaxIter: 400, GradTol: 1e-10,
		Tracer: tr,
		Callback: func(iter int, x []float64, f float64) bool {
			calls = append(calls, iter)
			return iter < stopAt
		},
	})
	if iters != stopAt+1 {
		t.Errorf("CG ran %d iterations, want exactly %d", iters, stopAt+1)
	}
	if len(calls) != stopAt+1 {
		t.Errorf("callback invoked %d times, want %d", len(calls), stopAt+1)
	}
	for i, c := range calls {
		if c != i {
			t.Fatalf("callback saw iteration %d at position %d", c, i)
		}
	}
	if ev := sink.ByKind(obs.KindIter); len(ev) != iters {
		t.Errorf("tracer recorded %d iter events, want %d", len(ev), iters)
	} else if last := ev[len(ev)-1].Iter; last.Solver != "cg" || last.Iter != stopAt {
		t.Errorf("last iter event = %s/%d, want cg/%d", last.Solver, last.Iter, stopAt)
	}
}
