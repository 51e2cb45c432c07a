package nlopt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// refCG is CG in its combined-objective form, which computed the gradient
// at every line-search trial, rejected ones included. Kept only as the
// bit-identity reference for CG.
func refCG(obj Objective, x []float64, opt CGOptions) (float64, int) {
	opt.defaults()
	n := len(x)
	g := make([]float64, n)
	gNew := make([]float64, n)
	d := make([]float64, n)
	trial := make([]float64, n)

	f := obj(x, g)
	for i := 0; i < n; i++ {
		d[i] = -g[i]
	}
	step := opt.InitStep
	var iter int
	for iter = 0; iter < opt.MaxIter; iter++ {
		gn := Norm2(g)
		if gn < opt.GradTol {
			break
		}
		slope := Dot(g, d)
		if slope >= 0 {
			for i := 0; i < n; i++ {
				d[i] = -g[i]
			}
			slope = Dot(g, d)
			if slope >= 0 {
				break
			}
		}
		alpha := step
		const c1 = 1e-4
		var fNew float64
		accepted := false
		for ls := 0; ls < 40; ls++ {
			for i := 0; i < n; i++ {
				trial[i] = x[i] + alpha*d[i]
			}
			fNew = obj(trial, gNew)
			if fNew <= f+c1*alpha*slope {
				accepted = true
				break
			}
			alpha *= 0.5
		}
		if !accepted {
			break
		}
		copy(x, trial)
		var num, den float64
		for i := 0; i < n; i++ {
			num += gNew[i] * (gNew[i] - g[i])
			den += g[i] * g[i]
		}
		beta := 0.0
		if den > 0 {
			beta = math.Max(0, num/den)
		}
		for i := 0; i < n; i++ {
			d[i] = -gNew[i] + beta*d[i]
		}
		copy(g, gNew)
		f = fNew
		step = alpha * 2
		if opt.Tracer != nil {
			opt.Tracer.IterEvent(obs.IterRecord{
				Solver: "cg", Iter: iter, F: fNew, Grad: gn, Step: alpha,
			})
		}
		if opt.Callback != nil && !opt.Callback(iter, x, f) {
			iter++
			break
		}
	}
	return f, iter
}

// TestCGMatchesCombinedReference pins CG to refCG bit for bit on every
// test objective from several starts: final x and f, the iteration count
// and every traced cg event must be exactly equal, and CG must ask for the
// gradient once at the start and once per accepted step, never at a
// rejected line-search trial.
func TestCGMatchesCombinedReference(t *testing.T) {
	cases := []struct {
		name string
		obj  Objective
		x0   []float64
		opt  CGOptions
	}{
		{"quadratic", quadratic([]float64{1, 50, 200}, []float64{-1, 4, 2}), []float64{10, 10, 10}, CGOptions{MaxIter: 500, GradTol: 1e-10}},
		{"ill-quadratic", illQuadratic(10), make([]float64, 10), CGOptions{MaxIter: 400, GradTol: 1e-10}},
		{"rosenbrock", rosenbrock, []float64{-1.2, 1}, CGOptions{MaxIter: 5000, GradTol: 1e-9}},
		{"log-sum-exp", logSumExp([]float64{1, -2, 0.5, 3}), make([]float64, 4), CGOptions{MaxIter: 300, GradTol: 1e-9, InitStep: 4}},
	}
	rng := rand.New(rand.NewSource(23))
	for _, tc := range cases {
		starts := [][]float64{tc.x0}
		for s := 0; s < 3; s++ {
			x := make([]float64, len(tc.x0))
			for i := range x {
				x[i] = rng.NormFloat64() * 3
			}
			starts = append(starts, x)
		}
		for s, x0 := range starts {
			refSink, sink := &obs.MemorySink{}, &obs.MemorySink{}
			xRef := append([]float64(nil), x0...)
			refOpt := tc.opt
			refOpt.Tracer = obs.New(refSink)
			fRef, itRef := refCG(tc.obj, xRef, refOpt)

			value, grad, calls := split(tc.obj, len(x0))
			x := append([]float64(nil), x0...)
			opt := tc.opt
			opt.Tracer = obs.New(sink)
			f, it := CG(value, grad, x, opt)

			if math.Float64bits(f) != math.Float64bits(fRef) || it != itRef {
				t.Fatalf("%s start %d: f = %v after %d iterations, reference %v after %d", tc.name, s, f, it, fRef, itRef)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(xRef[i]) {
					t.Fatalf("%s start %d: x[%d] = %v, reference %v", tc.name, s, i, x[i], xRef[i])
				}
			}
			ev, refEv := sink.ByKind(obs.KindIter), refSink.ByKind(obs.KindIter)
			if len(ev) != len(refEv) {
				t.Fatalf("%s start %d: %d cg events, reference %d", tc.name, s, len(ev), len(refEv))
			}
			for k := range ev {
				a, b := *ev[k].Iter, *refEv[k].Iter
				if a.Solver != b.Solver || a.Iter != b.Iter ||
					math.Float64bits(a.F) != math.Float64bits(b.F) ||
					math.Float64bits(a.Grad) != math.Float64bits(b.Grad) ||
					math.Float64bits(a.Step) != math.Float64bits(b.Step) {
					t.Fatalf("%s start %d: event %d = %+v, reference %+v", tc.name, s, k, a, b)
				}
			}
			if calls.grad != len(ev)+1 {
				t.Errorf("%s start %d: %d grad calls for %d accepted steps, want %d",
					tc.name, s, calls.grad, len(ev), len(ev)+1)
			}
			if calls.value <= calls.grad {
				t.Errorf("%s start %d: %d value and %d grad calls; with no rejected trial the run tests nothing",
					tc.name, s, calls.value, calls.grad)
			}
		}
	}
}
