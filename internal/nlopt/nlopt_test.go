package nlopt

import (
	"math"
	"math/rand"
	"testing"
)

// quadratic returns an objective ½·Σ λ_i (x_i - c_i)² with known minimum c.
func quadratic(lambda, c []float64) Objective {
	return func(x, grad []float64) float64 {
		var f float64
		for i := range x {
			d := x[i] - c[i]
			f += 0.5 * lambda[i] * d * d
			grad[i] = lambda[i] * d
		}
		return f
	}
}

// rosenbrock is f(a, b) = (1 − a)² + 100·(b − a²)², minimum 0 at (1, 1).
func rosenbrock(x, grad []float64) float64 {
	a, b := x[0], x[1]
	grad[0] = -2*(1-a) - 400*a*(b-a*a)
	grad[1] = 200 * (b - a*a)
	return (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
}

// logSumExp returns the smooth non-quadratic convex objective
// f(x) = log(Σ e^{x_i}) + ½‖x − c‖².
func logSumExp(c []float64) Objective {
	return func(x, grad []float64) float64 {
		maxX := x[0]
		for _, v := range x[1:] {
			maxX = math.Max(maxX, v)
		}
		var s float64
		for _, v := range x {
			s += math.Exp(v - maxX)
		}
		f := maxX + math.Log(s)
		for i := range x {
			grad[i] = math.Exp(x[i]-maxX)/s + (x[i] - c[i])
			d := x[i] - c[i]
			f += 0.5 * d * d
		}
		return f
	}
}

// cgCalls counts the objective calls CG makes through split.
type cgCalls struct{ value, grad int }

// split adapts a combined objective of dimension n to CG's two-part form:
// value evaluates obj and keeps its gradient, and grad copies that out.
func split(obj Objective, n int) (value func([]float64) float64, grad func([]float64), calls *cgCalls) {
	calls = &cgCalls{}
	last := make([]float64, n)
	value = func(x []float64) float64 {
		calls.value++
		return obj(x, last)
	}
	grad = func(g []float64) {
		calls.grad++
		copy(g, last)
	}
	return value, grad, calls
}

// cg runs CG on a combined objective through split.
func cg(obj Objective, x []float64, opt CGOptions) (float64, int) {
	value, grad, _ := split(obj, len(x))
	return CG(value, grad, x, opt)
}

func TestNesterovQuadratic(t *testing.T) {
	lambda := []float64{1, 10, 100}
	c := []float64{3, -2, 0.5}
	x := []float64{0, 0, 0}
	f, iters := Nesterov(quadratic(lambda, c), x, NesterovOptions{MaxIter: 2000, GradTol: 1e-10, InitStep: 0.001})
	if iters == 0 {
		t.Fatal("no iterations run")
	}
	for i := range x {
		if math.Abs(x[i]-c[i]) > 1e-4 {
			t.Errorf("x[%d] = %g, want %g (f=%g after %d iters)", i, x[i], c[i], f, iters)
		}
	}
}

// TestNesterovLogSumExp checks convergence on a smooth non-quadratic convex
// function: f(x) = log(Σ e^{x_i}) + ½‖x − c‖².
func TestNesterovLogSumExp(t *testing.T) {
	obj := logSumExp([]float64{1, -2, 0.5, 3})
	x := make([]float64, 4)
	_, _ = Nesterov(obj, x, NesterovOptions{MaxIter: 5000, InitStep: 0.01, GradTol: 1e-9})
	// Verify stationarity at the solution.
	g := make([]float64, 4)
	obj(x, g)
	if n := Norm2(g); n > 1e-4 {
		t.Errorf("gradient norm at solution = %g, want ~0 (x=%v)", n, x)
	}
}

func TestNesterovZeroGradientStops(t *testing.T) {
	obj := func(x, grad []float64) float64 {
		for i := range grad {
			grad[i] = 0
		}
		return 42
	}
	x := []float64{1, 2}
	f, iters := Nesterov(obj, x, NesterovOptions{MaxIter: 100})
	if iters != 0 || f != 42 {
		t.Errorf("zero-gradient start: iters=%d f=%g", iters, f)
	}
}

func TestCGQuadratic(t *testing.T) {
	lambda := []float64{1, 50, 200}
	c := []float64{-1, 4, 2}
	x := []float64{10, 10, 10}
	f, _ := cg(quadratic(lambda, c), x, CGOptions{MaxIter: 500, GradTol: 1e-10})
	for i := range x {
		if math.Abs(x[i]-c[i]) > 1e-5 {
			t.Errorf("x[%d] = %g, want %g (f=%g)", i, x[i], c[i], f)
		}
	}
}

func TestCGRosenbrock(t *testing.T) {
	x := []float64{-1.2, 1}
	f, _ := cg(rosenbrock, x, CGOptions{MaxIter: 5000, GradTol: 1e-9})
	if f > 1e-6 {
		t.Errorf("Rosenbrock f = %g at %v", f, x)
	}
}

func TestCGMonotoneDecrease(t *testing.T) {
	// Armijo acceptance implies the recorded objective never increases.
	rng := rand.New(rand.NewSource(1))
	n := 20
	lambda := make([]float64, n)
	c := make([]float64, n)
	x := make([]float64, n)
	for i := range lambda {
		lambda[i] = 0.5 + rng.Float64()*20
		c[i] = rng.NormFloat64() * 3
		x[i] = rng.NormFloat64() * 3
	}
	prev := math.Inf(1)
	cg(quadratic(lambda, c), x, CGOptions{
		MaxIter: 200,
		Callback: func(iter int, x []float64, f float64) bool {
			if f > prev+1e-12 {
				t.Errorf("iter %d: f increased %g -> %g", iter, prev, f)
			}
			prev = f
			return true
		},
	})
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	params := []float64{5, -3}
	grad := make([]float64, 2)
	opt := NewAdam(0.05)
	for i := 0; i < 3000; i++ {
		grad[0] = 2 * params[0]
		grad[1] = 2 * params[1]
		opt.Step(params, grad)
	}
	for i, p := range params {
		if math.Abs(p) > 1e-3 {
			t.Errorf("params[%d] = %g, want ~0", i, p)
		}
	}
}

// Reset clears the optimizer's moment estimates.
func (a *Adam) Reset() {
	a.m = nil
	a.v = nil
	a.t = 0
}

func TestAdamReset(t *testing.T) {
	opt := NewAdam(0.1)
	p := []float64{1}
	opt.Step(p, []float64{1})
	opt.Reset()
	if opt.t != 0 || opt.m != nil {
		t.Error("Reset did not clear state")
	}
	// Stepping after reset with a different size must not panic.
	p2 := []float64{1, 2}
	opt.Step(p2, []float64{1, 1})
}

func TestVectorHelpers(t *testing.T) {
	v := []float64{3, -4}
	if Norm2(v) != 5 {
		t.Errorf("Norm2 = %g", Norm2(v))
	}
	if Norm1(v) != 7 {
		t.Errorf("Norm1 = %g", Norm1(v))
	}
	if Dot(v, []float64{2, 1}) != 2 {
		t.Errorf("Dot = %g", Dot(v, []float64{2, 1}))
	}
}
