// Package nlopt provides the nonlinear optimizers used across the
// repository: Nesterov's accelerated gradient method with Lipschitz-based
// step prediction (the ePlace solver), Polak–Ribière conjugate gradient
// with Armijo backtracking (the NTUplace3-lineage solver used by the
// previous analytical work), and Adam (GNN training).
package nlopt

import (
	"math"

	"repro/internal/obs"
)

// Objective evaluates f(x), writes ∇f(x) into grad (same length as x), and
// returns f(x).
type Objective func(x, grad []float64) float64

// Callback observes optimizer progress after each iteration and may mutate
// external objective state (e.g. penalty multipliers). Returning false
// stops the optimization.
type Callback func(iter int, x []float64, f float64) bool

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Norm1 returns the L1 norm of v.
func Norm1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Dot returns the dot product of a and b.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// NesterovOptions configures the Nesterov solver.
type NesterovOptions struct {
	MaxIter  int     // iteration cap (default 1000)
	InitStep float64 // initial step length (default 1)
	MinStep  float64 // lower clamp on the predicted step (default 1e-8)
	MaxStep  float64 // upper clamp on the predicted step (default 1e4)
	GradTol  float64 // stop when ||∇f||₂ < GradTol (default 0: disabled)
	Callback Callback
	// Tracer, when non-nil, receives one obs iteration event per accepted
	// iteration (solver "nesterov": objective, pre-step gradient norm,
	// accepted step length).
	Tracer *obs.Tracer
}

func (o *NesterovOptions) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 1000
	}
	if o.InitStep == 0 {
		o.InitStep = 1
	}
	if o.MinStep == 0 {
		o.MinStep = 1e-8
	}
	if o.MaxStep == 0 {
		o.MaxStep = 1e4
	}
}

// Nesterov minimizes obj starting from x (updated in place) using
// Nesterov's accelerated gradient method with the inverse-Lipschitz step
// prediction and backtracking of ePlace: a trial step α is accepted only
// when the Lipschitz estimate at the trial point,
// α̂ = ‖v' − v‖ / ‖∇f(v') − ∇f(v)‖, confirms it (α̂ ≥ 0.95·α); otherwise α
// shrinks to α̂ and the step is retried. It returns the final objective
// value and the number of iterations run.
func Nesterov(obj Objective, x []float64, opt NesterovOptions) (float64, int) {
	opt.defaults()
	n := len(x)
	u := append([]float64(nil), x...) // major solution u_k
	v := append([]float64(nil), x...) // reference solution v_k
	uNew := make([]float64, n)
	vNew := make([]float64, n)
	g := make([]float64, n)
	gNew := make([]float64, n)

	f := obj(v, g)
	a := 1.0
	step := opt.InitStep
	clamp := func(s float64) float64 {
		return math.Min(math.Max(s, opt.MinStep), opt.MaxStep)
	}
	var iter int
	for iter = 0; iter < opt.MaxIter; iter++ {
		gn := Norm2(g)
		if gn == 0 || (opt.GradTol > 0 && gn < opt.GradTol) {
			break
		}
		aNew := (1 + math.Sqrt(4*a*a+1)) / 2
		coef := (a - 1) / aNew
		var fNew float64
		for bt := 0; ; bt++ {
			// u_{k+1} = v_k − α∇f(v_k);  v_{k+1} = u_{k+1} + coef·(u_{k+1} − u_k)
			for i := 0; i < n; i++ {
				uNew[i] = v[i] - step*g[i]
				vNew[i] = uNew[i] + coef*(uNew[i]-u[i])
			}
			fNew = obj(vNew, gNew)
			var dv, dg float64
			for i := 0; i < n; i++ {
				d := vNew[i] - v[i]
				dv += d * d
				e := gNew[i] - g[i]
				dg += e * e
			}
			if dg == 0 {
				break // flat gradient change: accept
			}
			alphaHat := clamp(math.Sqrt(dv) / math.Sqrt(dg))
			if alphaHat >= 0.95*step || bt >= 10 || step <= opt.MinStep {
				step = alphaHat
				break
			}
			step = alphaHat
		}
		copy(u, uNew)
		copy(v, vNew)
		copy(g, gNew)
		if opt.Tracer != nil {
			opt.Tracer.IterEvent(obs.IterRecord{
				Solver: "nesterov", Iter: iter, F: fNew, Grad: gn, Step: step,
			})
		}
		// Adaptive restart (O'Donoghue–Candès): drop momentum when the
		// objective rises, which tames oscillation on ill-conditioned
		// landscapes without changing the well-behaved path.
		if fNew > f {
			a = 1
		} else {
			a = aNew
		}
		f = fNew
		if opt.Callback != nil && !opt.Callback(iter, u, f) {
			iter++
			break
		}
	}
	copy(x, u)
	// Report the objective (and leave gradients consistent) at the major
	// solution the caller receives.
	return obj(x, g), iter
}

// CGOptions configures the conjugate-gradient solver.
type CGOptions struct {
	MaxIter  int     // iteration cap (default 500)
	GradTol  float64 // stop when ||∇f||₂ < GradTol (default 1e-6)
	InitStep float64 // initial line-search step (default 1)
	Callback Callback
	// Tracer, when non-nil, receives one obs iteration event per accepted
	// iteration (solver "cg": objective, pre-step gradient norm, accepted
	// line-search step).
	Tracer *obs.Tracer
}

func (o *CGOptions) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 500
	}
	if o.GradTol == 0 {
		o.GradTol = 1e-6
	}
	if o.InitStep == 0 {
		o.InitStep = 1
	}
}

// CG minimizes f from x (updated in place) with Polak–Ribière+ conjugate
// gradient and Armijo backtracking line search. It returns the final
// objective value and iterations run.
//
// The objective comes in two parts so that a rejected line-search trial
// costs only its value: value(x) returns f(x) and keeps whatever the
// gradient needs, and grad(g) writes ∇f into g at the point of the last
// value call. CG calls grad once at the start and once per accepted step,
// right after the value call at that step.
func CG(value func(x []float64) float64, grad func(g []float64), x []float64, opt CGOptions) (float64, int) {
	opt.defaults()
	n := len(x)
	g := make([]float64, n)
	gNew := make([]float64, n)
	d := make([]float64, n)
	trial := make([]float64, n)

	f := value(x)
	grad(g)
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
		if slope >= 0 { // not a descent direction: restart with steepest descent
			for i := 0; i < n; i++ {
				d[i] = -g[i]
			}
			slope = Dot(g, d)
			if slope >= 0 {
				break
			}
		}
		// Armijo backtracking.
		alpha := step
		const c1 = 1e-4
		var fNew float64
		accepted := false
		for ls := 0; ls < 40; ls++ {
			for i := 0; i < n; i++ {
				trial[i] = x[i] + alpha*d[i]
			}
			fNew = value(trial)
			if fNew <= f+c1*alpha*slope {
				accepted = true
				break
			}
			alpha *= 0.5
		}
		if !accepted {
			break
		}
		grad(gNew)
		copy(x, trial)
		// PR+ beta.
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
		// Mildly grow the step so successful steps don't shrink forever.
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

// Adam is a stateful Adam optimizer over a flat parameter vector.
type Adam struct {
	LR      float64 // learning rate (default 1e-3)
	Beta1   float64 // first-moment decay (default 0.9)
	Beta2   float64 // second-moment decay (default 0.999)
	Epsilon float64 // numerical floor (default 1e-8)

	m, v []float64
	t    int
}

// NewAdam returns an Adam optimizer with the given learning rate and
// standard defaults for the remaining hyperparameters.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update to params given grad.
func (a *Adam) Step(params, grad []float64) {
	if len(a.m) != len(params) {
		a.m = make([]float64, len(params))
		a.v = make([]float64, len(params))
		a.t = 0
	}
	a.t++
	b1t := 1 - math.Pow(a.Beta1, float64(a.t))
	b2t := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range params {
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*grad[i]
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*grad[i]*grad[i]
		mHat := a.m[i] / b1t
		vHat := a.v[i] / b2t
		params[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
	}
}
