// Package lp implements a bounded-variable simplex solver for linear
// programs in the form
//
//	minimize    cᵀx
//	subject to  aᵢᵀx {≤,=,≥} bᵢ
//	            lⱼ ≤ xⱼ ≤ uⱼ
//
// where every variable carries native bounds (default [0, +Inf); either
// side may be infinite). It is the optimization substrate for the detailed
// placers: the paper's ILP-based legalization/detailed placement of
// ePlace-A (via package ilp) and the two-stage LP detailed placement of the
// previous analytical work.
//
// Each row i gets an implicit logical variable rᵢ = aᵢᵀx whose bounds carry
// the sense and right-hand side, so the working tableau is the condensed
// rows × structural-columns form: one row per basic variable, one column
// per nonbasic variable, and a pivot exchanges a row label with a column
// label. A cold solve starts from the all-logical basis: the dual simplex
// when that basis is dual feasible, otherwise a composite primal simplex
// (phase 1 minimizes the sum of bound violations, phase 2 the objective).
// Resolve restarts from an earlier optimal basis of the same rows after
// bounds change; a tightened bound keeps the basis dual feasible, so the
// dual simplex restores feasibility in a few pivots. That is what makes
// branch-and-bound nodes cheap. Dantzig pricing, a Harris ratio test and a
// Bland fallback keep degenerate models (placement LPs are highly
// degenerate) finite.
package lp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// Sense is a constraint relation.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // aᵀx ≤ b
	GE              // aᵀx ≥ b
	EQ              // aᵀx = b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var   int
	Coeff float64
}

type row struct {
	terms []Term
	sense Sense
	rhs   float64
}

// Problem is a linear program under construction.
type Problem struct {
	numVars int
	obj     []float64
	lo, hi  []float64
	rows    []row
}

// NewProblem creates a problem with n variables bounded to [0, +Inf) and a
// zero objective.
func NewProblem(n int) *Problem {
	p := &Problem{numVars: n, obj: make([]float64, n), lo: make([]float64, n), hi: make([]float64, n)}
	for j := range p.hi {
		p.hi[j] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.numVars }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// SetObj sets the objective coefficient of variable j.
func (p *Problem) SetObj(j int, c float64) {
	p.obj[j] = c
}

// AddObj adds c to the objective coefficient of variable j.
func (p *Problem) AddObj(j int, c float64) {
	p.obj[j] += c
}

// SetBounds sets lo ≤ x_j ≤ hi. Either side may be infinite; lo > hi
// makes the problem infeasible.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	p.lo[j], p.hi[j] = lo, hi
}

// Bounds returns the bounds of variable j.
func (p *Problem) Bounds(j int) (lo, hi float64) {
	return p.lo[j], p.hi[j]
}

// AddConstraint appends the constraint Σ terms {sense} rhs. Terms may
// repeat a variable; coefficients accumulate.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.numVars {
			panic(fmt.Sprintf("lp: constraint references variable %d of %d", t.Var, p.numVars))
		}
	}
	p.rows = append(p.rows, row{terms: append([]Term(nil), terms...), sense: sense, rhs: rhs})
}

// Clone returns an independent copy of the problem: objective and bounds
// are copied, and the immutable rows are shared (rows added to either copy
// afterwards stay private to it). A clone with changed bounds has the same
// rows, so it can be re-optimized from the original's basis by Resolve.
func (p *Problem) Clone() *Problem {
	return &Problem{
		numVars: p.numVars,
		obj:     append([]float64(nil), p.obj...),
		lo:      append([]float64(nil), p.lo...),
		hi:      append([]float64(nil), p.hi...),
		rows:    p.rows[:len(p.rows):len(p.rows)],
	}
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	default:
		return "unbounded"
	}
}

// Solution holds the result of a solve.
type Solution struct {
	Status Status
	X      []float64 // structural variable values (valid when Optimal)
	Obj    float64   // objective value (valid when Optimal)
	Pivots int       // simplex iterations: basis exchanges and bound flips

	basis *tableau // final optimal state, the warm start for Resolve
}

// Errors returned by Solve.
var (
	ErrIterLimit = errors.New("lp: simplex iteration limit exceeded")
)

// observe, when non-nil, sees every model handed to the solver together
// with its result; the package's tests set it to replay the models callers
// build against a reference solver.
var observe func(p *Problem, warm bool, sol *Solution, err error)

// Solve optimizes the problem from scratch. A non-nil error indicates a
// solver failure (iteration limit); infeasible and unbounded models are
// reported through Solution.Status with a nil error.
func Solve(p *Problem) (*Solution, error) {
	return Resolve(p, nil, nil, "")
}

// SolveTraced is Solve with telemetry: when tr is non-nil it emits one
// "lp" event (problem size, simplex pivots, objective, status) labeled
// with the caller-assigned purpose, and bumps the lp.solves/lp.pivots
// counters. A nil tracer makes it identical to Solve.
func SolveTraced(p *Problem, tr *obs.Tracer, label string) (*Solution, error) {
	return Resolve(p, nil, tr, label)
}

// Resolve optimizes p starting from the final basis of from, an optimal
// solution of a problem with the same rows and columns (p may differ in
// bounds and objective, e.g. a Clone with tightened bounds). A nil from,
// or one that is not optimal, solves from scratch. Telemetry is as in
// SolveTraced.
func Resolve(p *Problem, from *Solution, tr *obs.Tracer, label string) (*Solution, error) {
	var t *tableau
	warm := from != nil && from.basis != nil
	if warm {
		if from.basis.n != p.numVars || from.basis.m != len(p.rows) {
			panic(fmt.Sprintf("lp: Resolve from a %d×%d basis on a %d×%d problem",
				from.basis.m, from.basis.n, len(p.rows), p.numVars))
		}
		t = from.basis.clone()
	} else {
		t = newTableau(p)
	}
	sol, err := t.solve(p)
	if observe != nil {
		observe(p, warm, sol, err)
	}
	if tr.Enabled() && sol != nil {
		tr.LPEvent(obs.LPRecord{
			Solver: "lp", Label: label,
			Rows: len(p.rows), Cols: p.numVars,
			Pivots: sol.Pivots, Obj: sol.Obj, Status: sol.Status.String(),
		})
		tr.Count("lp.solves", 1)
		tr.Count("lp.pivots", float64(sol.Pivots))
	}
	return sol, err
}

// Solver tolerances. Primal feasibility is relative to the bound's size
// (placement coordinates span hundreds to thousands of grid units).
const (
	primalTol = 1e-9 // bound violation, scaled by 1+|bound|
	dualTol   = 1e-9 // reduced-cost sign
	pivotTol  = 1e-9 // smallest usable pivot element
)

// Nonbasic variable positions; basic variables are marked basic.
const (
	basic int8 = iota
	atLo
	atHi
	atZero // free nonbasic variable, held at 0
)

// tableau is the working state of the bounded simplex. Variables 0..n-1
// are structural, n+i is the logical of row i (its value is aᵢᵀx).
type tableau struct {
	m, n int
	a    []float64 // m×n: basic head[i] = Σ_k a[i*n+k] · nonbasic col[k]
	d    []float64 // reduced cost of each nonbasic column
	head []int     // variable basic in each row
	col  []int     // variable nonbasic in each column
	stat []int8    // per variable: basic, atLo, atHi or atZero
	x    []float64 // value per variable
	lo   []float64 // bounds per variable
	hi   []float64
	cost []float64 // objective per variable (logicals 0)

	iters int   // simplex iterations of the current solve
	nz    []int // pivot-row nonzero scratch
}

// newTableau builds the all-logical starting basis for p: each logical
// row reads off its constraint's coefficients, every structural variable
// is nonbasic.
func newTableau(p *Problem) *tableau {
	m, n := len(p.rows), p.numVars
	t := &tableau{
		m: m, n: n,
		a:    make([]float64, m*n),
		d:    make([]float64, n),
		head: make([]int, m),
		col:  make([]int, n),
		stat: make([]int8, n+m),
		x:    make([]float64, n+m),
		lo:   make([]float64, n+m),
		hi:   make([]float64, n+m),
		cost: make([]float64, n+m),
	}
	for i, r := range p.rows {
		ai := t.a[i*n : (i+1)*n]
		for _, term := range r.terms {
			ai[term.Var] += term.Coeff
		}
		t.head[i] = n + i
	}
	for k := range t.col {
		t.col[k] = k
		t.stat[k] = atLo // placed properly by load
	}
	for i := 0; i < m; i++ {
		t.stat[n+i] = basic
	}
	return t
}

// clone deep-copies the state, so a Resolve never disturbs the solution it
// started from (branch and bound re-solves both children from one parent).
func (t *tableau) clone() *tableau {
	c := *t
	c.a = append([]float64(nil), t.a...)
	c.d = append([]float64(nil), t.d...)
	c.head = append([]int(nil), t.head...)
	c.col = append([]int(nil), t.col...)
	c.stat = append([]int8(nil), t.stat...)
	c.x = append([]float64(nil), t.x...)
	c.lo = append([]float64(nil), t.lo...)
	c.hi = append([]float64(nil), t.hi...)
	c.cost = append([]float64(nil), t.cost...)
	c.iters = 0
	c.nz = nil
	return &c
}

// rowBounds returns the bounds of row r's logical variable.
func rowBounds(r row) (lo, hi float64) {
	switch r.sense {
	case LE:
		return math.Inf(-1), r.rhs
	case GE:
		return r.rhs, math.Inf(1)
	default:
		return r.rhs, r.rhs
	}
}

// load installs p's bounds and objective, moves every nonbasic variable
// onto a finite bound of its new range, and brings the basic values and
// reduced costs up to date. It reports false when some variable's bounds
// cross, which makes the problem infeasible.
func (t *tableau) load(p *Problem) bool {
	n := t.n
	costChanged := false
	for v := 0; v < n+t.m; v++ {
		var lo, hi, c float64
		if v < n {
			lo, hi, c = p.lo[v], p.hi[v], p.obj[v]
		} else {
			lo, hi = rowBounds(p.rows[v-n])
		}
		if lo > hi {
			if lo-hi > primalTol*(1+math.Abs(lo)) {
				return false
			}
			hi = lo // rounding-level crossing: fixed
		}
		t.lo[v], t.hi[v] = lo, hi
		if t.cost[v] != c {
			t.cost[v] = c
			costChanged = true
		}
	}
	for k, v := range t.col {
		old := t.x[v]
		t.place(v)
		if delta := t.x[v] - old; delta != 0 {
			for i := 0; i < t.m; i++ {
				if f := t.a[i*n+k]; f != 0 {
					t.x[t.head[i]] += f * delta
				}
			}
		}
	}
	if costChanged {
		t.refreshCosts()
	}
	return true
}

// place moves nonbasic variable v onto a finite bound, keeping its current
// side when that bound is still finite.
func (t *tableau) place(v int) {
	lo, hi := t.lo[v], t.hi[v]
	switch {
	case t.stat[v] == atHi && !math.IsInf(hi, 1):
		t.x[v] = hi
	case !math.IsInf(lo, -1):
		t.stat[v], t.x[v] = atLo, lo
	case !math.IsInf(hi, 1):
		t.stat[v], t.x[v] = atHi, hi
	default:
		t.stat[v], t.x[v] = atZero, 0
	}
}

// refreshValues recomputes every basic value from the nonbasic ones,
// discarding drift from incremental updates.
func (t *tableau) refreshValues() {
	n := t.n
	t.nz = t.nz[:0]
	for k, v := range t.col {
		if t.x[v] != 0 {
			t.nz = append(t.nz, k)
		}
	}
	for i := 0; i < t.m; i++ {
		ai := t.a[i*n : (i+1)*n]
		var s float64
		for _, k := range t.nz {
			s += ai[k] * t.x[t.col[k]]
		}
		t.x[t.head[i]] = s
	}
}

// refreshCosts recomputes the reduced costs d_k = c_col[k] + Σ_i c_head[i]·a[i][k].
func (t *tableau) refreshCosts() {
	n := t.n
	for k, v := range t.col {
		t.d[k] = t.cost[v]
	}
	for i := 0; i < t.m; i++ {
		c := t.cost[t.head[i]]
		if c == 0 {
			continue
		}
		ai := t.a[i*n : (i+1)*n]
		for k, f := range ai {
			if f != 0 {
				t.d[k] += c * f
			}
		}
	}
}

// violation returns how far basic variable v lies outside its bounds:
// positive below lo, negative above hi, zero within tolerance.
func (t *tableau) violation(v int) float64 {
	x := t.x[v]
	if lo := t.lo[v]; x < lo-primalTol*(1+math.Abs(lo)) {
		return lo - x
	}
	if hi := t.hi[v]; x > hi+primalTol*(1+math.Abs(hi)) {
		return hi - x
	}
	return 0
}

func (t *tableau) primalFeasible() bool {
	for _, v := range t.head {
		if t.violation(v) != 0 {
			return false
		}
	}
	return true
}

// dualFeasible reports whether every nonbasic reduced cost has the sign
// its bound position needs for optimality.
func (t *tableau) dualFeasible() bool {
	for k, v := range t.col {
		if t.lo[v] == t.hi[v] {
			continue
		}
		switch t.stat[v] {
		case atLo:
			if t.d[k] < -dualTol {
				return false
			}
		case atHi:
			if t.d[k] > dualTol {
				return false
			}
		default:
			if math.Abs(t.d[k]) > dualTol {
				return false
			}
		}
	}
	return true
}

// solve runs the simplex phases to optimality on the loaded problem.
func (t *tableau) solve(p *Problem) (*Solution, error) {
	if !t.load(p) {
		return &Solution{Status: Infeasible}, nil
	}
	maxIter := 100*(t.m+t.n) + 1000
	// A final refresh discards incremental drift; if that exposes a
	// violation the phases run again (in practice at most once).
	for round := 0; round < 4; round++ {
		var st Status
		var err error
		if !t.primalFeasible() {
			if t.dualFeasible() {
				st, err = t.dual(maxIter)
			} else {
				st, err = t.primal(true, maxIter)
			}
			if err != nil || st != Optimal {
				return &Solution{Status: st, Pivots: t.iters}, err
			}
		}
		st, err = t.primal(false, maxIter)
		if err != nil || st != Optimal {
			return &Solution{Status: st, Pivots: t.iters}, err
		}
		t.refreshValues()
		if t.primalFeasible() {
			break
		}
	}
	x := append([]float64(nil), t.x[:t.n]...)
	var obj float64
	for j, c := range p.obj {
		obj += c * x[j]
	}
	t.nz = nil
	return &Solution{Status: Optimal, X: x, Obj: obj, Pivots: t.iters, basis: t}, nil
}

// primal runs the bounded primal simplex. In phase 1 the objective is the
// sum of basic bound violations (nonbasic variables always sit on a
// bound), and it returns Optimal once that sum is zero or Infeasible when
// it cannot be reduced; in phase 2 it minimizes the problem's objective
// from a feasible basis.
func (t *tableau) primal(phase1 bool, maxIter int) (Status, error) {
	n := t.n
	dj := t.d
	if phase1 {
		dj = make([]float64, n)
	}
	for iter := 0; ; iter++ {
		if t.iters >= maxIter {
			return Optimal, ErrIterLimit
		}
		bland := iter > maxIter/2
		if phase1 {
			// Phase-1 reduced costs: each violated row contributes its
			// tableau row, signed by the bound it violates.
			clear(dj)
			infeasible := false
			for i, v := range t.head {
				g := 0.0
				if viol := t.violation(v); viol > 0 {
					g = -1
				} else if viol < 0 {
					g = 1
				} else {
					continue
				}
				infeasible = true
				for k, f := range t.a[i*n : (i+1)*n] {
					if f != 0 {
						dj[k] += g * f
					}
				}
			}
			if !infeasible {
				return Optimal, nil
			}
		}

		// Pricing: the nonbasic column whose move lowers the objective
		// fastest (Dantzig), or the lowest-index improving one (Bland).
		s, best := -1, dualTol
		for k, v := range t.col {
			if t.lo[v] == t.hi[v] {
				continue
			}
			var gain float64
			switch t.stat[v] {
			case atLo:
				gain = -dj[k]
			case atHi:
				gain = dj[k]
			default:
				gain = math.Abs(dj[k])
			}
			if gain <= dualTol {
				continue
			}
			if bland {
				if s < 0 || v < t.col[s] {
					s = k
				}
			} else if gain > best {
				s, best = k, gain
			}
		}
		if s < 0 {
			if phase1 {
				return Infeasible, nil
			}
			return Optimal, nil
		}
		dir := 1.0
		if dj[s] > 0 {
			dir = -1
		}

		// Harris ratio test: pass 1 finds the largest step that keeps every
		// basic variable within its tolerance-relaxed bounds, pass 2 picks
		// the largest pivot among the rows that block within it.
		thetaMax := math.Inf(1)
		for i, v := range t.head {
			alpha := t.a[i*n+s] * dir
			if math.Abs(alpha) <= pivotTol {
				continue
			}
			if lim, ok := t.primalLimit(v, alpha, phase1, true); ok && lim < thetaMax {
				thetaMax = lim
			}
		}
		r, rAlpha := -1, 0.0
		for i, v := range t.head {
			alpha := t.a[i*n+s] * dir
			if math.Abs(alpha) <= pivotTol {
				continue
			}
			lim, ok := t.primalLimit(v, alpha, phase1, false)
			if !ok || lim > thetaMax {
				continue
			}
			if bland {
				if r < 0 || v < t.head[r] {
					r, rAlpha = i, alpha
				}
			} else if math.Abs(alpha) > math.Abs(rAlpha) {
				r, rAlpha = i, alpha
			}
		}
		ve := t.col[s]
		flip := t.hi[ve] - t.lo[ve] // finite only when both bounds are
		theta := math.Inf(1)
		if r >= 0 {
			theta, _ = t.primalLimit(t.head[r], rAlpha, phase1, false)
			theta = math.Max(theta, 0)
		}
		if r < 0 && math.IsInf(flip, 1) {
			if phase1 {
				// Cannot happen: a column that lowers the violation sum
				// moves some violated variable toward its bound.
				return Infeasible, nil
			}
			return Unbounded, nil
		}
		if flip <= theta {
			// The entering variable reaches its other bound first.
			t.step(s, dir*flip)
			if t.stat[ve] == atLo {
				t.stat[ve], t.x[ve] = atHi, t.hi[ve]
			} else {
				t.stat[ve], t.x[ve] = atLo, t.lo[ve]
			}
			t.iters++
			continue
		}
		// The leaving variable lands exactly on the bound it reached: the
		// one it moves toward, or in phase 1 the one it violated.
		lv := t.head[r]
		toHi := rAlpha > 0
		if phase1 {
			if viol := t.violation(lv); viol != 0 {
				toHi = viol < 0
			}
		}
		t.step(s, dir*theta)
		if toHi {
			t.x[lv], t.stat[lv] = t.hi[lv], atHi
		} else {
			t.x[lv], t.stat[lv] = t.lo[lv], atLo
		}
		t.pivot(r, s)
	}
}

// primalLimit returns the step at which basic variable v, moving at rate
// alpha per unit step, reaches the bound that blocks it (ok false when
// none does). In phase 1 a violated variable is blocked only by the bound
// it violates, which it reaches on its way to feasibility. relax widens
// each bound by the feasibility tolerance (Harris pass 1).
func (t *tableau) primalLimit(v int, alpha float64, phase1, relax bool) (float64, bool) {
	x, lo, hi := t.x[v], t.lo[v], t.hi[v]
	tol := func(b float64) float64 {
		if relax {
			return primalTol * (1 + math.Abs(b))
		}
		return 0
	}
	if phase1 {
		if viol := t.violation(v); viol > 0 {
			if alpha > 0 {
				return (lo - x + tol(lo)) / alpha, true
			}
			return 0, false
		} else if viol < 0 {
			if alpha < 0 {
				return (x - hi + tol(hi)) / -alpha, true
			}
			return 0, false
		}
	}
	if alpha > 0 {
		if math.IsInf(hi, 1) {
			return 0, false
		}
		return (hi - x + tol(hi)) / alpha, true
	}
	if math.IsInf(lo, -1) {
		return 0, false
	}
	return (x - lo + tol(lo)) / -alpha, true
}

// dual runs the bounded dual simplex from a dual-feasible basis until it
// is primal feasible (Optimal) or some row proves infeasibility.
func (t *tableau) dual(maxIter int) (Status, error) {
	n := t.n
	for iter := 0; ; iter++ {
		if t.iters >= maxIter {
			return Optimal, ErrIterLimit
		}
		bland := iter > maxIter/2
		// Leaving row: the largest bound violation (Bland: lowest index).
		r, worst := -1, 0.0
		for i, v := range t.head {
			viol := math.Abs(t.violation(v))
			if viol == 0 {
				continue
			}
			if bland {
				if r < 0 || v < t.head[r] {
					r = i
				}
			} else if viol > worst {
				r, worst = i, viol
			}
		}
		if r < 0 {
			return Optimal, nil
		}
		lv := t.head[r]
		sigma, target := 1.0, t.lo[lv]
		if t.violation(lv) < 0 {
			sigma, target = -1, t.hi[lv]
		}

		// Entering column: Harris two-pass dual ratio test over the
		// columns that can move the leaving variable toward its bound.
		ar := t.a[r*n : (r+1)*n]
		slack := func(k int) (float64, float64, bool) {
			v := t.col[k]
			if t.lo[v] == t.hi[v] {
				return 0, 0, false
			}
			alpha := sigma * ar[k]
			switch t.stat[v] {
			case atLo:
				if alpha > pivotTol {
					return math.Max(t.d[k], 0), alpha, true
				}
			case atHi:
				if alpha < -pivotTol {
					return math.Max(-t.d[k], 0), -alpha, true
				}
			default:
				if math.Abs(alpha) > pivotTol {
					return math.Abs(t.d[k]), math.Abs(alpha), true
				}
			}
			return 0, 0, false
		}
		thetaMax := math.Inf(1)
		for k := range ar {
			if dk, alpha, ok := slack(k); ok {
				thetaMax = math.Min(thetaMax, (dk+dualTol)/alpha)
			}
		}
		s, sAlpha := -1, 0.0
		for k := range ar {
			dk, alpha, ok := slack(k)
			if !ok || dk/alpha > thetaMax {
				continue
			}
			if bland {
				if s < 0 || t.col[k] < t.col[s] {
					s, sAlpha = k, alpha
				}
			} else if alpha > sAlpha {
				s, sAlpha = k, alpha
			}
		}
		if s < 0 {
			return Infeasible, nil
		}
		t.step(s, (target-t.x[lv])/ar[s])
		t.x[lv] = target
		if target == t.lo[lv] {
			t.stat[lv] = atLo
		} else {
			t.stat[lv] = atHi
		}
		t.pivot(r, s)
	}
}

// step moves nonbasic column s by delta and updates the basic values.
func (t *tableau) step(s int, delta float64) {
	if delta == 0 {
		return
	}
	n := t.n
	t.x[t.col[s]] += delta
	for i, v := range t.head {
		if f := t.a[i*n+s]; f != 0 {
			t.x[v] += f * delta
		}
	}
}

// pivot exchanges the basic variable of row r with the nonbasic variable
// of column s: the row is solved for the entering variable and substituted
// into every other row and the reduced costs. The caller has already set
// the leaving variable's nonbasic position.
func (t *tableau) pivot(r, s int) {
	n := t.n
	pr := t.a[r*n : (r+1)*n]
	inv := 1 / pr[s]
	nz := t.nz[:0]
	for k, f := range pr {
		if f != 0 && k != s {
			pr[k] = -f * inv
			nz = append(nz, k)
		}
	}
	pr[s] = inv
	t.nz = nz
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		ai := t.a[i*n : (i+1)*n]
		f := ai[s]
		if f == 0 {
			continue
		}
		for _, k := range nz {
			ai[k] += f * pr[k]
		}
		ai[s] = f * inv
	}
	if f := t.d[s]; f != 0 {
		for _, k := range nz {
			t.d[k] += f * pr[k]
		}
		t.d[s] = f * inv
	}
	entering := t.col[s]
	t.col[s] = t.head[r]
	t.head[r] = entering
	t.stat[entering] = basic
	t.iters++
}
