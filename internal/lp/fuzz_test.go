package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzSolve decodes small models from the fuzz input, solves each from
// scratch, then tightens or fixes some bounds and re-optimizes from the
// first optimum, checking both solves against the dense reference.
//
// Coefficients are integers in [-4, 4] and right-hand sides and bounds
// integers in [-128, 127], so every vertex is a small rational: the two
// solvers then agree on status and objective well inside the tolerances,
// and a mismatch is a solver bug rather than rounding.
func FuzzSolve(f *testing.F) {
	for _, p := range seedModels() {
		f.Add(encodeModel(p, nil))
		f.Add(encodeModel(p, []byte{1, 2, 3, 2, 1, 3}))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		b := make([]byte, 8+rng.Intn(80))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, warmOps := decodeModel(data)
		sol, err := Solve(p)
		checkAgainstReference(t, "cold", p, sol, err)
		if sol.Status != Optimal || len(warmOps) == 0 {
			return
		}
		q := p.Clone()
		for j, op := range warmOps {
			if j >= q.NumVars() {
				break
			}
			lo, hi := q.Bounds(j)
			x := sol.X[j]
			switch op % 4 {
			case 1: // branch down
				hi = math.Floor(x)
				if hi == x {
					hi = x - 1
				}
			case 2: // branch up
				lo = math.Ceil(x)
				if lo == x {
					lo = x + 1
				}
			case 3: // fix at the nearest integer
				lo = math.Round(x)
				hi = lo
			}
			q.SetBounds(j, lo, hi)
		}
		wsol, err := Resolve(q, sol, nil, "")
		checkAgainstReference(t, "warm", q, wsol, err)
	})
}

// checkAgainstReference requires sol to match the dense reference on p:
// equal status, objectives within 1e-9 relative, and X primal feasible
// within 1e-7.
func checkAgainstReference(t *testing.T, what string, p *Problem, sol *Solution, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s solve: %v", what, err)
	}
	ref, rerr := ReferenceSolve(p)
	if rerr != nil {
		t.Fatalf("%s reference solve: %v", what, rerr)
	}
	if sol.Status != ref.Status {
		t.Fatalf("%s status %v, reference %v", what, sol.Status, ref.Status)
	}
	if sol.Status != Optimal {
		return
	}
	if d := math.Abs(sol.Obj - ref.Obj); d > 1e-9*math.Max(1, math.Abs(ref.Obj)) {
		t.Fatalf("%s objective %.17g, reference %.17g", what, sol.Obj, ref.Obj)
	}
	if msg := Infeasibility(p, sol.X, 1e-7); msg != "" {
		t.Fatalf("%s solution infeasible: %s", what, msg)
	}
}

// Infeasibility describes the first bound or row x violates by more than
// tol (relative to the bound's size), or returns "".
func Infeasibility(p *Problem, x []float64, tol float64) string {
	slack := func(b float64) float64 { return tol * math.Max(1, math.Abs(b)) }
	for j, v := range x {
		if v < p.lo[j]-slack(p.lo[j]) || v > p.hi[j]+slack(p.hi[j]) || math.IsNaN(v) {
			return fmt.Sprintf("x[%d] = %g outside [%g, %g]", j, v, p.lo[j], p.hi[j])
		}
	}
	for i, r := range p.rows {
		var lhs float64
		for _, t := range r.terms {
			lhs += t.Coeff * x[t.Var]
		}
		s := slack(r.rhs)
		if (r.sense != GE && lhs > r.rhs+s) || (r.sense != LE && lhs < r.rhs-s) {
			return fmt.Sprintf("row %d: %g %v %g", i, lhs, r.sense, r.rhs)
		}
	}
	return ""
}

// Fuzz model encoding. Byte 0 gives the variable count (1–6), byte 1 the
// row count (0–7). Each variable then takes four bytes — objective,
// bound kind, and two bound values — and each row 2+n bytes: sense, rhs
// and one coefficient per variable. Remaining bytes, one per variable, are
// the warm re-solve's bound operations.
const (
	boundDefault = iota // [0, +Inf)
	boundFixed          // [a, a]
	boundBox            // [a, a+|b|]
	boundWide           // [-1e4, 1e4]
	boundFree           // (-Inf, +Inf)
	boundUpper          // (-Inf, a]
	numBoundKinds
)

// Row kinds beyond the three senses: a redundant copy of the previous row,
// doubled.
const rowRedundant = 3

func decodeModel(data []byte) (*Problem, []byte) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			pos++
			return 0
		}
		pos++
		return data[pos-1]
	}
	n := 1 + int(next())%6
	m := int(next()) % 8
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObj(j, float64(int8(next())))
		kind, a, b := int(next())%numBoundKinds, float64(int8(next())), float64(int8(next()))
		switch kind {
		case boundFixed:
			p.SetBounds(j, a, a)
		case boundBox:
			p.SetBounds(j, a, a+math.Abs(b))
		case boundWide:
			p.SetBounds(j, -1e4, 1e4)
		case boundFree:
			p.SetBounds(j, math.Inf(-1), math.Inf(1))
		case boundUpper:
			p.SetBounds(j, math.Inf(-1), a)
		}
	}
	for i := 0; i < m; i++ {
		kind, rhs := int(next())%4, float64(int8(next()))
		terms := make([]Term, 0, n)
		for j := 0; j < n; j++ {
			if c := float64(int8(next()) % 5); c != 0 {
				terms = append(terms, Term{j, c})
			}
		}
		if kind == rowRedundant {
			if len(p.rows) == 0 {
				continue
			}
			prev := p.rows[len(p.rows)-1]
			terms = terms[:0]
			for _, t := range prev.terms {
				terms = append(terms, Term{t.Var, 2 * t.Coeff})
			}
			p.AddConstraint(terms, prev.sense, 2*prev.rhs)
			continue
		}
		p.AddConstraint(terms, Sense(kind), rhs)
	}
	if pos >= len(data) {
		return p, nil
	}
	return p, data[pos:]
}

// encodeModel is decodeModel's inverse for models within its ranges.
func encodeModel(p *Problem, warmOps []byte) []byte {
	n := p.numVars
	out := []byte{byte(n - 1), byte(len(p.rows))}
	for j := 0; j < n; j++ {
		lo, hi := p.lo[j], p.hi[j]
		kind, a, b := boundDefault, 0.0, 0.0
		switch {
		case lo == 0 && math.IsInf(hi, 1):
		case lo == hi:
			kind, a = boundFixed, lo
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			kind = boundFree
		case math.IsInf(lo, -1):
			kind, a = boundUpper, hi
		case lo == -1e4 && hi == 1e4:
			kind = boundWide
		default:
			kind, a, b = boundBox, lo, hi-lo
		}
		out = append(out, byte(int8(p.obj[j])), byte(kind), byte(int8(a)), byte(int8(b)))
	}
	for _, r := range p.rows {
		out = append(out, byte(r.sense), byte(int8(r.rhs)))
		coef := make([]float64, n)
		for _, t := range r.terms {
			coef[t.Var] += t.Coeff
		}
		for _, c := range coef {
			out = append(out, byte(int8(c)))
		}
	}
	return append(out, warmOps...)
}

// seedModels are the unit tests' models whose data fits the fuzz
// encoding, plus bounded variants of them.
func seedModels() []*Problem {
	var ps []*Problem

	p := NewProblem(2) // TestSimpleLP
	p.SetObj(0, -1)
	p.SetObj(1, -1)
	p.AddConstraint([]Term{{0, 1}, {1, 2}}, LE, 4)
	p.AddConstraint([]Term{{0, 3}, {1, 1}}, LE, 6)
	ps = append(ps, p)
	q := p.Clone()
	q.SetBounds(0, 0, 1)
	q.SetBounds(1, math.Inf(-1), 1)
	ps = append(ps, q)

	p = NewProblem(2) // TestEqualityConstraint
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 3)
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, LE, 1)
	ps = append(ps, p)

	p = NewProblem(2) // TestGEAndNegativeRHS
	p.SetObj(0, 2)
	p.SetObj(1, 3)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 4)
	p.AddConstraint([]Term{{0, -1}, {1, -1}}, LE, -2)
	p.AddConstraint([]Term{{1, 1}}, GE, 1)
	ps = append(ps, p)

	p = NewProblem(1) // TestInfeasible
	p.SetObj(0, 1)
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	ps = append(ps, p)

	p = NewProblem(2) // TestUnbounded
	p.SetObj(0, -1)
	p.AddConstraint([]Term{{1, 1}}, LE, 5)
	ps = append(ps, p)
	q = p.Clone()
	q.SetBounds(0, -1e4, 1e4)
	ps = append(ps, q)

	p = NewProblem(2) // TestRedundantEqualities
	p.SetObj(0, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 2)
	p.AddConstraint([]Term{{0, 2}, {1, 2}}, EQ, 4)
	ps = append(ps, p)

	p = NewProblem(4) // TestTransportation
	for j, c := range []float64{2, 4, 3, 1} {
		p.SetObj(j, c)
	}
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 20)
	p.AddConstraint([]Term{{2, 1}, {3, 1}}, EQ, 30)
	p.AddConstraint([]Term{{0, 1}, {2, 1}}, EQ, 15)
	p.AddConstraint([]Term{{1, 1}, {3, 1}}, EQ, 35)
	ps = append(ps, p)
	q = p.Clone()
	q.SetBounds(1, 3, 3)
	q.SetBounds(3, math.Inf(-1), math.Inf(1))
	ps = append(ps, q)
	return ps
}
