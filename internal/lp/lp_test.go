package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	return s
}

func TestSimpleLP(t *testing.T) {
	// max x+y s.t. x+2y<=4, 3x+y<=6  ->  min -(x+y); opt at (8/5, 6/5), obj 14/5.
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -1)
	p.AddConstraint([]Term{{0, 1}, {1, 2}}, LE, 4)
	p.AddConstraint([]Term{{0, 3}, {1, 1}}, LE, 6)
	s := solveOK(t, p)
	if math.Abs(s.X[0]-1.6) > 1e-7 || math.Abs(s.X[1]-1.2) > 1e-7 {
		t.Errorf("x = %v, want (1.6, 1.2)", s.X)
	}
	if math.Abs(s.Obj+2.8) > 1e-7 {
		t.Errorf("obj = %g, want -2.8", s.Obj)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x+y s.t. x+y = 3, x - y <= 1 -> any point on segment; obj = 3.
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 3)
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, LE, 1)
	s := solveOK(t, p)
	if math.Abs(s.Obj-3) > 1e-7 {
		t.Errorf("obj = %g, want 3", s.Obj)
	}
	if math.Abs(s.X[0]+s.X[1]-3) > 1e-7 {
		t.Errorf("x+y = %g, want 3", s.X[0]+s.X[1])
	}
}

func TestGEAndNegativeRHS(t *testing.T) {
	// min 2x+3y s.t. x+y >= 4, -x - y <= -2 (same as x+y>=2), y >= 1.
	p := NewProblem(2)
	p.SetObj(0, 2)
	p.SetObj(1, 3)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 4)
	p.AddConstraint([]Term{{0, -1}, {1, -1}}, LE, -2)
	p.AddConstraint([]Term{{1, 1}}, GE, 1)
	s := solveOK(t, p)
	// Optimum: y=1, x=3 -> 9.
	if math.Abs(s.Obj-9) > 1e-7 {
		t.Errorf("obj = %g, want 9 (x=%v)", s.Obj, s.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, 1)
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1) // maximize x with no upper bound
	p.AddConstraint([]Term{{1, 1}}, LE, 5)
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestDegenerateBeale(t *testing.T) {
	// Beale's classic cycling example; Bland fallback must terminate.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7
	// s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
	//      0.5x4 - 90x5 - 0.02x6 + 3x7 <= 0
	//      x6 <= 1
	p := NewProblem(4)
	p.SetObj(0, -0.75)
	p.SetObj(1, 150)
	p.SetObj(2, -0.02)
	p.SetObj(3, 6)
	p.AddConstraint([]Term{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Term{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Term{{2, 1}}, LE, 1)
	s := solveOK(t, p)
	if math.Abs(s.Obj+0.05) > 1e-7 {
		t.Errorf("obj = %g, want -0.05", s.Obj)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicate equality rows leave a basic artificial in a redundant row.
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 2)
	p.AddConstraint([]Term{{0, 2}, {1, 2}}, EQ, 4)
	s := solveOK(t, p)
	if math.Abs(s.Obj-0) > 1e-7 {
		t.Errorf("obj = %g, want 0 (x=0, y=2)", s.Obj)
	}
}

func TestRepeatedTermsAccumulate(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, -1)
	// x + x <= 4 -> x <= 2.
	p.AddConstraint([]Term{{0, 1}, {0, 1}}, LE, 4)
	s := solveOK(t, p)
	if math.Abs(s.X[0]-2) > 1e-7 {
		t.Errorf("x = %g, want 2", s.X[0])
	}
}

func TestAddObjAccumulates(t *testing.T) {
	p := NewProblem(1)
	p.AddObj(0, -1)
	p.AddObj(0, -1)
	p.AddConstraint([]Term{{0, 1}}, LE, 3)
	s := solveOK(t, p)
	if math.Abs(s.Obj+6) > 1e-7 {
		t.Errorf("obj = %g, want -6", s.Obj)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, -1)
	p.AddConstraint([]Term{{0, 1}}, LE, 5)
	q := p.Clone()
	q.AddConstraint([]Term{{0, 1}}, LE, 2)
	q.SetObj(0, -2)

	sp := solveOK(t, p)
	sq := solveOK(t, q)
	if math.Abs(sp.X[0]-5) > 1e-7 {
		t.Errorf("original changed by clone edit: x = %g", sp.X[0])
	}
	if math.Abs(sq.X[0]-2) > 1e-7 {
		t.Errorf("clone x = %g, want 2", sq.X[0])
	}
}

func TestConstraintPanicsOnBadVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddConstraint accepted out-of-range variable")
		}
	}()
	p := NewProblem(1)
	p.AddConstraint([]Term{{3, 1}}, LE, 1)
}

// TestTransportation solves a small transportation problem with a known
// optimum (supplies 20/30, demands 15/35, costs [[2,4],[3,1]]).
func TestTransportation(t *testing.T) {
	// Vars: x11 x12 x21 x22.
	p := NewProblem(4)
	for j, c := range []float64{2, 4, 3, 1} {
		p.SetObj(j, c)
	}
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 20) // supply 1
	p.AddConstraint([]Term{{2, 1}, {3, 1}}, EQ, 30) // supply 2
	p.AddConstraint([]Term{{0, 1}, {2, 1}}, EQ, 15) // demand 1
	p.AddConstraint([]Term{{1, 1}, {3, 1}}, EQ, 35) // demand 2
	s := solveOK(t, p)
	// Optimal: x11=15, x12=5, x22=30 -> 2·15+4·5+1·30 = 80.
	if math.Abs(s.Obj-80) > 1e-6 {
		t.Errorf("obj = %g, want 80 (x=%v)", s.Obj, s.X)
	}
}

// TestRandomFeasibilityAndOptimality generates random bounded LPs, checks
// the returned point is feasible, and verifies no sampled feasible point
// beats the reported optimum.
func TestRandomFeasibilityAndOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		m := 2 + rng.Intn(5)
		p := NewProblem(n)
		obj := make([]float64, n)
		for j := 0; j < n; j++ {
			obj[j] = rng.NormFloat64()
			p.SetObj(j, obj[j])
		}
		type rrow struct {
			a   []float64
			rhs float64
		}
		var rows []rrow
		for i := 0; i < m; i++ {
			a := make([]float64, n)
			var terms []Term
			for j := 0; j < n; j++ {
				a[j] = rng.NormFloat64()
				terms = append(terms, Term{j, a[j]})
			}
			rhs := 1 + rng.Float64()*5
			rows = append(rows, rrow{a, rhs})
			p.AddConstraint(terms, LE, rhs)
		}
		// Box the problem so it's bounded.
		for j := 0; j < n; j++ {
			p.AddConstraint([]Term{{j, 1}}, LE, 10)
		}
		s, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != Optimal {
			continue // random rows can be infeasible with x >= 0; fine
		}
		// Feasibility.
		for i, r := range rows {
			var lhs float64
			for j := 0; j < n; j++ {
				lhs += r.a[j] * s.X[j]
			}
			if lhs > r.rhs+1e-6 {
				t.Errorf("trial %d: row %d violated: %g > %g", trial, i, lhs, r.rhs)
			}
		}
		for j := 0; j < n; j++ {
			if s.X[j] < -1e-9 || s.X[j] > 10+1e-6 {
				t.Errorf("trial %d: x[%d] = %g out of box", trial, j, s.X[j])
			}
		}
		// Sampled dominance.
		for samp := 0; samp < 200; samp++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * 10
			}
			feas := true
			for _, r := range rows {
				var lhs float64
				for j := 0; j < n; j++ {
					lhs += r.a[j] * x[j]
				}
				if lhs > r.rhs {
					feas = false
					break
				}
			}
			if !feas {
				continue
			}
			var v float64
			for j := 0; j < n; j++ {
				v += obj[j] * x[j]
			}
			if v < s.Obj-1e-6 {
				t.Errorf("trial %d: sampled feasible point beats optimum: %g < %g", trial, v, s.Obj)
			}
		}
	}
}

func TestNativeBounds(t *testing.T) {
	// max x + y with x ∈ [1, 2], y ∈ [-3, 0.5], x + y ≤ 2.25.
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -1)
	p.SetBounds(0, 1, 2)
	p.SetBounds(1, -3, 0.5)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 2.25)
	s := solveOK(t, p)
	if math.Abs(s.Obj+2.25) > 1e-9 {
		t.Errorf("obj = %g, want -2.25 (x=%v)", s.Obj, s.X)
	}
	if s.X[0] < 1-1e-9 || s.X[0] > 2+1e-9 || s.X[1] < -3-1e-9 || s.X[1] > 0.5+1e-9 {
		t.Errorf("x = %v outside its bounds", s.X)
	}
}

func TestFreeAndUpperOnlyVariables(t *testing.T) {
	// min x − y, x free with x ≥ y − 4 (row), y ≤ 3 (bound only).
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.SetObj(1, -1)
	p.SetBounds(0, math.Inf(-1), math.Inf(1))
	p.SetBounds(1, math.Inf(-1), 3)
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, GE, -4)
	s := solveOK(t, p)
	if math.Abs(s.Obj+4) > 1e-9 {
		t.Errorf("obj = %g, want -4 (x=%v)", s.Obj, s.X)
	}
}

func TestCrossedBoundsInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetBounds(0, 2, 1)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

// TestResolveMatchesColdSolve tightens bounds the way branch and bound
// does and checks the warm re-solve from the parent's basis lands on the
// cold solve's objective in a few pivots, leaving the parent untouched.
func TestResolveMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n, m := 3+rng.Intn(5), 2+rng.Intn(6)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObj(j, -rng.Float64())
			p.SetBounds(j, 0, 1+float64(rng.Intn(4)))
		}
		for i := 0; i < m; i++ {
			var terms []Term
			for j := 0; j < n; j++ {
				terms = append(terms, Term{j, float64(rng.Intn(5))})
			}
			p.AddConstraint(terms, LE, 2+float64(rng.Intn(8)))
		}
		parent := solveOK(t, p)
		parentX := append([]float64(nil), parent.X...)
		for j := 0; j < n; j++ {
			q := p.Clone()
			lo, hi := q.Bounds(j)
			if v := parent.X[j]; v > lo+0.5 {
				q.SetBounds(j, lo, math.Floor(v-0.25))
			} else {
				q.SetBounds(j, math.Ceil(v+0.25), hi)
			}
			warm, err := Resolve(q, parent, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Solve(q)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("trial %d var %d: warm %v, cold %v", trial, j, warm.Status, cold.Status)
			}
			if warm.Status == Optimal && math.Abs(warm.Obj-cold.Obj) > 1e-9 {
				t.Errorf("trial %d var %d: warm obj %g, cold %g", trial, j, warm.Obj, cold.Obj)
			}
			if warm.Pivots > n+m {
				t.Errorf("trial %d var %d: warm re-solve took %d pivots", trial, j, warm.Pivots)
			}
		}
		for j := range parentX {
			if parent.X[j] != parentX[j] {
				t.Fatalf("trial %d: Resolve mutated the parent solution", trial)
			}
		}
		if again := solveOK(t, p); math.Abs(again.Obj-parent.Obj) > 1e-12 {
			t.Fatalf("trial %d: re-solving the parent changed its objective", trial)
		}
	}
}

func TestResolveShapeMismatchPanics(t *testing.T) {
	p := NewProblem(2)
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	s := solveOK(t, p)
	q := NewProblem(3)
	defer func() {
		if recover() == nil {
			t.Error("Resolve accepted a basis of another shape")
		}
	}()
	Resolve(q, s, nil, "")
}

func BenchmarkSolveMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n, m := 60, 80
	build := func() *Problem {
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObj(j, rng.NormFloat64())
		}
		for i := 0; i < m; i++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.2 {
					terms = append(terms, Term{j, rng.NormFloat64()})
				}
			}
			if len(terms) == 0 {
				terms = []Term{{rng.Intn(n), 1}}
			}
			p.AddConstraint(terms, LE, 1+rng.Float64()*10)
		}
		for j := 0; j < n; j++ {
			p.AddConstraint([]Term{{j, 1}}, LE, 5)
		}
		return p
	}
	p := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
