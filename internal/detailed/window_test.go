package detailed

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/testcircuits"
)

// TestWindowSolutionsLegal checks every window's raw ILP solution, before
// Improve's acceptance filter: a bound folded wrongly from a held device
// would otherwise be discarded there in silence, and refinement would just
// weaken. Windows are index chunks, which split symmetric pairs, plus one
// window per pair holding only its first member and one holding the pair
// alone, so the folds of partly held groups run.
func TestWindowSolutionsLegal(t *testing.T) {
	type input struct {
		name string
		n    *circuit.Netlist
		gp   *circuit.Placement
	}
	var inputs []input
	for _, seed := range []int64{1, 2, 3} {
		n := testNetlist()
		inputs = append(inputs, input{fmt.Sprintf("dp-test/%d", seed), n, roughGP(n, seed)})
	}
	for _, name := range []string{"Adder", "CC-OTA", "VCO2", "Comp1", "VGA"} {
		c, err := testcircuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, c.Netlist, roughGP(c.Netlist, 1)})
	}

	tr := obs.New(&obs.MemorySink{})
	solved := 0
	for _, in := range inputs {
		n := in.n
		var windows [][]int
		for lo := 0; lo < len(n.Devices); lo += 8 {
			var w []int
			for i := lo; i < min(lo+8, len(n.Devices)); i++ {
				w = append(w, i)
			}
			windows = append(windows, w)
		}
		for _, g := range n.SymGroups {
			for _, pr := range g.Pairs {
				windows = append(windows, []int{pr[0]}, []int{pr[0], pr[1]})
			}
		}
		for _, mode := range []Mode{ModeIntegratedILP, ModeTwoStageLP} {
			res, err := Place(context.Background(), n, in.gp, Options{Mode: mode})
			if err != nil {
				t.Fatalf("%s/%s: %v", in.name, mode, err)
			}
			p := res.Placement
			ws := NewWindowSolver(n, tr)
			ws.Rederive(p)
			for _, w := range windows {
				free := make([]bool, len(n.Devices))
				for _, i := range w {
					free[i] = true
				}
				for _, kind := range []axisKind{axisX, axisY} {
					m := ws.model(kind, p, free)
					if m == nil {
						continue
					}
					where := fmt.Sprintf("%s/%s window %v %s-axis", in.name, mode, w, kind)
					// p satisfies its own window model, so the relaxation
					// is feasible; an over-tight fold would make every
					// solve return the incumbent unseen.
					if root, err := lp.Solve(m.prob); err != nil || root.Status != lp.Optimal {
						t.Errorf("%s: window relaxation not solved to optimality (%v)", where, err)
					}
					_, incObj := m.incumbent(n, p)
					cand, sol := ws.solve(m, p)
					if cand == nil {
						continue
					}
					solved++
					if rep := n.CheckLegal(cand, 1e-6); !rep.OK() {
						t.Errorf("%s: solution illegal: %v", where, rep.Err())
					}
					if sol.Obj > incObj {
						t.Errorf("%s: objective %.9g above the incumbent's %.9g", where, sol.Obj, incObj)
					}
					// The incumbent's objective is p's exact span over the
					// modelled nets; the solution's must be cand's.
					if span := incObj + n.HPWL(cand) - n.HPWL(p); math.Abs(span-sol.Obj) > 1e-6*(1+span) {
						t.Errorf("%s: objective %.9g, but the solution's span is %.9g", where, sol.Obj, span)
					}
					for i := range n.Devices {
						if !free[i] && (cand.X[i] != p.X[i] || cand.Y[i] != p.Y[i] ||
							cand.FlipX[i] != p.FlipX[i] || cand.FlipY[i] != p.FlipY[i]) {
							t.Errorf("%s: held device %d moved or flipped", where, i)
						}
					}
					for gi := range n.SymGroups {
						for _, d := range n.SymGroups[gi].Devices() {
							if !free[d] && cand.AxisX[gi] != p.AxisX[gi] {
								t.Errorf("%s: group %d has held device %d but its axis moved", where, gi, d)
								break
							}
						}
					}
				}
			}
		}
	}
	if f := tr.Summary().Counters["refine.solver_failures"]; f != 0 {
		t.Errorf("%v window solves failed", f)
	}
	// 83 windows × 2 modes × 2 axes: every window here pins a net.
	if solved < 332 {
		t.Errorf("only %d window solves returned a solution, want 332", solved)
	}
}
