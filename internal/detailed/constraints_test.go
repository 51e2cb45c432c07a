package detailed

import (
	"context"
	"testing"

	"repro/internal/circuit"
)

func TestUnionFind(t *testing.T) {
	u := newUF(6)
	u.union(0, 1)
	u.union(1, 2)
	u.union(4, 5)
	if u.find(0) != u.find(2) {
		t.Error("0 and 2 should be connected")
	}
	if u.find(3) == u.find(0) || u.find(3) == u.find(4) {
		t.Error("3 should be isolated")
	}
	if u.find(4) != u.find(5) {
		t.Error("4 and 5 should be connected")
	}
}

// chainNetlist builds devices linked by a bottom-align chain a-b, b-c.
func chainNetlist() *circuit.Netlist {
	mk := func(name string, h float64) circuit.Device {
		return circuit.Device{Name: name, W: 4, H: h,
			Pins: []circuit.Pin{{Name: "p"}}}
	}
	return &circuit.Netlist{
		Name:    "chain",
		Devices: []circuit.Device{mk("a", 4), mk("b", 6), mk("c", 3), mk("d", 5)},
		Nets: []circuit.Net{
			{Name: "n", Pins: []circuit.PinRef{{Device: 0, Pin: 0}, {Device: 3, Pin: 0}}},
		},
		BottomAlign: [][2]int{{0, 1}, {1, 2}},
	}
}

// TestEqualityChainForcesHorizontal: devices transitively linked by
// bottom-alignment must never get a vertical separation between them.
func TestEqualityChainForcesHorizontal(t *testing.T) {
	n := chainNetlist()
	p := circuit.NewPlacement(n)
	// Stack a and c exactly on top of each other so the geometric
	// classifier would pick vertical if the cluster rule didn't intervene.
	p.X[0], p.Y[0] = 5, 5
	p.X[1], p.Y[1] = 12, 5
	p.X[2], p.Y[2] = 5, 5.5
	p.X[3], p.Y[3] = 30, 5
	ref := snapReference(n, p)
	gs := deriveGraphs(n, ref)
	for _, e := range gs.v {
		inChain := func(d int) bool { return d <= 2 }
		if inChain(e.from) && inChain(e.to) {
			t.Errorf("vertical edge %v between bottom-aligned chain members", e)
		}
	}
}

// TestChainedAlignmentStaysFeasible: the full DP must solve a placement
// with an alignment chain regardless of how the GP scattered it.
func TestChainedAlignmentStaysFeasible(t *testing.T) {
	n := chainNetlist()
	for seed := int64(0); seed < 10; seed++ {
		p := roughGP(n, seed)
		for _, mode := range []Mode{ModeIntegratedILP, ModeTwoStageLP} {
			res, err := Place(context.Background(), n, p, Options{Mode: mode})
			if err != nil {
				t.Fatalf("seed %d mode %v: %v", seed, mode, err)
			}
			if rep := n.CheckLegal(res.Placement, 1e-6); !rep.OK() {
				t.Fatalf("seed %d mode %v: %v", seed, mode, rep.Err())
			}
		}
	}
}

// TestManySelfSymmetricDevices: several self-symmetric devices in one
// group share an axis and must stack vertically.
func TestManySelfSymmetricDevices(t *testing.T) {
	mk := func(name string) circuit.Device {
		return circuit.Device{Name: name, W: 6, H: 4, Pins: []circuit.Pin{{Name: "p"}}}
	}
	n := &circuit.Netlist{
		Name:    "selfstack",
		Devices: []circuit.Device{mk("a"), mk("b"), mk("c")},
		Nets: []circuit.Net{
			{Name: "n", Pins: []circuit.PinRef{{Device: 0, Pin: 0}, {Device: 1, Pin: 0}, {Device: 2, Pin: 0}}},
		},
		SymGroups: []circuit.SymmetryGroup{{Self: []int{0, 1, 2}}},
	}
	p := circuit.NewPlacement(n)
	p.X[0], p.Y[0] = 5, 5
	p.X[1], p.Y[1] = 5.2, 5.1
	p.X[2], p.Y[2] = 4.9, 5.2
	res, err := Place(context.Background(), n, p, Options{Mode: ModeIntegratedILP})
	if err != nil {
		t.Fatal(err)
	}
	if rep := n.CheckLegal(res.Placement, 1e-6); !rep.OK() {
		t.Fatalf("self-symmetric stack illegal: %v", rep.Err())
	}
	// All three centers on the shared axis.
	for i := 1; i < 3; i++ {
		if res.Placement.X[i] != res.Placement.X[0] {
			t.Errorf("device %d off the shared axis: %g vs %g", i, res.Placement.X[i], res.Placement.X[0])
		}
	}
}

func TestWarmFlipsMirrorConsistent(t *testing.T) {
	n := testNetlist()
	f := warmFlips(n, axisX)
	for _, pr := range n.SymGroups[0].Pairs {
		if f[pr[0]] == f[pr[1]] {
			t.Errorf("pair (%d,%d): warm flips not complementary", pr[0], pr[1])
		}
	}
	fy := warmFlips(n, axisY)
	for _, v := range fy {
		if v {
			t.Error("y warm flips should be all false")
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeIntegratedILP.String() != "integrated-ilp" || ModeTwoStageLP.String() != "two-stage-lp" {
		t.Error("Mode.String wrong")
	}
}
