package detailed

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/geom"
	"repro/internal/obs"
)

// testNetlist mirrors the OTA-like circuit used by the global-placement
// tests: a symmetry group (two pairs + one self-symmetric), caps, bias
// devices, asymmetric pins so flipping matters.
func testNetlist() *circuit.Netlist {
	mk := func(name string, ty circuit.DeviceType, w, h float64) circuit.Device {
		return circuit.Device{
			Name: name, Type: ty, W: w, H: h,
			Pins: []circuit.Pin{
				{Name: "a", Offset: geom.Point{X: w * 0.2, Y: h * 0.5}},
				{Name: "b", Offset: geom.Point{X: w * 0.8, Y: h * 0.8}},
			},
		}
	}
	return &circuit.Netlist{
		Name: "dp-test",
		Devices: []circuit.Device{
			mk("M1", circuit.NMOS, 6, 4), mk("M2", circuit.NMOS, 6, 4),
			mk("M3", circuit.PMOS, 5, 3), mk("M4", circuit.PMOS, 5, 3),
			mk("MT", circuit.NMOS, 8, 3),
			mk("B1", circuit.NMOS, 4, 4), mk("B2", circuit.Cap, 7, 5),
			mk("B3", circuit.Cap, 7, 5), mk("R1", circuit.Res, 3, 6),
		},
		Nets: []circuit.Net{
			{Name: "n1", Pins: []circuit.PinRef{{Device: 0, Pin: 0}, {Device: 5, Pin: 1}}},
			{Name: "n2", Pins: []circuit.PinRef{{Device: 1, Pin: 1}, {Device: 5, Pin: 0}}},
			{Name: "n3", Pins: []circuit.PinRef{{Device: 0, Pin: 1}, {Device: 2, Pin: 0}, {Device: 6, Pin: 0}}},
			{Name: "n4", Pins: []circuit.PinRef{{Device: 1, Pin: 0}, {Device: 3, Pin: 1}, {Device: 7, Pin: 1}}},
			{Name: "n5", Pins: []circuit.PinRef{{Device: 0, Pin: 0}, {Device: 1, Pin: 1}, {Device: 4, Pin: 0}}},
			{Name: "n6", Pins: []circuit.PinRef{{Device: 8, Pin: 0}, {Device: 6, Pin: 1}, {Device: 2, Pin: 1}}},
		},
		SymGroups: []circuit.SymmetryGroup{
			{Pairs: [][2]int{{0, 1}, {2, 3}}, Self: []int{4}},
		},
	}
}

// roughGP builds a plausible global-placement state: loosely clustered with
// some overlap and imperfect symmetry.
func roughGP(n *circuit.Netlist, seed int64) *circuit.Placement {
	rng := rand.New(rand.NewSource(seed))
	p := circuit.NewPlacement(n)
	cols := int(math.Ceil(math.Sqrt(float64(len(n.Devices)))))
	for i := range n.Devices {
		p.X[i] = float64(i%cols)*6 + rng.Float64()*3
		p.Y[i] = float64(i/cols)*5 + rng.Float64()*3
	}
	// Nudge symmetric pairs near mirror positions (as soft-sym GP yields).
	for gi := range n.SymGroups {
		for _, pr := range n.SymGroups[gi].Pairs {
			p.Y[pr[1]] = p.Y[pr[0]] + rng.Float64()*0.8
		}
	}
	return p
}

// flipsUsed counts the devices flipped in either axis.
func flipsUsed(p *circuit.Placement) int {
	flips := 0
	for i := range p.FlipX {
		if p.FlipX[i] || p.FlipY[i] {
			flips++
		}
	}
	return flips
}

func TestIntegratedLegal(t *testing.T) {
	n := testNetlist()
	gp := roughGP(n, 1)
	res, err := Place(context.Background(), n, gp, Options{Mode: ModeIntegratedILP})
	if err != nil {
		t.Fatal(err)
	}
	if rep := n.CheckLegal(res.Placement, 1e-6); !rep.OK() {
		t.Fatalf("integrated DP illegal: %v\n%v", rep.Err(), rep)
	}
	if res.Area <= 0 || res.HPWL <= 0 {
		t.Errorf("degenerate metrics: %+v", res)
	}
}

// TestNodeCapCounted caps branch and bound at one node: the integrated
// stage keeps its incumbent, stays legal, and reports every capped search
// as dp.ilp_node_cap instead of failing or hiding it.
func TestNodeCapCounted(t *testing.T) {
	n := testNetlist()
	sink := &obs.MemorySink{}
	tr := obs.New(sink)
	res, err := Place(context.Background(), n, roughGP(n, 1), Options{Mode: ModeIntegratedILP, MaxNodes: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if rep := n.CheckLegal(res.Placement, 1e-6); !rep.OK() {
		t.Fatalf("capped DP illegal: %v", rep.Err())
	}
	capped := 0
	for _, e := range sink.ByKind(obs.KindLP) {
		if e.LP.Solver == "ilp" && e.LP.Label != "incumbent" && e.LP.Status == "feasible" {
			capped++
		}
	}
	if got := tr.Summary().Counters["dp.ilp_node_cap"]; capped == 0 || got != float64(capped) {
		t.Errorf("dp.ilp_node_cap = %v, want the %d node-capped ILP runs", got, capped)
	}
}

func TestTwoStageLegal(t *testing.T) {
	n := testNetlist()
	gp := roughGP(n, 1)
	res, err := Place(context.Background(), n, gp, Options{Mode: ModeTwoStageLP})
	if err != nil {
		t.Fatal(err)
	}
	if rep := n.CheckLegal(res.Placement, 1e-6); !rep.OK() {
		t.Fatalf("two-stage DP illegal: %v", rep.Err())
	}
	// Two-stage never flips.
	for i := range res.Placement.FlipX {
		if res.Placement.FlipX[i] || res.Placement.FlipY[i] {
			t.Error("two-stage LP must not flip devices")
		}
	}
}

// TestFlippingHelps is Table IV's claim: from the same GP solution, the
// integrated ILP (with flipping) achieves HPWL no worse than the two-stage
// LP, and with these asymmetric pins strictly better.
func TestFlippingHelps(t *testing.T) {
	n := testNetlist()
	gp := roughGP(n, 2)
	ilpRes, err := Place(context.Background(), n, gp, Options{Mode: ModeIntegratedILP})
	if err != nil {
		t.Fatal(err)
	}
	lpRes, err := Place(context.Background(), n, gp, Options{Mode: ModeTwoStageLP})
	if err != nil {
		t.Fatal(err)
	}
	if ilpRes.HPWL > lpRes.HPWL+1e-6 {
		t.Errorf("integrated ILP HPWL %.3f worse than two-stage %.3f", ilpRes.HPWL, lpRes.HPWL)
	}
	if flipsUsed(ilpRes.Placement) == 0 {
		t.Log("note: optimizer used no flips on this instance")
	}
}

func TestNoFlipsOption(t *testing.T) {
	n := testNetlist()
	gp := roughGP(n, 3)
	res, err := Place(context.Background(), n, gp, Options{Mode: ModeIntegratedILP, NoFlips: true})
	if err != nil {
		t.Fatal(err)
	}
	if f := flipsUsed(res.Placement); f != 0 {
		t.Errorf("NoFlips placement used %d flips", f)
	}
	if rep := n.CheckLegal(res.Placement, 1e-6); !rep.OK() {
		t.Fatalf("NoFlips DP illegal: %v", rep.Err())
	}
	// Flipping freedom can only help.
	withFlips, err := Place(context.Background(), n, gp, Options{Mode: ModeIntegratedILP})
	if err != nil {
		t.Fatal(err)
	}
	if withFlips.HPWL > res.HPWL+1e-6 {
		t.Errorf("flips made HPWL worse: %.3f vs %.3f", withFlips.HPWL, res.HPWL)
	}
}

func TestOrderingRespected(t *testing.T) {
	n := testNetlist()
	n.HOrders = [][]int{{5, 6, 8}}
	gp := roughGP(n, 4)
	for _, mode := range []Mode{ModeIntegratedILP, ModeTwoStageLP} {
		res, err := Place(context.Background(), n, gp, Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if rep := n.CheckLegal(res.Placement, 1e-6); !rep.OK() {
			t.Errorf("%v: ordering violated: %v", mode, rep.OrderErrors)
		}
	}
}

func TestAlignmentsRespected(t *testing.T) {
	n := testNetlist()
	n.BottomAlign = [][2]int{{5, 6}}
	n.VCenterAlign = [][2]int{{7, 8}}
	gp := roughGP(n, 5)
	for _, mode := range []Mode{ModeIntegratedILP, ModeTwoStageLP} {
		res, err := Place(context.Background(), n, gp, Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if rep := n.CheckLegal(res.Placement, 1e-6); !rep.OK() {
			t.Errorf("%v: alignment violated: %v", mode, rep.AlignErrors)
		}
	}
}

func TestDeterministic(t *testing.T) {
	n := testNetlist()
	gp := roughGP(n, 6)
	r1, err := Place(context.Background(), n, gp, Options{Mode: ModeIntegratedILP})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Place(context.Background(), n, gp, Options{Mode: ModeIntegratedILP})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Placement.X {
		if r1.Placement.X[i] != r2.Placement.X[i] || r1.Placement.Y[i] != r2.Placement.Y[i] {
			t.Fatal("detailed placement nondeterministic")
		}
	}
}

func TestMuTradesAreaForWirelength(t *testing.T) {
	n := testNetlist()
	gp := roughGP(n, 7)
	small, err := Place(context.Background(), n, gp, Options{Mode: ModeIntegratedILP, Mu: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Place(context.Background(), n, gp, Options{Mode: ModeIntegratedILP, Mu: 20})
	if err != nil {
		t.Fatal(err)
	}
	if large.Area > small.Area+1e-6 {
		t.Errorf("larger mu gave larger area: %.2f vs %.2f", large.Area, small.Area)
	}
	if large.HPWL < small.HPWL-1e-6 {
		t.Errorf("larger mu gave smaller HPWL too (%g vs %g): no tradeoff visible",
			large.HPWL, small.HPWL)
	}
}

func TestManyRandomGPsStayFeasible(t *testing.T) {
	n := testNetlist()
	n.HOrders = [][]int{{5, 8}}
	n.VCenterAlign = [][2]int{{6, 7}}
	for seed := int64(0); seed < 30; seed++ {
		gp := roughGP(n, 100+seed)
		for _, mode := range []Mode{ModeIntegratedILP, ModeTwoStageLP} {
			res, err := Place(context.Background(), n, gp, Options{Mode: mode})
			if err != nil {
				t.Fatalf("seed %d mode %v: %v", seed, mode, err)
			}
			if rep := n.CheckLegal(res.Placement, 1e-6); !rep.OK() {
				t.Fatalf("seed %d mode %v: %v", seed, mode, rep.Err())
			}
		}
	}
}

func TestSnapReferenceSymmetric(t *testing.T) {
	n := testNetlist()
	gp := roughGP(n, 8)
	ref := snapReference(n, gp)
	g := n.SymGroups[0]
	axis := ref.AxisX[0]
	for _, pr := range g.Pairs {
		if ref.Y[pr[0]] != ref.Y[pr[1]] {
			t.Errorf("pair (%d,%d) y not snapped", pr[0], pr[1])
		}
		if math.Abs((ref.X[pr[0]]+ref.X[pr[1]])/2-axis) > 1e-9 {
			t.Errorf("pair (%d,%d) not mirrored about axis", pr[0], pr[1])
		}
	}
	for _, r := range g.Self {
		if math.Abs(ref.X[r]-axis) > 1e-9 {
			t.Errorf("self device %d off axis", r)
		}
	}
	// Original must be untouched.
	if gp.AxisX[0] == ref.AxisX[0] && gp.X[0] == ref.X[0] && gp.Y[0] == ref.Y[0] {
		t.Log("warning: snap produced identical coordinates (unlikely)")
	}
}

func TestSnapReferenceOrdersX(t *testing.T) {
	n := testNetlist()
	n.HOrders = [][]int{{6, 5}} // require device 6 left of device 5
	gp := roughGP(n, 9)
	gp.X[5], gp.X[6] = 0, 50 // violate badly
	ref := snapReference(n, gp)
	if ref.X[6] >= ref.X[5] {
		t.Errorf("order group not snapped: x6=%g x5=%g", ref.X[6], ref.X[5])
	}
}

func TestTransitiveReduce(t *testing.T) {
	// Chain 0→1→2 plus redundant 0→2.
	edges := []edge{{0, 1}, {1, 2}, {0, 2}}
	red := transitiveReduce(3, edges)
	if len(red) != 2 {
		t.Fatalf("reduced to %d edges, want 2: %v", len(red), red)
	}
	for _, e := range red {
		if e == (edge{0, 2}) {
			t.Error("redundant edge survived reduction")
		}
	}
	// Diamond: 0→1, 0→2, 1→3, 2→3: nothing removable.
	edges = []edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	if red := transitiveReduce(4, edges); len(red) != 4 {
		t.Errorf("diamond lost edges: %v", red)
	}
}

func TestImproveFlipsReducesHPWL(t *testing.T) {
	// Two devices side by side, pins facing away from each other: flipping
	// one brings the pins together (Fig. 3).
	n := &circuit.Netlist{
		Devices: []circuit.Device{
			{Name: "A", W: 4, H: 4, Pins: []circuit.Pin{{Offset: geom.Point{X: 0.5, Y: 2}}}},
			{Name: "B", W: 4, H: 4, Pins: []circuit.Pin{{Offset: geom.Point{X: 3.5, Y: 2}}}},
		},
		Nets: []circuit.Net{{Pins: []circuit.PinRef{{Device: 0, Pin: 0}, {Device: 1, Pin: 0}}}},
	}
	p := circuit.NewPlacement(n)
	p.X[0], p.Y[0] = 2, 2
	p.X[1], p.Y[1] = 6, 2
	before := n.HPWL(p)
	improveFlips(n, p)
	after := n.HPWL(p)
	if after >= before {
		t.Errorf("improveFlips did not reduce HPWL: %g -> %g", before, after)
	}
	if after > 1.01 {
		t.Errorf("expected near-minimal HPWL (pins adjacent), got %g", after)
	}
}

func TestRejectsBadInput(t *testing.T) {
	n := testNetlist()
	gp := roughGP(n, 1)
	gp.X = gp.X[:2]
	if _, err := Place(context.Background(), n, gp, Options{}); err == nil {
		t.Error("expected size-mismatch error")
	}
	n2 := testNetlist()
	n2.Devices[0].W = 0
	if _, err := Place(context.Background(), n2, roughGP(testNetlist(), 1), Options{}); err == nil {
		t.Error("expected validation error")
	}
}

func BenchmarkIntegratedDP(b *testing.B) {
	n := testNetlist()
	gp := roughGP(n, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(context.Background(), n, gp, Options{Mode: ModeIntegratedILP}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoStageDP(b *testing.B) {
	n := testNetlist()
	gp := roughGP(n, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(context.Background(), n, gp, Options{Mode: ModeTwoStageLP}); err != nil {
			b.Fatal(err)
		}
	}
}
