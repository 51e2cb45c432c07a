package anneal

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/geom"
)

// symNetlist builds a small OTA-like netlist: a symmetric diff pair, a
// symmetric load pair, a self-symmetric tail device, and two bias devices,
// with a few nets.
func symNetlist() *circuit.Netlist {
	mk := func(name string, ty circuit.DeviceType, w, h float64) circuit.Device {
		return circuit.Device{
			Name: name, Type: ty, W: w, H: h,
			Pins: []circuit.Pin{
				{Name: "a", Offset: geom.Point{X: w * 0.25, Y: h / 2}},
				{Name: "b", Offset: geom.Point{X: w * 0.75, Y: h / 2}},
			},
		}
	}
	n := &circuit.Netlist{
		Name: "symtest",
		Devices: []circuit.Device{
			mk("M1", circuit.NMOS, 6, 4),
			mk("M2", circuit.NMOS, 6, 4),
			mk("M3", circuit.PMOS, 5, 3),
			mk("M4", circuit.PMOS, 5, 3),
			mk("MT", circuit.NMOS, 8, 3),
			mk("B1", circuit.NMOS, 4, 4),
			mk("B2", circuit.Cap, 7, 5),
		},
		Nets: []circuit.Net{
			{Name: "inp", Pins: []circuit.PinRef{{Device: 0, Pin: 0}, {Device: 5, Pin: 1}}},
			{Name: "inn", Pins: []circuit.PinRef{{Device: 1, Pin: 1}, {Device: 5, Pin: 0}}},
			{Name: "outp", Pins: []circuit.PinRef{{Device: 0, Pin: 1}, {Device: 2, Pin: 0}, {Device: 6, Pin: 0}}},
			{Name: "outn", Pins: []circuit.PinRef{{Device: 1, Pin: 0}, {Device: 3, Pin: 1}, {Device: 6, Pin: 1}}},
			{Name: "tail", Pins: []circuit.PinRef{{Device: 0, Pin: 0}, {Device: 1, Pin: 1}, {Device: 4, Pin: 0}}},
		},
		SymGroups: []circuit.SymmetryGroup{
			{Pairs: [][2]int{{0, 1}, {2, 3}}, Self: []int{4}},
		},
	}
	return n
}

func fastOpts() Options {
	return Options{Seed: 1, Moves: 8000}
}

func TestPlaceLegal(t *testing.T) {
	n := symNetlist()
	p, stats, err := Place(context.Background(), n, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep := n.CheckLegal(p, 1e-6); !rep.OK() {
		t.Fatalf("SA placement illegal: %v", rep.Err())
	}
	if stats.Proposals == 0 || stats.Accepts == 0 {
		t.Errorf("stats look empty: %+v", stats)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	n := symNetlist()
	p1, _, err := Place(context.Background(), n, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := Place(context.Background(), n, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.X {
		if p1.X[i] != p2.X[i] || p1.Y[i] != p2.Y[i] {
			t.Fatalf("same seed produced different placements at device %d", i)
		}
	}
}

func TestPlaceSeedChangesResult(t *testing.T) {
	n := symNetlist()
	p1, _, _ := Place(context.Background(), n, Options{Seed: 1, Moves: 3000})
	p2, _, _ := Place(context.Background(), n, Options{Seed: 99, Moves: 3000})
	same := true
	for i := range p1.X {
		if p1.X[i] != p2.X[i] || p1.Y[i] != p2.Y[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical placements (suspicious)")
	}
}

func TestMoreMovesNoWorse(t *testing.T) {
	n := symNetlist()
	_, sShort, err := Place(context.Background(), n, Options{Seed: 3, Moves: 300})
	if err != nil {
		t.Fatal(err)
	}
	_, sLong, err := Place(context.Background(), n, Options{Seed: 3, Moves: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if sLong.BestCost > sShort.BestCost+1e-9 {
		t.Errorf("longer anneal worse: %g > %g", sLong.BestCost, sShort.BestCost)
	}
}

func TestSymmetryMaintainedExactly(t *testing.T) {
	n := symNetlist()
	p, _, err := Place(context.Background(), n, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	g := n.SymGroups[0]
	axis := p.AxisX[0]
	for _, pr := range g.Pairs {
		if p.Y[pr[0]] != p.Y[pr[1]] {
			t.Errorf("pair (%d,%d) y: %g vs %g", pr[0], pr[1], p.Y[pr[0]], p.Y[pr[1]])
		}
		if math.Abs((p.X[pr[0]]+p.X[pr[1]])/2-axis) > 1e-12 {
			t.Errorf("pair (%d,%d) not centered on axis", pr[0], pr[1])
		}
		// Mirrored orientation.
		if p.FlipX[pr[0]] == p.FlipX[pr[1]] {
			t.Errorf("pair (%d,%d) not mirror-flipped", pr[0], pr[1])
		}
	}
	for _, r := range g.Self {
		if math.Abs(p.X[r]-axis) > 1e-12 {
			t.Errorf("self-symmetric %d off axis", r)
		}
	}
}

func TestBottomAlignMacro(t *testing.T) {
	n := symNetlist()
	n.BottomAlign = [][2]int{{5, 6}}
	p, _, err := Place(context.Background(), n, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b5 := p.Y[5] - n.Devices[5].H/2
	b6 := p.Y[6] - n.Devices[6].H/2
	if math.Abs(b5-b6) > 1e-12 {
		t.Errorf("bottom alignment violated: %g vs %g", b5, b6)
	}
}

func TestVCenterAlignMacro(t *testing.T) {
	n := symNetlist()
	n.VCenterAlign = [][2]int{{5, 6}}
	p, _, err := Place(context.Background(), n, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.X[5]-p.X[6]) > 1e-12 {
		t.Errorf("vertical center alignment violated: %g vs %g", p.X[5], p.X[6])
	}
}

func TestOrderConstraintSatisfied(t *testing.T) {
	n := symNetlist()
	n.HOrders = [][]int{{5, 6}}
	p, _, err := Place(context.Background(), n, Options{Seed: 2, Moves: 60000})
	if err != nil {
		t.Fatal(err)
	}
	right := p.X[5] + n.Devices[5].W/2
	left := p.X[6] - n.Devices[6].W/2
	if right > left+1e-9 {
		t.Errorf("order constraint violated: %g > %g", right, left)
	}
}

func TestOverlappingConstraintGroupsRejected(t *testing.T) {
	n := symNetlist()
	n.BottomAlign = [][2]int{{0, 5}} // device 0 is already in a symmetry island
	if _, _, err := Place(context.Background(), n, fastOpts()); err == nil {
		t.Error("expected error for device in both symmetry group and align pair")
	}
}

func TestInvalidNetlistRejected(t *testing.T) {
	n := symNetlist()
	n.Devices[0].W = -1
	if _, _, err := Place(context.Background(), n, fastOpts()); err == nil {
		t.Error("expected validation error")
	}
}

// TestPerfModelInfluences verifies the performance term steers the search:
// a model that charges for large x-spread should shrink the x-extent
// relative to the conventional result.
func TestPerfModelInfluences(t *testing.T) {
	n := symNetlist()
	conv, _, err := Place(context.Background(), n, Options{Seed: 4, Moves: 16000})
	if err != nil {
		t.Fatal(err)
	}
	pm := perfFunc(func(nl *circuit.Netlist, p *circuit.Placement) float64 {
		bb := nl.BoundingBox(p)
		return math.Min(bb.W()/40, 1) // dislikes wide layouts
	})
	perf, _, err := Place(context.Background(), n, Options{Seed: 4, Moves: 16000, Perf: pm, PerfWeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n.BoundingBox(perf).W() > n.BoundingBox(conv).W()+1e-9 {
		t.Errorf("perf-driven width %g not smaller than conventional %g",
			n.BoundingBox(perf).W(), n.BoundingBox(conv).W())
	}
}

type perfFunc func(n *circuit.Netlist, p *circuit.Placement) float64

func (f perfFunc) Prob(n *circuit.Netlist, p *circuit.Placement) float64 { return f(n, p) }

func BenchmarkPlaceSmall(b *testing.B) {
	n := symNetlist()
	for i := 0; i < b.N; i++ {
		if _, _, err := Place(context.Background(), n, Options{Seed: 1, Moves: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmAnchorsHoldDevices anneals a grown netlist twice from one legal
// prior, the original's cold SA placement: once with the original's
// devices anchored and once with the prior as initialization only. The
// displacement cost must keep the anchored devices nearer their prior
// positions. Only devices outside symmetry islands are measured: an island
// whose devices are all anchored is frozen in buildMacros' row order and
// pair sides, not the prior's, so its devices sit off their prior spots
// whatever the cost says.
func TestWarmAnchorsHoldDevices(t *testing.T) {
	base := gen.Params{Devices: 24, Seed: 6}
	n := gen.MustGenerate(base)
	edited := gen.MustGenerate(gen.Edited(base, 1))
	cold, _, err := Place(context.Background(), n, Options{Seed: 1, Moves: 30000})
	if err != nil {
		t.Fatal(err)
	}
	nd := len(edited.Devices)
	prior := &circuit.Prior{
		X: make([]float64, nd), Y: make([]float64, nd),
		Valid: make([]bool, nd), Anchored: make([]bool, nd),
	}
	for i := range n.Devices {
		prior.X[i], prior.Y[i] = cold.X[i], cold.Y[i]
		prior.Valid[i], prior.Anchored[i] = true, true
	}
	island := make([]bool, nd)
	for _, g := range edited.SymGroups {
		for _, d := range g.Devices() {
			island[d] = true
		}
	}
	// moved returns the summed displacement of the anchored devices
	// outside and inside symmetry islands.
	moved := func(anchored []bool) (single, sym float64) {
		w := *prior
		w.Anchored = anchored
		p, _, err := Place(context.Background(), edited, Options{Seed: 1, Moves: 300000, Warm: &w})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range prior.Anchored {
			if !a {
				continue
			}
			d := math.Abs(p.X[i]-w.X[i]) + math.Abs(p.Y[i]-w.Y[i])
			if island[i] {
				sym += d
			} else {
				single += d
			}
		}
		return single, sym
	}
	with, withSym := moved(prior.Anchored)
	without, withoutSym := moved(nil)
	t.Logf("anchored devices moved %.1f with anchors, %.1f without (in islands %.1f and %.1f)",
		with, without, withSym, withoutSym)
	if with >= without/4 {
		t.Errorf("anchored devices moved %.1f with anchors, want under a quarter of %.1f without", with, without)
	}
}
