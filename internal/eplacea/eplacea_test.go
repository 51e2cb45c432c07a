package eplacea

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/testcircuits"
)

// testNetlist builds an OTA-like netlist with a symmetry group and a
// handful of nets (12 devices).
func testNetlist() *circuit.Netlist {
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
		Name: "gp-test",
		Devices: []circuit.Device{
			mk("M1", circuit.NMOS, 6, 4), mk("M2", circuit.NMOS, 6, 4),
			mk("M3", circuit.PMOS, 5, 3), mk("M4", circuit.PMOS, 5, 3),
			mk("MT", circuit.NMOS, 8, 3),
			mk("B1", circuit.NMOS, 4, 4), mk("B2", circuit.Cap, 7, 5),
			mk("B3", circuit.Cap, 7, 5), mk("R1", circuit.Res, 3, 6),
			mk("R2", circuit.Res, 3, 6), mk("M5", circuit.NMOS, 5, 5),
			mk("M6", circuit.PMOS, 4, 3),
		},
		Nets: []circuit.Net{
			{Name: "n1", Pins: []circuit.PinRef{{Device: 0, Pin: 0}, {Device: 5, Pin: 1}, {Device: 10, Pin: 0}}},
			{Name: "n2", Pins: []circuit.PinRef{{Device: 1, Pin: 1}, {Device: 5, Pin: 0}}},
			{Name: "n3", Pins: []circuit.PinRef{{Device: 0, Pin: 1}, {Device: 2, Pin: 0}, {Device: 6, Pin: 0}}},
			{Name: "n4", Pins: []circuit.PinRef{{Device: 1, Pin: 0}, {Device: 3, Pin: 1}, {Device: 7, Pin: 1}}},
			{Name: "n5", Pins: []circuit.PinRef{{Device: 0, Pin: 0}, {Device: 1, Pin: 1}, {Device: 4, Pin: 0}}},
			{Name: "n6", Pins: []circuit.PinRef{{Device: 8, Pin: 0}, {Device: 9, Pin: 1}, {Device: 10, Pin: 1}}},
			{Name: "n7", Pins: []circuit.PinRef{{Device: 11, Pin: 0}, {Device: 6, Pin: 1}, {Device: 2, Pin: 1}}},
			{Name: "n8", Pins: []circuit.PinRef{{Device: 11, Pin: 1}, {Device: 7, Pin: 0}, {Device: 3, Pin: 0}}},
		},
		SymGroups: []circuit.SymmetryGroup{
			{Pairs: [][2]int{{0, 1}, {2, 3}}, Self: []int{4}},
		},
	}
	return n
}

func TestPlaceSpreadsDevices(t *testing.T) {
	n := testNetlist()
	res, err := Place(context.Background(), n, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow > 0.25 {
		t.Errorf("final overflow %.3f too high", res.Overflow)
	}
	// Exact pairwise overlap should be a small fraction of device area.
	ov := n.TotalOverlap(res.Placement)
	if frac := ov / n.TotalDeviceArea(); frac > 0.15 {
		t.Errorf("residual overlap fraction %.3f too high after GP", frac)
	}
	if res.Iterations == 0 {
		t.Error("no iterations recorded")
	}
	if res.HPWL <= 0 {
		t.Error("HPWL not recorded")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	n := testNetlist()
	r1, err := Place(context.Background(), n, Options{Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Place(context.Background(), n, Options{Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Placement.X {
		if r1.Placement.X[i] != r2.Placement.X[i] || r1.Placement.Y[i] != r2.Placement.Y[i] {
			t.Fatalf("same seed diverged at device %d", i)
		}
	}
}

func TestSoftSymmetryApproximatelyHolds(t *testing.T) {
	n := testNetlist()
	res, err := Place(context.Background(), n, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Placement
	g := n.SymGroups[0]
	// Soft symmetry: pairs should be close to mirrored, within a couple of
	// device widths (detailed placement snaps them exactly).
	for _, pr := range g.Pairs {
		if dy := math.Abs(p.Y[pr[0]] - p.Y[pr[1]]); dy > 4 {
			t.Errorf("pair (%d,%d) y mismatch %.2f after soft-sym GP", pr[0], pr[1], dy)
		}
	}
}

func TestHardSymmetryTighterThanSoft(t *testing.T) {
	n := testNetlist()
	soft, err := Place(context.Background(), n, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Place(context.Background(), n, Options{Seed: 1, HardSym: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	symErr := func(p *circuit.Placement) float64 {
		gx := make([]float64, len(n.Devices))
		gy := make([]float64, len(n.Devices))
		return SymPenalty(n, p, gx, gy)
	}
	if symErr(hard.Placement) > symErr(soft.Placement)+1e-9 {
		t.Errorf("hard-sym GP has larger symmetry error (%g) than soft (%g)",
			symErr(hard.Placement), symErr(soft.Placement))
	}
}

func TestAreaTermShrinksBoundingBox(t *testing.T) {
	n := testNetlist()
	with, err := Place(context.Background(), n, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Place(context.Background(), n, Options{Seed: 1, NoArea: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	aw := n.Area(with.Placement)
	ao := n.Area(without.Placement)
	if aw > ao*1.05 {
		t.Errorf("area term did not help: with=%.1f without=%.1f", aw, ao)
	}
}

func TestDevicesInsideRegion(t *testing.T) {
	n := testNetlist()
	res, err := Place(context.Background(), n, Options{Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// After normalization the bounding box starts at the origin and should
	// be no larger than the placement region.
	bb := n.BoundingBox(res.Placement)
	if bb.W() > res.Region.W()+1e-6 || bb.H() > res.Region.H()+1e-6 {
		t.Errorf("placement bbox %v exceeds region %v", bb, res.Region)
	}
}

func TestInvalidNetlistRejected(t *testing.T) {
	n := testNetlist()
	n.Nets[0].Pins[0].Device = 99
	if _, err := Place(context.Background(), n, Options{Seed: 1}, nil); err == nil {
		t.Error("expected validation error")
	}
}

func TestSymPenaltyGradientFiniteDifference(t *testing.T) {
	n := testNetlist()
	p := circuit.NewPlacement(n)
	for i := range p.X {
		p.X[i] = float64(3 * i)
		p.Y[i] = float64((i * 7) % 11)
	}
	nd := len(n.Devices)
	gx := make([]float64, nd)
	gy := make([]float64, nd)
	SymPenalty(n, p, gx, gy)
	const h = 1e-6
	eval := func() float64 {
		tx := make([]float64, nd)
		ty := make([]float64, nd)
		return SymPenalty(n, p, tx, ty)
	}
	for i := 0; i < nd; i++ {
		p.X[i] += h
		fp := eval()
		p.X[i] -= 2 * h
		fm := eval()
		p.X[i] += h
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-gx[i]) > 1e-3*(1+math.Abs(fd)) {
			t.Errorf("sym dX[%d]: analytic %g vs FD %g", i, gx[i], fd)
		}
		p.Y[i] += h
		fp = eval()
		p.Y[i] -= 2 * h
		fm = eval()
		p.Y[i] += h
		fd = (fp - fm) / (2 * h)
		if math.Abs(fd-gy[i]) > 1e-3*(1+math.Abs(fd)) {
			t.Errorf("sym dY[%d]: analytic %g vs FD %g", i, gy[i], fd)
		}
	}
}

func TestExtraGradHook(t *testing.T) {
	n := testNetlist()
	called := false
	// An extra term that pulls device 0 toward x = 0 strongly.
	extra := func(p *circuit.Placement, gx, gy []float64) float64 {
		called = true
		gx[0] += 2 * p.X[0] * 10
		return 10 * p.X[0] * p.X[0]
	}
	res, err := Place(context.Background(), n, Options{Seed: 1}, extra)
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("extra term never evaluated")
	}
	base, err := Place(context.Background(), n, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Device 0 should sit further left (relative to the bbox) than without
	// the pull. Compare normalized positions.
	if res.Placement.X[0] > base.Placement.X[0]+1e-9 {
		t.Errorf("extra gradient had no effect: %.2f vs %.2f", res.Placement.X[0], base.Placement.X[0])
	}
}

func TestOptimalAxisWeighting(t *testing.T) {
	n := &circuit.Netlist{
		Devices: []circuit.Device{
			{Name: "a", W: 2, H: 2}, {Name: "b", W: 2, H: 2}, {Name: "c", W: 2, H: 2},
		},
		SymGroups: []circuit.SymmetryGroup{{Pairs: [][2]int{{0, 1}}, Self: []int{2}}},
	}
	p := circuit.NewPlacement(n)
	p.X[0], p.X[1], p.X[2] = 0, 10, 8
	// Pair midpoint 5 (weight 4), self 8 (weight 1): axis = (4·5+8)/5 = 5.6.
	if ax := OptimalAxis(n, p, 0); math.Abs(ax-5.6) > 1e-12 {
		t.Errorf("optimalAxis = %g, want 5.6", ax)
	}
}

// paperNetlist returns the named paper circuit's netlist.
func paperNetlist(t *testing.T, name string) *circuit.Netlist {
	t.Helper()
	c, err := testcircuits.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c.Netlist
}

// TestStallExit pins the stall exit on the ePlace-A portfolio's second
// candidate for Adder at seed 7 (core seeds variant v with 7 + 101·v). Its
// overflow sets its last new low, 0.237, at iteration 542 and then hovers
// near 0.24; the run stops 100 iterations later instead of stretching
// wirelength to its MaxIter of 1500.
func TestStallExit(t *testing.T) {
	n := paperNetlist(t, "Adder")
	opt := Options{Seed: 108, Util: 0.5, Lambda0: 1e-4, LambdaGrowth: 1.025, MaxIter: 1500}
	res, err := Place(context.Background(), n, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != Stalled || res.Iterations != 642 {
		t.Errorf("stop %s after %d iterations, want %s after 642", res.Stop, res.Iterations, Stalled)
	}

	// With a budget that runs out before the stall, the run is capped.
	opt.MaxIter = 600
	if res, err = Place(context.Background(), n, opt, nil); err != nil {
		t.Fatal(err)
	}
	if res.Stop != Capped || res.Iterations != 600 {
		t.Errorf("stop %s after %d iterations, want %s after 600", res.Stop, res.Iterations, Capped)
	}
}

// TestDefaultRunsConverge pins the default options on the five circuits of
// the eplace benchmark workload at seed 7: each reaches the overflow target
// at the iteration it did before the stall exit existed, so the exit never
// fires on a run that converges.
func TestDefaultRunsConverge(t *testing.T) {
	for _, tc := range []struct {
		name  string
		iters int
	}{{"Adder", 220}, {"CC-OTA", 246}, {"VCO2", 260}, {"Comp1", 293}, {"VGA", 256}} {
		res, err := Place(context.Background(), paperNetlist(t, tc.name), Options{Seed: 7}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop != Converged || res.Iterations != tc.iters {
			t.Errorf("%s: stop %s after %d iterations, want %s after %d",
				tc.name, res.Stop, res.Iterations, Converged, tc.iters)
		}
	}
}

// TestDivergedStopsAtLastFiniteIterate feeds GP an extra term that turns
// non-finite from its 60th evaluation: its value is +Inf and its gradient
// NaN, so the step that evaluates it lands on NaN coordinates. The run
// must stop there as diverged and return the last iterate whose objective
// was finite.
func TestDivergedStopsAtLastFiniteIterate(t *testing.T) {
	n := testNetlist()
	calls := 0
	extra := func(p *circuit.Placement, gx, gy []float64) float64 {
		calls++
		if calls < 60 {
			return 0
		}
		gx[0] += math.NaN()
		return math.Inf(1)
	}
	res, err := Place(context.Background(), n, Options{Seed: 1}, extra)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != Diverged {
		t.Errorf("stop %s, want %s", res.Stop, Diverged)
	}
	if res.Iterations >= 900 {
		t.Errorf("ran %d iterations, want fewer than MaxIter", res.Iterations)
	}
	for i := range res.Placement.X {
		if x, y := res.Placement.X[i], res.Placement.Y[i]; math.IsNaN(x+y) || math.IsInf(x+y, 0) {
			t.Fatalf("device %d at non-finite (%g, %g)", i, x, y)
		}
	}
	if math.IsNaN(res.HPWL) || math.IsInf(res.HPWL, 0) {
		t.Errorf("HPWL %g", res.HPWL)
	}
}

func BenchmarkGlobalPlace(b *testing.B) {
	n := testNetlist()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(context.Background(), n, Options{Seed: 1}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmAnchorsHoldDevices places a grown netlist twice from one prior,
// the original's cold GP placement: once with the original's devices
// anchored and once with the prior as initialization only. The anchor
// pseudonets must keep the anchored devices nearer their prior positions.
func TestWarmAnchorsHoldDevices(t *testing.T) {
	base := gen.Params{Devices: 24, Seed: 6}
	n := gen.MustGenerate(base)
	edited := gen.MustGenerate(gen.Edited(base, 1))
	cold, err := Place(context.Background(), n, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nd := len(edited.Devices)
	prior := &circuit.Prior{
		X: make([]float64, nd), Y: make([]float64, nd),
		Valid: make([]bool, nd), Anchored: make([]bool, nd),
	}
	for i := range n.Devices {
		prior.X[i], prior.Y[i] = cold.Placement.X[i], cold.Placement.Y[i]
		prior.Valid[i], prior.Anchored[i] = true, true
	}
	moved := func(anchored []bool) float64 {
		w := *prior
		w.Anchored = anchored
		res, err := Place(context.Background(), edited, Options{Seed: 1, Warm: &w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var d float64
		for i, a := range prior.Anchored {
			if a {
				d += math.Abs(res.Placement.X[i]-w.X[i]) + math.Abs(res.Placement.Y[i]-w.Y[i])
			}
		}
		return d
	}
	with, without := moved(prior.Anchored), moved(nil)
	t.Logf("anchored devices moved %.1f with anchors, %.1f without", with, without)
	if with >= without/4 {
		t.Errorf("anchored devices moved %.1f with anchors, want under a quarter of %.1f without", with, without)
	}
}
