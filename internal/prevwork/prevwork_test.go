package prevwork

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/detailed"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
)

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
	return &circuit.Netlist{
		Name: "prev-test",
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

func TestPlaceRuns(t *testing.T) {
	n := testNetlist()
	res, err := Place(context.Background(), n, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Error("no iterations run")
	}
	if res.HPWL <= 0 {
		t.Error("HPWL not recorded")
	}
	// GP should leave modest overlap for legalization to fix.
	frac := n.TotalOverlap(res.Placement) / n.TotalDeviceArea()
	if frac > 0.35 {
		t.Errorf("residual overlap fraction %.3f very high", frac)
	}
}

func TestDeterminism(t *testing.T) {
	n := testNetlist()
	r1, err := Place(context.Background(), n, Options{Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Place(context.Background(), n, Options{Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Placement.X {
		if r1.Placement.X[i] != r2.Placement.X[i] {
			t.Fatal("nondeterministic placement")
		}
	}
}

func TestFullFlowWithTwoStageLP(t *testing.T) {
	n := testNetlist()
	gp, err := Place(context.Background(), n, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := detailed.Place(context.Background(), n, gp.Placement, detailed.Options{Mode: detailed.ModeTwoStageLP})
	if err != nil {
		t.Fatal(err)
	}
	if rep := n.CheckLegal(dp.Placement, 1e-6); !rep.OK() {
		t.Fatalf("full [11] flow produced illegal placement: %v", rep.Err())
	}
}

func TestExtraTermInfluences(t *testing.T) {
	n := testNetlist()
	base, err := Place(context.Background(), n, Options{Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	extra := func(p *circuit.Placement, gx, gy []float64) float64 {
		// Strong pull of device 8 toward x = 0.
		gx[8] += 50 * 2 * p.X[8]
		return 50 * p.X[8] * p.X[8]
	}
	pulled, err := Place(context.Background(), n, Options{Seed: 2}, extra)
	if err != nil {
		t.Fatal(err)
	}
	if pulled.Placement.X[8] > base.Placement.X[8]+1e-9 {
		t.Errorf("extra term had no effect: %.2f vs %.2f", pulled.Placement.X[8], base.Placement.X[8])
	}
}

// TestBellGradientOnlyAtAcceptedSteps checks that CG's rejected Armijo
// trials cost no bell gradient: density_grad runs once at calibration,
// once per epoch start and once per accepted step, while density_raster
// runs at every objective value, rejected trials included.
func TestBellGradientOnlyAtAcceptedSteps(t *testing.T) {
	tr := obs.New(&obs.MemorySink{})
	const epochs = 14
	if _, err := Place(context.Background(), testNetlist(), Options{Seed: 1, Epochs: epochs, Tracer: tr}, nil); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	grads := sum.Kernels["density_grad"].Count
	rasters := sum.Kernels["density_raster"].Count
	iters := int(sum.Counters["prev.iterations"])
	if want := iters + epochs + 1; grads != want {
		t.Errorf("density_grad ran %d times, want %d (%d accepted steps, %d epoch starts, 1 calibration)",
			grads, want, iters, epochs)
	}
	if rasters <= grads {
		t.Errorf("density_raster ran %d times, density_grad %d; want more rasters than gradients", rasters, grads)
	}
}

func TestInvalidNetlistRejected(t *testing.T) {
	n := testNetlist()
	n.Devices[0].H = -2
	if _, err := Place(context.Background(), n, Options{Seed: 1}, nil); err == nil {
		t.Error("expected validation error")
	}
}

func BenchmarkPrevGlobalPlace(b *testing.B) {
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
