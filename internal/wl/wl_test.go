package wl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/geom"
)

// randomNetlist builds nDev single-pin devices (pin at center) and nNet
// random 2-4 pin nets, plus a random placement.
func randomNetlist(rng *rand.Rand, nDev, nNet int) (*circuit.Netlist, *circuit.Placement) {
	n := &circuit.Netlist{Name: "rand"}
	for i := 0; i < nDev; i++ {
		w := 2 + rng.Float64()*6
		h := 2 + rng.Float64()*6
		n.Devices = append(n.Devices, circuit.Device{
			Name: "d", W: w, H: h,
			Pins: []circuit.Pin{{Name: "p", Offset: geom.Point{X: w / 2, Y: h / 2}}},
		})
	}
	for e := 0; e < nNet; e++ {
		k := 2 + rng.Intn(3)
		perm := rng.Perm(nDev)[:k]
		var pins []circuit.PinRef
		for _, d := range perm {
			pins = append(pins, circuit.PinRef{Device: d, Pin: 0})
		}
		n.Nets = append(n.Nets, circuit.Net{Name: "n", Pins: pins})
	}
	p := circuit.NewPlacement(n)
	for i := range p.X {
		p.X[i] = rng.Float64() * 100
		p.Y[i] = rng.Float64() * 100
	}
	return n, p
}

func TestWABoundsHPWL(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n, p := randomNetlist(rng, 8, 6)
		exact := n.HPWL(p)
		wa := NewEvaluator(n, WA, 2.0).Eval(p, nil, nil)
		lse := NewEvaluator(n, LSE, 2.0).Eval(p, nil, nil)
		if wa > exact+1e-9 {
			t.Errorf("WA %.6f exceeds exact HPWL %.6f", wa, exact)
		}
		if lse < exact-1e-9 {
			t.Errorf("LSE %.6f below exact HPWL %.6f", lse, exact)
		}
	}
}

func TestSmoothersConvergeToHPWL(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, p := randomNetlist(rng, 10, 8)
	exact := n.HPWL(p)
	for _, kind := range []Smoother{WA, LSE} {
		prevErr := math.Inf(1)
		for _, gamma := range []float64{8, 2, 0.5, 0.1} {
			got := NewEvaluator(n, kind, gamma).Eval(p, nil, nil)
			err := math.Abs(got - exact)
			if err > prevErr+1e-9 {
				t.Errorf("%v: error grew from %.6f to %.6f as gamma shrank to %g", kind, prevErr, err, gamma)
			}
			prevErr = err
		}
		if prevErr > 0.05*exact {
			t.Errorf("%v: at gamma=0.1 error %.6f still > 5%% of %.6f", kind, prevErr, exact)
		}
	}
}

// TestWAMoreAccurateThanLSE verifies the paper's stated reason for choosing
// WA: smaller estimation error than LSE at the same gamma [23].
func TestWAMoreAccurateThanLSE(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var waErr, lseErr float64
	for trial := 0; trial < 30; trial++ {
		n, p := randomNetlist(rng, 8, 6)
		exact := n.HPWL(p)
		waErr += math.Abs(NewEvaluator(n, WA, 3.0).Eval(p, nil, nil) - exact)
		lseErr += math.Abs(NewEvaluator(n, LSE, 3.0).Eval(p, nil, nil) - exact)
	}
	if waErr >= lseErr {
		t.Errorf("aggregate WA error %.4f >= LSE error %.4f; expected WA more accurate", waErr, lseErr)
	}
}

// checkGrad compares analytic gradients against central finite differences.
func checkGrad(t *testing.T, name string, n *circuit.Netlist, p *circuit.Placement,
	eval func(*circuit.Placement, []float64, []float64) float64) {
	t.Helper()
	nd := len(n.Devices)
	gx := make([]float64, nd)
	gy := make([]float64, nd)
	eval(p, gx, gy)
	const h = 1e-5
	for i := 0; i < nd; i++ {
		p.X[i] += h
		fp := eval(p, nil, nil)
		p.X[i] -= 2 * h
		fm := eval(p, nil, nil)
		p.X[i] += h
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-gx[i]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("%s: dX[%d] analytic %.8f vs FD %.8f", name, i, gx[i], fd)
		}
		p.Y[i] += h
		fp = eval(p, nil, nil)
		p.Y[i] -= 2 * h
		fm = eval(p, nil, nil)
		p.Y[i] += h
		fd = (fp - fm) / (2 * h)
		if math.Abs(fd-gy[i]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("%s: dY[%d] analytic %.8f vs FD %.8f", name, i, gy[i], fd)
		}
	}
}

func TestWAGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, p := randomNetlist(rng, 7, 6)
	ev := NewEvaluator(n, WA, 2.0)
	checkGrad(t, "WA", n, p, func(p *circuit.Placement, gx, gy []float64) float64 {
		if gx != nil {
			for i := range gx {
				gx[i], gy[i] = 0, 0
			}
		}
		return ev.Eval(p, gx, gy)
	})
}

func TestLSEGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, p := randomNetlist(rng, 7, 6)
	ev := NewEvaluator(n, LSE, 2.0)
	checkGrad(t, "LSE", n, p, func(p *circuit.Placement, gx, gy []float64) float64 {
		if gx != nil {
			for i := range gx {
				gx[i], gy[i] = 0, 0
			}
		}
		return ev.Eval(p, gx, gy)
	})
}

func TestAreaEvaluatorValue(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, p := randomNetlist(rng, 9, 0)
	exact := n.Area(p)
	// With tiny gamma, smoothed area approaches the exact bounding-box area.
	got := NewAreaEvaluator(n, 0.05).Eval(p, nil, nil)
	if math.Abs(got-exact) > 0.02*exact {
		t.Errorf("smoothed area %.4f vs exact %.4f", got, exact)
	}
	// Smoothed area never exceeds exact (WA under-approximates spans).
	got2 := NewAreaEvaluator(n, 2.0).Eval(p, nil, nil)
	if got2 > exact+1e-9 {
		t.Errorf("smoothed area %.4f exceeds exact %.4f", got2, exact)
	}
}

func TestAreaGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, p := randomNetlist(rng, 6, 0)
	ae := NewAreaEvaluator(n, 1.5)
	checkGrad(t, "Area", n, p, func(p *circuit.Placement, gx, gy []float64) float64 {
		if gx != nil {
			for i := range gx {
				gx[i], gy[i] = 0, 0
			}
		}
		return ae.Eval(p, gx, gy)
	})
}

// Gamma returns the current smoothing parameter.
func (ev *Evaluator) Gamma() float64 { return ev.gamma }

func TestGammaAccessors(t *testing.T) {
	n, _ := randomNetlist(rand.New(rand.NewSource(8)), 3, 1)
	ev := NewEvaluator(n, WA, 2.0)
	if ev.Gamma() != 2.0 {
		t.Errorf("Gamma = %g", ev.Gamma())
	}
	ev.SetGamma(0.5)
	if ev.Gamma() != 0.5 {
		t.Errorf("after SetGamma, Gamma = %g", ev.Gamma())
	}
}

func TestWeightedNets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, p := randomNetlist(rng, 5, 3)
	base := NewEvaluator(n, WA, 1.0).Eval(p, nil, nil)
	for e := range n.Nets {
		n.Nets[e].Weight = 3
	}
	got := NewEvaluator(n, WA, 1.0).Eval(p, nil, nil)
	if math.Abs(got-3*base) > 1e-9*(1+got) {
		t.Errorf("weighted eval = %.6f, want 3x base %.6f", got, base)
	}
}

func TestSmootherString(t *testing.T) {
	if WA.String() != "WA" || LSE.String() != "LSE" {
		t.Error("Smoother.String wrong")
	}
}

func TestDegenerateSinglePointNet(t *testing.T) {
	// A net whose pins coincide must give ~0 length and finite gradients.
	n := &circuit.Netlist{
		Devices: []circuit.Device{
			{Name: "a", W: 2, H: 2, Pins: []circuit.Pin{{Offset: geom.Point{X: 1, Y: 1}}}},
			{Name: "b", W: 2, H: 2, Pins: []circuit.Pin{{Offset: geom.Point{X: 1, Y: 1}}}},
		},
		Nets: []circuit.Net{{Pins: []circuit.PinRef{{Device: 0, Pin: 0}, {Device: 1, Pin: 0}}}},
	}
	p := circuit.NewPlacement(n)
	p.X[0], p.Y[0] = 5, 5
	p.X[1], p.Y[1] = 5, 5
	for _, kind := range []Smoother{WA, LSE} {
		gx := make([]float64, 2)
		gy := make([]float64, 2)
		v := NewEvaluator(n, kind, 1.0).Eval(p, gx, gy)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%v: degenerate value %v", kind, v)
		}
		for i := range gx {
			if math.IsNaN(gx[i]) || math.IsNaN(gy[i]) {
				t.Errorf("%v: NaN gradient at %d", kind, i)
			}
		}
	}
}

// TestEvalAllocationFree pins the documented contract: an Evaluator does
// all its work in construction-time scratch, so the per-iteration Eval
// allocates nothing.
func TestEvalAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, p := randomNetlist(rng, 80, 120)
	for _, kind := range []Smoother{WA, LSE} {
		ev := NewEvaluator(n, kind, 1.0)
		gx := make([]float64, n.NumDevices())
		gy := make([]float64, n.NumDevices())
		allocs := testing.AllocsPerRun(10, func() {
			sinkF = ev.Eval(p, gx, gy)
		})
		if allocs != 0 {
			t.Errorf("%v: Eval allocates %.0f objects per call, want 0", kind, allocs)
		}
	}
}
