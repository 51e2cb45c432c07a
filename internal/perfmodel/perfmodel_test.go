package perfmodel

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/geom"
)

// tinyCircuit: three devices, two nets; net 0 and 1 are a matched pair.
func tinyCircuit() *circuit.Netlist {
	mk := func(name string, w, h float64) circuit.Device {
		return circuit.Device{Name: name, W: w, H: h,
			Pins: []circuit.Pin{{Offset: geom.Point{X: w / 2, Y: h / 2}}}}
	}
	return &circuit.Netlist{
		Name:    "tiny",
		Devices: []circuit.Device{mk("a", 4, 4), mk("b", 4, 4), mk("c", 4, 4)},
		Nets: []circuit.Net{
			{Name: "n0", Pins: []circuit.PinRef{{Device: 0, Pin: 0}, {Device: 2, Pin: 0}}},
			{Name: "n1", Pins: []circuit.PinRef{{Device: 1, Pin: 0}, {Device: 2, Pin: 0}}},
		},
	}
}

func tinyModel(n *circuit.Netlist) *Model {
	m := &Model{
		Wire: DefaultWire,
		Metrics: []MetricDef{
			{
				Spec: Spec{Name: "UGF", Target: 1000, HigherBetter: true, Weight: 0.5},
				Base: 1100, CapSens: map[int]float64{0: 0.05, 1: 0.05},
			},
			{
				Spec: Spec{Name: "Offset", Target: 5, HigherBetter: false, Weight: 0.5},
				Base: 4, MismatchSens: 0.5,
			},
		},
		MatchedNets: [][2]int{{0, 1}},
	}
	m.SetReferenceLengths(n, 10, 0.5)
	return m
}

func placeAt(n *circuit.Netlist, coords ...float64) *circuit.Placement {
	p := circuit.NewPlacement(n)
	for i := 0; i < len(coords)/2; i++ {
		p.X[i], p.Y[i] = coords[2*i], coords[2*i+1]
	}
	return p
}

func TestNetCapGrowsWithLength(t *testing.T) {
	n := tinyCircuit()
	short := placeAt(n, 0, 0, 10, 0, 5, 0)
	long := placeAt(n, 0, 0, 10, 0, 50, 0)
	w := DefaultWire
	if w.NetCap(n, long, 0) <= w.NetCap(n, short, 0) {
		t.Error("longer net should have larger cap")
	}
}

func TestNetCapFanout(t *testing.T) {
	n := tinyCircuit()
	n.Nets[0].Pins = append(n.Nets[0].Pins, circuit.PinRef{Device: 1, Pin: 0})
	p := placeAt(n, 0, 0, 0, 0, 0, 0)
	got := DefaultWire.NetCap(n, p, 0)
	want := DefaultWire.C0 + DefaultWire.CPerFanout // 3 pins → one extra fanout
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("NetCap = %g, want %g", got, want)
	}
}

func TestValidate(t *testing.T) {
	n := tinyCircuit()
	m := tinyModel(n)
	if err := m.Validate(n); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := tinyModel(n)
	bad.Metrics[0].Weight = 0.9 // weights no longer sum to 1
	if bad.Validate(n) == nil {
		t.Error("Validate accepted bad weights")
	}
	bad2 := tinyModel(n)
	bad2.Metrics[0].CapSens = map[int]float64{9: 1}
	if bad2.Validate(n) == nil {
		t.Error("Validate accepted bad net reference")
	}
	bad3 := tinyModel(n)
	bad3.RefCap = bad3.RefCap[:1]
	if bad3.Validate(n) == nil {
		t.Error("Validate accepted short RefCap")
	}
}

func TestCompactPlacementBeatsSpread(t *testing.T) {
	n := tinyCircuit()
	m := tinyModel(n)
	compact := placeAt(n, 0, 0, 8, 0, 4, 4)
	spread := placeAt(n, 0, 0, 80, 0, 40, 40)
	if m.FOM(n, compact) <= m.FOM(n, spread) {
		t.Errorf("compact FOM %.3f <= spread FOM %.3f", m.FOM(n, compact), m.FOM(n, spread))
	}
}

func TestMismatchHurtsOffset(t *testing.T) {
	n := tinyCircuit()
	m := tinyModel(n)
	// Symmetric: nets n0 (a-c) and n1 (b-c) have equal length.
	sym := placeAt(n, 0, 0, 20, 0, 10, 0)
	// Asymmetric: a much closer to c than b.
	asym := placeAt(n, 8, 0, 28, 0, 10, 0)
	if m.Mismatch(n, sym) > 1e-9 {
		t.Errorf("symmetric placement has mismatch %g", m.Mismatch(n, sym))
	}
	if m.Mismatch(n, asym) <= 0 {
		t.Error("asymmetric placement should have positive mismatch")
	}
	rawSym := m.Eval(n, sym)
	rawAsym := m.Eval(n, asym)
	if rawAsym[1] <= rawSym[1] {
		t.Errorf("offset did not grow with mismatch: %g vs %g", rawAsym[1], rawSym[1])
	}
}

func TestNormalizeEq6(t *testing.T) {
	n := tinyCircuit()
	m := tinyModel(n)
	norm := m.Normalize([]float64{500, 10})
	// UGF (Π+): 500/1000 = 0.5. Offset (Π−): 5/10 = 0.5.
	if math.Abs(norm[0]-0.5) > 1e-12 || math.Abs(norm[1]-0.5) > 1e-12 {
		t.Errorf("Normalize = %v, want [0.5 0.5]", norm)
	}
	// Clamping at 1.
	norm = m.Normalize([]float64{2000, 1})
	if norm[0] != 1 || norm[1] != 1 {
		t.Errorf("Normalize clamp = %v, want [1 1]", norm)
	}
}

func TestFOMBounds(t *testing.T) {
	n := tinyCircuit()
	m := tinyModel(n)
	for _, p := range []*circuit.Placement{
		placeAt(n, 0, 0, 8, 0, 4, 4),
		placeAt(n, 0, 0, 300, 0, 150, 100),
	} {
		f := m.FOM(n, p)
		if f < 0 || f > 1 {
			t.Errorf("FOM %g out of [0,1]", f)
		}
	}
}

// TestSetReferenceAnchors: with RefCap set to placement p's own net
// capacitances, p is the nominal layout, and Eval there returns Base.
func TestSetReferenceAnchors(t *testing.T) {
	n := tinyCircuit()
	m := tinyModel(n)
	p := placeAt(n, 0, 0, 8, 0, 4, 4)
	m.RefCap = make([]float64, len(n.Nets))
	for e := range n.Nets {
		m.RefCap[e] = m.Wire.NetCap(n, p, e)
	}
	raw := m.Eval(n, p)
	// At the reference placement (zero mismatch), load = 1: raw == Base.
	if math.Abs(raw[0]-m.Metrics[0].Base) > 1e-9 {
		t.Errorf("raw[0] = %g, want Base %g at reference", raw[0], m.Metrics[0].Base)
	}
}

func TestLoadFloorKeepsMetricsPositive(t *testing.T) {
	n := tinyCircuit()
	m := tinyModel(n)
	// Absurdly spread placement: load would go huge / metric near zero, but
	// must stay positive and finite.
	p := placeAt(n, 0, 0, 5000, 0, 2500, 2500)
	for i, z := range m.Eval(n, p) {
		if z <= 0 || math.IsInf(z, 0) || math.IsNaN(z) {
			t.Errorf("metric %d = %g not positive/finite", i, z)
		}
	}
}
