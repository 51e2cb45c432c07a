// Package testcircuits provides deterministic synthetic versions of the ten
// benchmark circuits the paper evaluates on (Adder, CC-OTA, Comp1, Comp2,
// CM-OTA1, CM-OTA2, SCF, VGA, VCO1, VCO2). The originals are GF 12 nm
// designs that cannot be redistributed; these stand-ins reproduce what the
// placement problem actually consumes — device footprints, pins, nets,
// symmetry/alignment/ordering constraints, and a per-circuit performance
// model — with topologies modeled on each circuit family (diff pairs with
// mirrored loads, comparator latches, capacitor arrays, ring/LC oscillator
// cores) and dimensions calibrated so layout areas land in the paper's
// ranges.
package testcircuits

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/geom"
	"repro/internal/perfmodel"
)

// Case bundles one benchmark circuit with its performance evaluator.
type Case struct {
	Netlist *circuit.Netlist
	Perf    *perfmodel.Model
	// Threshold is the FOM level below which a placement is labeled
	// "unsatisfactory" when generating GNN training data.
	Threshold float64
}

// Names lists the benchmark circuits in the paper's table order.
func Names() []string {
	return []string{
		"Adder", "CC-OTA", "Comp1", "Comp2", "CM-OTA1",
		"CM-OTA2", "SCF", "VGA", "VCO1", "VCO2",
	}
}

// ByName builds the named benchmark case.
func ByName(name string) (*Case, error) {
	switch name {
	case "Adder":
		return Adder(), nil
	case "CC-OTA":
		return CCOTA(), nil
	case "Comp1":
		return Comp1(), nil
	case "Comp2":
		return Comp2(), nil
	case "CM-OTA1":
		return CMOTA1(), nil
	case "CM-OTA2":
		return CMOTA2(), nil
	case "SCF":
		return SCF(), nil
	case "VGA":
		return VGA(), nil
	case "VCO1":
		return VCO1(), nil
	case "VCO2":
		return VCO2(), nil
	}
	return nil, fmt.Errorf("testcircuits: unknown circuit %q", name)
}

// All builds every benchmark case in table order.
func All() []*Case {
	names := Names()
	out := make([]*Case, len(names))
	for i, nm := range names {
		c, err := ByName(nm)
		if err != nil {
			panic(err) // unreachable: Names and ByName are in sync
		}
		out[i] = c
	}
	return out
}

// builder assembles netlists with device-kind-appropriate pin templates.
type builder struct {
	n      *circuit.Netlist
	netIdx map[string]int
}

func newBuilder(name string) *builder {
	return &builder{
		n:      &circuit.Netlist{Name: name},
		netIdx: map[string]int{},
	}
}

// mos adds a transistor with gate/source/drain pins. The gate sits low-left
// and the drain high-right so flipping is meaningful.
func (b *builder) mos(name string, ty circuit.DeviceType, w, h float64) int {
	b.n.Devices = append(b.n.Devices, circuit.Device{
		Name: name, Type: ty, W: w, H: h,
		Pins: []circuit.Pin{
			{Name: "g", Offset: geom.Point{X: 0.15 * w, Y: 0.5 * h}},
			{Name: "s", Offset: geom.Point{X: 0.5 * w, Y: 0.1 * h}},
			{Name: "d", Offset: geom.Point{X: 0.85 * w, Y: 0.85 * h}},
		},
	})
	return len(b.n.Devices) - 1
}

// twoPin adds a capacitor/resistor/inductor with left/right terminals.
func (b *builder) twoPin(name string, ty circuit.DeviceType, w, h float64) int {
	b.n.Devices = append(b.n.Devices, circuit.Device{
		Name: name, Type: ty, W: w, H: h,
		Pins: []circuit.Pin{
			{Name: "p", Offset: geom.Point{X: 0.15 * w, Y: 0.5 * h}},
			{Name: "n", Offset: geom.Point{X: 0.85 * w, Y: 0.5 * h}},
		},
	})
	return len(b.n.Devices) - 1
}

// pin builds a PinRef from a device index and pin name.
func (b *builder) pin(dev int, pinName string) circuit.PinRef {
	d := &b.n.Devices[dev]
	for pi := range d.Pins {
		if d.Pins[pi].Name == pinName {
			return circuit.PinRef{Device: dev, Pin: pi}
		}
	}
	panic(fmt.Sprintf("testcircuits: device %s has no pin %q", d.Name, pinName))
}

// net adds (or extends) the named net with the given pins and returns its
// index.
func (b *builder) net(name string, pins ...circuit.PinRef) int {
	if e, ok := b.netIdx[name]; ok {
		b.n.Nets[e].Pins = append(b.n.Nets[e].Pins, pins...)
		return e
	}
	b.n.Nets = append(b.n.Nets, circuit.Net{Name: name, Pins: pins})
	e := len(b.n.Nets) - 1
	b.netIdx[name] = e
	return e
}

// sym adds a symmetry group.
func (b *builder) sym(pairs [][2]int, self ...int) {
	b.n.SymGroups = append(b.n.SymGroups, circuit.SymmetryGroup{Pairs: pairs, Self: self})
}

// finish validates the netlist and panics on construction bugs (these are
// compiled-in circuits, so failure is programmer error).
func (b *builder) finish() *circuit.Netlist {
	if err := b.n.Validate(); err != nil {
		panic(fmt.Sprintf("testcircuits: %s: %v", b.n.Name, err))
	}
	return b.n
}

// sensScale globally scales every metric's parasitic sensitivities. It is
// calibrated so that performance-oblivious placements land near the paper's
// conventional FOM levels (~0.8), leaving the headroom performance-driven
// placement exploits.
const sensScale = 2.8

// model builds a perfmodel with references anchored to a compact layout
// estimate (nets at ~60% of the sqrt-area scale).
func model(n *circuit.Netlist, metrics []perfmodel.MetricDef, matched [][2]int) *perfmodel.Model {
	for i := range metrics {
		md := &metrics[i]
		scaled := make(map[int]float64, len(md.CapSens))
		for e, v := range md.CapSens {
			scaled[e] = v * sensScale
		}
		md.CapSens = scaled
		md.MismatchSens *= sensScale
	}
	m := &perfmodel.Model{
		Wire:        perfmodel.DefaultWire,
		Metrics:     metrics,
		MatchedNets: matched,
	}
	scale := math.Sqrt(n.TotalDeviceArea())
	m.SetReferenceLengths(n, scale, 0.6)
	if err := m.Validate(n); err != nil {
		panic(fmt.Sprintf("testcircuits: %s perf model: %v", n.Name, err))
	}
	return m
}
