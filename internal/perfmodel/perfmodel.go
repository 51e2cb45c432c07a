// Package perfmodel is the circuit-performance substrate standing in for
// the paper's routing + parasitic extraction + SPICE pipeline (ALIGN router
// and GF 12 nm simulations, which are proprietary). It estimates per-net
// parasitics from placement geometry with a star wire model, maps them to
// performance metrics (gain, unity-gain frequency, bandwidth, phase margin,
// and per-family equivalents) through smooth analytic sensitivity models,
// applies the paper's metric normalization (Eq. 6), and reports the
// composite FOM. The substitution preserves the property placement can act
// on: performance degrades smoothly with wirelength on critical nets and
// with parasitic mismatch between matched nets.
package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// WireModel converts net geometry into parasitic capacitance:
// C_e = C0 + CPerLen·HPWL_e + CPerFanout·(pins−2).
type WireModel struct {
	C0         float64
	CPerLen    float64
	CPerFanout float64
}

// DefaultWire is a reasonable fF-scale parasitic model for 0.1 µm grid
// units (≈0.2 fF/µm wire capacitance).
var DefaultWire = WireModel{C0: 0.5, CPerLen: 0.02, CPerFanout: 0.3}

// NetCap returns the estimated parasitic capacitance of net e at placement p.
func (w WireModel) NetCap(n *circuit.Netlist, p *circuit.Placement, e int) float64 {
	pins := len(n.Nets[e].Pins)
	return w.C0 + w.CPerLen*n.NetHPWL(p, e) + w.CPerFanout*float64(max(pins-2, 0))
}

// Spec describes one performance metric: its specification ψ, direction
// (Π+ wants the value above ψ, Π− below), and FOM weight β.
type Spec struct {
	Name         string
	Target       float64
	HigherBetter bool
	Weight       float64
}

// MetricDef couples a Spec with its analytic placement-sensitivity model:
//
//	Π+:  z = Base / (1 + Σ_e CapSens_e·(C_e − RefCap_e) + MismatchSens·M)
//	Π−:  z = Base · (1 + Σ_e CapSens_e·(C_e − RefCap_e) + MismatchSens·M)
//
// where M is the total parasitic mismatch over matched net pairs. The
// denominator/multiplier is floored at 0.2 to keep metrics positive for
// pathological placements.
type MetricDef struct {
	Spec
	Base         float64
	CapSens      map[int]float64 // net index → sensitivity (1/fF)
	MismatchSens float64         // 1/fF
}

// Model is the performance evaluator for one circuit.
type Model struct {
	Wire        WireModel
	Metrics     []MetricDef
	MatchedNets [][2]int // net pairs whose parasitics should match

	// RefCap are the per-net reference capacitances the sensitivities are
	// anchored to (typically the caps of a compact reference placement).
	RefCap []float64
}

// Validate checks the model against a netlist.
func (m *Model) Validate(n *circuit.Netlist) error {
	if len(m.Metrics) == 0 {
		return fmt.Errorf("perfmodel: no metrics defined")
	}
	var wsum float64
	for i := range m.Metrics {
		md := &m.Metrics[i]
		if md.Target <= 0 || md.Base <= 0 {
			return fmt.Errorf("perfmodel: metric %s has non-positive target/base", md.Name)
		}
		wsum += md.Weight
		for e := range md.CapSens {
			if e < 0 || e >= len(n.Nets) {
				return fmt.Errorf("perfmodel: metric %s references net %d of %d", md.Name, e, len(n.Nets))
			}
		}
	}
	if math.Abs(wsum-1) > 1e-6 {
		return fmt.Errorf("perfmodel: FOM weights sum to %g, want 1", wsum)
	}
	for _, pr := range m.MatchedNets {
		for _, e := range pr[:] {
			if e < 0 || e >= len(n.Nets) {
				return fmt.Errorf("perfmodel: matched pair references net %d of %d", e, len(n.Nets))
			}
		}
	}
	if len(m.RefCap) != len(n.Nets) {
		return fmt.Errorf("perfmodel: RefCap has %d entries for %d nets", len(m.RefCap), len(n.Nets))
	}
	return nil
}

// Mismatch returns the total absolute parasitic mismatch over matched net
// pairs.
func (m *Model) Mismatch(n *circuit.Netlist, p *circuit.Placement) float64 {
	var s float64
	for _, pr := range m.MatchedNets {
		s += math.Abs(m.Wire.NetCap(n, p, pr[0]) - m.Wire.NetCap(n, p, pr[1]))
	}
	return s
}

// Metrics evaluates every raw metric value at placement p.
func (m *Model) Eval(n *circuit.Netlist, p *circuit.Placement) []float64 {
	mm := m.Mismatch(n, p)
	caps := make([]float64, len(n.Nets))
	for e := range n.Nets {
		caps[e] = m.Wire.NetCap(n, p, e)
	}
	out := make([]float64, len(m.Metrics))
	for i := range m.Metrics {
		md := &m.Metrics[i]
		load := 1.0
		for e, s := range md.CapSens {
			load += s * (caps[e] - m.RefCap[e])
		}
		load += md.MismatchSens * mm
		if load < 0.2 {
			load = 0.2
		}
		if md.HigherBetter {
			out[i] = md.Base / load
		} else {
			out[i] = md.Base * load
		}
	}
	return out
}

// Normalize applies Eq. (6): z̃ = min(z/ψ, 1) for Π+ metrics and
// min(ψ/z, 1) for Π− metrics.
func (m *Model) Normalize(raw []float64) []float64 {
	out := make([]float64, len(raw))
	for i := range raw {
		md := &m.Metrics[i]
		if md.HigherBetter {
			out[i] = math.Min(raw[i]/md.Target, 1)
		} else {
			out[i] = math.Min(md.Target/raw[i], 1)
		}
	}
	return out
}

// FOM returns the composite figure of merit Σ β_i·z̃_i at placement p.
func (m *Model) FOM(n *circuit.Netlist, p *circuit.Placement) float64 {
	norm := m.Normalize(m.Eval(n, p))
	var f float64
	for i, z := range norm {
		f += m.Metrics[i].Weight * z
	}
	return f
}

// SetReferenceLengths anchors RefCap assuming every net has HPWL equal to
// frac·scale (a placement-free compact-layout estimate).
func (m *Model) SetReferenceLengths(n *circuit.Netlist, scale, frac float64) {
	m.RefCap = make([]float64, len(n.Nets))
	for e := range n.Nets {
		pins := len(n.Nets[e].Pins)
		m.RefCap[e] = m.Wire.C0 + m.Wire.CPerLen*frac*scale + m.Wire.CPerFanout*float64(max(pins-2, 0))
	}
}
