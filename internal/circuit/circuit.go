// Package circuit defines the analog-circuit placement data model shared by
// every placer in this repository: devices with pins, nets, the analog
// geometric constraints studied in the paper (symmetry groups, alignment
// pairs, ordering groups), and placements with exact quality metrics
// (HPWL, bounding-box area, overlap) and legality checks.
//
// Lengths are expressed in integer-friendly grid units where one unit is
// GridMicron micrometers. Metric helpers convert to the µm/µm² figures the
// paper reports.
package circuit

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// GridMicron is the physical size of one grid unit in micrometers.
const GridMicron = 0.1

// DeviceType classifies a device for feature extraction (GNN) and for the
// synthetic performance models. Placement itself only uses geometry.
type DeviceType int

// Device type enumeration.
const (
	NMOS DeviceType = iota
	PMOS
	Cap
	Res
	Ind
	Other
	numDeviceTypes
)

// NumDeviceTypes is the number of distinct device types, for one-hot
// feature encodings.
const NumDeviceTypes = int(numDeviceTypes)

func (t DeviceType) String() string {
	switch t {
	case NMOS:
		return "nmos"
	case PMOS:
		return "pmos"
	case Cap:
		return "cap"
	case Res:
		return "res"
	case Ind:
		return "ind"
	default:
		return "other"
	}
}

// Pin is a connection point on a device, located by its offset from the
// device's lower-left corner in the unflipped orientation.
type Pin struct {
	Name   string
	Offset geom.Point
}

// Device is a placeable analog device (transistor, capacitor, ...) with a
// fixed footprint and a set of pins.
type Device struct {
	Name string
	Type DeviceType
	W, H float64
	Pins []Pin
}

// Area returns the device footprint area in grid units squared.
func (d *Device) Area() float64 { return d.W * d.H }

// PinRef identifies one pin of one device.
type PinRef struct {
	Device int // index into Netlist.Devices
	Pin    int // index into Device.Pins
}

// Net is an electrical net connecting two or more pins. Weight scales the
// net's contribution to wirelength objectives (default 1).
type Net struct {
	Name   string
	Pins   []PinRef
	Weight float64
}

// SymmetryGroup is a set of device pairs mirrored about a shared vertical
// axis plus self-symmetric devices centered on that axis — the constraint
// form of Eq. (4f) in the paper. The axis x-coordinate is a free variable
// determined by the placer.
type SymmetryGroup struct {
	Pairs [][2]int // each pair (q1, q2) mirrored about the axis
	Self  []int    // devices whose center must lie on the axis
}

// Devices returns every device index that belongs to the group.
func (g *SymmetryGroup) Devices() []int {
	out := make([]int, 0, 2*len(g.Pairs)+len(g.Self))
	for _, p := range g.Pairs {
		out = append(out, p[0], p[1])
	}
	out = append(out, g.Self...)
	return out
}

// Netlist is the complete placement problem: devices, nets and analog
// geometric constraints. The zero value is an empty netlist.
type Netlist struct {
	Name    string
	Devices []Device
	Nets    []Net

	// SymGroups are the symmetry constraints S of Eq. (4f).
	SymGroups []SymmetryGroup
	// BottomAlign are bottom-alignment pairs P^B of Eq. (4g).
	BottomAlign [][2]int
	// VCenterAlign are vertical center-alignment pairs P^VC of Eq. (4h).
	VCenterAlign [][2]int
	// HOrders are horizontal ordering groups O^H of Eq. (4i): within each
	// group, devices must appear strictly left-to-right in slice order.
	HOrders [][]int
}

// NumDevices returns the number of placeable devices.
func (n *Netlist) NumDevices() int { return len(n.Devices) }

// TotalDeviceArea returns the sum of device footprint areas in grid units².
func (n *Netlist) TotalDeviceArea() float64 {
	var s float64
	for i := range n.Devices {
		s += n.Devices[i].Area()
	}
	return s
}

// Validate checks internal consistency: every referenced device/pin exists,
// devices have positive dimensions, nets have at least two pins, constraint
// groups reference distinct valid devices. It returns the first problem
// found.
func (n *Netlist) Validate() error {
	for i := range n.Devices {
		d := &n.Devices[i]
		if d.W <= 0 || d.H <= 0 {
			return fmt.Errorf("circuit: device %d (%s) has non-positive size %gx%g", i, d.Name, d.W, d.H)
		}
		for j, p := range d.Pins {
			if p.Offset.X < 0 || p.Offset.X > d.W || p.Offset.Y < 0 || p.Offset.Y > d.H {
				return fmt.Errorf("circuit: device %d (%s) pin %d offset %v outside footprint", i, d.Name, j, p.Offset)
			}
		}
	}
	checkDev := func(ctx string, i int) error {
		if i < 0 || i >= len(n.Devices) {
			return fmt.Errorf("circuit: %s references device %d of %d", ctx, i, len(n.Devices))
		}
		return nil
	}
	for e := range n.Nets {
		net := &n.Nets[e]
		if len(net.Pins) < 1 {
			return fmt.Errorf("circuit: net %d (%s) has no pins", e, net.Name)
		}
		if net.Weight < 0 {
			return fmt.Errorf("circuit: net %d (%s) has negative weight %g", e, net.Name, net.Weight)
		}
		for _, pr := range net.Pins {
			if err := checkDev(fmt.Sprintf("net %d (%s)", e, net.Name), pr.Device); err != nil {
				return err
			}
			if pr.Pin < 0 || pr.Pin >= len(n.Devices[pr.Device].Pins) {
				return fmt.Errorf("circuit: net %d (%s) references pin %d of device %d which has %d pins",
					e, net.Name, pr.Pin, pr.Device, len(n.Devices[pr.Device].Pins))
			}
		}
	}
	seen := make(map[int]int) // device -> symmetry group index
	for gi := range n.SymGroups {
		g := &n.SymGroups[gi]
		if len(g.Pairs) == 0 && len(g.Self) == 0 {
			return fmt.Errorf("circuit: symmetry group %d is empty", gi)
		}
		for _, p := range g.Pairs {
			if p[0] == p[1] {
				return fmt.Errorf("circuit: symmetry group %d pairs device %d with itself", gi, p[0])
			}
		}
		for _, d := range g.Devices() {
			if err := checkDev(fmt.Sprintf("symmetry group %d", gi), d); err != nil {
				return err
			}
			if prev, ok := seen[d]; ok {
				return fmt.Errorf("circuit: device %d in symmetry groups %d and %d", d, prev, gi)
			}
			seen[d] = gi
		}
		for _, p := range g.Pairs {
			a, b := &n.Devices[p[0]], &n.Devices[p[1]]
			if a.W != b.W || a.H != b.H {
				return fmt.Errorf("circuit: symmetric pair (%d,%d) has mismatched footprints %gx%g vs %gx%g",
					p[0], p[1], a.W, a.H, b.W, b.H)
			}
		}
	}
	for _, pr := range n.BottomAlign {
		for _, d := range pr[:] {
			if err := checkDev("bottom-align pair", d); err != nil {
				return err
			}
		}
	}
	for _, pr := range n.VCenterAlign {
		for _, d := range pr[:] {
			if err := checkDev("vcenter-align pair", d); err != nil {
				return err
			}
		}
	}
	for oi, grp := range n.HOrders {
		if len(grp) < 2 {
			return fmt.Errorf("circuit: order group %d has %d devices, need >= 2", oi, len(grp))
		}
		for _, d := range grp {
			if err := checkDev(fmt.Sprintf("order group %d", oi), d); err != nil {
				return err
			}
		}
	}
	return nil
}

// Placement assigns a center coordinate and orientation to every device of
// a netlist, plus the resolved x-coordinate of each symmetry group's axis.
type Placement struct {
	X, Y         []float64 // device center coordinates, grid units
	FlipX, FlipY []bool    // horizontal / vertical flipping per device
	AxisX        []float64 // symmetry axis per SymGroup (len == len(SymGroups))
}

// NewPlacement returns a zeroed placement sized for n.
func NewPlacement(n *Netlist) *Placement {
	return &Placement{
		X:     make([]float64, len(n.Devices)),
		Y:     make([]float64, len(n.Devices)),
		FlipX: make([]bool, len(n.Devices)),
		FlipY: make([]bool, len(n.Devices)),
		AxisX: make([]float64, len(n.SymGroups)),
	}
}

// Clone returns a deep copy of p.
func (p *Placement) Clone() *Placement {
	q := &Placement{
		X:     append([]float64(nil), p.X...),
		Y:     append([]float64(nil), p.Y...),
		FlipX: append([]bool(nil), p.FlipX...),
		FlipY: append([]bool(nil), p.FlipY...),
		AxisX: append([]float64(nil), p.AxisX...),
	}
	return q
}

// Prior is a previous placement mapped onto a netlist's devices, the input
// of an incremental (ECO) re-solve: every placer starts from its usable
// coordinates and holds its anchored devices near them.
type Prior struct {
	// X, Y are per-device prior coordinates. Devices with Valid[i] false
	// have no usable prior position; a nil Valid means every coordinate is
	// usable.
	X, Y  []float64
	Valid []bool
	// Anchored marks the devices held near (X[i], Y[i]). Nil means no
	// anchors: the prior only initializes the solve.
	Anchored []bool
}

// ValidAt reports whether device i has a usable prior coordinate.
func (w *Prior) ValidAt(i int) bool { return w.Valid == nil || w.Valid[i] }

// AnchorCount returns the number of anchored devices.
func (w *Prior) AnchorCount() int {
	n := 0
	for _, a := range w.Anchored {
		if a {
			n++
		}
	}
	return n
}

// DeviceRect returns the placed footprint rectangle of device i.
func (n *Netlist) DeviceRect(p *Placement, i int) geom.Rect {
	d := &n.Devices[i]
	return geom.RectCenter(geom.Point{X: p.X[i], Y: p.Y[i]}, d.W, d.H)
}

// PinPos returns the placed location of a pin, accounting for flipping:
// flipping mirrors the pin offset inside the fixed footprint, exactly as in
// Eq. (4d) of the paper.
func (n *Netlist) PinPos(p *Placement, pr PinRef) geom.Point {
	d := &n.Devices[pr.Device]
	off := d.Pins[pr.Pin].Offset
	ox, oy := off.X, off.Y
	if p.FlipX[pr.Device] {
		ox = d.W - ox
	}
	if p.FlipY[pr.Device] {
		oy = d.H - oy
	}
	return geom.Point{
		X: p.X[pr.Device] - d.W/2 + ox,
		Y: p.Y[pr.Device] - d.H/2 + oy,
	}
}

// NetHPWL returns the exact half-perimeter wirelength of net e (unweighted).
func (n *Netlist) NetHPWL(p *Placement, e int) float64 {
	net := &n.Nets[e]
	if len(net.Pins) == 0 {
		return 0
	}
	pt := n.PinPos(p, net.Pins[0])
	minX, maxX := pt.X, pt.X
	minY, maxY := pt.Y, pt.Y
	for _, pr := range net.Pins[1:] {
		pt = n.PinPos(p, pr)
		minX = math.Min(minX, pt.X)
		maxX = math.Max(maxX, pt.X)
		minY = math.Min(minY, pt.Y)
		maxY = math.Max(maxY, pt.Y)
	}
	return (maxX - minX) + (maxY - minY)
}

// HPWL returns the total weighted half-perimeter wirelength in grid units.
func (n *Netlist) HPWL(p *Placement) float64 {
	var s float64
	for e := range n.Nets {
		w := n.Nets[e].Weight
		if w == 0 {
			w = 1
		}
		s += w * n.NetHPWL(p, e)
	}
	return s
}

// RawHPWL returns the total UNWEIGHTED half-perimeter wirelength in grid
// units: every net counts equally regardless of objective weighting. Used
// wherever a quality judgment must not inherit the objective's deliberate
// de-emphasis of some nets (candidate selection, benchmark QoR).
func (n *Netlist) RawHPWL(p *Placement) float64 {
	var s float64
	for e := range n.Nets {
		s += n.NetHPWL(p, e)
	}
	return s
}

// BoundingBox returns the smallest rectangle containing every placed device.
func (n *Netlist) BoundingBox(p *Placement) geom.Rect {
	var bb geom.Rect
	for i := range n.Devices {
		bb = bb.Union(n.DeviceRect(p, i))
	}
	return bb
}

// Area returns the placement bounding-box area in grid units².
func (n *Netlist) Area(p *Placement) float64 { return n.BoundingBox(p).Area() }

// TotalOverlap returns the summed pairwise interior overlap area between
// placed devices, the exact (non-smoothed) form of Overlap(v).
func (n *Netlist) TotalOverlap(p *Placement) float64 {
	var s float64
	for i := 0; i < len(n.Devices); i++ {
		ri := n.DeviceRect(p, i)
		for j := i + 1; j < len(n.Devices); j++ {
			s += ri.OverlapArea(n.DeviceRect(p, j))
		}
	}
	return s
}

// AreaUM2 converts grid units² to µm².
func AreaUM2(a float64) float64 { return a * GridMicron * GridMicron }

// LenUM converts grid units to µm.
func LenUM(l float64) float64 { return l * GridMicron }

// LegalityReport details every constraint violation found by CheckLegal.
type LegalityReport struct {
	Overlaps      []string
	SymViolations []string
	AlignErrors   []string
	OrderErrors   []string
}

// OK reports whether the placement satisfied every checked constraint.
func (r *LegalityReport) OK() bool {
	return len(r.Overlaps) == 0 && len(r.SymViolations) == 0 &&
		len(r.AlignErrors) == 0 && len(r.OrderErrors) == 0
}

// ViolationCounts is the numeric form of a LegalityReport, for
// machine-readable quality reports.
type ViolationCounts struct {
	Overlaps int `json:"overlaps"`
	Symmetry int `json:"symmetry"`
	Align    int `json:"align"`
	Order    int `json:"order"`
}

// Counts summarizes the report as violation counts per constraint class.
func (r *LegalityReport) Counts() ViolationCounts {
	return ViolationCounts{
		Overlaps: len(r.Overlaps),
		Symmetry: len(r.SymViolations),
		Align:    len(r.AlignErrors),
		Order:    len(r.OrderErrors),
	}
}

// Err returns nil when legal, otherwise an error summarizing the counts.
func (r *LegalityReport) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("circuit: illegal placement: %d overlaps, %d symmetry, %d alignment, %d ordering violations",
		len(r.Overlaps), len(r.SymViolations), len(r.AlignErrors), len(r.OrderErrors))
}

// CheckLegal verifies non-overlap, symmetry, alignment and ordering
// constraints within tolerance tol (grid units; tol² for overlap area).
func (n *Netlist) CheckLegal(p *Placement, tol float64) *LegalityReport {
	rep := &LegalityReport{}
	for i := 0; i < len(n.Devices); i++ {
		ri := n.DeviceRect(p, i)
		for j := i + 1; j < len(n.Devices); j++ {
			// A pair violates non-overlap only when it overlaps by more
			// than tol in BOTH axes; abutted devices with floating-point
			// epsilon intrusion are legal.
			dx, dy := ri.OverlapDims(n.DeviceRect(p, j))
			if dx > tol && dy > tol {
				rep.Overlaps = append(rep.Overlaps,
					fmt.Sprintf("devices %s and %s overlap by %.3fx%.3f", n.Devices[i].Name, n.Devices[j].Name, dx, dy))
			}
		}
	}
	for gi := range n.SymGroups {
		g := &n.SymGroups[gi]
		axis := p.AxisX[gi]
		for _, pr := range g.Pairs {
			q1, q2 := pr[0], pr[1]
			if d := math.Abs(p.Y[q1] - p.Y[q2]); d > tol {
				rep.SymViolations = append(rep.SymViolations,
					fmt.Sprintf("pair (%s,%s) y mismatch %.3f", n.Devices[q1].Name, n.Devices[q2].Name, d))
			}
			if d := math.Abs((p.X[q1]+p.X[q2])/2 - axis); d > tol {
				rep.SymViolations = append(rep.SymViolations,
					fmt.Sprintf("pair (%s,%s) axis offset %.3f", n.Devices[q1].Name, n.Devices[q2].Name, d))
			}
		}
		for _, r := range g.Self {
			if d := math.Abs(p.X[r] - axis); d > tol {
				rep.SymViolations = append(rep.SymViolations,
					fmt.Sprintf("self-symmetric %s axis offset %.3f", n.Devices[r].Name, d))
			}
		}
	}
	for _, pr := range n.BottomAlign {
		b1, b2 := pr[0], pr[1]
		bot1 := p.Y[b1] - n.Devices[b1].H/2
		bot2 := p.Y[b2] - n.Devices[b2].H/2
		if d := math.Abs(bot1 - bot2); d > tol {
			rep.AlignErrors = append(rep.AlignErrors,
				fmt.Sprintf("bottom align (%s,%s) off by %.3f", n.Devices[b1].Name, n.Devices[b2].Name, d))
		}
	}
	for _, pr := range n.VCenterAlign {
		if d := math.Abs(p.X[pr[0]] - p.X[pr[1]]); d > tol {
			rep.AlignErrors = append(rep.AlignErrors,
				fmt.Sprintf("vcenter align (%s,%s) off by %.3f", n.Devices[pr[0]].Name, n.Devices[pr[1]].Name, d))
		}
	}
	for _, grp := range n.HOrders {
		for k := 0; k+1 < len(grp); k++ {
			j, kk := grp[k], grp[k+1]
			right := p.X[j] + n.Devices[j].W/2
			left := p.X[kk] - n.Devices[kk].W/2
			if right > left+tol {
				rep.OrderErrors = append(rep.OrderErrors,
					fmt.Sprintf("order violated: %s right edge %.3f > %s left edge %.3f",
						n.Devices[j].Name, right, n.Devices[kk].Name, left))
			}
		}
	}
	return rep
}

// ErrSize is returned by placement/netlist size mismatches.
var ErrSize = errors.New("circuit: placement size does not match netlist")

// CheckSized verifies that p is sized for n.
func (n *Netlist) CheckSized(p *Placement) error {
	if len(p.X) != len(n.Devices) || len(p.Y) != len(n.Devices) ||
		len(p.FlipX) != len(n.Devices) || len(p.FlipY) != len(n.Devices) ||
		len(p.AxisX) != len(n.SymGroups) {
		return ErrSize
	}
	return nil
}

// Normalize translates the placement so the bounding box's lower-left corner
// sits at the origin, updating symmetry axes accordingly.
func (n *Netlist) Normalize(p *Placement) {
	bb := n.BoundingBox(p)
	if bb.Empty() && len(n.Devices) == 0 {
		return
	}
	dx, dy := -bb.Lo.X, -bb.Lo.Y
	for i := range p.X {
		p.X[i] += dx
		p.Y[i] += dy
	}
	for gi := range p.AxisX {
		p.AxisX[gi] += dx
	}
}

// ResolveAxes sets each symmetry group's axis to the average implied by the
// current device coordinates. Useful after algorithms that move devices
// without tracking the axis variable.
func (n *Netlist) ResolveAxes(p *Placement) {
	for gi := range n.SymGroups {
		g := &n.SymGroups[gi]
		var sum float64
		var cnt int
		for _, pr := range g.Pairs {
			sum += (p.X[pr[0]] + p.X[pr[1]]) / 2
			cnt++
		}
		for _, r := range g.Self {
			sum += p.X[r]
			cnt++
		}
		if cnt > 0 {
			p.AxisX[gi] = sum / float64(cnt)
		}
	}
}

// DeviceDegree returns, for each device, the number of nets it touches.
func (n *Netlist) DeviceDegree() []int {
	deg := make([]int, len(n.Devices))
	for e := range n.Nets {
		touched := map[int]bool{}
		for _, pr := range n.Nets[e].Pins {
			if !touched[pr.Device] {
				touched[pr.Device] = true
				deg[pr.Device]++
			}
		}
	}
	return deg
}
