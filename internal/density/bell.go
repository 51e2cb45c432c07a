package density

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/geom"
)

// Bell is the NTUplace3-style smoothed bin-density model used by the
// previous analytical work [11]: each device spreads its area into nearby
// bins through a C¹ bell-shaped kernel, and the penalty is the squared
// excess of bin density over a target. This is the Overlap(v) smoothing the
// baseline global placer optimizes with conjugate gradient.
type Bell struct {
	m      int
	region geom.Rect
	binW   float64
	binH   float64
	target float64 // target density ratio in [0, 1]

	dens  []float64 // smoothed area per bin
	cNorm []float64 // per-device normalization so total spread equals area

	// Per-axis kernel tables of the last Update, flat over devices:
	// device i's entries are xTaps[xOff[i]:xOff[i+1]] and
	// yTaps[yOff[i]:yOff[i+1]].
	xTaps, yTaps []tap
	xOff, yOff   []int
}

// NewBell creates an m×m bell-shaped density grid over region with the
// given target density ratio (typically ~1 for macro-style analog
// placement).
func NewBell(m int, region geom.Rect, target float64) *Bell {
	b := &Bell{
		m:      m,
		target: target,
		dens:   make([]float64, m*m),
	}
	b.SetRegion(region)
	return b
}

// SetRegion re-targets the grid onto a new placement region.
func (b *Bell) SetRegion(region geom.Rect) {
	b.region = region
	b.binW = region.W() / float64(b.m)
	b.binH = region.H() / float64(b.m)
}

// bell evaluates the C¹ bell kernel for half-width w2 (= device dim / 2)
// and bin size r at center distance d, plus its derivative with respect to
// d. The kernel is 1 at d = 0, rolls off quadratically, and reaches zero
// with zero slope at d = w2 + 2r (NTUplace3's px function).
func bell(d, w2, r float64) (val, deriv float64) {
	d1 := w2 + r
	d2 := w2 + 2*r
	ad := math.Abs(d)
	sign := 1.0
	if d < 0 {
		sign = -1
	}
	switch {
	case ad <= d1:
		a := 1 / (d1 * d2)
		return 1 - a*ad*ad, -2 * a * ad * sign
	case ad <= d2:
		bb := 1 / (r * d2)
		t := ad - d2
		return bb * t * t, 2 * bb * t * sign
	default:
		return 0, 0
	}
}

// Update recomputes the smoothed density field for placement p, including
// the per-device normalization constants, and rebuilds the per-device
// kernel tables that AddGrad reads. The bell kernel is separable,
// p_x(b_x)·p_y(b_y), so each device's support is two short per-axis tables
// instead of one kernel evaluation per (b_x, b_y) bin.
func (b *Bell) Update(n *circuit.Netlist, p *circuit.Placement) {
	m := b.m
	for i := range b.dens {
		b.dens[i] = 0
	}
	nd := len(n.Devices)
	if len(b.cNorm) != nd {
		b.cNorm = make([]float64, nd)
		b.xOff = make([]int, nd+1)
		b.yOff = make([]int, nd+1)
	}
	b.xTaps = b.xTaps[:0]
	b.yTaps = b.yTaps[:0]
	for i := range n.Devices {
		d := &n.Devices[i]
		b.xTaps = b.appendTaps(b.xTaps, p.X[i], d.W/2, b.region.Lo.X, b.binW)
		b.yTaps = b.appendTaps(b.yTaps, p.Y[i], d.H/2, b.region.Lo.Y, b.binH)
		b.xOff[i+1] = len(b.xTaps)
		b.yOff[i+1] = len(b.yTaps)
		xs, ys := b.taps(i)
		// First pass: raw kernel sum for normalization.
		var sum float64
		for _, ty := range ys {
			for _, tx := range xs {
				sum += tx.val * ty.val
			}
		}
		if sum <= 0 {
			b.cNorm[i] = 0
			continue
		}
		b.cNorm[i] = d.Area() / sum
		c := b.cNorm[i]
		for _, ty := range ys {
			row := b.dens[ty.bin*m : (ty.bin+1)*m]
			for _, tx := range xs {
				row[tx.bin] += c * tx.val * ty.val
			}
		}
	}
}

// tap is one nonzero entry of a device's per-axis kernel table: the bin
// index (clamped into the grid), and the kernel value and its derivative
// with respect to the bin-center distance.
type tap struct {
	bin      int
	val, der float64
}

// taps returns device i's x and y kernel tables from the last Update.
func (b *Bell) taps(i int) (xs, ys []tap) {
	return b.xTaps[b.xOff[i]:b.xOff[i+1]], b.yTaps[b.yOff[i]:b.yOff[i+1]]
}

// appendTaps appends the kernel table of one axis for a device centered at
// c with half-size half, over bins of size r starting at lo, dropping zero
// entries. Kernel mass that would land outside the region is folded into
// the nearest edge bin (with the kernel still evaluated at the virtual bin
// center), so the region boundary piles up density and repels devices
// instead of silently swallowing their mass — without this, boundaries act
// as density sinks and the placement drifts into a wall.
func (b *Bell) appendTaps(dst []tap, c, half, lo, r float64) []tap {
	supp := half + 2*r
	k0 := int(math.Floor((c - supp - lo) / r))
	k1 := int(math.Ceil((c + supp - lo) / r))
	for k := k0; k < k1; k++ {
		bc := lo + (float64(k)+0.5)*r
		v, dv := bell(bc-c, half, r)
		if v == 0 {
			continue
		}
		bin := k
		if bin < 0 {
			bin = 0
		} else if bin >= b.m {
			bin = b.m - 1
		}
		dst = append(dst, tap{bin: bin, val: v, der: dv})
	}
	return dst
}

// Penalty returns the squared-excess density penalty
// Σ_b max(0, D_b - target·binArea)² from the last Update.
func (b *Bell) Penalty() float64 {
	t := b.target * b.binW * b.binH
	var s float64
	for _, d := range b.dens {
		if d > t {
			e := d - t
			s += e * e
		}
	}
	return s
}

// AddGrad accumulates the penalty gradient with respect to device centers
// at the last Update's placement into gradX/gradY, from that Update's
// kernel tables and density field (normalization constants treated as
// locally constant, the standard NTUplace3 approximation). Note the kernel
// derivative with respect to the device center is the negative of the
// derivative with respect to bin-center distance.
func (b *Bell) AddGrad(gradX, gradY []float64) {
	m := b.m
	t := b.target * b.binW * b.binH
	for i, c := range b.cNorm {
		if c == 0 {
			continue
		}
		xs, ys := b.taps(i)
		var gx, gy float64
		for _, ty := range ys {
			row := b.dens[ty.bin*m : (ty.bin+1)*m]
			for _, tx := range xs {
				e := row[tx.bin] - t
				if e <= 0 {
					continue
				}
				gx += 2 * e * c * (-tx.der) * ty.val
				gy += 2 * e * c * tx.val * (-ty.der)
			}
		}
		gradX[i] += gx
		gradY[i] += gy
	}
}

// Overflow returns the fraction of total device area sitting in bins above
// the target density, mirroring Electrostatic.Overflow for stop criteria.
func (b *Bell) Overflow(n *circuit.Netlist) float64 {
	t := b.target * b.binW * b.binH
	var over float64
	for _, d := range b.dens {
		if d > t {
			over += d - t
		}
	}
	total := n.TotalDeviceArea()
	if total == 0 {
		return 0
	}
	return over / total
}
