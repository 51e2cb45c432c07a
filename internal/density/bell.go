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

	// Bounding box of the bins the last Update wrote, as half-open bin
	// ranges [x0, x1) × [y0, y1); empty when x0 ≥ x1. Every bin outside
	// it holds 0, which never exceeds the target, so Penalty scans only
	// the box and the next Update clears only the span of dens from the
	// box's first bin to its last.
	x0, x1, y0, y1 int

	// Per-axis kernel tables of the last Update, flat over devices:
	// device i's entries are xTaps[xOff[i]:xOff[i+1]] and
	// yTaps[yOff[i]:yOff[i+1]].
	xTaps, yTaps []tap
	xOff, yOff   []int
	cx           []float64 // scratch: one device's c·p_x per x-tap
}

// NewBell creates an m×m bell-shaped density grid over region with the
// given target density ratio (typically ~1 for macro-style analog
// placement).
func NewBell(m int, region geom.Rect, target float64) *Bell {
	return &Bell{
		m:      m,
		region: region,
		binW:   region.W() / float64(m),
		binH:   region.H() / float64(m),
		target: target,
		dens:   make([]float64, m*m),
	}
}

// Update recomputes the smoothed density field for placement p, including
// the per-device normalization constants, and rebuilds the per-device
// kernel tables that AddGrad reads. The bell kernel is separable,
// p_x(b_x)·p_y(b_y), so each device's support is two short per-axis tables
// instead of one kernel evaluation per (b_x, b_y) bin.
func (b *Bell) Update(n *circuit.Netlist, p *circuit.Placement) {
	m := b.m
	if b.x0 < b.x1 {
		clear(b.dens[b.y0*m+b.x0 : (b.y1-1)*m+b.x1])
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
		// c·p_x·p_y evaluates as (c·p_x)·p_y, so the product per x-tap is
		// hoisted out of the row loop without changing a bit.
		cx := b.cx[:0]
		for _, tx := range xs {
			cx = append(cx, c*tx.val)
		}
		b.cx = cx
		for _, ty := range ys {
			row := b.dens[ty.bin*m : (ty.bin+1)*m]
			for k, tx := range xs[:len(cx)] {
				row[tx.bin] += cx[k] * ty.val
			}
		}
	}
	// The box of the bins written above: clamped tap bins never decrease
	// along an axis, so a device spans its first tap bin to its last.
	x0, x1, y0, y1 := m, 0, m, 0
	for i, c := range b.cNorm {
		if c == 0 {
			continue
		}
		xs, ys := b.taps(i)
		x0, x1 = min(x0, xs[0].bin), max(x1, xs[len(xs)-1].bin+1)
		y0, y1 = min(y0, ys[0].bin), max(y1, ys[len(ys)-1].bin+1)
	}
	b.x0, b.x1, b.y0, b.y1 = x0, x1, y0, y1
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
//
// The kernel (NTUplace3's px function) has half-width half and bin size r:
// with d1 = half + r and d2 = half + 2r, it is 1 − a·d² for |d| ≤ d1 and
// b·(|d| − d2)² for d1 < |d| ≤ d2, where a = 1/(d1·d2) and b = 1/(r·d2).
// It is 1 at d = 0 and reaches zero with zero slope at |d| = d2; der is
// its derivative with respect to d. The two reciprocals are computed once
// per device axis.
func (b *Bell) appendTaps(dst []tap, c, half, lo, r float64) []tap {
	d1 := half + r
	d2 := half + 2*r
	ka := 1 / (d1 * d2)
	kb := 1 / (r * d2)
	k0 := int(math.Floor((c - d2 - lo) / r))
	k1 := int(math.Ceil((c + d2 - lo) / r))
	for k := k0; k < k1; k++ {
		d := lo + (float64(k)+0.5)*r - c
		ad := math.Abs(d)
		sign := 1.0
		if d < 0 {
			sign = -1
		}
		var v, dv float64
		switch {
		case ad <= d1:
			v, dv = 1-ka*ad*ad, -2*ka*ad*sign
		case ad <= d2:
			t := ad - d2
			v, dv = kb*t*t, 2*kb*t*sign
		}
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
	for y := b.y0; y < b.y1; y++ {
		for _, d := range b.dens[y*b.m+b.x0 : y*b.m+b.x1] {
			if d > t {
				e := d - t
				s += e * e
			}
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
