package density

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/geom"
)

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

// refBell is the per-bin form of the bell model that the separable kernel
// tables replaced: every (b_x, b_y) bin of a device's support re-evaluates
// both axis kernels through a visitor closure, once for the normalization
// sum, once for accumulation, and once more for the gradient. Kept only as
// the bit-identity reference for Bell.
type refBell struct {
	m           int
	region      geom.Rect
	binW, binH  float64
	target      float64
	dens, cNorm []float64
}

func newRefBell(m int, region geom.Rect, target float64) *refBell {
	return &refBell{
		m:      m,
		region: region,
		binW:   region.W() / float64(m),
		binH:   region.H() / float64(m),
		target: target,
		dens:   make([]float64, m*m),
	}
}

func (b *refBell) update(n *circuit.Netlist, p *circuit.Placement) {
	m := b.m
	for i := range b.dens {
		b.dens[i] = 0
	}
	b.cNorm = make([]float64, len(n.Devices))
	for i := range n.Devices {
		d := &n.Devices[i]
		var sum float64
		b.visit(n, p, i, func(bx, by int, px, py, _, _ float64) {
			sum += px * py
		})
		if sum <= 0 {
			b.cNorm[i] = 0
			continue
		}
		b.cNorm[i] = d.Area() / sum
		c := b.cNorm[i]
		b.visit(n, p, i, func(bx, by int, px, py, _, _ float64) {
			b.dens[by*m+bx] += c * px * py
		})
	}
}

func (b *refBell) visit(n *circuit.Netlist, p *circuit.Placement, i int,
	fn func(bx, by int, px, py, dpx, dpy float64)) {
	d := &n.Devices[i]
	cx, cy := p.X[i], p.Y[i]
	suppX := d.W/2 + 2*b.binW
	suppY := d.H/2 + 2*b.binH
	x0 := int(math.Floor((cx - suppX - b.region.Lo.X) / b.binW))
	x1 := int(math.Ceil((cx + suppX - b.region.Lo.X) / b.binW))
	y0 := int(math.Floor((cy - suppY - b.region.Lo.Y) / b.binH))
	y1 := int(math.Ceil((cy + suppY - b.region.Lo.Y) / b.binH))
	clampIdx := func(v int) int {
		if v < 0 {
			return 0
		}
		if v >= b.m {
			return b.m - 1
		}
		return v
	}
	for by := y0; by < y1; by++ {
		bcy := b.region.Lo.Y + (float64(by)+0.5)*b.binH
		py, dpy := bell(bcy-cy, d.H/2, b.binH)
		if py == 0 {
			continue
		}
		for bx := x0; bx < x1; bx++ {
			bcx := b.region.Lo.X + (float64(bx)+0.5)*b.binW
			px, dpx := bell(bcx-cx, d.W/2, b.binW)
			if px == 0 {
				continue
			}
			fn(clampIdx(bx), clampIdx(by), px, py, dpx, dpy)
		}
	}
}

func (b *refBell) penalty() float64 {
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

func (b *refBell) addGrad(n *circuit.Netlist, p *circuit.Placement, gradX, gradY []float64) {
	m := b.m
	t := b.target * b.binW * b.binH
	for i := range n.Devices {
		c := b.cNorm[i]
		if c == 0 {
			continue
		}
		var gx, gy float64
		b.visit(n, p, i, func(bx, by int, px, py, dpx, dpy float64) {
			e := b.dens[by*m+bx] - t
			if e <= 0 {
				return
			}
			gx += 2 * e * c * (-dpx) * py
			gy += 2 * e * c * px * (-dpy)
		})
		gradX[i] += gx
		gradY[i] += gy
	}
}

// bellBenchNetlist returns gen:48@49 (the largest quick-suite case, which
// the prev workload places) and the square region prevwork gives it at its
// default utilization of 0.5.
func bellBenchNetlist(tb testing.TB) (*circuit.Netlist, geom.Rect) {
	tb.Helper()
	spec, err := gen.ParseSpec("gen:48@49")
	if err != nil {
		tb.Fatal(err)
	}
	n, err := gen.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	side := math.Sqrt(n.TotalDeviceArea() / 0.5)
	return n, geom.RectWH(0, 0, side, side)
}

// TestBellMatchesPerBinReference pins the separable kernel tables to the
// per-bin form bit for bit: the density field, normalization constants,
// penalty and gradient must be exactly equal (==, no tolerance) over random
// placements that put devices across and beyond the region edge (where
// mass folds into edge bins), plus a device wider than the region and one
// whose whole support lies outside it. One Bell is reused across all
// placements, so stale table entries from a previous Update would show.
func TestBellMatchesPerBinReference(t *testing.T) {
	n, region := bellBenchNetlist(t)
	side := region.W()
	// Device 0 is wider than the region; the last device is placed with
	// its whole kernel support outside the region in trials where it is.
	n.Devices[0].W = 1.3 * side
	last := len(n.Devices) - 1
	const m = 64
	b := NewBell(m, region, 1.0)
	ref := newRefBell(m, region, 1.0)
	rng := rand.New(rand.NewSource(49))
	p := circuit.NewPlacement(n)
	nd := len(n.Devices)
	for trial := 0; trial < 40; trial++ {
		spread := 0.3 + 1.2*float64(trial%4)/3 // 0.3 … 1.5 × side around the center
		for i := 0; i < nd; i++ {
			p.X[i] = side/2 + (rng.Float64()-0.5)*spread*side
			p.Y[i] = side/2 + (rng.Float64()-0.5)*spread*side
		}
		if trial%3 == 0 {
			d := &n.Devices[last]
			p.X[last] = -d.W/2 - 3*side/m - rng.Float64()*side
			p.Y[last] = side + d.H/2 + 3*side/m + rng.Float64()*side
		}
		b.Update(n, p)
		ref.update(n, p)
		for k := range ref.dens {
			if b.dens[k] != ref.dens[k] {
				t.Fatalf("trial %d: dens[%d] = %v, reference %v", trial, k, b.dens[k], ref.dens[k])
			}
		}
		for i := range ref.cNorm {
			if b.cNorm[i] != ref.cNorm[i] {
				t.Fatalf("trial %d: cNorm[%d] = %v, reference %v", trial, i, b.cNorm[i], ref.cNorm[i])
			}
		}
		if got, want := b.Penalty(), ref.penalty(); got != want {
			t.Fatalf("trial %d: Penalty = %v, reference %v", trial, got, want)
		}
		gx, gy := make([]float64, nd), make([]float64, nd)
		rx, ry := make([]float64, nd), make([]float64, nd)
		b.AddGrad(gx, gy)
		ref.addGrad(n, p, rx, ry)
		for i := 0; i < nd; i++ {
			if gx[i] != rx[i] || gy[i] != ry[i] {
				t.Fatalf("trial %d: grad[%d] = (%v, %v), reference (%v, %v)",
					trial, i, gx[i], gy[i], rx[i], ry[i])
			}
		}
	}
}

// TestBellFoldsOutsideMassIntoEdgeBins checks the edge handling the
// reference test's inputs exercise: a device whose whole kernel support
// lies beyond a corner of the region lands, all of it, in that corner bin,
// and with a device wider than the region the field still holds exactly
// the total device area.
func TestBellFoldsOutsideMassIntoEdgeBins(t *testing.T) {
	n, region := bellBenchNetlist(t)
	side := region.W()
	n.Devices[0].W = 1.3 * side
	last := len(n.Devices) - 1
	p := circuit.NewPlacement(n)
	for i := range p.X {
		p.X[i], p.Y[i] = side/2, side/2
	}
	d := &n.Devices[last]
	p.X[last] = -d.W/2 - 3*side/64
	p.Y[last] = side + d.H/2 + 3*side/64
	b := NewBell(64, region, 1.0)
	b.Update(n, p)
	if got, want := b.dens[63*64], d.Area(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("top-left corner bin holds %v, want the outside device's area %v", got, want)
	}
	var sum float64
	for _, v := range b.dens {
		sum += v
	}
	if want := n.TotalDeviceArea(); math.Abs(sum-want) > 1e-9*want {
		t.Errorf("density total %v, want total device area %v", sum, want)
	}
}
