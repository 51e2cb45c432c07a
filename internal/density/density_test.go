package density

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/geom"
)

// cluster builds k square devices of side s and a placement (no nets; the
// density models ignore connectivity).
func cluster(k int, s float64) (*circuit.Netlist, *circuit.Placement) {
	n := &circuit.Netlist{Name: "cluster"}
	for i := 0; i < k; i++ {
		n.Devices = append(n.Devices, circuit.Device{Name: "d", W: s, H: s})
	}
	return n, circuit.NewPlacement(n)
}

func region() geom.Rect { return geom.RectWH(0, 0, 64, 64) }

func TestElectrostaticChargeConservation(t *testing.T) {
	n, p := cluster(3, 6)
	p.X[0], p.Y[0] = 20, 20
	p.X[1], p.Y[1] = 40, 30
	p.X[2], p.Y[2] = 30, 45
	g := NewElectrostatic(64, region())
	g.Update(n, p)
	binArea := (64.0 / 64) * (64.0 / 64)
	var sum float64
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			sum += g.Rho(x, y) * binArea
		}
	}
	want := n.TotalDeviceArea()
	if math.Abs(sum-want) > 1e-6*want {
		t.Errorf("rasterized charge %.6f, want %.6f", sum, want)
	}
}

func TestElectrostaticSmallDeviceInflationConservesCharge(t *testing.T) {
	// Device smaller than a bin: inflation must preserve total charge.
	n, p := cluster(1, 0.3)
	p.X[0], p.Y[0] = 32, 32
	g := NewElectrostatic(64, region()) // bin = 1x1 > 0.3x0.3
	g.Update(n, p)
	var sum float64
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			sum += g.Rho(x, y)
		}
	}
	if math.Abs(sum-0.09) > 1e-9 {
		t.Errorf("inflated charge %.6f, want 0.09", sum)
	}
}

func TestElectrostaticGradientPushesApart(t *testing.T) {
	n, p := cluster(2, 8)
	// A left of B, heavily overlapped.
	p.X[0], p.Y[0] = 30, 32
	p.X[1], p.Y[1] = 34, 32
	g := NewElectrostatic(64, region())
	g.Update(n, p)
	gx := make([]float64, 2)
	gy := make([]float64, 2)
	g.AddGrad(gx, gy)
	// Descending the gradient must separate them: ∂N/∂x_A > 0 (A pushed
	// left), ∂N/∂x_B < 0 (B pushed right).
	if gx[0] <= 0 || gx[1] >= 0 {
		t.Errorf("gradient does not separate: gx = %v", gx)
	}
	// y-forces should roughly cancel by symmetry.
	if math.Abs(gy[0]) > 0.2*math.Abs(gx[0]) {
		t.Errorf("unexpected y force %g vs x force %g", gy[0], gx[0])
	}
}

func TestElectrostaticEnergyDecreasesWithSeparation(t *testing.T) {
	n, p := cluster(2, 8)
	g := NewElectrostatic(64, region())
	var prev float64
	for step, sep := range []float64{0, 4, 8, 16} {
		p.X[0], p.Y[0] = 32-sep/2-4, 32
		p.X[1], p.Y[1] = 32+sep/2+4, 32
		g.Update(n, p)
		e := g.Energy()
		if step > 0 && e >= prev {
			t.Errorf("energy did not decrease with separation %g: %g >= %g", sep, e, prev)
		}
		prev = e
	}
}

func TestElectrostaticFieldMirrorSymmetry(t *testing.T) {
	n, p := cluster(2, 8)
	p.X[0], p.Y[0] = 24, 32
	p.X[1], p.Y[1] = 40, 32
	g := NewElectrostatic(64, region())
	g.Update(n, p)
	// The configuration is mirror-symmetric about x = 32 (bin column 31.5),
	// so ξx(x, y) ≈ -ξx(63-x, y) up to rasterization asymmetry. The devices
	// cover rows 28–35 only, and the solve reconstructs ξ on those alone,
	// so the field is read off refSolve, which reconstructs every row.
	ex := refSolve(g).ex
	for _, y := range []int{20, 32, 44} {
		for _, x := range []int{10, 20, 28} {
			exL := ex[y*64+x]
			exR := ex[y*64+63-x]
			if math.Abs(exL+exR) > 1e-6+0.05*math.Abs(exL) {
				t.Errorf("field asymmetry at (%d,%d): %g vs %g", x, y, exL, exR)
			}
		}
	}
}

func TestElectrostaticOverflow(t *testing.T) {
	n, p := cluster(4, 8)
	g := NewElectrostatic(64, region())
	// Fully stacked: heavy overflow.
	for i := range p.X {
		p.X[i], p.Y[i] = 32, 32
	}
	g.Update(n, p)
	packed := g.Overflow(n)
	// Spread out: minimal overflow.
	coords := [][2]float64{{12, 12}, {12, 48}, {48, 12}, {48, 48}}
	for i, c := range coords {
		p.X[i], p.Y[i] = c[0], c[1]
	}
	g.Update(n, p)
	spread := g.Overflow(n)
	if packed < 0.5 {
		t.Errorf("packed overflow %.3f unexpectedly low", packed)
	}
	if spread > 0.1 {
		t.Errorf("spread overflow %.3f unexpectedly high", spread)
	}
}

func TestElectrostaticClampsOutsideDevices(t *testing.T) {
	n, p := cluster(1, 6)
	p.X[0], p.Y[0] = -50, 100 // far outside the region
	g := NewElectrostatic(64, region())
	g.Update(n, p)
	var sum float64
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			sum += g.Rho(x, y)
		}
	}
	if math.Abs(sum-36) > 1e-6 {
		t.Errorf("outside device charge %.4f, want 36 (clamped into region)", sum)
	}
}

// Region returns the placement region the grid covers.
func (g *Electrostatic) Region() geom.Rect { return g.region }

// M returns the grid dimension (bins per side).
func (g *Electrostatic) M() int { return g.m }

// Rho returns the density value of bin (x, y) from the last Update.
func (g *Electrostatic) Rho(x, y int) float64 { return g.rho[y*g.m+x] }

func TestElectrostaticAccessors(t *testing.T) {
	g := NewElectrostatic(32, region())
	if g.M() != 32 {
		t.Errorf("M = %d", g.M())
	}
	if g.Region() != region() {
		t.Errorf("Region = %v", g.Region())
	}
	g.setRegion(geom.RectWH(0, 0, 128, 128))
	if g.Region().W() != 128 {
		t.Errorf("setRegion not applied")
	}
}

func TestBellKernelShape(t *testing.T) {
	const w2, r = 4.0, 1.0
	v0, _ := bell(0, w2, r)
	if v0 != 1 {
		t.Errorf("bell(0) = %g, want 1", v0)
	}
	// Zero value and slope at the support edge.
	vEdge, dEdge := bell(w2+2*r, w2, r)
	if vEdge != 0 || dEdge != 0 {
		t.Errorf("bell at support edge = %g, %g; want 0, 0", vEdge, dEdge)
	}
	vOut, dOut := bell(w2+2*r+0.5, w2, r)
	if vOut != 0 || dOut != 0 {
		t.Errorf("bell outside support = %g, %g", vOut, dOut)
	}
	// C¹ continuity at the piece boundary d1 = w2 + r.
	const h = 1e-7
	d1 := w2 + r
	vm, _ := bell(d1-h, w2, r)
	vp, _ := bell(d1+h, w2, r)
	if math.Abs(vm-vp) > 1e-5 {
		t.Errorf("bell value discontinuous at d1: %g vs %g", vm, vp)
	}
	_, sm := bell(d1-h, w2, r)
	_, sp := bell(d1+h, w2, r)
	if math.Abs(sm-sp) > 1e-4 {
		t.Errorf("bell slope discontinuous at d1: %g vs %g", sm, sp)
	}
	// Symmetry and odd derivative.
	vPos, dPos := bell(2.5, w2, r)
	vNeg, dNeg := bell(-2.5, w2, r)
	if vPos != vNeg || dPos != -dNeg {
		t.Errorf("bell not even/odd: (%g,%g) vs (%g,%g)", vPos, dPos, vNeg, dNeg)
	}
	// Derivative matches finite differences inside both pieces.
	for _, d := range []float64{1.0, 4.6} {
		vp, _ := bell(d+h, w2, r)
		vm, _ := bell(d-h, w2, r)
		fd := (vp - vm) / (2 * h)
		_, an := bell(d, w2, r)
		if math.Abs(fd-an) > 1e-5 {
			t.Errorf("bell'(%g): FD %g vs analytic %g", d, fd, an)
		}
	}
}

func TestBellConservation(t *testing.T) {
	n, p := cluster(2, 6)
	p.X[0], p.Y[0] = 20, 20
	p.X[1], p.Y[1] = 44, 40
	b := NewBell(64, region(), 1.0)
	b.Update(n, p)
	var sum float64
	for _, d := range b.dens {
		sum += d
	}
	want := n.TotalDeviceArea()
	if math.Abs(sum-want) > 1e-6*want {
		t.Errorf("bell density total %.6f, want %.6f", sum, want)
	}
}

func TestBellGradientPushesApart(t *testing.T) {
	n, p := cluster(2, 8)
	p.X[0], p.Y[0] = 30, 32
	p.X[1], p.Y[1] = 34, 32
	b := NewBell(64, region(), 1.0)
	b.Update(n, p)
	if b.Penalty() <= 0 {
		t.Fatal("overlapping devices should have positive penalty")
	}
	gx := make([]float64, 2)
	gy := make([]float64, 2)
	b.AddGrad(gx, gy)
	if gx[0] <= 0 || gx[1] >= 0 {
		t.Errorf("bell gradient does not separate: gx = %v", gx)
	}
}

func TestBellGradientFiniteDifference(t *testing.T) {
	n, p := cluster(3, 7)
	p.X[0], p.Y[0] = 28, 30
	p.X[1], p.Y[1] = 33, 33
	p.X[2], p.Y[2] = 30, 37
	b := NewBell(64, region(), 1.0)

	eval := func() float64 {
		b.Update(n, p)
		return b.Penalty()
	}
	b.Update(n, p)
	gx := make([]float64, 3)
	gy := make([]float64, 3)
	b.AddGrad(gx, gy)
	const h = 1e-5
	for i := 0; i < 3; i++ {
		p.X[i] += h
		fp := eval()
		p.X[i] -= 2 * h
		fm := eval()
		p.X[i] += h
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-gx[i]) > 1e-3*(1+math.Abs(fd)) {
			t.Errorf("dPenalty/dX[%d]: analytic %g vs FD %g", i, gx[i], fd)
		}
		p.Y[i] += h
		fp = eval()
		p.Y[i] -= 2 * h
		fm = eval()
		p.Y[i] += h
		fd = (fp - fm) / (2 * h)
		if math.Abs(fd-gy[i]) > 1e-3*(1+math.Abs(fd)) {
			t.Errorf("dPenalty/dY[%d]: analytic %g vs FD %g", i, gy[i], fd)
		}
	}
	// Restore state for later assertions (none currently).
	eval()
}

// Overflow returns the fraction of total device area sitting in bins above
// the target density from the last Update.
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

func TestBellOverflowOrdering(t *testing.T) {
	n, p := cluster(4, 8)
	b := NewBell(64, region(), 1.0)
	for i := range p.X {
		p.X[i], p.Y[i] = 32, 32
	}
	b.Update(n, p)
	packed := b.Overflow(n)
	coords := [][2]float64{{12, 12}, {12, 48}, {48, 12}, {48, 48}}
	for i, c := range coords {
		p.X[i], p.Y[i] = c[0], c[1]
	}
	b.Update(n, p)
	spread := b.Overflow(n)
	if packed <= spread {
		t.Errorf("packed overflow %.3f <= spread overflow %.3f", packed, spread)
	}
}

func BenchmarkElectrostaticUpdate64(b *testing.B) {
	n, p := cluster(40, 5)
	for i := range p.X {
		p.X[i] = float64(8 + (i*7)%48)
		p.Y[i] = float64(8 + (i*11)%48)
	}
	g := NewElectrostatic(64, region())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(n, p)
	}
}
