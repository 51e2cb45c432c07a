package density

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// benchGrid generates a synthetic netlist, spreads it on a grid, and
// returns an electrostatic model sized to the placement.
func benchGrid(b *testing.B, m, devices int) (*Electrostatic, *circuit.Netlist, *circuit.Placement) {
	b.Helper()
	n, err := gen.Generate(gen.Params{Seed: 3, Devices: devices})
	if err != nil {
		b.Fatal(err)
	}
	p := circuit.NewPlacement(n)
	cols := 1
	for cols*cols < n.NumDevices() {
		cols++
	}
	for i := range p.X {
		p.X[i] = float64(i%cols) * 3
		p.Y[i] = float64(i/cols) * 3
	}
	return NewElectrostatic(m, n.BoundingBox(p)), n, p
}

// BenchmarkUpdate measures bin accumulation alone (density rasterization
// without the Poisson solve): Update is called once per GP iteration.
func BenchmarkUpdate(b *testing.B) {
	for _, size := range []int{100, 1000} {
		b.Run(fmt.Sprintf("m32/n%d", size), func(b *testing.B) {
			g, n, p := benchGrid(b, 32, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.accumulate(n, p)
			}
		})
	}
}

// BenchmarkPoissonSolve measures the spectral Poisson solve alone (DCT,
// spectral scaling, inverse transforms) at production grid sizes plus the
// large m=512/1024 grids the packed-FFT pipeline is gated on. The fast
// transforms make one solve O(m² log m).
func BenchmarkPoissonSolve(b *testing.B) {
	for _, m := range []int{32, 64, 128, 512, 1024} {
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			g, n, p := benchGrid(b, m, 200)
			g.Update(n, p) // fill rho once; solve re-runs on the same density
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.solve()
			}
		})
	}
}

// BenchmarkUpdateFull measures the full per-iteration density cost
// (accumulation + Poisson solve), the number GP iteration budgeting needs.
func BenchmarkUpdateFull(b *testing.B) {
	g, n, p := benchGrid(b, 32, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(n, p)
	}
}

// BenchmarkBell measures the bell model's work at one accepted step of
// prevwork's conjugate-gradient GP (Update, Penalty and AddGrad; a
// rejected line-search trial skips AddGrad) on gen:48@49 at the m=64 grid
// the prev placer runs, with the devices spread over the middle of the
// region as in mid-solve iterations.
func BenchmarkBell(b *testing.B) {
	n, region := bellBenchNetlist(b)
	p := circuit.NewPlacement(n)
	rng := rand.New(rand.NewSource(1))
	side := region.W()
	for i := range p.X {
		p.X[i] = side/2 + (rng.Float64()-0.5)*0.6*side
		p.Y[i] = side/2 + (rng.Float64()-0.5)*0.6*side
	}
	bell := NewBell(64, region, 1.0)
	gx := make([]float64, n.NumDevices())
	gy := make([]float64, n.NumDevices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bell.Update(n, p)
		sinkPenalty = bell.Penalty()
		bell.AddGrad(gx, gy)
	}
}

var sinkPenalty float64
