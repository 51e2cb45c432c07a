package wl

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// benchCircuit generates a synthetic netlist and a deterministic spread
// placement for the wirelength kernels.
func benchCircuit(b *testing.B, devices int) (*circuit.Netlist, *circuit.Placement) {
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
	return n, p
}

var benchSizes = []int{100, 1000}

// BenchmarkHPWL measures the exact (non-smoothed) wirelength evaluation
// used by QoR reporting and SA cost deltas.
func BenchmarkHPWL(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			n, p := benchCircuit(b, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkF = n.HPWL(p)
			}
		})
	}
}

// BenchmarkSmoothGrad measures one smoothed-wirelength evaluation with
// gradients — the inner-loop cost of every analytical GP iteration.
func BenchmarkSmoothGrad(b *testing.B) {
	for _, kind := range []Smoother{WA, LSE} {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/n%d", kind, size), func(b *testing.B) {
				n, p := benchCircuit(b, size)
				ev := NewEvaluator(n, kind, 1.0)
				gx := make([]float64, n.NumDevices())
				gy := make([]float64, n.NumDevices())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkF = ev.Eval(p, gx, gy)
				}
			})
		}
	}
}

// BenchmarkAreaGrad measures the WA-smoothed area term with gradients.
func BenchmarkAreaGrad(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			n, p := benchCircuit(b, size)
			ae := NewAreaEvaluator(n, 1.0)
			gx := make([]float64, n.NumDevices())
			gy := make([]float64, n.NumDevices())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkF = ae.Eval(p, gx, gy)
			}
		})
	}
}

// sinkF defeats dead-code elimination of the benchmarked calls.
var sinkF float64
