package wl

import (
	"math"
	"math/rand"
	"testing"
)

// waAxisTwoPass and lseAxisTwoPass are the two-pass forms of waAxis and
// lseAxis: the gradient pass recomputes every pin's exponentials instead
// of reading the ones the value pass stored. Kept only as the bit-identity
// reference.
func waAxisTwoPass(coords, grad []float64, gamma float64) float64 {
	maxC, minC := coords[0], coords[0]
	for _, c := range coords[1:] {
		maxC = math.Max(maxC, c)
		minC = math.Min(minC, c)
	}
	var sp, tp, sm, tm float64
	for _, c := range coords {
		ep := math.Exp((c - maxC) / gamma)
		em := math.Exp((minC - c) / gamma)
		sp += ep
		tp += c * ep
		sm += em
		tm += c * em
	}
	waMax := tp / sp
	waMin := tm / sm
	for i, c := range coords {
		ep := math.Exp((c - maxC) / gamma)
		em := math.Exp((minC - c) / gamma)
		dMax := (ep / sp) * (1 + (c-waMax)/gamma)
		dMin := (em / sm) * (1 - (c-waMin)/gamma)
		grad[i] = dMax - dMin
	}
	return waMax - waMin
}

func lseAxisTwoPass(coords, grad []float64, gamma float64) float64 {
	maxC, minC := coords[0], coords[0]
	for _, c := range coords[1:] {
		maxC = math.Max(maxC, c)
		minC = math.Min(minC, c)
	}
	var sp, sm float64
	for _, c := range coords {
		sp += math.Exp((c - maxC) / gamma)
		sm += math.Exp((minC - c) / gamma)
	}
	val := maxC + gamma*math.Log(sp) - (minC - gamma*math.Log(sm))
	for i, c := range coords {
		ep := math.Exp((c-maxC)/gamma) / sp
		em := math.Exp((minC-c)/gamma) / sm
		grad[i] = ep - em
	}
	return val
}

// TestAxisMatchesTwoPassReference requires waAxis and lseAxis, which reuse
// the value pass's exponentials in the gradient pass, to return exactly
// (==) the value and per-pin gradient of the two-pass forms — over
// coincident pins, a single pin, spreads wide enough to underflow the
// exponentials, and random nets at the gammas the placers use.
func TestAxisMatchesTwoPassReference(t *testing.T) {
	type axisCase struct {
		name   string
		coords []float64
		gamma  float64
	}
	rng := rand.New(rand.NewSource(10))
	cases := []axisCase{
		{"single pin", []float64{3.5}, 1},
		{"coincident", []float64{5, 5, 5}, 0.5},
		{"two pins", []float64{-2, 7}, 2},
		{"underflow", []float64{0, 1e4, 3, 9e3}, 0.05},
	}
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(30)
		coords := make([]float64, k)
		for i := range coords {
			coords[i] = (rng.Float64() - 0.5) * 200
		}
		gamma := []float64{0.1, 0.5, 2, 8, 40}[trial%5]
		cases = append(cases, axisCase{"random", coords, gamma})
	}
	for _, tc := range cases {
		k := len(tc.coords)
		ep, em := make([]float64, k), make([]float64, k)
		for _, kind := range []Smoother{WA, LSE} {
			got, want := make([]float64, k), make([]float64, k)
			var v, rv float64
			if kind == WA {
				v = waAxis(tc.coords, got, ep, em, tc.gamma, true)
				rv = waAxisTwoPass(tc.coords, want, tc.gamma)
			} else {
				v = lseAxis(tc.coords, got, ep, em, tc.gamma, true)
				rv = lseAxisTwoPass(tc.coords, want, tc.gamma)
			}
			if v != rv {
				t.Fatalf("%s %v γ=%g: value %v, two-pass %v", tc.name, kind, tc.gamma, v, rv)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %v γ=%g: grad[%d] %v, two-pass %v", tc.name, kind, tc.gamma, i, got[i], want[i])
				}
			}
		}
	}
}
