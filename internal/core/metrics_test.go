package core

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/refine"
	"repro/internal/testcircuits"
)

func TestShortNameRoundTrips(t *testing.T) {
	for _, m := range []Method{MethodSA, MethodPrev, MethodEPlaceA} {
		got, err := ParseMethod(m.ShortName())
		if err != nil {
			t.Fatalf("ParseMethod(%q): %v", m.ShortName(), err)
		}
		if got != m {
			t.Errorf("ParseMethod(%v.ShortName()) = %v", m, got)
		}
	}
}

// TestMeteringIsObservationOnly checks a metered run and an unmetered run at
// the same seed produce identical placements — the metrics registry, like
// the tracer, must never perturb the optimization — and that the analytical
// methods actually feed the kernel histograms. The registry is attached the
// way placerd attaches it: as a metrics.SpanSink on the run's tracer. Each
// method times exactly its own kernels, and every kernel call the tracer
// summarizes is one placer_kernel_seconds observation. Closing the tracer
// fires the summary, whose every counter becomes exactly one
// placer_solver_counter_total series holding the summary's value.
func TestMeteringIsObservationOnly(t *testing.T) {
	c, err := testcircuits.ByName("Adder")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		method  Method
		refine  bool
		kernels []string // sorted
	}{
		{"sa", MethodSA, false, nil},
		{"prev", MethodPrev, false, []string{"density_grad", "density_raster", "wl_grad"}},
		{"eplace-a", MethodEPlaceA, false, []string{"density_raster", "field_sample", "poisson_solve", "wl_grad"}},
		{"eplace-a+refine", MethodEPlaceA, true,
			[]string{"density_raster", "field_sample", "poisson_solve", "refine_window", "wl_grad"}},
	}
	for _, tc := range cases {
		m := tc.method
		opt := Options{Seed: 3, SA: fastSA(3)}
		if tc.refine {
			opt.Refine = &refine.Options{}
		}
		plain, err := Place(c.Netlist, m, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		reg := metrics.New()
		opt.Tracer = obs.New(metrics.NewSpanSink(reg, "stage_seconds",
			"method", m.ShortName(), "size", metrics.SizeClass(len(c.Netlist.Devices))))
		metered, err := Place(c.Netlist, m, opt)
		if err != nil {
			t.Fatalf("%s metered: %v", tc.name, err)
		}
		for i := range plain.Placement.X {
			if plain.Placement.X[i] != metered.Placement.X[i] || plain.Placement.Y[i] != metered.Placement.Y[i] {
				t.Errorf("%s: device %d moved under metering: (%g,%g) vs (%g,%g)", tc.name, i,
					plain.Placement.X[i], plain.Placement.Y[i],
					metered.Placement.X[i], metered.Placement.Y[i])
				break
			}
		}

		if err := opt.Tracer.Close(); err != nil {
			t.Fatalf("%s: closing tracer: %v", tc.name, err)
		}
		var out strings.Builder
		if err := reg.WritePrometheus(&out); err != nil {
			t.Fatalf("%s: WritePrometheus: %v", tc.name, err)
		}
		text := out.String()
		sum := opt.Tracer.Summary()
		solver := solverCounters(t, text)
		if len(solver) != len(sum.Counters) || len(solver) == 0 {
			t.Errorf("%s: %d solver counter series, %d summary counters", tc.name, len(solver), len(sum.Counters))
		}
		for k, v := range sum.Counters {
			if got, ok := solver[k]; !ok || got != v {
				t.Errorf("%s: counter %s: summary %g, placer_solver_counter_total %g (present %v)", tc.name, k, v, got, ok)
			}
		}
		kernels := sum.Kernels
		if m == MethodSA {
			// SA has no GP kernels; nothing must have been registered.
			if strings.Contains(text, "placer_kernel_seconds") || len(kernels) != 0 {
				t.Errorf("%s: unexpected kernels %v, series:\n%s", tc.name, kernels, text)
			}
			continue
		}
		counts := kernelCounts(t, text)
		if counts["wl_grad"] == 0 {
			t.Errorf("%s: wl_grad histogram never observed; exposition:\n%s", tc.name, text)
		}
		if !strings.Contains(text, `placer_kernel_seconds_bucket{method="`+m.ShortName()+`"`) {
			t.Errorf("%s: no kernel bucket series in exposition:\n%s", tc.name, text)
		}
		var names []string
		for k := range kernels {
			names = append(names, k)
		}
		sort.Strings(names)
		if strings.Join(names, ",") != strings.Join(tc.kernels, ",") {
			t.Errorf("%s: summary kernels %v, want %v", tc.name, names, tc.kernels)
		}
		if len(counts) != len(kernels) {
			t.Errorf("%s: %d kernel series, %d summarized kernels", tc.name, len(counts), len(kernels))
		}
		for k, st := range kernels {
			if counts[k] != st.Count {
				t.Errorf("%s: kernel %s: summary counts %d calls, placer_kernel_seconds %d",
					tc.name, k, st.Count, counts[k])
			}
		}
	}
}

// solverCounters reads each counter's placer_solver_counter_total sample
// from a Prometheus exposition.
func solverCounters(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "placer_solver_counter_total{") {
			continue
		}
		_, rest, _ := strings.Cut(line, `counter="`)
		name, _, _ := strings.Cut(rest, `"`)
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad counter line %q: %v", line, err)
		}
		if _, dup := out[name]; dup {
			t.Errorf("counter %s has two series", name)
		}
		out[name] = v
	}
	return out
}

// kernelCounts reads each kernel's placer_kernel_seconds_count from a
// Prometheus exposition.
func kernelCounts(t *testing.T, text string) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "placer_kernel_seconds_count{") {
			continue
		}
		_, rest, _ := strings.Cut(line, `kernel="`)
		name, _, _ := strings.Cut(rest, `"`)
		n, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("bad count line %q: %v", line, err)
		}
		out[name] = n
	}
	return out
}
