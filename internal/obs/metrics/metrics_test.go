package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestHistogramBucketBoundaries pins the binning convention: Prometheus
// buckets are upper-inclusive (le), values above the last bound land in
// +Inf, and exact boundary values count into their own bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "", []float64{1, 2, 5})
	for _, v := range []float64{0, 1, 1.0000001, 2, 4.9, 5, 5.1, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2} // (-inf,1]: {0,1}; (1,2]: {1.0000001,2}; (2,5]: {4.9,5}
	for i, w := range want {
		if got := h.s.counts[i].Load(); got != w {
			t.Errorf("bucket %d: count %d, want %d", i, got, w)
		}
	}
	if got := h.s.inf.Load(); got != 2 { // {5.1, 100}
		t.Errorf("+Inf bucket: count %d, want 2", got)
	}
	if got, want := h.Count(), uint64(8); got != want {
		t.Errorf("Count() = %d, want %d", got, want)
	}
	if got, want := h.Sum(), 0+1+1.0000001+2+4.9+5+5.1+100; got != want {
		t.Errorf("Sum() = %g, want %g", got, want)
	}
}

// TestWritePrometheusGolden locks the exposition byte format: HELP/TYPE
// lines, sorted families, sorted series, cumulative buckets with +Inf,
// _sum/_count, and label escaping.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("jobs_total", "Jobs by terminal state.", "state", "done").Add(3)
	r.Counter("jobs_total", "Jobs by terminal state.", "state", "failed").Inc()
	r.Gauge("queue_depth", "Jobs waiting.").Set(2)
	h := r.Histogram("solve_seconds", "Solve latency.", []float64{0.1, 1}, "method", "sa")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(30)
	r.Gauge("odd", "line one\nline two", "k", `va"l\ue`).Set(1.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	const want = `# HELP jobs_total Jobs by terminal state.
# TYPE jobs_total counter
jobs_total{state="done"} 3
jobs_total{state="failed"} 1
# HELP odd line one\nline two
# TYPE odd gauge
odd{k="va\"l\\ue"} 1.5
# HELP queue_depth Jobs waiting.
# TYPE queue_depth gauge
queue_depth 2
# HELP solve_seconds Solve latency.
# TYPE solve_seconds histogram
solve_seconds_bucket{method="sa",le="0.1"} 1
solve_seconds_bucket{method="sa",le="1"} 3
solve_seconds_bucket{method="sa",le="+Inf"} 4
solve_seconds_sum{method="sa"} 31.05
solve_seconds_count{method="sa"} 4
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestNilSafety exercises the zero-cost-when-nil contract end to end: a
// nil registry hands out nil handles, and every handle method is a no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DefBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil handles: %v %v %v", c, g, h)
	}
	c.Add(1)
	c.Inc()
	g.Set(2)
	g.Add(-1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles reported nonzero state")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	s := NewSpanSink(r, "x")
	s.Emit(obs.Event{Kind: obs.KindSpanEnd, Span: "place/gp", DurMS: 10})
	s.Kernel("wl_grad", time.Millisecond)
}

// TestHandleReuseValidation: a name reused with a different type, label
// keys, or bucket layout must panic loudly rather than corrupt exposition.
func TestHandleReuseValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := New()
	r.Counter("a", "", "k", "v")
	mustPanic("type change", func() { r.Gauge("a", "") })
	mustPanic("label change", func() { r.Counter("a", "", "other", "v") })
	r.Histogram("h", "", []float64{1, 2})
	mustPanic("bucket change", func() { r.Histogram("h", "", []float64{1, 3}) })
	mustPanic("odd labels", func() { r.Counter("b", "", "k") })
	mustPanic("unsorted buckets", func() { r.Histogram("h2", "", []float64{2, 1}) })
	mustPanic("negative counter", func() { r.Counter("c", "").Add(-1) })
}

// TestConcurrentObserve hammers one histogram and one counter from many
// goroutines; the totals must be exact (atomics, not racy adds).
func TestConcurrentObserve(t *testing.T) {
	r := New()
	h := r.Histogram("h", "", []float64{0.5})
	c := r.Counter("c", "")
	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(0.25)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), uint64(workers*each); got != want {
		t.Errorf("histogram count %d, want %d", got, want)
	}
	if got, want := c.Value(), float64(workers*each); got != want {
		t.Errorf("counter %g, want %g", got, want)
	}
}

// TestObserveAllocationFree proves the hot-path contract: once the handle
// is resolved, Observe/Add/Set allocate nothing.
func TestObserveAllocationFree(t *testing.T) {
	r := New()
	h := r.Histogram("h", "", KernelBuckets)
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f per call, want 0", n)
	}
	s := NewSpanSink(r, "stage_seconds", "method", "eplace-a")
	s.Kernel("wl_grad", time.Millisecond)
	if n := testing.AllocsPerRun(1000, func() { s.Kernel("wl_grad", time.Millisecond) }); n != 0 {
		t.Errorf("SpanSink.Kernel allocates %.1f per call, want 0", n)
	}
}

// BenchmarkHistogramObserve is the CI-visible form of the allocation-free
// claim (run with -benchmem: 0 allocs/op).
func BenchmarkHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram("h", "", KernelBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

// BenchmarkHistogramObserveParallel measures contention across goroutines
// (the service case: many jobs observing into shared families).
func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := New()
	h := r.Histogram("h", "", DefBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.001
		for pb.Next() {
			h.Observe(v)
			v += 0.001
			if v > 10 {
				v = 0.001
			}
		}
	})
}

func TestSpanSinkBridgesSpanEnds(t *testing.T) {
	r := New()
	trc := obs.New(NewSpanSink(r, "stage_seconds", "method", "eplace-a"))
	outer := trc.StartSpan("place")
	trc.StartSpan("gp").End()
	trc.StartSpan("refine-0").End()
	trc.StartSpan("refine-1").End()
	outer.End()
	trc.Close()

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`stage_seconds_count{method="eplace-a",stage="gp"} 1`,
		`stage_seconds_count{method="eplace-a",stage="refine"} 2`,
		`stage_seconds_count{method="eplace-a",stage="place"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSpanSinkBridgesSummaryCounters checks each run's summary counters
// are added to placer_solver_counter_total under the sink's labels plus
// "counter": two runs sum, a zero counter still gets its series, and a
// +Inf count arrives as the summary's clamped value.
func TestSpanSinkBridgesSummaryCounters(t *testing.T) {
	r := New()
	for run := 0; run < 2; run++ {
		trc := obs.New(NewSpanSink(r, "stage_seconds", "method", "eplace-a"))
		trc.Count("gp.runs", 3)
		trc.Count("gp.stalled", 1)
		trc.Count("dp.ilp_node_cap", 0)
		if run == 1 {
			trc.Count("lp.pivots", math.Inf(1))
		}
		trc.Close()
	}

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE placer_solver_counter_total counter\n",
		`placer_solver_counter_total{method="eplace-a",counter="dp.ilp_node_cap"} 0` + "\n",
		`placer_solver_counter_total{method="eplace-a",counter="gp.runs"} 6` + "\n",
		`placer_solver_counter_total{method="eplace-a",counter="gp.stalled"} 2` + "\n",
		`placer_solver_counter_total{method="eplace-a",counter="lp.pivots"} 1.7976931348623157e+308` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\nplacer_solver_counter_total{"); n != 4 {
		t.Errorf("%d solver counter series, want 4:\n%s", n, out)
	}
}

// TestSpanSinkObservesKernels checks tracer kernel calls land in
// placer_kernel_seconds under the sink's labels plus "kernel", one
// observation per call, while writing no stage series.
func TestSpanSinkObservesKernels(t *testing.T) {
	r := New()
	trc := obs.New(NewSpanSink(r, "stage_seconds", "method", "prev", "size", "xs"))
	for _, k := range []string{"wl_grad", "density_grad", "wl_grad"} {
		trc.Kernel(k, time.Now())
	}
	trc.Close()

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP placer_kernel_seconds Per-call latency of the placement hot-path kernels.\n",
		`placer_kernel_seconds_bucket{method="prev",size="xs",kernel="wl_grad",le="1e-05"} `,
		`placer_kernel_seconds_count{method="prev",size="xs",kernel="wl_grad"} 2`,
		`placer_kernel_seconds_count{method="prev",size="xs",kernel="density_grad"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "stage_seconds") {
		t.Errorf("kernel calls produced stage series:\n%s", out)
	}
}

func TestStageName(t *testing.T) {
	cases := map[string]string{
		"place/gp":                "gp",
		"place/detailed/refine-3": "refine",
		"sa/restart-12":           "restart",
		"gnn-train":               "gnn-train", // "train" is not digits: name kept
		"":                        "unknown",
		"poisson":                 "poisson",
	}
	for in, want := range cases {
		if got := StageName(in); got != want {
			t.Errorf("StageName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSizeClass(t *testing.T) {
	cases := map[int]string{1: "xs", 32: "xs", 33: "s", 128: "s", 129: "m", 512: "m", 513: "l", 2048: "l", 2049: "xl"}
	for n, want := range cases {
		if got := SizeClass(n); got != want {
			t.Errorf("SizeClass(%d) = %q, want %q", n, got, want)
		}
	}
}
