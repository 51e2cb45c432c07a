package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// emitOneOfEach drives a tracer through every event kind.
func emitOneOfEach(t *Tracer) {
	sp := t.StartSpan("gp")
	t.IterEvent(IterRecord{Solver: "nesterov", Iter: 0, F: 12.5, Grad: 3.25, Step: 0.125,
		HPWL: 100.5, Overflow: 0.75, Lambda: 1e-4, Sym: 0.5,
		GradWL: 1.5, GradDensity: 0.25, GradSym: 0.125, GradArea: 0.0625, GradExtra: 0.03125})
	t.SAEvent(SARecord{Chain: 1, Move: 200, Temp: 0.5, AcceptRate: 0.25, Cur: 42.5, Best: 40})
	t.LPEvent(LPRecord{Solver: "lp", Label: "compaction-x", Rows: 12, Cols: 8, Pivots: 17, Obj: 3.5, Status: "optimal"})
	t.Count("gp.iterations", 64)
	t.Gauge("gp.final_hpwl", 99.5)
	sp.End()
}

// TestJSONLRoundTrip checks that every line the JSONL sink writes decodes
// into an Event that re-encodes to the exact same bytes — the trace format
// is a fixed point of encoding/json.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	emitOneOfEach(tr)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// span_start, iter, sa, lp, gauge, span_end, summary.
	if len(lines) != 7 {
		t.Fatalf("got %d JSONL lines, want 7:\n%s", len(lines), buf.String())
	}
	kinds := []string{KindSpanStart, KindIter, KindSA, KindLP, KindGauge, KindSpanEnd, KindSummary}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i, err, line)
		}
		if e.Kind != kinds[i] {
			t.Errorf("line %d kind = %q, want %q", i, e.Kind, kinds[i])
		}
		re, err := json.Marshal(&e)
		if err != nil {
			t.Fatalf("re-encoding line %d: %v", i, err)
		}
		if string(re) != line {
			t.Errorf("line %d round-trip mismatch:\n wrote %s\n again %s", i, line, re)
		}
	}

	// The typed payloads must survive the trip intact (all values above are
	// dyadic rationals, so float equality is exact).
	var it Event
	if err := json.Unmarshal([]byte(lines[1]), &it); err != nil {
		t.Fatal(err)
	}
	want := IterRecord{Solver: "nesterov", Iter: 0, F: 12.5, Grad: 3.25, Step: 0.125,
		HPWL: 100.5, Overflow: 0.75, Lambda: 1e-4, Sym: 0.5,
		GradWL: 1.5, GradDensity: 0.25, GradSym: 0.125, GradArea: 0.0625, GradExtra: 0.03125}
	if it.Iter == nil || *it.Iter != want {
		t.Errorf("iter payload = %+v, want %+v", it.Iter, &want)
	}
	if it.Span != "gp" {
		t.Errorf("iter event span = %q, want %q", it.Span, "gp")
	}
}

// TestSpanNesting checks span paths, duration monotonicity, and stack
// unwinding for out-of-order ends.
func TestSpanNesting(t *testing.T) {
	sink := &MemorySink{}
	tr := New(sink)

	outer := tr.StartSpan("place")
	inner := tr.StartSpan("gp")
	time.Sleep(2 * time.Millisecond)
	inner.End()
	inner.End() // idempotent
	second := tr.StartSpan("detailed")
	time.Sleep(time.Millisecond)
	outer.End() // out of order: must unwind "detailed" too
	second.End()

	starts := sink.ByKind(KindSpanStart)
	wantPaths := []string{"place", "place/gp", "place/detailed"}
	if len(starts) != len(wantPaths) {
		t.Fatalf("got %d span starts, want %d", len(starts), len(wantPaths))
	}
	for i, e := range starts {
		if e.Span != wantPaths[i] {
			t.Errorf("span start %d path = %q, want %q", i, e.Span, wantPaths[i])
		}
	}

	ends := map[string]Event{}
	for _, e := range sink.ByKind(KindSpanEnd) {
		ends[e.Span] = e
	}
	if len(ends) != 3 {
		t.Fatalf("got %d span ends, want 3 (idempotent End must not re-emit)", len(ends))
	}
	if d := ends["place/gp"].DurMS; d < 1 {
		t.Errorf("inner span duration %.3f ms, want >= 1 (it slept 2 ms)", d)
	}
	if ends["place"].DurMS < ends["place/gp"].DurMS {
		t.Errorf("outer span (%.3f ms) shorter than nested inner (%.3f ms)",
			ends["place"].DurMS, ends["place/gp"].DurMS)
	}

	// After the out-of-order unwind, new spans must start at the root.
	fresh := tr.StartSpan("sa")
	fresh.End()
	all := sink.ByKind(KindSpanStart)
	if got := all[len(all)-1].Span; got != "sa" {
		t.Errorf("post-unwind span path = %q, want %q", got, "sa")
	}

	// Event timestamps never decrease.
	prev := -1.0
	for i, e := range sink.Events {
		if e.TS < prev {
			t.Fatalf("event %d timestamp %.9f decreased below %.9f", i, e.TS, prev)
		}
		prev = e.TS
	}
}

// TestSummaryAggregates checks counters, gauges, and span statistics in the
// final summary event.
func TestSummaryAggregates(t *testing.T) {
	sink := &MemorySink{}
	tr := New(sink)
	for i := 0; i < 3; i++ {
		sp := tr.StartSpan("gp")
		tr.Count("gp.iterations", 10)
		sp.End()
	}
	tr.Gauge("gp.final_hpwl", 7)
	tr.Gauge("gp.final_hpwl", 9) // gauges keep the last value
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	sums := sink.ByKind(KindSummary)
	if len(sums) != 1 {
		t.Fatalf("got %d summary events, want 1", len(sums))
	}
	sum := sums[0].Summary
	if got := sum.Counters["gp.iterations"]; got != 30 {
		t.Errorf("counter gp.iterations = %g, want 30", got)
	}
	if got := sum.Gauges["gp.final_hpwl"]; got != 9 {
		t.Errorf("gauge gp.final_hpwl = %g, want 9", got)
	}
	st := sum.Spans["gp"]
	if st.Count != 3 {
		t.Errorf("span gp count = %d, want 3", st.Count)
	}
	if st.TotalMS < 0 {
		t.Errorf("span gp total %.3f ms is negative", st.TotalMS)
	}
}

// TestNilTracerSafe calls every instrumented-site entry point on a nil
// tracer; any panic fails the test.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports Enabled")
	}
	sp := tr.StartSpan("gp")
	sp.End()
	(*Span)(nil).End()
	tr.IterEvent(IterRecord{Solver: "nesterov"})
	tr.SAEvent(SARecord{})
	tr.LPEvent(LPRecord{})
	tr.Count("x", 1)
	tr.Gauge("x", 1)
	tr.Kernel("x", time.Now())
	if s := tr.Summary(); s.Events != 0 {
		t.Errorf("nil tracer summary has %d events", s.Events)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("nil tracer Close: %v", err)
	}
}

// kernelRecorder is a KernelSink that remembers every call it receives.
type kernelRecorder struct {
	MemorySink
	calls []string
}

func (k *kernelRecorder) Kernel(name string, _ time.Duration) { k.calls = append(k.calls, name) }

// TestKernelAggregates checks kernel calls fold into the summary's
// per-kernel totals, reach KernelSinks in call order, and write no events.
func TestKernelAggregates(t *testing.T) {
	rec := &kernelRecorder{}
	tr := New(rec)
	for _, k := range []string{"wl_grad", "poisson_solve", "wl_grad", "wl_grad"} {
		tr.Kernel(k, time.Now())
	}
	if len(rec.Events) != 0 {
		t.Errorf("kernel calls wrote %d events, want 0", len(rec.Events))
	}
	if got, want := strings.Join(rec.calls, ","), "wl_grad,poisson_solve,wl_grad,wl_grad"; got != want {
		t.Errorf("kernel sink saw %q, want %q", got, want)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sum := rec.ByKind(KindSummary)[0].Summary
	if sum.Events != 0 {
		t.Errorf("summary counts %d events before itself, want 0", sum.Events)
	}
	if len(sum.Kernels) != 2 || sum.Kernels["wl_grad"].Count != 3 || sum.Kernels["poisson_solve"].Count != 1 {
		t.Errorf("summary kernels = %+v, want wl_grad x3 and poisson_solve x1", sum.Kernels)
	}
	if sum.Kernels["wl_grad"].TotalMS < 0 {
		t.Errorf("negative kernel total %+v", sum.Kernels["wl_grad"])
	}
}

// TestKernelConcurrent checks kernel calls from several goroutines on one
// tracer are all counted, in the summary and by the kernel sink.
func TestKernelConcurrent(t *testing.T) {
	rec := &kernelRecorder{}
	tr := New(rec)
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Kernel("wl_grad", tr.Now())
			}
		}()
	}
	wg.Wait()
	if got := tr.Summary().Kernels["wl_grad"].Count; got != workers*each {
		t.Errorf("summary counts %d calls, want %d", got, workers*each)
	}
	if len(rec.calls) != workers*each {
		t.Errorf("kernel sink saw %d calls, want %d", len(rec.calls), workers*each)
	}
}

// TestKernelAllocationFree pins the hot-path contract: Kernel allocates
// nothing on a nil tracer, nor on a live tracer once a kernel has been
// seen (the first call of a name inserts its map entry).
func TestKernelAllocationFree(t *testing.T) {
	var off *Tracer
	start := time.Now()
	if n := testing.AllocsPerRun(1000, func() { off.Kernel("wl_grad", start) }); n != 0 {
		t.Errorf("nil Tracer.Kernel allocates %.1f per call, want 0", n)
	}
	on := New()
	on.Kernel("wl_grad", start)
	if n := testing.AllocsPerRun(1000, func() { on.Kernel("wl_grad", start) }); n != 0 {
		t.Errorf("Tracer.Kernel allocates %.1f per call, want 0", n)
	}
}

// BenchmarkKernel measures one timed kernel call on a live sinkless
// tracer: the caller's clock read plus Kernel itself.
func BenchmarkKernel(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Kernel("wl_grad", tr.Now())
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ budget int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.budget <= 0 {
		return 0, errors.New("disk full")
	}
	w.budget -= len(p)
	return len(p), nil
}

// TestJSONLSinkStickyError checks a write failure surfaces from Close and
// does not panic mid-run.
func TestJSONLSinkStickyError(t *testing.T) {
	sink := NewJSONLSink(&failWriter{budget: 1})
	tr := New(sink)
	for i := 0; i < 100; i++ {
		tr.IterEvent(IterRecord{Solver: "cg", Iter: i})
	}
	if err := tr.Close(); err == nil {
		t.Fatal("Close returned nil after write failures")
	}
}

// TestNonFiniteValuesStayEncodable pushes ±Inf and NaN through every float
// an event or the summary can carry, then one more event, through both
// sinks that feed JSON encoders: the JSONL file sink and the stream sink
// placerd encodes as NDJSON. Every event must encode, the last one
// included, with ±Inf clamped to ±MaxFloat64 and NaN written as 0.
func TestNonFiniteValuesStayEncodable(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	var buf bytes.Buffer
	stream := NewStreamSink()
	tr := New(NewJSONLSink(&buf), stream)
	sp := tr.StartSpan("gp")
	tr.IterEvent(IterRecord{Solver: "nesterov", F: inf, Grad: -inf, Step: nan,
		HPWL: inf, Overflow: nan, Lambda: inf, Sym: -inf,
		GradWL: nan, GradDensity: inf, GradSym: -inf, GradArea: nan, GradExtra: inf})
	tr.SAEvent(SARecord{Temp: inf, AcceptRate: nan, Cur: -inf, Best: inf})
	tr.LPEvent(LPRecord{Solver: "lp", Obj: -inf, Status: "optimal"})
	tr.Count("gp.runs", inf)
	tr.Gauge("gp.final_hpwl", nan)
	tr.Gauge("gp.final_overflow", -inf)
	sp.End()
	tr.IterEvent(IterRecord{Solver: "nesterov", Iter: 1, F: 2.5})
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 9 {
		t.Fatalf("JSONL sink wrote %d lines, want 9:\n%s", len(lines), buf.String())
	}
	var last Event
	if err := json.Unmarshal([]byte(lines[7]), &last); err != nil || last.Iter == nil || last.Iter.F != 2.5 {
		t.Fatalf("event after the non-finite ones: %q (%v)", lines[7], err)
	}
	events, done, _ := stream.After(0)
	if !done || len(events) != 9 {
		t.Fatalf("stream sink holds %d events (closed %v), want 9 closed", len(events), done)
	}
	for i := range events {
		if _, err := json.Marshal(&events[i]); err != nil {
			t.Fatalf("stream event %d does not encode: %v", i, err)
		}
	}

	max := math.MaxFloat64
	it, sa, lp := events[1].Iter, events[2].SA, events[3].LP
	wantIter := IterRecord{Solver: "nesterov", F: max, Grad: -max, HPWL: max, Lambda: max, Sym: -max,
		GradDensity: max, GradSym: -max, GradExtra: max}
	if *it != wantIter {
		t.Errorf("iter = %+v, want %+v", *it, wantIter)
	}
	if want := (SARecord{Temp: max, Cur: -max, Best: max}); *sa != want {
		t.Errorf("sa = %+v, want %+v", *sa, want)
	}
	if lp.Obj != -max {
		t.Errorf("lp obj = %v, want %v", lp.Obj, -max)
	}
	if events[4].Value != 0 || events[5].Value != -max {
		t.Errorf("gauge values = %v, %v, want 0, %v", events[4].Value, events[5].Value, -max)
	}
	sum := events[8].Summary
	if sum.Counters["gp.runs"] != max || sum.Gauges["gp.final_hpwl"] != 0 || sum.Gauges["gp.final_overflow"] != -max {
		t.Errorf("summary counters %v gauges %v", sum.Counters, sum.Gauges)
	}
	if got := tr.Summary().Gauges["gp.final_hpwl"]; got != 0 {
		t.Errorf("Summary() gauge = %v, want 0", got)
	}
}

// TestProgressSinkCadence checks the -v sink prints every Nth iteration and
// renders the summary.
func TestProgressSinkCadence(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewProgressSink(&buf, 10))
	sp := tr.StartSpan("gp")
	for i := 0; i < 25; i++ {
		tr.IterEvent(IterRecord{Solver: "nesterov", Iter: i, F: float64(100 - i)})
		tr.Kernel("wl_grad", time.Now())
	}
	sp.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"iter 0 ", "iter 10 ", "iter 20 ", ">> gp", "<< gp", "run summary", "kernel wl_grad", "x25 "} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	for _, banned := range []string{"iter 1 ", "iter 5 ", "iter 24 "} {
		if strings.Contains(out, banned) {
			t.Errorf("progress output contains off-cadence line %q:\n%s", banned, out)
		}
	}
}
