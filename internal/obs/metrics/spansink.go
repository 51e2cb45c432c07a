package metrics

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// SpanSink bridges a run's obs telemetry into a Registry: every span_end
// becomes one Observe on a per-stage duration histogram, labeled with the
// stage name plus whatever constant labels the sink was built with (the
// service uses method and circuit-size class), and every obs.Tracer.Kernel
// call one Observe on placer_kernel_seconds, labeled with the same
// constant labels plus the kernel name. The run's closing summary adds
// each of its counters (GP stop reasons, LP/ILP solves, pivots and nodes,
// degraded paths) to placer_solver_counter_total under the same constant
// labels plus "counter". Attached alongside a job's streaming sink, it
// turns the tracer's existing spans — place, gp, sa, detailed, refine
// passes — kernel timings and counters into scrapeable series without the
// solvers knowing the registry exists.
//
// Stage names are normalized to bound label cardinality: only the last
// path segment is kept, and a trailing "-<digits>" enumeration (refine-1)
// is stripped, so all refinement passes share one series.
type SpanSink struct {
	reg    *Registry
	name   string
	labels []string

	hists   map[string]*Histogram // per normalized stage, resolved lazily
	kernels map[string]*Histogram // per kernel name, resolved lazily
}

// NewSpanSink returns a sink observing span durations into registry r as
// histogram name (DefBuckets, in seconds) with the given constant labels
// (key, value pairs) plus a "stage" label. A nil registry yields a sink
// that drops everything, preserving the zero-cost-when-nil contract.
func NewSpanSink(r *Registry, name string, labels ...string) *SpanSink {
	return &SpanSink{reg: r, name: name, labels: labels,
		hists: map[string]*Histogram{}, kernels: map[string]*Histogram{}}
}

// Emit observes span_end durations and adds the summary's counters; every
// other event kind is ignored. Sinks run under the tracer's lock, so the
// handle cache needs no synchronization. The summary arrives once, at
// Tracer.Close, so its counters resolve their handles there and no hot
// loop pays for them. Tracer.Count deltas are never negative and the
// summary holds finite values only, so each is a valid Counter.Add.
func (s *SpanSink) Emit(e obs.Event) {
	if s.reg == nil {
		return
	}
	switch e.Kind {
	case obs.KindSpanEnd:
		s.series(s.hists, s.name, "Pipeline stage wall time by span.", DefBuckets,
			"stage", StageName(e.Span)).Observe(e.DurMS / 1e3)
	case obs.KindSummary:
		for name, v := range e.Summary.Counters {
			s.reg.Counter("placer_solver_counter_total",
				"Solver counters summed over finished runs' summaries: GP stop reasons, LP/ILP solves, pivots and nodes, degraded paths.",
				s.labelsWith("counter", name)...).Add(v)
		}
	}
}

// Kernel observes one kernel call's duration (obs.KernelSink). Like Emit
// it runs under the tracer's lock.
func (s *SpanSink) Kernel(name string, d time.Duration) {
	if s.reg == nil {
		return
	}
	s.series(s.kernels, "placer_kernel_seconds", "Per-call latency of the placement hot-path kernels.",
		KernelBuckets, "kernel", name).Observe(d.Seconds())
}

// series returns the histogram labeled with the sink's labels plus
// key=val, resolving it into cache (keyed by val) on first use.
func (s *SpanSink) series(cache map[string]*Histogram, name, help string, buckets []float64, key, val string) *Histogram {
	h, ok := cache[val]
	if !ok {
		h = s.reg.Histogram(name, help, buckets, s.labelsWith(key, val)...)
		cache[val] = h
	}
	return h
}

// labelsWith returns a fresh copy of the sink's constant labels plus
// key=val.
func (s *SpanSink) labelsWith(key, val string) []string {
	return append(append([]string(nil), s.labels...), key, val)
}

// Close is a no-op; the registry outlives the run.
func (s *SpanSink) Close() error { return nil }

// StageName normalizes a span path to a bounded-cardinality stage label:
// the last path segment with any trailing "-<digits>" enumeration removed.
func StageName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	if i := strings.LastIndexByte(path, '-'); i >= 0 && i < len(path)-1 {
		digits := true
		for _, c := range path[i+1:] {
			if c < '0' || c > '9' {
				digits = false
				break
			}
		}
		if digits {
			path = path[:i]
		}
	}
	if path == "" {
		return "unknown"
	}
	return path
}
