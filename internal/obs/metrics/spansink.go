package metrics

import (
	"strings"

	"repro/internal/obs"
)

// SpanSink bridges a run's obs span events into a Registry: every span_end
// becomes one Observe on a per-stage duration histogram, labeled with the
// stage name plus whatever constant labels the sink was built with (the
// service uses method and circuit-size class). Attached alongside a job's
// streaming sink, it turns the tracer's existing spans — place, gp, sa,
// detailed, refine passes — into scrapeable latency distributions without
// the solvers knowing the registry exists.
//
// Stage names are normalized to bound label cardinality: only the last
// path segment is kept, and a trailing "-<digits>" enumeration (refine-1)
// is stripped, so all refinement passes share one series.
type SpanSink struct {
	reg    *Registry
	name   string
	labels []string

	hists map[string]*Histogram // per normalized stage, resolved lazily
}

// NewSpanSink returns a sink observing span durations into registry r as
// histogram name (DefBuckets, in seconds) with the given constant labels
// (key, value pairs) plus a "stage" label. A nil registry yields a sink
// that drops everything, preserving the zero-cost-when-nil contract.
func NewSpanSink(r *Registry, name string, labels ...string) *SpanSink {
	return &SpanSink{reg: r, name: name, labels: labels, hists: map[string]*Histogram{}}
}

// Emit observes span_end durations; every other event kind is ignored.
// Sinks run under the tracer's lock, so the handle cache needs no
// synchronization.
func (s *SpanSink) Emit(e obs.Event) {
	if s.reg == nil || e.Kind != obs.KindSpanEnd {
		return
	}
	stage := StageName(e.Span)
	h, ok := s.hists[stage]
	if !ok {
		h = s.reg.Histogram(s.name, "Pipeline stage wall time by span.", DefBuckets,
			append(append([]string(nil), s.labels...), "stage", stage)...)
		s.hists[stage] = h
	}
	h.Observe(e.DurMS / 1e3)
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
