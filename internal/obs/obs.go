// Package obs is the repository's observability layer: a lightweight,
// stdlib-only tracer that records named spans (wall-clock timings per
// pipeline stage: global placement, legalization, detailed placement, GNN
// training, routing), typed per-iteration solver events (Nesterov/CG
// descent, simulated annealing, LP/ILP solves, Adam epochs), per-call
// kernel timings, and counters/gauges with a final run summary.
//
// Events flow to pluggable sinks: a JSONL file sink for machine-readable
// convergence traces, an in-memory sink for tests, and a human-readable
// progress sink for stderr. A nil *Tracer is valid everywhere and costs a
// single pointer comparison at each instrumented site, so hot loops pay
// nothing when telemetry is off.
//
// Telemetry is observation-only: the tracer never mutates solver state and
// draws no randomness, so a traced run produces bit-identical placements to
// an untraced one at the same seed.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event kinds, stored in Event.Kind.
const (
	KindSpanStart = "span_start"
	KindSpanEnd   = "span_end"
	KindIter      = "iter" // analytical-solver iteration (Nesterov, CG, Adam epoch, GP stage)
	KindSA        = "sa"   // simulated-annealing progress sample
	KindLP        = "lp"   // one LP or ILP solve
	KindGauge     = "gauge"
	KindSummary   = "summary"
)

// Event is one telemetry record — exactly one JSONL line in the file sink.
// Kind selects which of the optional typed payloads is present.
type Event struct {
	TS    float64 `json:"ts"`             // seconds since the tracer started
	Kind  string  `json:"kind"`           // one of the Kind* constants
	Span  string  `json:"span,omitempty"` // slash-joined path of open spans
	DurMS float64 `json:"dur_ms,omitempty"`

	Iter *IterRecord `json:"iter,omitempty"`
	SA   *SARecord   `json:"sa,omitempty"`
	LP   *LPRecord   `json:"lp,omitempty"`

	Name  string  `json:"name,omitempty"`  // gauge name
	Value float64 `json:"value,omitempty"` // gauge value

	Summary *SummaryRecord `json:"summary,omitempty"`
}

// IterRecord is one iteration of an analytical solver. The base fields
// (Solver, Iter, F) are always set; the remaining fields are filled by the
// emitting stage when it can compute them cheaply: nlopt reports step
// length and gradient norm, the global placers add HPWL, density overflow,
// the density multiplier λ, the symmetry penalty, and the L2 norms of each
// gradient component of the objective (the force balance of Eq. 3).
type IterRecord struct {
	Solver string  `json:"solver"` // "nesterov", "cg", "adam", "eplace-gp", "prev-epoch"
	Iter   int     `json:"n"`
	F      float64 `json:"f"` // objective value

	Grad float64 `json:"grad,omitempty"` // gradient norm before the step
	Step float64 `json:"step,omitempty"` // accepted step length

	HPWL     float64 `json:"hpwl,omitempty"`     // exact HPWL of the current iterate
	Overflow float64 `json:"overflow,omitempty"` // density overflow ratio
	Lambda   float64 `json:"lambda,omitempty"`   // density multiplier λ (β for [11])
	Sym      float64 `json:"sym,omitempty"`      // symmetry penalty value

	GradWL      float64 `json:"g_wl,omitempty"`    // wirelength gradient norm
	GradDensity float64 `json:"g_den,omitempty"`   // λ-scaled density gradient norm
	GradSym     float64 `json:"g_sym,omitempty"`   // τ-scaled symmetry gradient norm
	GradArea    float64 `json:"g_area,omitempty"`  // η-scaled area gradient norm
	GradExtra   float64 `json:"g_extra,omitempty"` // α-scaled performance gradient norm
}

// SARecord is a progress sample of the simulated-annealing placer: the
// cooling state and cost trajectory at a configurable move cadence.
type SARecord struct {
	// Chain is the sample's chain index within the SA portfolio. The JSON
	// key predates chains and is kept so recorded traces still parse.
	Chain      int     `json:"restart"`
	Move       int     `json:"move"`
	Temp       float64 `json:"temp"`
	AcceptRate float64 `json:"accept_rate"` // acceptance rate since the previous sample
	Cur        float64 `json:"cur"`         // current cost
	Best       float64 `json:"best"`        // best cost so far
}

// LPRecord describes one completed LP or ILP solve.
type LPRecord struct {
	Solver string `json:"solver"`          // "lp" or "ilp"
	Label  string `json:"label,omitempty"` // caller-assigned purpose, e.g. "compaction"
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`
	Pivots int    `json:"pivots,omitempty"` // simplex pivots (ILP: over all nodes)
	Nodes  int    `json:"nodes,omitempty"`  // branch-and-bound nodes (ILP)

	Obj    float64 `json:"obj"`
	Status string  `json:"status"`
}

// SpanStat aggregates every completed span sharing one path, or every
// call of one kernel.
type SpanStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// SummaryRecord is the final run report emitted by Close.
type SummaryRecord struct {
	Counters map[string]float64  `json:"counters,omitempty"`
	Gauges   map[string]float64  `json:"gauges,omitempty"`
	Spans    map[string]SpanStat `json:"spans,omitempty"`
	Kernels  map[string]SpanStat `json:"kernels,omitempty"`
	Events   int                 `json:"events"`
	WallMS   float64             `json:"wall_ms"`
}

// ChildMS folds the summary's span statistics into per-stage totals: the
// total milliseconds of each span nested directly under parent, keyed by
// the child's own name ("gp", "detailed", "sa" under "place"). Deeper
// descendants are excluded — their time is already inside their ancestor's
// total. The benchmark harness uses this to attribute runtime to pipeline
// stages.
func (s SummaryRecord) ChildMS(parent string) map[string]float64 {
	out := map[string]float64{}
	prefix := parent + "/"
	for path, st := range s.Spans {
		rest, ok := strings.CutPrefix(path, prefix)
		if !ok || strings.Contains(rest, "/") {
			continue
		}
		out[rest] += st.TotalMS
	}
	return out
}

// Sink receives events from a Tracer. Sinks are invoked under the tracer's
// lock, so implementations need no synchronization of their own.
type Sink interface {
	Emit(e Event)
	Close() error
}

// KernelSink is a Sink that also receives every Kernel call's duration
// (kernel calls write no events), under the tracer's lock like Emit.
type KernelSink interface {
	Kernel(name string, d time.Duration)
}

// Tracer is the telemetry hub threaded through the placement pipeline. All
// methods are safe on a nil receiver (they do nothing), which is how
// instrumented packages run untraced at zero cost.
type Tracer struct {
	mu        sync.Mutex
	sinks     []Sink
	start     time.Time
	stack     []string
	counters  map[string]float64
	gauges    map[string]float64
	spanStats map[string]SpanStat
	kernels   map[string]SpanStat
	events    int
}

// New creates a Tracer emitting to the given sinks. With no sinks the
// tracer still aggregates counters and span statistics (useful for tests);
// callers that want telemetry fully off should pass a nil *Tracer instead.
func New(sinks ...Sink) *Tracer {
	return &Tracer{
		sinks:     sinks,
		start:     time.Now(),
		counters:  map[string]float64{},
		gauges:    map[string]float64{},
		spanStats: map[string]SpanStat{},
		kernels:   map[string]SpanStat{},
	}
}

// Enabled reports whether the tracer records anything; instrumented sites
// use it to skip building records whose fields are not free to compute.
func (t *Tracer) Enabled() bool { return t != nil }

// emitLocked stamps and fans out an event. Callers hold t.mu.
//
// JSON has no encoding for ±Inf or NaN, and a diverging solver can report
// them, so every float the event carries is made finite here, before any
// sink sees it: ±Inf becomes ±math.MaxFloat64 and NaN becomes 0. Events
// own their payloads (the recording methods pass copies), so this rewrites
// no caller's data. A summary's counters and gauges are made finite when
// summaryLocked copies them, which Summary's callers rely on too.
func (t *Tracer) emitLocked(e Event, at time.Time) {
	e.TS = at.Sub(t.start).Seconds()
	if e.Span == "" && len(t.stack) > 0 {
		e.Span = strings.Join(t.stack, "/")
	}
	e.DurMS, e.Value = finite(e.DurMS), finite(e.Value)
	if r := e.Iter; r != nil {
		for _, f := range []*float64{&r.F, &r.Grad, &r.Step, &r.HPWL, &r.Overflow, &r.Lambda, &r.Sym,
			&r.GradWL, &r.GradDensity, &r.GradSym, &r.GradArea, &r.GradExtra} {
			*f = finite(*f)
		}
	}
	if r := e.SA; r != nil {
		r.Temp, r.AcceptRate = finite(r.Temp), finite(r.AcceptRate)
		r.Cur, r.Best = finite(r.Cur), finite(r.Best)
	}
	if r := e.LP; r != nil {
		r.Obj = finite(r.Obj)
	}
	t.events++
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// finite returns v with ±Inf clamped to ±math.MaxFloat64 and NaN replaced
// by 0, the values emitLocked writes in their place.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 0):
		return math.Copysign(math.MaxFloat64, v)
	}
	return v
}

// Span is an open timed region. End is idempotent and nil-safe.
type Span struct {
	t     *Tracer
	path  string
	start time.Time
	ended bool
}

// StartSpan opens a named span nested under the currently open spans and
// emits a span_start event. The returned Span's End emits span_end with
// the wall-clock duration.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	t.stack = append(t.stack, name)
	path := strings.Join(t.stack, "/")
	t.emitLocked(Event{Kind: KindSpanStart, Span: path}, now)
	t.mu.Unlock()
	return &Span{t: t, path: path, start: now}
}

// End closes the span, emitting its duration and folding it into the
// summary statistics. Spans closed out of order unwind the open-span stack
// to their own frame.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	t := s.t
	now := time.Now()
	durMS := now.Sub(s.start).Seconds() * 1e3
	t.mu.Lock()
	for i := len(t.stack); i > 0; i-- {
		if strings.Join(t.stack[:i], "/") == s.path {
			t.stack = t.stack[:i-1]
			break
		}
	}
	st := t.spanStats[s.path]
	st.Count++
	st.TotalMS += durMS
	t.spanStats[s.path] = st
	t.emitLocked(Event{Kind: KindSpanEnd, Span: s.path, DurMS: durMS}, now)
	t.mu.Unlock()
}

// IterEvent emits one solver-iteration record.
func (t *Tracer) IterEvent(r IterRecord) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.emitLocked(Event{Kind: KindIter, Iter: &r}, now)
	t.mu.Unlock()
}

// SAEvent emits one simulated-annealing progress sample.
func (t *Tracer) SAEvent(r SARecord) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.emitLocked(Event{Kind: KindSA, SA: &r}, now)
	t.mu.Unlock()
}

// LPEvent emits one LP/ILP solve record.
func (t *Tracer) LPEvent(r LPRecord) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.emitLocked(Event{Kind: KindLP, LP: &r}, now)
	t.mu.Unlock()
}

// Now returns the start time for a Kernel call: time.Now(), or the zero
// time on a nil tracer, so untraced kernels skip the clock read.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Kernel records one call of a named hot-path kernel that began at start
// (from Now): it adds the call to the summary's per-kernel totals and
// passes its duration to every KernelSink. It writes no event — kernels
// run thousands of times per solve — and allocates nothing once the
// kernel has been seen.
func (t *Tracer) Kernel(name string, start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start)
	t.mu.Lock()
	st := t.kernels[name]
	st.Count++
	st.TotalMS += d.Seconds() * 1e3
	t.kernels[name] = st
	for _, s := range t.sinks {
		if k, ok := s.(KernelSink); ok {
			k.Kernel(name, d)
		}
	}
	t.mu.Unlock()
}

// Count adds delta to a named counter. Counters are reported only in the
// final summary, so counting in hot loops writes no events.
func (t *Tracer) Count(name string, delta float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// Gauge sets a named gauge to v and emits a gauge event.
func (t *Tracer) Gauge(name string, v float64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.gauges[name] = v
	t.emitLocked(Event{Kind: KindGauge, Name: name, Value: v}, now)
	t.mu.Unlock()
}

// Summary returns a copy of the aggregated run statistics so far, its
// counters and gauges made finite as emitLocked makes events.
func (t *Tracer) Summary() SummaryRecord {
	if t == nil {
		return SummaryRecord{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.summaryLocked()
}

func (t *Tracer) summaryLocked() SummaryRecord {
	s := SummaryRecord{
		Counters: map[string]float64{},
		Gauges:   map[string]float64{},
		Spans:    map[string]SpanStat{},
		Kernels:  map[string]SpanStat{},
		Events:   t.events,
		WallMS:   time.Since(t.start).Seconds() * 1e3,
	}
	for k, v := range t.counters {
		s.Counters[k] = finite(v)
	}
	for k, v := range t.gauges {
		s.Gauges[k] = finite(v)
	}
	for k, v := range t.spanStats {
		s.Spans[k] = v
	}
	for k, v := range t.kernels {
		s.Kernels[k] = v
	}
	return s
}

// Close emits the final summary event and closes every sink, returning the
// first sink error. Closing a nil tracer is a no-op.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	sum := t.summaryLocked()
	t.emitLocked(Event{Kind: KindSummary, Summary: &sum}, now)
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.sinks = nil
	t.mu.Unlock()
	return first
}

// sortedKeys returns the map's keys in lexical order (deterministic
// human-readable reports).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
