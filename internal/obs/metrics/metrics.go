// Package metrics is a stdlib-only, concurrency-safe metrics registry for
// production scraping: counters, gauges, and fixed-bucket histograms with
// labels, exposed in the Prometheus text format (WritePrometheus).
//
// It complements internal/obs: the tracer answers "what did this one run
// do" (a complete event log), the registry answers "what is this process
// doing" (cheap aggregates a scraper polls). The placement service keeps
// one Registry for its whole lifetime and attaches a SpanSink to each
// job's tracer, so the solvers' stage spans and kernel timings become
// latency distributions — not just totals — per method, circuit-size
// class, pipeline stage and kernel, without any solver importing this
// package.
//
// Design constraints, in order:
//
//  1. Zero cost when off. Every handle type (*Counter, *Gauge, *Histogram)
//     is nil-safe: methods on a nil receiver do nothing, and a nil
//     *Registry hands out nil handles. Instrumented code therefore never
//     branches on "is metrics enabled" — it just calls Observe/Add/Set,
//     paying one pointer comparison when metrics are off. This is the same
//     contract obs.Tracer established for tracing.
//  2. Allocation-free hot path. Handles are resolved once (name + label
//     values interned under the registry lock); after that, Counter.Add,
//     Gauge.Set, and Histogram.Observe touch only atomics — no maps, no
//     locks, no allocation — so per-call kernel timings can be recorded
//     without disturbing the run they measure.
//  3. Deterministic exposition. Families are sorted by name and series by
//     label values, so two scrapes of identical state render identical
//     bytes (golden-testable).
//
// Like the tracer, the registry is observation-only: it never mutates
// solver state and draws no randomness, so metered runs stay byte-identical
// to unmetered ones at the same seed.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds metric families. The zero value is not usable; call
// New. A nil *Registry is valid everywhere and hands out nil handles, so
// library code can accept an optional registry without branching.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

// metric type names (Prometheus TYPE line values).
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric with a fixed type, help string, label-key set,
// and (for histograms) bucket layout, holding one series per label-value
// combination.
type family struct {
	name    string
	help    string
	typ     string
	keys    []string  // label keys, in registration order
	buckets []float64 // histogram upper bounds (ascending, no +Inf)

	series map[string]*series // key: "\x1f"-joined label values
	order  []string           // sorted series keys, maintained on insert
}

// series is one label-value combination of a family. The numeric state is
// all atomics so handle methods never take the registry lock.
type series struct {
	labelVals []string

	val atomic.Uint64 // counter/gauge value (float64 bits)

	counts []atomic.Uint64 // histogram: per-bucket counts (non-cumulative)
	inf    atomic.Uint64   // histogram: observations above the last bound
	sum    atomic.Uint64   // histogram: sum of observations (float64 bits)
}

// Counter is a monotonically increasing value. Nil-safe.
type Counter struct{ s *series }

// Gauge is a value that can go up and down. Nil-safe.
type Gauge struct{ s *series }

// Histogram counts observations into fixed buckets. Nil-safe; Observe is
// allocation-free.
type Histogram struct {
	s       *series
	buckets []float64
}

// labelPairs validates a variadic key, value, key, value... list.
func labelPairs(labels []string) ([]string, []string) {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list %q", labels))
	}
	keys := make([]string, 0, len(labels)/2)
	vals := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		keys = append(keys, labels[i])
		vals = append(vals, labels[i+1])
	}
	return keys, vals
}

// lookup interns the (family, series) pair, creating either as needed, and
// enforces that a name is never reused with a different type, label-key
// set, or bucket layout (Prometheus forbids all three).
func (r *Registry) lookup(name, help, typ string, buckets []float64, labels []string) (*family, *series) {
	keys, vals := labelPairs(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name: name, help: help, typ: typ,
			keys:    keys,
			buckets: append([]float64(nil), buckets...),
			series:  map[string]*series{},
		}
		r.families[name] = f
	} else {
		if f.typ != typ {
			panic(fmt.Sprintf("metrics: %s registered as %s, reused as %s", name, f.typ, typ))
		}
		if !slices.Equal(f.keys, keys) {
			panic(fmt.Sprintf("metrics: %s registered with labels %v, reused with %v", name, f.keys, keys))
		}
		if typ == typeHistogram && !slices.Equal(f.buckets, buckets) {
			panic(fmt.Sprintf("metrics: %s registered with buckets %v, reused with %v", name, f.buckets, buckets))
		}
	}
	key := strings.Join(vals, "\x1f")
	s := f.series[key]
	if s == nil {
		s = &series{labelVals: vals}
		if typ == typeHistogram {
			s.counts = make([]atomic.Uint64, len(f.buckets))
		}
		f.series[key] = s
		i := sort.SearchStrings(f.order, key)
		f.order = append(f.order, "")
		copy(f.order[i+1:], f.order[i:])
		f.order[i] = key
	}
	return f, s
}

// Counter returns the counter series for the given label values, creating
// it on first use. labels is a key, value, key, value... list; every series
// of one name must use the same keys. A nil registry returns nil.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	_, s := r.lookup(name, help, typeCounter, nil, labels)
	return &Counter{s: s}
}

// Gauge returns the gauge series for the given label values. A nil
// registry returns nil.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	_, s := r.lookup(name, help, typeGauge, nil, labels)
	return &Gauge{s: s}
}

// Histogram returns the histogram series for the given label values.
// buckets are ascending upper bounds (the +Inf bucket is implicit); every
// series of one name must use identical buckets. A nil registry returns
// nil.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: %s buckets not ascending: %v", name, buckets))
		}
	}
	f, s := r.lookup(name, help, typeHistogram, buckets, labels)
	// Handles share the family's canonical bucket slice (immutable after
	// creation), so every series of one name bins identically.
	return &Histogram{s: s, buckets: f.buckets}
}

// Add increments the counter by d (d < 0 panics — counters only go up).
// No-op on a nil handle.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	if d < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	addFloat(&c.s.val, d)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current value (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.s.val.Load())
}

// Set stores v. No-op on a nil handle.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.val.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d (either sign). No-op on a nil handle.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	addFloat(&g.s.val, d)
}

// Value returns the gauge's current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.s.val.Load())
}

// Observe records one value: a binary search over the fixed bounds, two
// atomic adds, no allocation. No-op on a nil handle.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// sort.SearchFloat64s allocates nothing, but an inlined binary search
	// keeps the hot path free of interface conversions too.
	lo, hi := 0, len(h.buckets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.buckets[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.buckets) {
		h.s.counts[lo].Add(1)
	} else {
		h.s.inf.Add(1)
	}
	addFloat(&h.s.sum, v)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.s.counts {
		n += h.s.counts[i].Load()
	}
	return n + h.s.inf.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.s.sum.Load())
}

// addFloat atomically adds d to a float64 stored as uint64 bits.
func addFloat(a *atomic.Uint64, d float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// DefBuckets is the classic Prometheus latency layout in seconds,
// 5 ms–10 s: right for job-level latencies.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// KernelBuckets covers the per-call latencies of the placement kernels
// (wirelength gradient, density rasterization, Poisson solve):
// 10 µs–500 ms in roughly 1-2.5-5 steps.
var KernelBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
}

// SizeClass buckets a device count into the coarse circuit-size label the
// service stamps on its series ("xs" ≤ 32, "s" ≤ 128, "m" ≤ 512, "l" ≤ 2048,
// "xl" above). Coarse on purpose: label cardinality is a product, and a
// scraper can always sum classes away.
func SizeClass(devices int) string {
	switch {
	case devices <= 32:
		return "xs"
	case devices <= 128:
		return "s"
	case devices <= 512:
		return "m"
	case devices <= 2048:
		return "l"
	default:
		return "xl"
	}
}
