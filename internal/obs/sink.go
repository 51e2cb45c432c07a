package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSONLSink writes one JSON object per line through a buffered writer. If
// the underlying writer is an io.Closer it is closed by Close. Write
// errors are sticky: the first one is remembered and returned by Close, so
// a full run never aborts because the trace disk filled up.
type JSONLSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	err error
}

// NewJSONLSink wraps w in a buffered JSONL encoder.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit encodes e as one JSONL line.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(&e)
}

// Close flushes the buffer and closes the underlying writer if it is a
// Closer, returning the first error seen.
func (s *JSONLSink) Close() error {
	ferr := s.bw.Flush()
	var cerr error
	if s.c != nil {
		cerr = s.c.Close()
	}
	if s.err != nil {
		return s.err
	}
	if ferr != nil {
		return ferr
	}
	return cerr
}

// MemorySink records every event in order; tests use it to assert on
// emitted telemetry without touching the filesystem.
type MemorySink struct {
	Events []Event
}

// Emit appends e.
func (s *MemorySink) Emit(e Event) { s.Events = append(s.Events, e) }

// Close is a no-op.
func (s *MemorySink) Close() error { return nil }

// ByKind returns the recorded events of one kind, in emission order.
func (s *MemorySink) ByKind(kind string) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// ProgressSink renders a human-readable progress feed: span open/close
// lines, every Nth iteration/SA sample (N = Every), every LP solve and
// gauge, and a multi-line report for the final summary. It is the sink
// behind the command-line -v flag and writes to W (normally stderr).
type ProgressSink struct {
	W     io.Writer
	Every int // cadence for iter/sa events (default 100)

	seen map[string]int
}

// NewProgressSink returns a progress sink writing to w, printing every
// every-th iteration event per (span, solver) stream; every <= 0 selects
// the default cadence of 100.
func NewProgressSink(w io.Writer, every int) *ProgressSink {
	if every <= 0 {
		every = 100
	}
	return &ProgressSink{W: w, Every: every, seen: map[string]int{}}
}

// Emit renders e if its kind and cadence call for it.
func (s *ProgressSink) Emit(e Event) {
	switch e.Kind {
	case KindSpanStart:
		fmt.Fprintf(s.W, "[%9.3fs] >> %s\n", e.TS, e.Span)
	case KindSpanEnd:
		fmt.Fprintf(s.W, "[%9.3fs] << %s (%.1f ms)\n", e.TS, e.Span, e.DurMS)
	case KindIter:
		key := e.Span + "|" + e.Iter.Solver
		n := s.seen[key]
		s.seen[key] = n + 1
		if n%s.Every != 0 {
			return
		}
		r := e.Iter
		fmt.Fprintf(s.W, "[%9.3fs] %s %s iter %d f=%.6g", e.TS, e.Span, r.Solver, r.Iter, r.F)
		if r.HPWL != 0 {
			fmt.Fprintf(s.W, " hpwl=%.6g", r.HPWL)
		}
		if r.Overflow != 0 {
			fmt.Fprintf(s.W, " ovf=%.3f", r.Overflow)
		}
		if r.Lambda != 0 {
			fmt.Fprintf(s.W, " lambda=%.3g", r.Lambda)
		}
		if r.Step != 0 {
			fmt.Fprintf(s.W, " step=%.3g", r.Step)
		}
		fmt.Fprintln(s.W)
	case KindSA:
		key := e.Span + "|sa"
		n := s.seen[key]
		s.seen[key] = n + 1
		if n%s.Every != 0 {
			return
		}
		r := e.SA
		fmt.Fprintf(s.W, "[%9.3fs] %s sa chain %d move %d T=%.3g acc=%.2f cur=%.6g best=%.6g\n",
			e.TS, e.Span, r.Chain, r.Move, r.Temp, r.AcceptRate, r.Cur, r.Best)
	case KindLP:
		r := e.LP
		fmt.Fprintf(s.W, "[%9.3fs] %s %s", e.TS, e.Span, r.Solver)
		if r.Label != "" {
			fmt.Fprintf(s.W, "(%s)", r.Label)
		}
		fmt.Fprintf(s.W, " %dx%d", r.Rows, r.Cols)
		if r.Pivots > 0 {
			fmt.Fprintf(s.W, " pivots=%d", r.Pivots)
		}
		if r.Nodes > 0 {
			fmt.Fprintf(s.W, " nodes=%d", r.Nodes)
		}
		fmt.Fprintf(s.W, " obj=%.6g %s\n", r.Obj, r.Status)
	case KindGauge:
		fmt.Fprintf(s.W, "[%9.3fs] %s = %.6g\n", e.TS, e.Name, e.Value)
	case KindSummary:
		s.summary(e)
	}
}

func (s *ProgressSink) summary(e Event) {
	sum := e.Summary
	fmt.Fprintf(s.W, "--- run summary (%.1f ms wall, %d events) ---\n", sum.WallMS, sum.Events)
	for _, k := range sortedKeys(sum.Spans) {
		st := sum.Spans[k]
		fmt.Fprintf(s.W, "  span %-28s x%-4d %10.1f ms\n", k, st.Count, st.TotalMS)
	}
	for _, k := range sortedKeys(sum.Kernels) {
		st := sum.Kernels[k]
		fmt.Fprintf(s.W, "  kernel %-26s x%-4d %10.1f ms\n", k, st.Count, st.TotalMS)
	}
	for _, k := range sortedKeys(sum.Counters) {
		fmt.Fprintf(s.W, "  counter %-25s %12.6g\n", k, sum.Counters[k])
	}
	for _, k := range sortedKeys(sum.Gauges) {
		fmt.Fprintf(s.W, "  gauge %-27s %12.6g\n", k, sum.Gauges[k])
	}
}

// Close is a no-op; the sink does not own W.
func (s *ProgressSink) Close() error { return nil }
