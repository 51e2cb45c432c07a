package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/testcircuits"
)

// TestTraceCoversPipeline runs every method under a tracer and checks each
// pipeline stage opens at least one span and each solver emits at least one
// iteration/progress event.
func TestTraceCoversPipeline(t *testing.T) {
	c, err := testcircuits.ByName("Adder")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		method    Method
		wantSpans []string
		check     func(t *testing.T, sink *obs.MemorySink)
	}{
		{MethodEPlaceA, []string{"place", "gp", "detailed"}, func(t *testing.T, sink *obs.MemorySink) {
			solvers := map[string]int{}
			for _, e := range sink.ByKind(obs.KindIter) {
				solvers[e.Iter.Solver]++
			}
			for _, s := range []string{"nesterov", "eplace-gp"} {
				if solvers[s] == 0 {
					t.Errorf("no %q iteration events", s)
				}
			}
			if len(sink.ByKind(obs.KindLP)) == 0 {
				t.Error("no LP/ILP solve events from detailed placement")
			}
		}},
		{MethodPrev, []string{"place", "gp", "detailed"}, func(t *testing.T, sink *obs.MemorySink) {
			solvers := map[string]int{}
			for _, e := range sink.ByKind(obs.KindIter) {
				solvers[e.Iter.Solver]++
			}
			for _, s := range []string{"cg", "prev-epoch"} {
				if solvers[s] == 0 {
					t.Errorf("no %q iteration events", s)
				}
			}
		}},
		{MethodSA, []string{"place", "sa"}, func(t *testing.T, sink *obs.MemorySink) {
			if len(sink.ByKind(obs.KindSA)) == 0 {
				t.Error("no SA progress events")
			}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.method.String(), func(t *testing.T) {
			sink := &obs.MemorySink{}
			tr := obs.New(sink)
			if _, err := Place(c.Netlist, tc.method, Options{Seed: 1, SA: fastSA(1), Tracer: tr}); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}

			started := map[string]bool{}
			for _, e := range sink.ByKind(obs.KindSpanStart) {
				// Record the leaf name: paths are slash-joined.
				started[leaf(e.Span)] = true
			}
			ended := map[string]bool{}
			for _, e := range sink.ByKind(obs.KindSpanEnd) {
				ended[leaf(e.Span)] = true
			}
			for _, want := range tc.wantSpans {
				if !started[want] {
					t.Errorf("stage span %q never started (have %v)", want, started)
				}
				if !ended[want] {
					t.Errorf("stage span %q never ended", want)
				}
			}
			tc.check(t, sink)

			if n := len(sink.ByKind(obs.KindSummary)); n != 1 {
				t.Errorf("got %d summary events, want 1", n)
			}
		})
	}
}

// leaf returns the last element of a slash-joined span path.
func leaf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// TestTracingIsObservationOnly checks a traced run and an untraced run at
// the same seed produce identical placements — telemetry must never perturb
// the optimization.
func TestTracingIsObservationOnly(t *testing.T) {
	c, err := testcircuits.ByName("Adder")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodSA, MethodPrev, MethodEPlaceA} {
		plain, err := Place(c.Netlist, m, Options{Seed: 3, SA: fastSA(3)})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		tr := obs.New(&obs.MemorySink{})
		traced, err := Place(c.Netlist, m, Options{Seed: 3, SA: fastSA(3), Tracer: tr})
		if err != nil {
			t.Fatalf("%v traced: %v", m, err)
		}
		for i := range plain.Placement.X {
			if plain.Placement.X[i] != traced.Placement.X[i] || plain.Placement.Y[i] != traced.Placement.Y[i] {
				t.Errorf("%v: device %d moved under tracing: (%g,%g) vs (%g,%g)", m, i,
					plain.Placement.X[i], plain.Placement.Y[i],
					traced.Placement.X[i], traced.Placement.Y[i])
				break
			}
		}
		for i := range plain.Placement.FlipX {
			if plain.Placement.FlipX[i] != traced.Placement.FlipX[i] || plain.Placement.FlipY[i] != traced.Placement.FlipY[i] {
				t.Errorf("%v: device %d flip state changed under tracing", m, i)
				break
			}
		}
	}
}

// TestTracingNonFiniteIsObservationOnly pins the run whose diverging
// portfolio candidate reports a non-finite objective to the trace: VCO1
// by ePlace-A at seed 7, whose third candidate stops at its first
// non-finite objective and counts as gp.diverged. Traced into a JSONL
// sink, it must close without error, leave a trace the structural checker
// accepts, and place exactly as the untraced run does.
func TestTracingNonFiniteIsObservationOnly(t *testing.T) {
	c, err := testcircuits.ByName("VCO1")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Place(c.Netlist, MethodEPlaceA, Options{Seed: 7, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONLSink(&buf))
	traced, err := Place(c.Netlist, MethodEPlaceA, Options{Seed: 7, Threads: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("closing trace: %v", err)
	}
	trace, err := analyze.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Check(); err != nil {
		t.Fatalf("trace check: %v", err)
	}
	if got := trace.Summary.Counters["gp.diverged"]; got != 1 {
		t.Errorf("gp.diverged = %g, want 1", got)
	}
	if !reflect.DeepEqual(plain.Placement, traced.Placement) {
		t.Error("placement changed under tracing")
	}
}
