package analyze

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

const goodTrace = `{"ts":0,"kind":"span_start","span":"place"}
{"ts":0.001,"kind":"span_start","span":"place/gp"}
{"ts":0.002,"kind":"iter","span":"place/gp","iter":{"solver":"cg","n":0,"f":100,"hpwl":50,"overflow":0.8}}
{"ts":0.3,"kind":"iter","span":"place/gp","iter":{"solver":"cg","n":1,"f":90,"hpwl":45,"overflow":0.4}}
{"ts":0.5,"kind":"iter","span":"place/gp","iter":{"solver":"cg","n":2,"f":80,"hpwl":40,"overflow":0.1}}
{"ts":0.6,"kind":"span_end","span":"place/gp","dur_ms":599}
{"ts":0.62,"kind":"sa","span":"place","sa":{"restart":0,"move":100,"temp":5,"accept_rate":0.9,"cur":70,"best":70}}
{"ts":0.64,"kind":"sa","span":"place","sa":{"restart":0,"move":200,"temp":1,"accept_rate":0.2,"cur":66,"best":65}}
{"ts":0.7,"kind":"lp","span":"place","lp":{"solver":"ilp","rows":3,"cols":4,"nodes":7,"obj":1,"status":"optimal"}}
{"ts":0.9,"kind":"span_end","span":"place","dur_ms":900}
{"ts":0.91,"kind":"summary","summary":{"spans":{"place":{"count":1,"total_ms":900},"place/gp":{"count":1,"total_ms":599}},"kernels":{"wl_grad":{"count":4,"total_ms":12.5}},"events":11,"wall_ms":910}}
`

func parse(t *testing.T, s string) *Trace {
	t.Helper()
	tr, err := Read(strings.NewReader(s))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return tr
}

func TestReadAndCheckGoodTrace(t *testing.T) {
	tr := parse(t, goodTrace)
	if len(tr.Events) != 11 {
		t.Fatalf("got %d events, want 11", len(tr.Events))
	}
	if tr.Summary == nil || tr.Summary.WallMS != 910 {
		t.Fatalf("summary %+v", tr.Summary)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestReadRejectsMalformedLine(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"ts":0,"kind":"span_start"}` + "\n" + `{"ts":0.1,"ki`)); err == nil {
		t.Fatal("truncated JSON line accepted")
	}
	if _, err := Read(strings.NewReader(`{"ts":0}`)); err == nil {
		t.Fatal("event without kind accepted")
	}
}

func TestCheckViolations(t *testing.T) {
	cases := []struct {
		name, trace, wantErr string
	}{
		{"empty", "", "empty trace"},
		{"unbalanced span",
			`{"ts":0,"kind":"span_start","span":"place"}` + "\n" +
				`{"ts":0.1,"kind":"summary","summary":{"events":2,"wall_ms":100}}`,
			"never ended"},
		{"end without start",
			`{"ts":0,"kind":"span_end","span":"place"}`,
			"ended without starting"},
		{"no summary",
			`{"ts":0,"kind":"span_start","span":"place"}` + "\n" +
				`{"ts":0.1,"kind":"span_end","span":"place"}`,
			"0 summary events"},
		{"summary not last",
			`{"ts":0,"kind":"summary","summary":{"events":1,"wall_ms":1}}` + "\n" +
				`{"ts":0.1,"kind":"gauge","name":"x","value":1}`,
			"not the final event"},
		{"time travel",
			`{"ts":5,"kind":"gauge","name":"x","value":1}` + "\n" +
				`{"ts":1,"kind":"summary","summary":{"events":2,"wall_ms":1}}`,
			"before predecessor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := parse(t, tc.trace)
			err := tr.Check()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Check = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	rep := Summarize(parse(t, goodTrace))
	if rep.FinalHPWL != 40 || rep.BestHPWL != 40 {
		t.Errorf("HPWL final %g best %g, want 40/40", rep.FinalHPWL, rep.BestHPWL)
	}
	if len(rep.Curves) != 1 || rep.Curves[0].Solver != "cg" {
		t.Fatalf("curves %+v", rep.Curves)
	}
	c := rep.Curves[0]
	if c.Iterations != 3 || c.FirstF != 100 || c.LastF != 80 || c.FirstHPWL != 50 || c.LastHPWL != 40 {
		t.Errorf("cg curve %+v", c)
	}
	if rep.SA == nil || rep.SA.Samples != 2 || rep.SA.FirstAccept != 0.9 || rep.SA.LastAccept != 0.2 || rep.SA.BestCost != 65 {
		t.Errorf("sa stats %+v", rep.SA)
	}
	if rep.LPSolves != 1 || rep.ILPNodes != 7 {
		t.Errorf("lp %d ilp nodes %d", rep.LPSolves, rep.ILPNodes)
	}
	// Stage self time: place owns 900 ms total, 599 ms of it inside gp.
	stages := map[string]Stage{}
	for _, s := range rep.Stages {
		stages[s.Path] = s
	}
	if got := stages["place"].SelfMS; got != 900-599 {
		t.Errorf("place self = %g, want %g", got, 900.0-599)
	}
	if got := stages["place/gp"].SelfMS; got != 599 {
		t.Errorf("gp self = %g, want 599", got)
	}
	if got, want := rep.Kernels["wl_grad"], (obs.SpanStat{Count: 4, TotalMS: 12.5}); len(rep.Kernels) != 1 || got != want {
		t.Errorf("kernels %+v, want wl_grad %+v", rep.Kernels, want)
	}
}

func TestDownsampleKeepsEndpoints(t *testing.T) {
	pts := make([]CurvePoint, 1000)
	for i := range pts {
		pts[i] = CurvePoint{Iter: i}
	}
	out := downsample(pts, MaxCurvePoints)
	if len(out) != MaxCurvePoints {
		t.Fatalf("len = %d, want %d", len(out), MaxCurvePoints)
	}
	if out[0].Iter != 0 || out[len(out)-1].Iter != 999 {
		t.Errorf("endpoints %d..%d, want 0..999", out[0].Iter, out[len(out)-1].Iter)
	}
	short := downsample(pts[:10], MaxCurvePoints)
	if len(short) != 10 {
		t.Errorf("short curve resampled to %d points", len(short))
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	a := &Report{Name: "a", FinalHPWL: 100, WallMS: 1000,
		Stages: []Stage{{Path: "place/gp", SelfMS: 500}, {Path: "place/tiny", SelfMS: 0.5}}}
	b := &Report{Name: "b", FinalHPWL: 105, WallMS: 1100,
		Stages: []Stage{{Path: "place/gp", SelfMS: 900}, {Path: "place/tiny", SelfMS: 2}}}
	d := Diff(a, b, Tolerances{HPWLTol: 0.02, TimeTol: 0.25})

	byMetric := map[string]Delta{}
	for _, dl := range d.Deltas {
		byMetric[dl.Metric] = dl
	}
	if dl := byMetric["final_hpwl"]; !dl.Regression {
		t.Errorf("5%% HPWL increase not flagged: %+v", dl)
	}
	if dl := byMetric["wall_ms"]; dl.Regression {
		t.Errorf("10%% wall increase flagged at 25%% tol: %+v", dl)
	}
	if dl := byMetric["stage_self_ms:place/gp"]; !dl.Regression {
		t.Errorf("80%% stage increase not flagged: %+v", dl)
	}
	if _, ok := byMetric["stage_self_ms:place/tiny"]; ok {
		t.Error("sub-floor stage compared; noise floor not applied")
	}
	if got := len(d.Regressions()); got != 2 {
		t.Errorf("%d regressions, want 2", got)
	}

	// Identical reports never regress.
	if regs := Diff(a, a, Tolerances{}).Regressions(); len(regs) != 0 {
		t.Errorf("self-diff regressed: %+v", regs)
	}

	// An SA trace has no iteration events, so its QoR is the final
	// placement's place.hpwl_um gauge.
	saA := &Report{Name: "sa-a", Gauges: map[string]float64{"place.hpwl_um": 18.57}}
	saB := &Report{Name: "sa-b", Gauges: map[string]float64{"place.hpwl_um": 19.5}}
	regs := Diff(saA, saB, Tolerances{HPWLTol: 0.02}).Regressions()
	if len(regs) != 1 || regs[0].Metric != "place.hpwl_um" {
		t.Errorf("5%% SA placement HPWL increase not flagged: %+v", regs)
	}
}

// TestRoundTripWithObsTypes pins the parse path to the real obs.Event JSON:
// encode events with the obs types, read them back through analyze.
func TestRoundTripWithObsTypes(t *testing.T) {
	var sb strings.Builder
	tr := obs.New(obs.NewJSONLSink(&sb))
	sp := tr.StartSpan("place")
	tr.IterEvent(obs.IterRecord{Solver: "nesterov", Iter: 0, F: 10, HPWL: 5})
	sp.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got := parse(t, sb.String())
	if err := got.Check(); err != nil {
		t.Fatalf("Check on real tracer output: %v", err)
	}
	rep := Summarize(got)
	if rep.FinalHPWL != 5 || len(rep.Curves) != 1 {
		t.Errorf("report %+v", rep)
	}
}
