package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

// tinyCases generates a small deterministic suite for tests.
func tinyCases(t *testing.T) []CaseInput {
	t.Helper()
	var cases []CaseInput
	for _, size := range []int{8, 14} {
		n, err := gen.Generate(gen.Params{Seed: 7, Devices: size})
		if err != nil {
			t.Fatalf("Generate(%d): %v", size, err)
		}
		cases = append(cases, CaseInput{Name: n.Name, Netlist: n})
	}
	return cases
}

func quickOpts() Options {
	return Options{Quick: true, Reps: 2, Seed: 5}
}

// TestRunAllMethods runs the harness end to end in quick mode over all
// three methods and checks the report invariants: one cell per
// case×method, populated QoR, deterministic across repetitions.
func TestRunAllMethods(t *testing.T) {
	cases := tinyCases(t)
	rep, err := Run(cases, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", rep.Schema, SchemaVersion)
	}
	wantMethods := []string{"sa", "prev", "eplace-a"}
	if len(rep.Methods) != len(wantMethods) {
		t.Fatalf("methods = %v, want %v", rep.Methods, wantMethods)
	}
	if got, want := len(rep.Results), len(cases)*len(wantMethods); got != want {
		t.Fatalf("len(results) = %d, want %d", got, want)
	}
	for _, r := range rep.Results {
		if r.QoR.HPWLUM <= 0 || r.QoR.AreaUM2 <= 0 {
			t.Errorf("%s/%s: degenerate QoR %+v", r.Case, r.Method, r.QoR)
		}
		if !r.Deterministic {
			t.Errorf("%s/%s: QoR differed across same-seed repetitions", r.Case, r.Method)
		}
		if r.Runtime.Reps != 2 {
			t.Errorf("%s/%s: reps = %d, want 2", r.Case, r.Method, r.Runtime.Reps)
		}
		if r.Devices == 0 || r.Nets == 0 {
			t.Errorf("%s/%s: missing circuit stats %+v", r.Case, r.Method, r)
		}
	}
}

// TestSameSeedReproducible reruns the same suite and demands identical QoR
// sections — the property the CI smoke job asserts with jq.
func TestSameSeedReproducible(t *testing.T) {
	cases := tinyCases(t)
	opts := quickOpts()
	opts.Methods = []core.Method{core.MethodPrev, core.MethodSA}
	a, err := Run(cases, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cases, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra.QoR != rb.QoR {
			t.Errorf("%s/%s: QoR not reproducible:\n  run1 %+v\n  run2 %+v", ra.Case, ra.Method, ra.QoR, rb.QoR)
		}
	}
}

// TestReportRoundTrip checks the JSON schema is stable: serialized field
// names match the documented report layout, and ReadReport round-trips.
func TestReportRoundTrip(t *testing.T) {
	cases := tinyCases(t)[:1]
	opts := quickOpts()
	opts.Methods = []core.Method{core.MethodPrev}
	rep, err := Run(cases, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep.Label = "unit/test run" // exercises sanitizeLabel
	rep.Suite = "quick"

	dir := t.TempDir()
	path, err := rep.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_unit-test-run.json"); path != want {
		t.Errorf("path = %q, want %q", path, want)
	}

	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != rep.Seed || len(back.Results) != len(rep.Results) {
		t.Errorf("round trip mismatch: %+v vs %+v", back, rep)
	}
	if back.Results[0].QoR != rep.Results[0].QoR {
		t.Errorf("QoR round trip mismatch")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"schema"`, `"results"`, `"qor"`, `"hpwl_um"`, `"raw_hpwl_um"`,
		`"area_um2"`, `"overlap_um2"`, `"density_overflow"`, `"violations"`,
		`"legal"`, `"runtime"`, `"median_ms"`, `"p95_ms"`, `"deterministic"`,
	} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("report JSON missing %s", key)
		}
	}
}

// TestProfileMatchesTracedPlace checks an eplace-a cell's profile against
// a traced core.PlaceCtx of the same case and options: the profile reads
// the run's own trace summary, so the poisson_solve call counts and the
// GP iteration counter agree.
func TestProfileMatchesTracedPlace(t *testing.T) {
	cases := tinyCases(t)[:1]
	opts := quickOpts()
	opts.Methods = []core.Method{core.MethodEPlaceA}
	rep, err := Run(cases, opts)
	if err != nil {
		t.Fatal(err)
	}
	prof := rep.Results[0].Profile
	if prof == nil {
		t.Fatal("eplace-a cell has no profile")
	}
	tracer := obs.New()
	if _, err := core.PlaceCtx(context.Background(), cases[0].Netlist, core.MethodEPlaceA,
		opts.withDefaults().coreOptions(tracer)); err != nil {
		t.Fatal(err)
	}
	sum := tracer.Summary()
	want := sum.Kernels["poisson_solve"].Count
	if got := prof.Kernels["poisson_solve"].Count; want == 0 || got != want {
		t.Errorf("profile poisson_solve count = %d, traced Place %d", got, want)
	}
	if got, want := prof.Counters["gp.iterations"], sum.Counters["gp.iterations"]; want == 0 || got != want {
		t.Errorf("profile gp.iterations = %g, traced Place %g", got, want)
	}
	if prof.Kernels["poisson_solve"].TotalMS <= 0 {
		t.Errorf("profile poisson_solve total_ms = %g, want > 0", prof.Kernels["poisson_solve"].TotalMS)
	}
}

// TestReadReportSchemaMismatch ensures future-schema reports are rejected
// instead of silently read as zeros.
func TestReadReportSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{Schema: SchemaVersion + 1, Label: "future"}
	path, err := rep.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil {
		t.Fatal("ReadReport accepted a mismatched schema")
	}
}

// cloneReport deep-copies a report via JSON so tests can inject
// regressions without aliasing.
func cloneReport(t *testing.T, r *Report) *Report {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestCompare injects regressions into a copied report and checks the gate
// trips on each, and only then — identical reports must pass clean.
func TestCompare(t *testing.T) {
	cases := tinyCases(t)[:1]
	opts := quickOpts()
	opts.Methods = []core.Method{core.MethodPrev}
	base, err := Run(cases, opts)
	if err != nil {
		t.Fatal(err)
	}

	if regs, err := Compare(base, cloneReport(t, base), Tolerances{}); err != nil {
		t.Fatal(err)
	} else if len(regs) != 0 {
		t.Fatalf("identical reports flagged regressions: %v", regs)
	}

	// HPWL regression beyond the QoR factor.
	worse := cloneReport(t, base)
	worse.Results[0].QoR.HPWLUM *= 1.10
	regs, err := Compare(base, worse, Tolerances{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "hpwl_um" {
		t.Fatalf("regs = %v, want one hpwl_um regression", regs)
	}
	if !strings.Contains(regs[0].String(), "hpwl_um") {
		t.Errorf("String() = %q, want metric name in message", regs[0])
	}

	// Within tolerance: no flag.
	near := cloneReport(t, base)
	near.Results[0].QoR.HPWLUM *= 1.005
	if regs, _ := Compare(base, near, Tolerances{}); len(regs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", regs)
	}

	// New constraint violations and lost legality.
	broken := cloneReport(t, base)
	broken.Results[0].QoR.Violations.Symmetry += 2
	broken.Results[0].QoR.Legal = false
	regs, _ = Compare(base, broken, Tolerances{})
	var metrics []string
	for _, r := range regs {
		metrics = append(metrics, r.Metric)
	}
	if len(regs) != 2 || metrics[0] != "violations.symmetry" || metrics[1] != "legal" {
		t.Fatalf("metrics = %v, want [violations.symmetry legal]", metrics)
	}

	// Runtime regression beyond factor + slack.
	slow := cloneReport(t, base)
	slow.Results[0].Runtime.MedianMS = slow.Results[0].Runtime.MedianMS*2 + 100
	regs, _ = Compare(base, slow, Tolerances{})
	if len(regs) != 1 || regs[0].Metric != "runtime.median_ms" {
		t.Fatalf("regs = %v, want one runtime.median_ms regression", regs)
	}
	// A looser runtime factor silences it.
	if regs, _ := Compare(base, slow, Tolerances{RuntimeFactor: 10}); len(regs) != 0 {
		t.Fatalf("loose runtime tolerance still flagged: %v", regs)
	}

	// A cell vanishing from the current report is itself a regression.
	missing := cloneReport(t, base)
	missing.Results = nil
	regs, _ = Compare(base, missing, Tolerances{})
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("regs = %v, want one missing-cell regression", regs)
	}

	// Seed mismatch is an error, not a pass.
	reseeded := cloneReport(t, base)
	reseeded.Seed++
	if _, err := Compare(base, reseeded, Tolerances{}); err == nil {
		t.Fatal("Compare accepted mismatched seeds")
	}
}

// TestWarmupDefaults pins how Options.Warmup resolves: zero is the per-mode
// default (one warmup in full mode, none in quick mode), a negative value
// is none in either mode, and a positive count is kept.
func TestWarmupDefaults(t *testing.T) {
	for _, tc := range []struct {
		warmup int
		quick  bool
		want   int
	}{
		{0, false, 1},
		{0, true, 0},
		{-1, false, 0},
		{-1, true, 0},
		{2, false, 2},
		{2, true, 2},
	} {
		got := Options{Warmup: tc.warmup, Quick: tc.quick}.withDefaults().Warmup
		if got != tc.want {
			t.Errorf("Warmup %d, Quick %v: resolved to %d, want %d", tc.warmup, tc.quick, got, tc.want)
		}
	}
}
