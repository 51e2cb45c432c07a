package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSummaryGolden pins the human-readable summaries of committed real
// placer traces: prev_adder (cmd/placer -circuit Adder -method prev -seed 1
// -trace ...), which predates kernel timing; eplace_adder (the same with
// -method eplace-a, trimmed to its spans, gauges, first and last eplace-gp
// iterations and summary), whose summary carries kernel totals but
// predates GP stop counters; and eplace_adder_seed7 (-seed 7 -threads 1,
// trimmed the same way), whose summary counts one converged and two
// stalled GP candidates. The output is a pure function of the trace file,
// so it is byte-stable.
func TestSummaryGolden(t *testing.T) {
	for _, name := range []string{"prev_adder", "eplace_adder", "eplace_adder_seed7"} {
		t.Run(name, func(t *testing.T) {
			fixture := filepath.Join("testdata", name+".jsonl")
			golden := filepath.Join("testdata", name+".golden")
			code, stdout, stderr := runCmd(t, "summary", fixture)
			if code != 0 {
				t.Fatalf("summary exited %d: %s", code, stderr)
			}
			if *update {
				if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if stdout != string(want) {
				t.Errorf("summary output drifted from golden.\n--- got ---\n%s--- want ---\n%s", stdout, want)
			}
		})
	}
}

func TestSummarySATrace(t *testing.T) {
	code, stdout, stderr := runCmd(t, "summary", filepath.Join("testdata", "sa_adder.jsonl"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"sa:", "accept", "stages (self time):"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("SA summary missing %q:\n%s", want, stdout)
		}
	}
}

func TestSummaryJSON(t *testing.T) {
	code, stdout, _ := runCmd(t, "summary", "-json", filepath.Join("testdata", "prev_adder.jsonl"))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{`"final_hpwl"`, `"curves"`, `"stages"`} {
		if !strings.Contains(stdout, want) {
			t.Errorf("JSON report missing %s", want)
		}
	}
	if strings.Contains(stdout, `"kernels"`) {
		t.Error("JSON report of a kernel-less trace has a kernels block")
	}

	code, stdout, _ = runCmd(t, "summary", "-json", filepath.Join("testdata", "eplace_adder.jsonl"))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	want := `"kernels": {
    "density_raster": {
      "count": 5579,`
	if !strings.Contains(stdout, want) {
		t.Errorf("JSON report missing kernel totals %q:\n%s", want, stdout)
	}
}

func TestCheckExitCodes(t *testing.T) {
	code, stdout, _ := runCmd(t, "check",
		filepath.Join("testdata", "prev_adder.jsonl"),
		filepath.Join("testdata", "sa_adder.jsonl"))
	if code != 0 {
		t.Errorf("check on healthy traces exited %d", code)
	}
	if strings.Count(stdout, "ok  ") != 2 {
		t.Errorf("check output:\n%s", stdout)
	}

	code, _, stderr := runCmd(t, "check", filepath.Join("testdata", "malformed.jsonl"))
	if code == 0 {
		t.Error("check accepted a malformed trace")
	}
	if !strings.Contains(stderr, "malformed") {
		t.Errorf("stderr: %s", stderr)
	}

	if code, _, _ := runCmd(t, "check", filepath.Join("testdata", "no_such.jsonl")); code == 0 {
		t.Error("check accepted a missing file")
	}
}

func TestDiffExitCodes(t *testing.T) {
	base := filepath.Join("testdata", "diff_base.jsonl")
	regressed := filepath.Join("testdata", "diff_regressed.jsonl")

	// A trace diffed against itself never regresses.
	if code, _, stderr := runCmd(t, "diff", base, base); code != 0 {
		t.Errorf("self-diff exited %d: %s", code, stderr)
	}

	// The regressed trace is 10%% worse on HPWL and ~44%% slower: both
	// beyond the default tolerances.
	code, stdout, stderr := runCmd(t, "diff", base, regressed)
	if code == 0 {
		t.Errorf("regression not detected:\n%s", stdout)
	}
	if !strings.Contains(stderr, "regression") {
		t.Errorf("stderr: %s", stderr)
	}
	for _, want := range []string{"!! final_hpwl", "!! wall_ms", "!! stage_self_ms:place/gp"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("diff output missing %q:\n%s", want, stdout)
		}
	}

	// Loose tolerances accept the same pair.
	if code, _, _ := runCmd(t, "diff", "-hpwl-tol", "0.5", "-time-tol", "1.0", base, regressed); code != 0 {
		t.Error("diff failed despite loose tolerances")
	}

	// JSON mode carries the same verdict.
	code, stdout, _ = runCmd(t, "diff", "-json", base, regressed)
	if code == 0 || !strings.Contains(stdout, `"regression": true`) {
		t.Errorf("JSON diff: exit %d, output:\n%s", code, stdout)
	}
}

func TestUsageOnBadInvocation(t *testing.T) {
	for _, args := range [][]string{{}, {"bogus"}, {"summary"}, {"diff", "one.jsonl"}} {
		if code, _, _ := runCmd(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}
