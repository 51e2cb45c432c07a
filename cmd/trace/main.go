// Command trace analyzes the JSONL convergence traces written by
// cmd/placer -trace, cmd/bench -trace-dir, and the placerd event stream:
// per-solver convergence summaries, per-stage and per-kernel time
// attribution, SA acceptance curves, structural validation, and A-vs-B
// regression diffs.
//
// Usage:
//
//	trace summary [-json] run.jsonl
//	trace diff [-hpwl-tol 0.02] [-time-tol 0.25] [-json] base.jsonl new.jsonl
//	trace check run.jsonl [more.jsonl ...]
//
// `diff` exits non-zero when the new trace regresses beyond the
// tolerances (final HPWL, the placement's place.hpwl_um gauge, wall time,
// or any stage's self time); `check`
// exits non-zero on any malformed trace. Both are CI gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs/analyze"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage:
  trace summary [-json] run.jsonl
  trace diff [-hpwl-tol F] [-time-tol F] [-json] base.jsonl new.jsonl
  trace check run.jsonl [more.jsonl ...]`)
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "summary":
		return runSummary(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "check":
		return runCheck(args[1:], stdout, stderr)
	default:
		return usage(stderr)
	}
}

// load reads and structurally validates one trace; analysis of a malformed
// trace would silently produce nonsense, so every subcommand goes through
// the same gate.
func load(path string, stderr io.Writer) (*analyze.Trace, bool) {
	t, err := analyze.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "trace: %v\n", err)
		return nil, false
	}
	if err := t.Check(); err != nil {
		fmt.Fprintf(stderr, "trace: %s: %v\n", path, err)
		return nil, false
	}
	return t, true
}

func runSummary(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the full report (including curves) as JSON")
	if fs.Parse(args) != nil || fs.NArg() != 1 {
		return usage(stderr)
	}
	t, ok := load(fs.Arg(0), stderr)
	if !ok {
		return 1
	}
	rep := analyze.Summarize(t)
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		return 0
	}
	printReport(stdout, rep)
	return 0
}

func printReport(w io.Writer, rep *analyze.Report) {
	fmt.Fprintf(w, "trace: %s\n", rep.Name)
	fmt.Fprintf(w, "  events %d, wall %.3f s\n", rep.Events, rep.WallMS/1e3)
	if rep.FinalHPWL > 0 {
		fmt.Fprintf(w, "  final HPWL %.6g (best %.6g)\n", rep.FinalHPWL, rep.BestHPWL)
	}
	for _, c := range rep.Curves {
		fmt.Fprintf(w, "  solver %-10s %5d iters, f %.6g -> %.6g", c.Solver, c.Iterations, c.FirstF, c.LastF)
		if c.FirstHPWL > 0 {
			fmt.Fprintf(w, ", hpwl %.6g -> %.6g (%+.1f%%)",
				c.FirstHPWL, c.LastHPWL, 100*(c.LastHPWL-c.FirstHPWL)/c.FirstHPWL)
		}
		fmt.Fprintln(w)
	}
	if c := rep.Counters; c["gp.converged"]+c["gp.stalled"]+c["gp.capped"]+c["gp.diverged"] > 0 {
		fmt.Fprintf(w, "  gp stops: %.0f converged, %.0f stalled, %.0f capped, %.0f diverged\n",
			c["gp.converged"], c["gp.stalled"], c["gp.capped"], c["gp.diverged"])
	}
	if rep.SA != nil {
		fmt.Fprintf(w, "  sa: %d samples over %d chain(s), accept %.2f -> %.2f, best cost %.6g\n",
			rep.SA.Samples, rep.SA.Chains, rep.SA.FirstAccept, rep.SA.LastAccept, rep.SA.BestCost)
	}
	if rep.LPSolves > 0 {
		fmt.Fprintf(w, "  lp/ilp: %d solves, %d branch-and-bound nodes\n", rep.LPSolves, rep.ILPNodes)
	}
	if len(rep.Stages) > 0 {
		fmt.Fprintf(w, "  stages (self time):\n")
		stages := append([]analyze.Stage(nil), rep.Stages...)
		sort.Slice(stages, func(i, j int) bool { return stages[i].SelfMS > stages[j].SelfMS })
		for _, s := range stages {
			fmt.Fprintf(w, "    %-32s %10.3f s %6.1f%%  (%d span)\n", s.Path, s.SelfMS/1e3, share(s.SelfMS, rep.WallMS), s.Count)
		}
	}
	if len(rep.Kernels) > 0 {
		fmt.Fprintf(w, "  kernels (total time):\n")
		names := make([]string, 0, len(rep.Kernels))
		for k := range rep.Kernels {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool {
			a, b := rep.Kernels[names[i]], rep.Kernels[names[j]]
			return a.TotalMS > b.TotalMS || a.TotalMS == b.TotalMS && names[i] < names[j]
		})
		for _, k := range names {
			st := rep.Kernels[k]
			fmt.Fprintf(w, "    %-32s %10.3f ms %5.1f%%  (%d calls)\n", k, st.TotalMS, share(st.TotalMS, rep.WallMS), st.Count)
		}
	}
}

// share is ms as a percentage of the run's wall time (0 without one).
func share(ms, wallMS float64) float64 {
	if wallMS <= 0 {
		return 0
	}
	return 100 * ms / wallMS
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hpwlTol := fs.Float64("hpwl-tol", 0.02, "allowed relative increase in final HPWL and place.hpwl_um before failing")
	timeTol := fs.Float64("time-tol", 0.25, "allowed relative wall/stage-time increase before failing")
	asJSON := fs.Bool("json", false, "emit the diff as JSON")
	if fs.Parse(args) != nil || fs.NArg() != 2 {
		return usage(stderr)
	}
	ta, okA := load(fs.Arg(0), stderr)
	tb, okB := load(fs.Arg(1), stderr)
	if !okA || !okB {
		return 1
	}
	d := analyze.Diff(analyze.Summarize(ta), analyze.Summarize(tb),
		analyze.Tolerances{HPWLTol: *hpwlTol, TimeTol: *timeTol})
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(d)
	} else {
		fmt.Fprintf(stdout, "diff: %s (A) vs %s (B)\n", d.A, d.B)
		for _, dl := range d.Deltas {
			fmt.Fprintf(stdout, "%s\n", dl)
		}
	}
	if regs := d.Regressions(); len(regs) > 0 {
		fmt.Fprintf(stderr, "trace: %d regression(s) beyond tolerance\n", len(regs))
		return 1
	}
	return 0
}

func runCheck(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	bad := 0
	for _, path := range args {
		t, ok := load(path, stderr)
		if !ok {
			bad++
			continue
		}
		fmt.Fprintf(stdout, "ok  %s (%d events)\n", path, len(t.Events))
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "trace: %d of %d trace(s) malformed\n", bad, len(args))
		return 1
	}
	return 0
}
