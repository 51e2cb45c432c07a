// Command bench runs the QoR/runtime benchmark harness over a synthetic
// circuit suite (or explicit netlists) with every placement method, writes
// a BENCH_<label>.json report, and optionally gates against a stored
// baseline report, exiting non-zero when a regression exceeds tolerance.
//
// Usage:
//
//	bench -quick                             (CI smoke: quick suite, reduced budgets)
//	bench -suite std -reps 5 -label nightly
//	bench -sizes 100,400 -methods prev,eplace-a
//	bench -netlist mydesign.json,gen:200@7 -methods sa
//	bench -quick -baseline BENCH_main.json   (exit 1 on regression)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		suite    = flag.String("suite", "", "generated suite: "+strings.Join(gen.SuiteNames(), " | ")+" (default: quick with -quick, else std)")
		sizes    = flag.String("sizes", "", "comma-separated device counts to generate instead of a named suite, e.g. 100,400")
		netlists = flag.String("netlist", "", "comma-separated explicit cases instead of a suite: JSON files, built-in circuit names, or gen:<devices>[@seed] specs")
		methods  = flag.String("methods", "", "comma-separated methods to benchmark: sa, prev, eplace-a (default all)")
		reps     = flag.Int("reps", 0, "timed repetitions per case and method (default 3, 1 with -quick)")
		warmup   = flag.Int("warmup", -1, "untimed warmup runs per case and method; -1 = per-mode default (1, 0 with -quick), 0 = none")
		seed     = flag.Int64("seed", 1, "seed for both circuit generation and placement")
		threads  = flag.Int("threads", runtime.NumCPU(), "how many SA chains may run at once; eplace-a and prev run single-threaded (QoR is bit-identical at any count)")
		quick    = flag.Bool("quick", false, "reduced solver budgets and repetitions (CI smoke scale)")
		label    = flag.String("label", "", "report label, names the output file BENCH_<label>.json (default the suite name)")
		outDir   = flag.String("out", ".", "directory for the report file")
		baseline = flag.String("baseline", "", "baseline report to gate against; regressions beyond tolerance exit non-zero")
		rtTol    = flag.Float64("runtime-tol", 0, "allowed runtime factor vs baseline (default 1.5)")
		qorTol   = flag.Float64("qor-tol", 0, "allowed QoR factor vs baseline (default 1.01)")
		timeout  = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
		traceDir = flag.String("trace-dir", "", "write one JSONL convergence trace per case and method here (analyzed by cmd/trace)")
		quiet    = flag.Bool("q", false, "suppress per-case progress lines")

		chains = flag.Int("chains", 0, "SA portfolio width: independent parallel chains, best kept (0 = per-mode default; QoR is thread-count invariant)")

		eco       = flag.Bool("eco", false, "also measure incremental (ECO) re-placement: each generated case gets a grown variant, solved cold and warm-started from the base placement")
		ecoEdit   = flag.Int("eco-edit", 0, "device count added by the ECO edit (default 12)")
		refineOn  = flag.Bool("refine", false, "append the ILP large-neighborhood refinement stage to every method (never worsens QoR)")
		refineWin = flag.Int("refine-windows", 0, "refinement window budget (0 = about two sweeps)")
	)
	flag.Parse()
	opt := bench.Options{
		Reps:          *reps,
		Warmup:        warmupRuns(*warmup),
		Seed:          *seed,
		Quick:         *quick,
		Threads:       *threads,
		TraceDir:      *traceDir,
		Chains:        *chains,
		Refine:        *refineOn,
		RefineWindows: *refineWin,
		ECO:           *eco,
	}
	if err := run(*suite, *sizes, *netlists, *methods, *label, *outDir, *baseline, opt,
		*rtTol, *qorTol, *timeout, *quiet, *ecoEdit); err != nil {
		log.Fatal(err)
	}
}

func run(suite, sizes, netlists, methods, label, outDir, baseline string,
	opt bench.Options, rtTol, qorTol float64,
	timeout time.Duration, quiet bool, ecoEdit int) error {

	cases, suiteName, err := resolveCases(suite, sizes, netlists, opt.Seed, opt.Quick, opt.ECO, ecoEdit)
	if err != nil {
		return err
	}

	if opt.TraceDir != "" {
		if err := os.MkdirAll(opt.TraceDir, 0o755); err != nil {
			return err
		}
	}
	if methods != "" {
		for _, f := range strings.Split(methods, ",") {
			m, err := core.ParseMethod(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			opt.Methods = append(opt.Methods, m)
		}
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		opt.Ctx = ctx
	}
	if !quiet {
		opt.Logf = log.Printf
	}

	rep, err := bench.Run(cases, opt)
	if err != nil {
		return err
	}
	rep.Suite = suiteName
	rep.Label = label
	if rep.Label == "" {
		rep.Label = suiteName
	}
	path, err := rep.WriteFile(outDir)
	if err != nil {
		return err
	}
	log.Printf("wrote %s (%d results)", path, len(rep.Results))

	if baseline != "" {
		base, err := bench.ReadReport(baseline)
		if err != nil {
			return err
		}
		regs, err := bench.Compare(base, rep, bench.Tolerances{RuntimeFactor: rtTol, QoRFactor: qorTol})
		if err != nil {
			return err
		}
		if len(regs) > 0 {
			for _, r := range regs {
				log.Printf("REGRESSION %s", r)
			}
			return fmt.Errorf("%d regression(s) vs %s", len(regs), baseline)
		}
		log.Printf("no regressions vs %s", baseline)
	}
	return nil
}

// warmupRuns maps the -warmup flag onto bench.Options.Warmup, whose zero
// value is the per-mode default and whose negative values mean none: the
// flag's -1 default asks for the per-mode default and an explicit 0 for no
// warmup at all.
func warmupRuns(flagVal int) int {
	switch {
	case flagVal < 0:
		return 0
	case flagVal == 0:
		return -1
	default:
		return flagVal
	}
}

// resolveCases materializes the benchmark circuits from whichever source
// flag is set: explicit -netlist entries, explicit -sizes, or a named
// suite (defaulting by -quick). It returns the cases plus the suite name
// recorded in the report.
func resolveCases(suite, sizes, netlists string, seed int64, quick, eco bool, ecoEdit int) ([]bench.CaseInput, string, error) {
	set := 0
	for _, s := range []string{suite, sizes, netlists} {
		if s != "" {
			set++
		}
	}
	if set > 1 {
		return nil, "", fmt.Errorf("choose one of -suite, -sizes, -netlist")
	}

	if netlists != "" {
		var cases []bench.CaseInput
		for _, f := range strings.Split(netlists, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			n, err := netio.Resolve(f)
			if err != nil {
				return nil, "", err
			}
			cases = append(cases, bench.CaseInput{Name: caseName(f, n.Name), Netlist: n})
		}
		if len(cases) == 0 {
			return nil, "", fmt.Errorf("-netlist: empty case list %q", netlists)
		}
		return cases, "custom", nil
	}

	var genCases []gen.Case
	suiteName := suite
	switch {
	case sizes != "":
		sz, err := gen.ParseSizes(sizes)
		if err != nil {
			return nil, "", err
		}
		genCases = gen.Sizes(sz, seed)
		suiteName = "sizes:" + sizes
	default:
		if suiteName == "" {
			if quick {
				suiteName = "quick"
			} else {
				suiteName = "std"
			}
		}
		var err error
		genCases, err = gen.Suite(suiteName, seed)
		if err != nil {
			return nil, "", err
		}
	}
	var cases []bench.CaseInput
	for _, c := range genCases {
		n, err := gen.Generate(c.Params)
		if err != nil {
			return nil, "", fmt.Errorf("generating %s: %w", c.Name, err)
		}
		in := bench.CaseInput{Name: c.Name, Netlist: n}
		if eco {
			// The edit is the generator's own growth: same seed, more
			// devices, so the original devices are a byte-identical prefix
			// and the perturbation is exactly the appended tiles.
			in.Edited, err = gen.Generate(gen.Edited(c.Params, ecoEdit))
			if err != nil {
				return nil, "", fmt.Errorf("generating %s eco edit: %w", c.Name, err)
			}
		}
		cases = append(cases, in)
	}
	return cases, suiteName, nil
}

// caseName labels a -netlist case: the netlist's own name when it has one,
// else the flag entry itself.
func caseName(entry, name string) string {
	if name != "" {
		return name
	}
	return entry
}
