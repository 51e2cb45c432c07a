// Command experiments regenerates the paper's evaluation tables and
// figures. Usage:
//
//	experiments [flags] [table1 fig2 table3 table4 fig5 table5 table6 table7 fig6 ablations refine routed | all]
//
// Each selected experiment prints its results in a layout mirroring the
// paper's table so the reproduction can be compared side by side. Size
// sweeps on generated circuits beyond the paper's benchmarks are
// cmd/bench's job (-suite quick|std).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	seed := flag.Int64("seed", 7, "base random seed for every experiment")
	quick := flag.Bool("quick", false, "reduced budgets (smoke-test scale)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit), e.g. 30m")
	tracePath := flag.String("trace", "", "write a JSONL telemetry trace of every solver run here")
	verbose := flag.Bool("v", false, "periodic human-readable solver progress on stderr")
	progEvery := flag.Int("progress-every", 500, "with -v, print every Nth solver iteration")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile here")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile here")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	var sinks []obs.Sink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		sinks = append(sinks, obs.NewJSONLSink(f))
	}
	if *verbose {
		sinks = append(sinks, obs.NewProgressSink(os.Stderr, *progEvery))
	}
	var tracer *obs.Tracer
	if len(sinks) > 0 {
		tracer = obs.New(sinks...)
	}
	// log.Fatal bypasses deferred calls, so flush telemetry and profiles
	// explicitly on the success path and accept their loss on fatal exits.
	finish := func() {
		if err := tracer.Close(); err != nil {
			log.Fatalf("closing trace: %v", err)
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick, Tracer: tracer, Ctx: ctx}
	sel := flag.Args()
	if len(sel) == 0 {
		sel = []string{"all"}
	}
	want := map[string]bool{}
	for _, s := range sel {
		want[s] = true
	}
	all := want["all"]
	ranAny := false

	run := func(name string, fn func() error) {
		if !all && !want[name] {
			return
		}
		ranAny = true
		start := time.Now()
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	run("table1", func() error {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable1(rows))
		return nil
	})
	run("fig2", func() error {
		rows, err := experiments.Fig2(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig2(rows))
		return nil
	})
	run("table3", func() error {
		rows, err := experiments.Table3(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable3(rows))
		return nil
	})
	run("table4", func() error {
		rows, err := experiments.Table4(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable4(rows))
		return nil
	})
	run("fig5", func() error {
		pts, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSweep("Fig. 5: HPWL-area tradeoff on CM-OTA1", pts, false))
		return nil
	})
	run("ablations", func() error {
		rows, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblations(rows))
		return nil
	})
	run("refine", func() error {
		rows, err := experiments.RefineAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatRefineAblation(rows))
		return nil
	})
	run("routed", func() error {
		rows, err := experiments.RoutedValidation(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatRouted(rows))
		return nil
	})
	// The performance-driven experiments share trained GNN models.
	needPerf := all || want["table5"] || want["table6"] || want["table7"] || want["fig6"]
	var models *experiments.Models
	if needPerf {
		start := time.Now()
		var err error
		models, err = experiments.TrainAll(cfg)
		if err != nil {
			log.Fatalf("training GNN models: %v", err)
		}
		fmt.Printf("[trained 10 GNN performance models in %.1fs]\n\n", time.Since(start).Seconds())
	}

	var t5 []experiments.Table5Row
	var t7 []experiments.Table7Row
	if all || want["table5"] || want["table7"] {
		var err error
		start := time.Now()
		t5, t7, err = experiments.Table5And7(cfg, models)
		if err != nil {
			log.Fatalf("table5/7: %v", err)
		}
		ranAny = true
		if all || want["table5"] {
			fmt.Print(experiments.FormatTable5(t5))
			fmt.Printf("[table5 done]\n\n")
		}
		if all || want["table7"] {
			fmt.Print(experiments.FormatTable7(t7))
			fmt.Printf("[table7 done]\n\n")
		}
		fmt.Printf("[table5+7 completed in %.1fs]\n\n", time.Since(start).Seconds())
	}
	run("table6", func() error {
		res, err := experiments.Table6(cfg, models)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable6(res))
		return nil
	})
	run("fig6", func() error {
		pts, err := experiments.Fig6(cfg, models)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSweep("Fig. 6: FOM-area tradeoff on CM-OTA1", pts, true))
		return nil
	})

	finish()
	if !ranAny {
		fmt.Fprintf(os.Stderr, "unknown experiment selection %v\n", sel)
		fmt.Fprintf(os.Stderr, "available: table1 fig2 table3 table4 fig5 ablations refine routed table5 table6 table7 fig6 all\n")
		fmt.Fprintf(os.Stderr, "size sweeps on generated circuits: go run ./cmd/bench -suite quick|std -seed 7 -reps 1\n")
		os.Exit(2)
	}
}
