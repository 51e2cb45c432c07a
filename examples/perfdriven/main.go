// Performance-driven placement: train a GNN performance model for the VGA
// benchmark, then compare conventional ePlace-A against ePlace-AP (the
// performance-driven variant) and performance-driven simulated annealing.
//
//	go run ./examples/perfdriven
package main

import (
	"fmt"
	"log"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/testcircuits"
)

func main() {
	cs, err := testcircuits.ByName("VGA")
	if err != nil {
		log.Fatal(err)
	}
	n := cs.Netlist

	// Train the GNN: >1000 generated layouts labeled by whether the
	// circuit's performance model puts their FOM below threshold.
	fmt.Println("training GNN performance model on generated layouts...")
	model, stats, err := core.TrainPerfGNN(n, cs.Perf, 0 /* auto threshold */, core.TrainOptions{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  validation accuracy %.2f, final loss %.3f\n\n", stats.ValAccuracy, stats.FinalLoss)

	report := func(tag string, res *core.Result) {
		fom := cs.Perf.FOM(n, res.Placement)
		fmt.Printf("%-28s area %7.1f µm²  HPWL %6.1f µm  FOM %.3f  (%.1fs)\n",
			tag, res.AreaUM2, res.HPWLUM, fom, res.Runtime.Seconds())
	}

	conv, err := core.Place(n, core.MethodEPlaceA, core.Options{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	report("ePlace-A (conventional)", conv)

	perf, err := core.Place(n, core.MethodEPlaceA, core.Options{
		Seed: 11,
		Perf: &core.PerfTerm{Model: model},
	})
	if err != nil {
		log.Fatal(err)
	}
	report("ePlace-AP (perf-driven)", perf)

	saPerf, err := core.Place(n, core.MethodSA, core.Options{
		Seed:   11,
		Perf:   &core.PerfTerm{Model: model},
		SA:     &anneal.Options{Seed: 11, Moves: 120000},
		Chains: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	report("SA (perf-driven, [19])", saPerf)

	fmt.Println("\nper-metric detail for the ePlace-AP result:")
	raw := cs.Perf.Eval(n, perf.Placement)
	norm := cs.Perf.Normalize(raw)
	for i, md := range cs.Perf.Metrics {
		fmt.Printf("  %-14s %8.1f  (spec %g, normalized %.2f)\n",
			md.Name, raw[i], md.Target, norm[i])
	}
}
