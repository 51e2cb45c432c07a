// Area–wirelength tradeoff exploration: sweep each placer's tradeoff
// parameter on CM-OTA1 and print the resulting Pareto points — a miniature
// of the paper's Fig. 5 study.
//
//	go run ./examples/tradeoff
package main

import (
	"fmt"
	"log"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/testcircuits"
)

func main() {
	cs, err := testcircuits.ByName("CM-OTA1")
	if err != nil {
		log.Fatal(err)
	}
	n := cs.Netlist

	fmt.Println("method      param       area(µm²)  HPWL(µm)")

	// Simulated annealing: weight between normalized area and wirelength.
	for _, w := range []float64{0.25, 0.5, 0.75} {
		res, err := core.Place(n, core.MethodSA, core.Options{
			Seed:       5,
			AreaWeight: w,
			SA:         &anneal.Options{Seed: 5, Moves: 150000},
			Chains:     2,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s w=%.2f     %9.1f %9.1f\n", "SA", w, res.AreaUM2, res.HPWLUM)
	}

	// ePlace-A: the GP area-term weight η.
	for _, eta := range []float64{0.15, 0.45, 0.9} {
		res, err := core.Place(n, core.MethodEPlaceA, core.Options{
			Seed:       5,
			AreaWeight: eta,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s eta=%.2f   %9.1f %9.1f\n", "ePlace-A", eta, res.AreaUM2, res.HPWLUM)
	}

	fmt.Println("\npoints closer to the lower-left corner dominate (smaller area AND wirelength)")
}
