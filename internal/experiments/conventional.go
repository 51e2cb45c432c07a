package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/detailed"
	"repro/internal/eplacea"
	"repro/internal/prevwork"
	"repro/internal/testcircuits"
)

// Table1Row compares soft vs. hard symmetry constraints in global
// placement (paper Table I), measured after detailed placement.
type Table1Row struct {
	Design     string
	Soft, Hard MethodMetrics
}

// Table1 runs the soft/hard symmetry ablation on the paper's three
// circuits.
func Table1(cfg Config) ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range []string{"CC-OTA", "Comp2", "VCO2"} {
		c, err := testcircuits.ByName(name)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Design: name}
		for _, hard := range []bool{false, true} {
			res, err := core.PlaceCtx(cfg.ctx(), c.Netlist, core.MethodEPlaceA, core.Options{Tracer: cfg.Tracer,
				Seed:      cfg.Seed,
				Portfolio: 1,
				GP:        &eplacea.Options{Seed: cfg.Seed, HardSym: hard},
			})
			if err != nil {
				return nil, err
			}
			if hard {
				row.Hard = metricsOf(res)
			} else {
				row.Soft = metricsOf(res)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders Table I in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I: Soft vs. hard symmetry constraints in GP (post-DP results)\n")
	fmt.Fprintf(&b, "%-8s | %9s %9s | %9s %9s | %8s %8s\n",
		"Design", "AreaSoft", "AreaHard", "HPWLSoft", "HPWLHard", "tSoft", "tHard")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s | %9.1f %9.1f | %9.1f %9.1f | %7.2fs %7.2fs\n",
			r.Design, r.Soft.AreaUM2, r.Hard.AreaUM2,
			r.Soft.HPWLUM, r.Hard.HPWLUM, r.Soft.RuntimeS, r.Hard.RuntimeS)
	}
	return b.String()
}

// Fig2Row compares the full ePlace-A objective against dropping the area
// term (paper Fig. 2), measured post detailed placement.
type Fig2Row struct {
	Design          string
	With, Without   MethodMetrics
	AreaIncreasePct float64
	HPWLIncreasePct float64
}

// Fig2 runs the area-term ablation.
func Fig2(cfg Config) ([]Fig2Row, error) {
	var rows []Fig2Row
	for _, name := range []string{"CC-OTA", "Comp2", "VCO2"} {
		c, err := testcircuits.ByName(name)
		if err != nil {
			return nil, err
		}
		row := Fig2Row{Design: name}
		for _, noArea := range []bool{false, true} {
			res, err := core.PlaceCtx(cfg.ctx(), c.Netlist, core.MethodEPlaceA, core.Options{Tracer: cfg.Tracer,
				Seed:      cfg.Seed,
				Portfolio: 1,
				GP:        &eplacea.Options{Seed: cfg.Seed, NoArea: noArea},
			})
			if err != nil {
				return nil, err
			}
			if noArea {
				row.Without = metricsOf(res)
			} else {
				row.With = metricsOf(res)
			}
		}
		row.AreaIncreasePct = 100 * (row.Without.AreaUM2 - row.With.AreaUM2) / row.With.AreaUM2
		row.HPWLIncreasePct = 100 * (row.Without.HPWLUM - row.With.HPWLUM) / row.With.HPWLUM
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig2 renders the area-term ablation.
func FormatFig2(rows []Fig2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2: Area and HPWL with vs. without the area term\n")
	fmt.Fprintf(&b, "%-8s | %9s %9s %7s | %9s %9s %7s\n",
		"Design", "AreaWith", "AreaW/o", "Δ%", "HPWLWith", "HPWLW/o", "Δ%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s | %9.1f %9.1f %+6.1f%% | %9.1f %9.1f %+6.1f%%\n",
			r.Design, r.With.AreaUM2, r.Without.AreaUM2, r.AreaIncreasePct,
			r.With.HPWLUM, r.Without.HPWLUM, r.HPWLIncreasePct)
	}
	return b.String()
}

// Table3Row is the main conventional comparison (paper Table III).
type Table3Row struct {
	Design            string
	SA, Prev, EPlaceA MethodMetrics
}

// Table3 runs SA, the previous analytical work, and ePlace-A on every
// benchmark with the conventional (performance-oblivious) formulation.
func Table3(cfg Config) ([]Table3Row, error) {
	var rows []Table3Row
	for _, c := range testcircuits.All() {
		row := Table3Row{Design: c.Netlist.Name}
		for _, m := range []core.Method{core.MethodSA, core.MethodPrev, core.MethodEPlaceA} {
			opt := core.Options{Tracer: cfg.Tracer, Seed: cfg.Seed, Portfolio: cfg.portfolio()}
			if m == core.MethodSA {
				opt.SA, opt.Chains = cfg.saOptions(cfg.Seed), cfg.saChains()
			}
			res, err := core.PlaceCtx(cfg.ctx(), c.Netlist, m, opt)
			if err != nil {
				return nil, fmt.Errorf("table3 %s/%v: %w", c.Netlist.Name, m, err)
			}
			mm := metricsOf(res)
			switch m {
			case core.MethodSA:
				row.SA = mm
			case core.MethodPrev:
				row.Prev = mm
			default:
				row.EPlaceA = mm
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3Averages returns per-method averages normalized to ePlace-A
// (the paper's "Avg. (X)" row).
func Table3Averages(rows []Table3Row) (saArea, saHPWL, saRT, pvArea, pvHPWL, pvRT float64) {
	n := float64(len(rows))
	for _, r := range rows {
		saArea += r.SA.AreaUM2 / r.EPlaceA.AreaUM2
		saHPWL += r.SA.HPWLUM / r.EPlaceA.HPWLUM
		saRT += r.SA.RuntimeS / r.EPlaceA.RuntimeS
		pvArea += r.Prev.AreaUM2 / r.EPlaceA.AreaUM2
		pvHPWL += r.Prev.HPWLUM / r.EPlaceA.HPWLUM
		pvRT += r.Prev.RuntimeS / r.EPlaceA.RuntimeS
	}
	return saArea / n, saHPWL / n, saRT / n, pvArea / n, pvHPWL / n, pvRT / n
}

// FormatTable3 renders Table III in the paper's layout.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE III: Main comparison, conventional formulation\n")
	fmt.Fprintf(&b, "%-8s | %8s %8s %8s | %8s %8s %8s | %8s %8s %8s\n",
		"Design", "SA:Area", "HPWL", "Time(s)", "Pv:Area", "HPWL", "Time(s)", "eA:Area", "HPWL", "Time(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s | %8.1f %8.1f %8.2f | %8.1f %8.1f %8.2f | %8.1f %8.1f %8.2f\n",
			r.Design,
			r.SA.AreaUM2, r.SA.HPWLUM, r.SA.RuntimeS,
			r.Prev.AreaUM2, r.Prev.HPWLUM, r.Prev.RuntimeS,
			r.EPlaceA.AreaUM2, r.EPlaceA.HPWLUM, r.EPlaceA.RuntimeS)
	}
	sa, sh, st, pa, ph, pt := Table3Averages(rows)
	fmt.Fprintf(&b, "%-8s | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n",
		"Avg.(X)", sa, sh, st, pa, ph, pt, 1.0, 1.0, 1.0)
	return b.String()
}

// Table4Row compares the two detailed-placement back-ends from identical
// global-placement solutions (paper Table IV). Runtime covers detailed
// placement only.
type Table4Row struct {
	Design        string
	Prev, EPlaceA MethodMetrics
}

// Table4 runs the detailed-placement-only comparison on VCO1, Comp1, SCF.
func Table4(cfg Config) ([]Table4Row, error) {
	var rows []Table4Row
	for _, name := range []string{"VCO1", "Comp1", "SCF"} {
		c, err := testcircuits.ByName(name)
		if err != nil {
			return nil, err
		}
		gp, err := eplacea.Place(context.Background(), c.Netlist, eplacea.Options{Seed: cfg.Seed}, nil)
		if err != nil {
			return nil, err
		}
		row := Table4Row{Design: name}
		for _, mode := range []detailed.Mode{detailed.ModeTwoStageLP, detailed.ModeIntegratedILP} {
			start := time.Now()
			dp, err := detailed.Place(context.Background(), c.Netlist, gp.Placement, detailed.Options{Mode: mode})
			if err != nil {
				return nil, err
			}
			mm := MethodMetrics{
				AreaUM2:  dp.Area / 100,
				HPWLUM:   dp.HPWL / 10,
				RuntimeS: time.Since(start).Seconds(),
				Legal:    c.Netlist.CheckLegal(dp.Placement, 1e-6).OK(),
			}
			if mode == detailed.ModeTwoStageLP {
				row.Prev = mm
			} else {
				row.EPlaceA = mm
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable4 renders Table IV.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE IV: Detailed placement from identical GP solutions (runtime is DP only)\n")
	fmt.Fprintf(&b, "%-8s | %8s %8s %8s | %8s %8s %8s\n",
		"Design", "Pv:Area", "HPWL", "Time(s)", "eA:Area", "HPWL", "Time(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s | %8.1f %8.1f %8.2f | %8.1f %8.1f %8.2f\n",
			r.Design, r.Prev.AreaUM2, r.Prev.HPWLUM, r.Prev.RuntimeS,
			r.EPlaceA.AreaUM2, r.EPlaceA.HPWLUM, r.EPlaceA.RuntimeS)
	}
	return b.String()
}

// SweepPoint is one (area, HPWL) or (area, FOM) outcome of a parameter
// sweep.
type SweepPoint struct {
	Method  string
	Param   string
	AreaUM2 float64
	HPWLUM  float64
	FOM     float64
}

// Fig5 sweeps each method's tradeoff parameter on CM-OTA1 and returns the
// resulting HPWL–area points (paper Fig. 5).
func Fig5(cfg Config) ([]SweepPoint, error) {
	c, err := testcircuits.ByName("CM-OTA1")
	if err != nil {
		return nil, err
	}
	var pts []SweepPoint
	saWeights := []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	if cfg.Quick {
		saWeights = []float64{0.3, 0.7}
	}
	for _, w := range saWeights {
		res, err := core.PlaceCtx(cfg.ctx(), c.Netlist, core.MethodSA, core.Options{Tracer: cfg.Tracer,
			Seed: cfg.Seed, AreaWeight: w, SA: cfg.saOptions(cfg.Seed), Chains: cfg.saChains(),
		})
		if err != nil {
			return nil, err
		}
		pts = append(pts, SweepPoint{Method: "SA", Param: fmt.Sprintf("w=%.2f", w),
			AreaUM2: res.AreaUM2, HPWLUM: res.HPWLUM})
	}
	prevUtils := []float64{0.35, 0.5, 0.65, 0.8}
	if cfg.Quick {
		prevUtils = []float64{0.5, 0.8}
	}
	for _, u := range prevUtils {
		res, err := core.PlaceCtx(cfg.ctx(), c.Netlist, core.MethodPrev, core.Options{Tracer: cfg.Tracer,
			Seed: cfg.Seed, Prev: &prevwork.Options{Seed: cfg.Seed, Util: u},
		})
		if err != nil {
			return nil, err
		}
		pts = append(pts, SweepPoint{Method: "Prev", Param: fmt.Sprintf("util=%.2f", u),
			AreaUM2: res.AreaUM2, HPWLUM: res.HPWLUM})
	}
	areaWeights := []float64{0.1, 0.25, 0.45, 0.7, 1.0}
	if cfg.Quick {
		areaWeights = []float64{0.2, 0.8}
	}
	for _, w := range areaWeights {
		res, err := core.PlaceCtx(cfg.ctx(), c.Netlist, core.MethodEPlaceA, core.Options{Tracer: cfg.Tracer,
			Seed: cfg.Seed, AreaWeight: w, Portfolio: cfg.portfolio(),
		})
		if err != nil {
			return nil, err
		}
		pts = append(pts, SweepPoint{Method: "ePlace-A", Param: fmt.Sprintf("eta=%.2f", w),
			AreaUM2: res.AreaUM2, HPWLUM: res.HPWLUM})
	}
	return pts, nil
}

// FormatSweep renders sweep points as a table (area vs. HPWL or FOM).
func FormatSweep(title string, pts []SweepPoint, fom bool) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	if fom {
		fmt.Fprintf(&b, "%-10s %-12s %9s %7s\n", "Method", "Param", "Area", "FOM")
	} else {
		fmt.Fprintf(&b, "%-10s %-12s %9s %9s\n", "Method", "Param", "Area", "HPWL")
	}
	for _, p := range pts {
		if fom {
			fmt.Fprintf(&b, "%-10s %-12s %9.1f %7.3f\n", p.Method, p.Param, p.AreaUM2, p.FOM)
		} else {
			fmt.Fprintf(&b, "%-10s %-12s %9.1f %9.1f\n", p.Method, p.Param, p.AreaUM2, p.HPWLUM)
		}
	}
	return b.String()
}
