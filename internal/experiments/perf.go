package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/testcircuits"
)

// Table5Row holds the FOM of each method under the conventional and
// performance-driven formulations (paper Table V).
type Table5Row struct {
	Design                    string
	SAConv, SAPerf            float64
	PrevConv, PrevPerf        float64
	EPlaceAConv, EPlaceAPPerf float64
}

// perfRun executes one method with and without the performance term and
// returns FOMs plus the performance-driven metrics.
func perfRun(cfg Config, c *testcircuits.Case, models *Models,
	m core.Method) (convFOM, perfFOM float64, perfMetrics MethodMetrics, err error) {

	n := c.Netlist
	opt := core.Options{Tracer: cfg.Tracer, Seed: cfg.Seed, Portfolio: cfg.portfolio()}
	if m == core.MethodSA {
		opt.SA, opt.Chains = cfg.saOptions(cfg.Seed), cfg.saChains()
	}
	conv, err := core.PlaceCtx(cfg.ctx(), n, m, opt)
	if err != nil {
		return 0, 0, MethodMetrics{}, err
	}
	convFOM = c.Perf.FOM(n, conv.Placement)

	popt := core.Options{Tracer: cfg.Tracer,
		Seed:      cfg.Seed,
		Portfolio: cfg.portfolio(),
		Perf:      &core.PerfTerm{Model: models.ByName[n.Name]},
	}
	if m == core.MethodSA {
		popt.SA, popt.Chains = cfg.perfSAOptions(cfg.Seed, len(n.Devices)), cfg.saChains()
	}
	perf, err := core.PlaceCtx(cfg.ctx(), n, m, popt)
	if err != nil {
		return 0, 0, MethodMetrics{}, err
	}
	perfFOM = c.Perf.FOM(n, perf.Placement)
	pm := metricsOf(perf)
	pm.FOM = perfFOM
	return convFOM, perfFOM, pm, nil
}

// Table5And7 runs the performance-driven comparison once, producing both
// Table V (FOMs) and Table VII (area/HPWL/runtime of the perf-driven
// methods) since they share the same placements.
func Table5And7(cfg Config, models *Models) ([]Table5Row, []Table7Row, error) {
	var t5 []Table5Row
	var t7 []Table7Row
	for _, c := range models.Cases {
		r5 := Table5Row{Design: c.Netlist.Name}
		r7 := Table7Row{Design: c.Netlist.Name}
		var err error
		var pm MethodMetrics
		if r5.SAConv, r5.SAPerf, pm, err = perfRun(cfg, c, models, core.MethodSA); err != nil {
			return nil, nil, fmt.Errorf("table5 %s/SA: %w", c.Netlist.Name, err)
		}
		r7.SA = pm
		if r5.PrevConv, r5.PrevPerf, pm, err = perfRun(cfg, c, models, core.MethodPrev); err != nil {
			return nil, nil, fmt.Errorf("table5 %s/prev: %w", c.Netlist.Name, err)
		}
		r7.Prev = pm
		if r5.EPlaceAConv, r5.EPlaceAPPerf, pm, err = perfRun(cfg, c, models, core.MethodEPlaceA); err != nil {
			return nil, nil, fmt.Errorf("table5 %s/eplace: %w", c.Netlist.Name, err)
		}
		r7.EPlaceAP = pm
		t5 = append(t5, r5)
		t7 = append(t7, r7)
	}
	return t5, t7, nil
}

// Table5Averages returns the per-column means (the paper's Avg. row).
func Table5Averages(rows []Table5Row) (saC, saP, pvC, pvP, eaC, eaP float64) {
	n := float64(len(rows))
	for _, r := range rows {
		saC += r.SAConv
		saP += r.SAPerf
		pvC += r.PrevConv
		pvP += r.PrevPerf
		eaC += r.EPlaceAConv
		eaP += r.EPlaceAPPerf
	}
	return saC / n, saP / n, pvC / n, pvP / n, eaC / n, eaP / n
}

// FormatTable5 renders Table V.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE V: FOM, conventional vs. performance-driven formulations\n")
	fmt.Fprintf(&b, "%-8s | %6s %6s | %6s %6s | %6s %6s\n",
		"Design", "SA:Cnv", "Perf", "Pv:Cnv", "Perf*", "eA:Cnv", "eAP")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s | %6.2f %6.2f | %6.2f %6.2f | %6.2f %6.2f\n",
			r.Design, r.SAConv, r.SAPerf, r.PrevConv, r.PrevPerf, r.EPlaceAConv, r.EPlaceAPPerf)
	}
	a, bb, c, d, e, f := Table5Averages(rows)
	fmt.Fprintf(&b, "%-8s | %6.2f %6.2f | %6.2f %6.2f | %6.2f %6.2f\n", "Avg.", a, bb, c, d, e, f)
	return b.String()
}

// Table6Row is one performance metric of CC-OTA under ePlace-A vs.
// ePlace-AP (paper Table VI).
type Table6Row struct {
	Metric    string
	Spec      float64
	ConvValue float64
	ConvPct   float64
	PerfValue float64
	PerfPct   float64
}

// Table6Result carries the per-metric rows plus both FOMs.
type Table6Result struct {
	Rows             []Table6Row
	ConvFOM, PerfFOM float64
}

// Table6 reports the detailed CC-OTA metrics for ePlace-A vs. ePlace-AP.
func Table6(cfg Config, models *Models) (*Table6Result, error) {
	c := models.Case("CC-OTA")
	if c == nil {
		return nil, fmt.Errorf("table6: CC-OTA model missing")
	}
	n := c.Netlist
	conv, err := core.PlaceCtx(cfg.ctx(), n, core.MethodEPlaceA, core.Options{Tracer: cfg.Tracer, Seed: cfg.Seed, Portfolio: cfg.portfolio()})
	if err != nil {
		return nil, err
	}
	perf, err := core.PlaceCtx(cfg.ctx(), n, core.MethodEPlaceA, core.Options{Tracer: cfg.Tracer,
		Seed: cfg.Seed, Portfolio: cfg.portfolio(),
		Perf: &core.PerfTerm{Model: models.ByName[n.Name]},
	})
	if err != nil {
		return nil, err
	}
	convRaw := c.Perf.Eval(n, conv.Placement)
	convNorm := c.Perf.Normalize(convRaw)
	perfRaw := c.Perf.Eval(n, perf.Placement)
	perfNorm := c.Perf.Normalize(perfRaw)
	out := &Table6Result{
		ConvFOM: c.Perf.FOM(n, conv.Placement),
		PerfFOM: c.Perf.FOM(n, perf.Placement),
	}
	for i := range c.Perf.Metrics {
		md := &c.Perf.Metrics[i]
		out.Rows = append(out.Rows, Table6Row{
			Metric:    md.Name,
			Spec:      md.Target,
			ConvValue: convRaw[i],
			ConvPct:   100 * convNorm[i],
			PerfValue: perfRaw[i],
			PerfPct:   100 * perfNorm[i],
		})
	}
	return out, nil
}

// FormatTable6 renders Table VI.
func FormatTable6(res *Table6Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE VI: Detailed performance of CC-OTA\n")
	fmt.Fprintf(&b, "%-12s | %8s | %14s | %14s\n", "Metric", "Spec", "ePlace-A", "ePlace-AP")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-12s | %8.1f | %8.1f (%3.0f%%) | %8.1f (%3.0f%%)\n",
			r.Metric, r.Spec, r.ConvValue, r.ConvPct, r.PerfValue, r.PerfPct)
	}
	fmt.Fprintf(&b, "%-12s | %8s | %8.2f        | %8.2f\n", "FOM", "", res.ConvFOM, res.PerfFOM)
	return b.String()
}

// Table7Row holds area/HPWL/runtime of the three performance-driven
// methods (paper Table VII).
type Table7Row struct {
	Design             string
	SA, Prev, EPlaceAP MethodMetrics
}

// Table7Averages returns averages normalized to ePlace-AP.
func Table7Averages(rows []Table7Row) (saArea, saHPWL, saRT, pvArea, pvHPWL, pvRT float64) {
	n := float64(len(rows))
	for _, r := range rows {
		saArea += r.SA.AreaUM2 / r.EPlaceAP.AreaUM2
		saHPWL += r.SA.HPWLUM / r.EPlaceAP.HPWLUM
		saRT += r.SA.RuntimeS / r.EPlaceAP.RuntimeS
		pvArea += r.Prev.AreaUM2 / r.EPlaceAP.AreaUM2
		pvHPWL += r.Prev.HPWLUM / r.EPlaceAP.HPWLUM
		pvRT += r.Prev.RuntimeS / r.EPlaceAP.RuntimeS
	}
	return saArea / n, saHPWL / n, saRT / n, pvArea / n, pvHPWL / n, pvRT / n
}

// FormatTable7 renders Table VII.
func FormatTable7(rows []Table7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE VII: Performance-driven methods, area / HPWL / runtime\n")
	fmt.Fprintf(&b, "%-8s | %8s %8s %8s | %8s %8s %8s | %8s %8s %8s\n",
		"Design", "SA:Area", "HPWL", "Time(s)", "Pv*:Area", "HPWL", "Time(s)", "eAP:Area", "HPWL", "Time(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s | %8.1f %8.1f %8.2f | %8.1f %8.1f %8.2f | %8.1f %8.1f %8.2f\n",
			r.Design,
			r.SA.AreaUM2, r.SA.HPWLUM, r.SA.RuntimeS,
			r.Prev.AreaUM2, r.Prev.HPWLUM, r.Prev.RuntimeS,
			r.EPlaceAP.AreaUM2, r.EPlaceAP.HPWLUM, r.EPlaceAP.RuntimeS)
	}
	sa, sh, st, pa, ph, pt := Table7Averages(rows)
	fmt.Fprintf(&b, "%-8s | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n",
		"Avg.(X)", sa, sh, st, pa, ph, pt, 1.0, 1.0, 1.0)
	return b.String()
}

// Fig6 sweeps the performance weight (and area bias) of each
// performance-driven method on CM-OTA1, returning FOM–area points.
func Fig6(cfg Config, models *Models) ([]SweepPoint, error) {
	c := models.Case("CM-OTA1")
	if c == nil {
		return nil, fmt.Errorf("fig6: CM-OTA1 model missing")
	}
	n := c.Netlist
	model := models.ByName[n.Name]
	weights := []float64{0.15, 0.3, 0.6, 1.2, 2.5}
	if cfg.Quick {
		weights = []float64{0.3, 1.2}
	}
	var pts []SweepPoint
	for _, w := range weights {
		for mi, m := range []core.Method{core.MethodSA, core.MethodPrev, core.MethodEPlaceA} {
			opt := core.Options{Tracer: cfg.Tracer,
				Seed:      cfg.Seed,
				Portfolio: cfg.portfolio(),
				Perf:      &core.PerfTerm{Model: model, Weight: w},
			}
			if m == core.MethodSA {
				opt.SA, opt.Chains = cfg.perfSAOptions(cfg.Seed, len(n.Devices)), cfg.saChains()
			}
			res, err := core.PlaceCtx(cfg.ctx(), n, m, opt)
			if err != nil {
				return nil, err
			}
			name := []string{"SA-perf", "Prev-perf*", "ePlace-AP"}[mi]
			pts = append(pts, SweepPoint{
				Method:  name,
				Param:   fmt.Sprintf("alpha=%.2f", w),
				AreaUM2: res.AreaUM2,
				FOM:     c.Perf.FOM(n, res.Placement),
			})
		}
	}
	return pts, nil
}
