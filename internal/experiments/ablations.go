package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/detailed"
	"repro/internal/eplacea"
	"repro/internal/refine"
	"repro/internal/testcircuits"
)

// AblationRow is one design-choice toggle on one circuit: the baseline
// (full ePlace-A) versus the variant with the choice disabled/altered.
type AblationRow struct {
	Ablation string
	Design   string
	Base     MethodMetrics
	Variant  MethodMetrics
}

// Ablations isolates the three design choices the paper credits for
// ePlace-A's advantage over [11] (Section IV-C) plus this implementation's
// own additions:
//
//  1. wa-vs-lse     — WA wirelength smoothing replaced by LSE
//  2. no-flipping   — device-flipping binaries removed from the ILP
//  3. no-refinement — a single detailed-placement pass instead of iterated
//     constraint-graph refinement
//  4. no-portfolio  — a single GP start instead of the schedule portfolio
func Ablations(cfg Config) ([]AblationRow, error) {
	circuits := []string{"CC-OTA", "CM-OTA1", "VGA"}
	if cfg.Quick {
		circuits = circuits[:1]
	}
	var rows []AblationRow
	for _, name := range circuits {
		c, err := testcircuits.ByName(name)
		if err != nil {
			return nil, err
		}
		base, err := core.PlaceCtx(cfg.ctx(), c.Netlist, core.MethodEPlaceA, core.Options{Tracer: cfg.Tracer,
			Seed: cfg.Seed, Portfolio: cfg.portfolio(),
		})
		if err != nil {
			return nil, err
		}
		bm := metricsOf(base)

		variants := []struct {
			tag string
			opt core.Options
		}{
			{"wa-vs-lse", core.Options{Tracer: cfg.Tracer,
				Seed: cfg.Seed, Portfolio: 1,
				GP: &eplacea.Options{Seed: cfg.Seed, UseLSE: true},
			}},
			{"no-flipping", core.Options{Tracer: cfg.Tracer,
				Seed: cfg.Seed, Portfolio: cfg.portfolio(),
				DP: &detailed.Options{NoFlips: true},
			}},
			{"no-refinement", core.Options{Tracer: cfg.Tracer,
				Seed: cfg.Seed, Portfolio: cfg.portfolio(),
				DP: &detailed.Options{Refinements: 1},
			}},
			{"no-portfolio", core.Options{Tracer: cfg.Tracer,
				Seed: cfg.Seed, Portfolio: 1,
			}},
		}
		for _, v := range variants {
			res, err := core.PlaceCtx(cfg.ctx(), c.Netlist, core.MethodEPlaceA, v.opt)
			if err != nil {
				return nil, fmt.Errorf("ablation %s/%s: %w", v.tag, name, err)
			}
			vm := metricsOf(res)
			// The wa-vs-lse variant disables the portfolio so the smoother
			// is isolated; compare it against a single-start baseline too.
			if v.tag == "wa-vs-lse" {
				b1, err := core.PlaceCtx(cfg.ctx(), c.Netlist, core.MethodEPlaceA, core.Options{Tracer: cfg.Tracer,
					Seed: cfg.Seed, Portfolio: 1,
				})
				if err != nil {
					return nil, err
				}
				rows = append(rows, AblationRow{Ablation: v.tag, Design: name,
					Base: metricsOf(b1), Variant: vm})
				continue
			}
			rows = append(rows, AblationRow{Ablation: v.tag, Design: name, Base: bm, Variant: vm})
		}
	}
	return rows, nil
}

// FormatAblations renders the ablation study.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations: ePlace-A design choices (baseline vs. variant)\n")
	fmt.Fprintf(&b, "%-14s %-8s | %9s %9s | %9s %9s | %7s %7s\n",
		"Ablation", "Design", "BaseArea", "VarArea", "BaseHPWL", "VarHPWL", "tBase", "tVar")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-8s | %9.1f %9.1f | %9.1f %9.1f | %6.2fs %6.2fs\n",
			r.Ablation, r.Design,
			r.Base.AreaUM2, r.Variant.AreaUM2,
			r.Base.HPWLUM, r.Variant.HPWLUM,
			r.Base.RuntimeS, r.Variant.RuntimeS)
	}
	return b.String()
}

// RefineRow is one line of the refinement ablation: a method/search
// configuration on one circuit, so the incremental value of the SA chain
// portfolio and the ILP window refinement stage can be read off directly.
type RefineRow struct {
	Design string
	Config string
	MethodMetrics
}

// RefineAblation measures what the search-level additions buy on top of
// the base solvers: sequential SA versus a 4-chain portfolio versus the
// portfolio plus ILP window refinement, and ePlace-A with and without the
// refinement post-pass. Refinement is accept-if-improved, so its rows can
// never be worse than their unrefined counterparts at the same seed —
// the table shows how much headroom the base solvers leave behind.
func RefineAblation(cfg Config) ([]RefineRow, error) {
	circuits := []string{"CC-OTA", "CM-OTA1"}
	if cfg.Quick {
		circuits = circuits[:1]
	}
	var rows []RefineRow
	for _, name := range circuits {
		c, err := testcircuits.ByName(name)
		if err != nil {
			return nil, err
		}
		configs := []struct {
			tag string
			opt core.Options
		}{
			{"sa", core.Options{Tracer: cfg.Tracer,
				Seed: cfg.Seed, SA: cfg.saOptions(cfg.Seed), Chains: 1,
			}},
			{"sa+chains4", core.Options{Tracer: cfg.Tracer,
				Seed: cfg.Seed, SA: cfg.saOptions(cfg.Seed), Chains: 4,
			}},
			{"sa+chains4+refine", core.Options{Tracer: cfg.Tracer,
				Seed: cfg.Seed, SA: cfg.saOptions(cfg.Seed), Chains: 4,
				Refine: &refine.Options{},
			}},
			{"eplace-a", core.Options{Tracer: cfg.Tracer,
				Seed: cfg.Seed, Portfolio: cfg.portfolio(),
			}},
			{"eplace-a+refine", core.Options{Tracer: cfg.Tracer,
				Seed: cfg.Seed, Portfolio: cfg.portfolio(),
				Refine: &refine.Options{},
			}},
		}
		for _, v := range configs {
			m := core.MethodSA
			if strings.HasPrefix(v.tag, "eplace-a") {
				m = core.MethodEPlaceA
			}
			res, err := core.PlaceCtx(cfg.ctx(), c.Netlist, m, v.opt)
			if err != nil {
				return nil, fmt.Errorf("refine ablation %s/%s: %w", v.tag, name, err)
			}
			rows = append(rows, RefineRow{Design: name, Config: v.tag, MethodMetrics: metricsOf(res)})
		}
	}
	return rows, nil
}

// FormatRefineAblation renders the refinement ablation.
func FormatRefineAblation(rows []RefineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Refinement ablation: SA portfolio chains and ILP window refinement\n")
	fmt.Fprintf(&b, "%-8s %-18s | %9s %9s | %7s %s\n",
		"Design", "Config", "Area", "HPWL", "Time", "Legal")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-18s | %9.1f %9.1f | %6.2fs %v\n",
			r.Design, r.Config, r.AreaUM2, r.HPWLUM, r.RuntimeS, r.Legal)
	}
	return b.String()
}

// RoutedRow is the post-route validation of one circuit: routed wirelength
// per method, next to its HPWL (paper's flow routes before extraction).
type RoutedRow struct {
	Design  string
	Method  string
	HPWLUM  float64
	RouteUM float64
	MaxUse  int
}

// RoutedValidation places three circuits with each method and globally
// routes the results, reporting routed wirelength next to HPWL. Routed
// length tracks HPWL closely when the placement leaves routable space —
// the sanity check that HPWL-based conclusions survive routing.
func RoutedValidation(cfg Config) ([]RoutedRow, error) {
	circuits := []string{"CC-OTA", "CM-OTA1", "VGA"}
	if cfg.Quick {
		circuits = circuits[:1]
	}
	var rows []RoutedRow
	for _, name := range circuits {
		c, err := testcircuits.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, m := range []core.Method{core.MethodSA, core.MethodPrev, core.MethodEPlaceA} {
			opt := core.Options{Tracer: cfg.Tracer, Seed: cfg.Seed, Portfolio: cfg.portfolio()}
			if m == core.MethodSA {
				opt.SA, opt.Chains = cfg.saOptions(cfg.Seed), cfg.saChains()
			}
			res, err := core.PlaceCtx(cfg.ctx(), c.Netlist, m, opt)
			if err != nil {
				return nil, err
			}
			rr, err := routePlacement(cfg, c, res)
			if err != nil {
				return nil, fmt.Errorf("routing %s/%v: %w", name, m, err)
			}
			rr.Design = name
			rr.Method = m.String()
			rows = append(rows, *rr)
		}
	}
	return rows, nil
}

// FormatRouted renders the routed-wirelength validation.
func FormatRouted(rows []RoutedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Post-route validation: routed wirelength vs. HPWL\n")
	fmt.Fprintf(&b, "%-8s %-22s %10s %10s %7s\n", "Design", "Method", "HPWL(µm)", "Routed(µm)", "MaxUse")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-22s %10.1f %10.1f %7d\n",
			r.Design, r.Method, r.HPWLUM, r.RouteUM, r.MaxUse)
	}
	return b.String()
}
