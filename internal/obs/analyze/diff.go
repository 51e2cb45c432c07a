package analyze

import (
	"fmt"
	"sort"
)

// Tolerances sets the regression thresholds for Diff, as relative
// increases ((B-A)/A). Zero values select the defaults.
type Tolerances struct {
	// HPWLTol is the allowed relative increase in final HPWL and in the
	// placement's place.hpwl_um gauge before the diff counts a quality
	// regression (default 0.02 = 2%).
	HPWLTol float64
	// TimeTol is the allowed relative increase in wall time and per-stage
	// self time (default 0.25 — wall clocks are noisy).
	TimeTol float64
}

// minStageMS is the self-time floor below which Diff skips a stage in
// both traces: relative deltas on microsecond stages are pure noise.
const minStageMS = 5

func (o *Tolerances) defaults() {
	if o.HPWLTol == 0 {
		o.HPWLTol = 0.02
	}
	if o.TimeTol == 0 {
		o.TimeTol = 0.25
	}
}

// Delta compares one metric across the two traces. Rel is (B-A)/A; a
// positive Rel means B is larger (worse, for every metric diffed here).
type Delta struct {
	Metric     string  `json:"metric"`
	A          float64 `json:"a"`
	B          float64 `json:"b"`
	Rel        float64 `json:"rel"`
	Tol        float64 `json:"tol"`
	Regression bool    `json:"regression"`
}

// DiffReport is the A-vs-B comparison: every compared metric, with the
// ones beyond tolerance flagged.
type DiffReport struct {
	A      string  `json:"a"`
	B      string  `json:"b"`
	Deltas []Delta `json:"deltas"`
}

// Regressions returns the flagged subset.
func (d *DiffReport) Regressions() []Delta {
	var out []Delta
	for _, dl := range d.Deltas {
		if dl.Regression {
			out = append(out, dl)
		}
	}
	return out
}

// Diff compares run B against baseline A: final HPWL and the final
// placement's place.hpwl_um gauge against HPWLTol, wall time and per-stage
// self time against TimeTol. Metrics absent from either side (a stage only
// one run has, a method without HPWL events) are skipped — the diff
// compares like with like.
func Diff(a, b *Report, opt Tolerances) *DiffReport {
	opt.defaults()
	d := &DiffReport{A: a.Name, B: b.Name}
	add := func(metric string, av, bv, tol float64) {
		if av <= 0 || bv <= 0 {
			return
		}
		rel := (bv - av) / av
		d.Deltas = append(d.Deltas, Delta{
			Metric: metric, A: av, B: bv, Rel: rel, Tol: tol,
			Regression: rel > tol,
		})
	}
	add("final_hpwl", a.FinalHPWL, b.FinalHPWL, opt.HPWLTol)
	// The only QoR figure an SA trace carries: it has no iteration events.
	add("place.hpwl_um", a.Gauges["place.hpwl_um"], b.Gauges["place.hpwl_um"], opt.HPWLTol)
	add("wall_ms", a.WallMS, b.WallMS, opt.TimeTol)

	bStages := map[string]Stage{}
	for _, s := range b.Stages {
		bStages[s.Path] = s
	}
	for _, sa := range a.Stages {
		sb, ok := bStages[sa.Path]
		if !ok || (sa.SelfMS < minStageMS && sb.SelfMS < minStageMS) {
			continue
		}
		add("stage_self_ms:"+sa.Path, sa.SelfMS, sb.SelfMS, opt.TimeTol)
	}
	sort.Slice(d.Deltas, func(i, j int) bool { return d.Deltas[i].Metric < d.Deltas[j].Metric })
	return d
}

// String renders one delta as the CLI prints it.
func (dl Delta) String() string {
	flag := "  "
	if dl.Regression {
		flag = "!!"
	}
	return fmt.Sprintf("%s %-28s %12.4g -> %12.4g  %+7.2f%% (tol %+.0f%%)",
		flag, dl.Metric, dl.A, dl.B, 100*dl.Rel, 100*dl.Tol)
}
