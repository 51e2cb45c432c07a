package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/obs"
)

// SchemaVersion identifies the report layout. Compare refuses to diff
// reports with mismatched schemas, so tolerance gates never silently read
// renamed fields as zeros.
const SchemaVersion = 1

// QoR is the deterministic quality-of-result record of one placement: at a
// fixed seed, rerunning the placement reproduces these numbers exactly.
type QoR struct {
	HPWLUM          float64                 `json:"hpwl_um"`
	RawHPWLUM       float64                 `json:"raw_hpwl_um"`
	AreaUM2         float64                 `json:"area_um2"`
	OverlapUM2      float64                 `json:"overlap_um2"`
	DensityOverflow float64                 `json:"density_overflow"`
	Violations      circuit.ViolationCounts `json:"violations"`
	Legal           bool                    `json:"legal"`
}

// RuntimeStats summarizes wall-clock behavior over the timed repetitions.
type RuntimeStats struct {
	Reps     int     `json:"reps"`
	MedianMS float64 `json:"median_ms"`
	P95MS    float64 `json:"p95_ms"`
	MinMS    float64 `json:"min_ms"`
	MaxMS    float64 `json:"max_ms"`
	// StageMS attributes runtime to pipeline stages ("gp", "detailed",
	// "sa"), medians across repetitions, from internal/obs span timings.
	StageMS map[string]float64 `json:"stage_ms,omitempty"`
}

// CaseResult is one (circuit, method) cell of the report.
type CaseResult struct {
	Case      string `json:"case"`
	Devices   int    `json:"devices"`
	Nets      int    `json:"nets"`
	SymGroups int    `json:"sym_groups"`
	Method    string `json:"method"`
	Seed      int64  `json:"seed"`
	// Deterministic records whether every timed repetition produced an
	// identical QoR — false flags a reproducibility bug in a solver.
	Deterministic bool         `json:"deterministic"`
	QoR           QoR          `json:"qor"`
	Runtime       RuntimeStats `json:"runtime"`
	// ECO, present only for ECO-mode runs, records the incremental
	// re-placement experiment for this cell: the case's edited variant
	// solved cold versus warm-started from this cell's placement.
	ECO *ECOStats `json:"eco,omitempty"`
	// Profile is the cell's per-layer cost, read from the trace summary
	// of each timed repetition. Reports written before it existed read
	// as nil.
	Profile *Profile `json:"profile,omitempty"`
}

// Profile breaks one cell's cost down by layer. Kernels holds each hot
// kernel's call count from repetition 0 (counts are deterministic at a
// fixed seed) and its median total_ms over the repetitions. Counters are
// repetition 0's summary counters: GP iterations and stop reasons, LP and
// ILP solves, pivots and nodes, refine windows and degraded-path counts.
type Profile struct {
	Kernels  map[string]obs.SpanStat `json:"kernels,omitempty"`
	Counters map[string]float64      `json:"counters,omitempty"`
}

// ECOStats measures one incremental (ECO) re-placement: the edited netlist
// solved from scratch versus warm-started from the base placement with
// anchor pseudonets. Speedup > 1 means the warm solve was faster; the HPWL
// ratio near 1 means it matched cold quality.
type ECOStats struct {
	EditedDevices int `json:"edited_devices"`
	// Anchored/Perturbed partition the edited netlist as the warm solve
	// saw it: devices pulled toward their prior position vs. devices in
	// the edit's connectivity neighborhood (plus additions).
	Anchored  int `json:"anchored"`
	Perturbed int `json:"perturbed"`

	ColdMS  float64 `json:"cold_ms"`
	WarmMS  float64 `json:"warm_ms"`
	Speedup float64 `json:"speedup"`

	ColdHPWLUM        float64 `json:"cold_hpwl_um"`
	WarmHPWLUM        float64 `json:"warm_hpwl_um"`
	WarmColdHPWLRatio float64 `json:"warm_cold_hpwl_ratio"`
	WarmLegal         bool    `json:"warm_legal"`
}

// Report is the on-disk BENCH_<label>.json document.
type Report struct {
	Schema  int      `json:"schema"`
	Label   string   `json:"label,omitempty"`
	Suite   string   `json:"suite,omitempty"`
	Seed    int64    `json:"seed"`
	Quick   bool     `json:"quick,omitempty"`
	Methods []string `json:"methods"`
	// Chains/Refine/RefineWindows record the search-level knobs the run
	// used (SA portfolio width and the ILP refinement stage): reports with
	// different knobs are different experiments, so they are stamped next
	// to seed and quick rather than left ambient.
	Chains        int  `json:"chains,omitempty"`
	Refine        bool `json:"refine,omitempty"`
	RefineWindows int  `json:"refine_windows,omitempty"`
	// Threads is the resolved count of SA chains the run let run at once;
	// GoMaxProcs snapshots the Go scheduler's parallelism. QoR does not
	// depend on either, runtime does.
	Threads     int          `json:"threads,omitempty"`
	GoMaxProcs  int          `json:"gomaxprocs,omitempty"`
	GoVersion   string       `json:"go_version,omitempty"`
	CreatedUnix int64        `json:"created_unix,omitempty"`
	Results     []CaseResult `json:"results"`
}

// WriteJSON serializes the report with stable field order and indentation.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile stamps environment metadata and writes BENCH_<label>.json into
// dir, returning the file path.
func (r *Report) WriteFile(dir string) (string, error) {
	r.GoVersion = runtime.Version()
	r.CreatedUnix = time.Now().Unix()
	path := filepath.Join(dir, "BENCH_"+sanitizeLabel(r.Label)+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}

// ReadReport loads and schema-checks a report file.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: parsing benchmark report: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: report schema %d, this build reads schema %d", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// sanitizeLabel keeps labels filesystem- and CI-artifact-safe.
func sanitizeLabel(label string) string {
	if label == "" {
		return "run"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '-'
	}, label)
}

// Tolerances bounds how much worse the current run may be than the
// baseline before Compare reports a regression.
type Tolerances struct {
	// RuntimeFactor allows current median runtime up to this multiple of
	// the baseline's (default 1.5; runtime is the noisiest metric).
	RuntimeFactor float64
	// QoRFactor allows current HPWL/area/overlap/overflow up to this
	// multiple of the baseline's (default 1.01: QoR is deterministic at a
	// fixed seed, so any drift is a real behavior change).
	QoRFactor float64
}

func (t Tolerances) withDefaults() Tolerances {
	if t.RuntimeFactor <= 0 {
		t.RuntimeFactor = 1.5
	}
	if t.QoRFactor <= 0 {
		t.QoRFactor = 1.01
	}
	return t
}

// Regression is one tolerance violation found by Compare.
type Regression struct {
	Case   string  `json:"case"`
	Method string  `json:"method"`
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s/%s: %s regressed %.4g -> %.4g", r.Case, r.Method, r.Metric, r.Old, r.New)
}

// Compare diffs current against baseline and returns every regression
// beyond tolerance. Result cells present only in current are ignored (new
// coverage is not a regression); cells missing from current are reported.
// An empty slice means the gate passes.
func Compare(baseline, current *Report, tol Tolerances) ([]Regression, error) {
	if baseline.Schema != current.Schema {
		return nil, fmt.Errorf("bench: schema mismatch: baseline %d vs current %d", baseline.Schema, current.Schema)
	}
	if baseline.Seed != current.Seed {
		return nil, fmt.Errorf("bench: seed mismatch: baseline %d vs current %d (QoR is only comparable at equal seeds)",
			baseline.Seed, current.Seed)
	}
	tol = tol.withDefaults()
	cur := map[[2]string]*CaseResult{}
	for i := range current.Results {
		r := &current.Results[i]
		cur[[2]string{r.Case, r.Method}] = r
	}
	var regs []Regression
	for i := range baseline.Results {
		old := &baseline.Results[i]
		now, ok := cur[[2]string{old.Case, old.Method}]
		if !ok {
			regs = append(regs, Regression{Case: old.Case, Method: old.Method, Metric: "missing"})
			continue
		}
		add := func(metric string, o, n float64) {
			regs = append(regs, Regression{Case: old.Case, Method: old.Method, Metric: metric, Old: o, New: n})
		}
		qor := func(metric string, o, n float64) {
			// Relative bound with a tiny absolute slack so a zero
			// baseline (e.g. no overlap) still tolerates float dust.
			if n > o*tol.QoRFactor+1e-9 {
				add(metric, o, n)
			}
		}
		qor("hpwl_um", old.QoR.HPWLUM, now.QoR.HPWLUM)
		qor("raw_hpwl_um", old.QoR.RawHPWLUM, now.QoR.RawHPWLUM)
		qor("area_um2", old.QoR.AreaUM2, now.QoR.AreaUM2)
		qor("overlap_um2", old.QoR.OverlapUM2, now.QoR.OverlapUM2)
		qor("density_overflow", old.QoR.DensityOverflow, now.QoR.DensityOverflow)
		ov, nv := old.QoR.Violations, now.QoR.Violations
		if nv.Overlaps > ov.Overlaps {
			add("violations.overlaps", float64(ov.Overlaps), float64(nv.Overlaps))
		}
		if nv.Symmetry > ov.Symmetry {
			add("violations.symmetry", float64(ov.Symmetry), float64(nv.Symmetry))
		}
		if nv.Align > ov.Align {
			add("violations.align", float64(ov.Align), float64(nv.Align))
		}
		if nv.Order > ov.Order {
			add("violations.order", float64(ov.Order), float64(nv.Order))
		}
		if old.QoR.Legal && !now.QoR.Legal {
			add("legal", 1, 0)
		}
		if old.Deterministic && !now.Deterministic {
			add("deterministic", 1, 0)
		}
		// Runtime gates on the median with an absolute slack floor so
		// sub-10ms cases don't flap on scheduler noise.
		if now.Runtime.MedianMS > old.Runtime.MedianMS*tol.RuntimeFactor+10 {
			add("runtime.median_ms", old.Runtime.MedianMS, now.Runtime.MedianMS)
		}
	}
	return regs, nil
}
