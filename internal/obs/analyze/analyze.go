// Package analyze reads the JSONL convergence traces the obs file sink
// writes (one obs.Event per line) and turns them into comparable reports:
// per-solver convergence curves, per-stage time attribution, per-kernel
// totals, SA acceptance trajectories, and an A-vs-B diff with regression
// thresholds. cmd/trace is the CLI over this package; CI runs it over the
// bench-smoke artifacts so a malformed trace or a quality/runtime
// regression fails the build instead of landing silently.
package analyze

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Trace is one parsed JSONL trace.
type Trace struct {
	Name    string // file name (or caller-assigned label)
	Events  []obs.Event
	Summary *obs.SummaryRecord // last summary event, nil if absent
}

// ReadFile parses the JSONL trace at path. Parsing is strict: any
// unparseable line is an error (a truncated or corrupt trace must not pass
// for a healthy one).
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t.Name = path
	return t, nil
}

// Read parses a JSONL event stream.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if e.Kind == "" {
			return nil, fmt.Errorf("line %d: event without kind", line)
		}
		t.Events = append(t.Events, e)
		if e.Kind == obs.KindSummary {
			t.Summary = e.Summary
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Check validates the structural invariants a healthy trace satisfies:
// non-empty, timestamps non-decreasing, every span_start matched by a
// span_end, and exactly one summary — as the final event. It returns the
// first violation.
func (t *Trace) Check() error {
	if len(t.Events) == 0 {
		return fmt.Errorf("empty trace")
	}
	open := map[string]int{}
	summaries := 0
	prevTS := math.Inf(-1)
	for i, e := range t.Events {
		if e.TS < prevTS {
			return fmt.Errorf("event %d: timestamp %.6f before predecessor %.6f", i, e.TS, prevTS)
		}
		prevTS = e.TS
		switch e.Kind {
		case obs.KindSpanStart:
			open[e.Span]++
		case obs.KindSpanEnd:
			open[e.Span]--
			if open[e.Span] < 0 {
				return fmt.Errorf("event %d: span %q ended without starting", i, e.Span)
			}
		case obs.KindSummary:
			summaries++
			if e.Summary == nil {
				return fmt.Errorf("event %d: summary event without payload", i)
			}
			if i != len(t.Events)-1 {
				return fmt.Errorf("event %d: summary is not the final event", i)
			}
		}
	}
	for span, n := range open {
		if n != 0 {
			return fmt.Errorf("span %q: %d start(s) never ended", span, n)
		}
	}
	if summaries != 1 {
		return fmt.Errorf("trace has %d summary events, want 1", summaries)
	}
	return nil
}

// CurvePoint samples one solver iteration.
type CurvePoint struct {
	Iter     int     `json:"n"`
	F        float64 `json:"f"`
	HPWL     float64 `json:"hpwl,omitempty"`
	Overflow float64 `json:"overflow,omitempty"`
}

// Curve is one solver's convergence trajectory, downsampled to at most
// MaxCurvePoints samples (first and last always kept).
type Curve struct {
	Solver     string       `json:"solver"`
	Iterations int          `json:"iterations"`
	FirstF     float64      `json:"first_f"`
	LastF      float64      `json:"last_f"`
	FirstHPWL  float64      `json:"first_hpwl,omitempty"`
	LastHPWL   float64      `json:"last_hpwl,omitempty"`
	Points     []CurvePoint `json:"points,omitempty"`
}

// MaxCurvePoints bounds each downsampled convergence curve.
const MaxCurvePoints = 64

// Stage is one span path's time attribution. SelfMS excludes direct
// children, so stages sum to (at most) the root's total without double
// counting.
type Stage struct {
	Path    string  `json:"path"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// SAPoint samples the annealer's cooling trajectory.
type SAPoint struct {
	Move       int     `json:"move"`
	Temp       float64 `json:"temp"`
	AcceptRate float64 `json:"accept_rate"`
	Best       float64 `json:"best"`
}

// SAStats summarizes the simulated-annealing progress samples.
type SAStats struct {
	Samples     int       `json:"samples"`
	Chains      int       `json:"chains"`
	FirstAccept float64   `json:"first_accept"`
	LastAccept  float64   `json:"last_accept"`
	BestCost    float64   `json:"best_cost"`
	Points      []SAPoint `json:"points,omitempty"`
}

// Report is the analysis of one trace.
type Report struct {
	Name   string  `json:"name"`
	Events int     `json:"events"`
	WallMS float64 `json:"wall_ms"`

	// FinalHPWL is the last reported exact HPWL across all solvers (the
	// value the run ended on); BestHPWL is the minimum ever reported.
	FinalHPWL float64 `json:"final_hpwl,omitempty"`
	BestHPWL  float64 `json:"best_hpwl,omitempty"`

	Curves []Curve  `json:"curves,omitempty"` // sorted by solver name
	Stages []Stage  `json:"stages,omitempty"` // sorted by path
	SA     *SAStats `json:"sa,omitempty"`

	Kernels map[string]obs.SpanStat `json:"kernels,omitempty"` // per-kernel calls and total ms

	Counters map[string]float64 `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	LPSolves int                `json:"lp_solves,omitempty"`
	ILPNodes int                `json:"ilp_nodes,omitempty"`
}

// Summarize reduces a trace to its Report.
func Summarize(t *Trace) *Report {
	rep := &Report{Name: t.Name, Events: len(t.Events)}
	bySolver := map[string][]CurvePoint{}
	var sa []SAPoint
	chains := map[int]bool{}
	saFirst, saLast, saBest := 0.0, 0.0, math.Inf(1)
	saSeen := false
	for _, e := range t.Events {
		switch e.Kind {
		case obs.KindIter:
			it := e.Iter
			bySolver[it.Solver] = append(bySolver[it.Solver], CurvePoint{
				Iter: it.Iter, F: it.F, HPWL: it.HPWL, Overflow: it.Overflow,
			})
			if it.HPWL > 0 {
				rep.FinalHPWL = it.HPWL
				if rep.BestHPWL == 0 || it.HPWL < rep.BestHPWL {
					rep.BestHPWL = it.HPWL
				}
			}
		case obs.KindSA:
			s := e.SA
			sa = append(sa, SAPoint{Move: s.Move, Temp: s.Temp, AcceptRate: s.AcceptRate, Best: s.Best})
			chains[s.Chain] = true
			if !saSeen {
				saFirst = s.AcceptRate
				saSeen = true
			}
			saLast = s.AcceptRate
			if s.Best < saBest {
				saBest = s.Best
			}
		case obs.KindLP:
			rep.LPSolves++
			rep.ILPNodes += e.LP.Nodes
		}
	}
	for solver, pts := range bySolver {
		c := Curve{Solver: solver, Iterations: len(pts), FirstF: pts[0].F, LastF: pts[len(pts)-1].F}
		for _, p := range pts {
			if p.HPWL > 0 {
				if c.FirstHPWL == 0 {
					c.FirstHPWL = p.HPWL
				}
				c.LastHPWL = p.HPWL
			}
		}
		c.Points = downsample(pts, MaxCurvePoints)
		rep.Curves = append(rep.Curves, c)
	}
	sort.Slice(rep.Curves, func(i, j int) bool { return rep.Curves[i].Solver < rep.Curves[j].Solver })
	if saSeen {
		rep.SA = &SAStats{
			Samples:     len(sa),
			Chains:      len(chains),
			FirstAccept: saFirst,
			LastAccept:  saLast,
			BestCost:    saBest,
			Points:      downsample(sa, MaxCurvePoints),
		}
	}
	if t.Summary != nil {
		rep.WallMS = t.Summary.WallMS
		rep.Counters = t.Summary.Counters
		rep.Gauges = t.Summary.Gauges
		rep.Stages = stageTimes(t.Summary.Spans)
		rep.Kernels = t.Summary.Kernels
	}
	return rep
}

// stageTimes converts the summary's span totals into per-stage self times:
// each path's total minus its direct children's totals.
func stageTimes(spans map[string]obs.SpanStat) []Stage {
	childMS := map[string]float64{}
	for path, st := range spans {
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			childMS[path[:i]] += st.TotalMS
		}
	}
	out := make([]Stage, 0, len(spans))
	for path, st := range spans {
		out = append(out, Stage{
			Path:    path,
			Count:   st.Count,
			TotalMS: st.TotalMS,
			SelfMS:  st.TotalMS - childMS[path],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// downsample keeps at most n points, always retaining the first and last.
func downsample[T any](pts []T, n int) []T {
	if len(pts) <= n {
		return pts
	}
	out := make([]T, 0, n)
	// Even stride over len-1 intervals; the final point is pinned.
	for i := 0; i < n-1; i++ {
		out = append(out, pts[i*(len(pts)-1)/(n-1)])
	}
	return append(out, pts[len(pts)-1])
}
