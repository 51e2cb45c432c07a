package refine

import (
	"context"
	"sort"

	"repro/internal/circuit"
	"repro/internal/detailed"
	"repro/internal/obs"
)

// windowSize is the number of devices per window before symmetry closure.
// Windows are consecutive runs of a row-major sweep of the current
// placement, expanded with symmetry-pair partners, so symmetric structures
// are re-solved together.
const windowSize = 8

// Options configures the ILP large-neighborhood refinement pass.
type Options struct {
	// Windows is the total window-solve budget across all passes. 0 means
	// auto: roughly two full sweeps of the placement. The budget is an
	// iteration count, never wall-clock, so refinement cost — and result —
	// is deterministic.
	Windows int

	// Focus, when non-nil, restricts the sweep to windows containing at
	// least one marked device (indexed by device). The warm-start (ECO)
	// flow passes the perturbed-region mask here so the window budget is
	// spent where the edit landed instead of across the whole placement.
	// The auto window budget also scales down to the focused region.
	Focus []bool

	// Tracer wraps the pass in a "refine" span (per-window ilp events,
	// refine.* counters) and times each window solve as the
	// refine_window kernel.
	Tracer *obs.Tracer
}

// Stats summarizes one refinement pass.
type Stats struct {
	Windows int // window solves executed
	Accepts int // windows whose exact re-solve improved the placement
	Nodes   int // branch-and-bound LP nodes across all windows
}

// Refine improves a legal placement by exact ILP re-solves of small device
// windows: each window is re-optimized with everything else held fixed and
// committed only if it strictly reduces weighted HPWL without growing the
// bounding box, so the result is never worse than the input on either
// metric. The input placement is never mutated — on success, cancellation,
// or error, p is untouched and the returned placement is a fresh value.
//
// Passes sweep the placement row-major in windows of windowSize devices,
// staggered by half a window on alternate passes so device groups split by
// one pass's window boundaries are re-solved together by the next.
// Refinement stops when the window budget is exhausted, a full pass
// accepts nothing, or ctx is canceled (checked between windows; a
// canceled refine returns promptly with ctx's error).
func Refine(ctx context.Context, n *circuit.Netlist, p *circuit.Placement, opt Options) (*circuit.Placement, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	budget := opt.Windows
	if budget <= 0 {
		scope := len(n.Devices)
		if opt.Focus != nil {
			scope = 0
			for _, f := range opt.Focus {
				if f {
					scope++
				}
			}
		}
		budget = 2 * (scope/windowSize + 2)
	}

	span := opt.Tracer.StartSpan("refine")
	defer span.End()

	work := p.Clone()
	n.Normalize(work)
	stats := &Stats{}
	ws := detailed.NewWindowSolver(n, opt.Tracer)

	// Bound passes defensively; in practice the no-accept exit fires much
	// earlier because accepted improvements dry up after a few sweeps.
	const maxPasses = 8
	for pass := 0; pass < maxPasses && stats.Windows < budget; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// Window moves stay within the separation topology of the pass
		// start; re-derive it each pass so devices can migrate further.
		ws.Rederive(work)
		accepts := 0
		for _, win := range schedule(n, work, pass, opt.Focus) {
			if stats.Windows >= budget {
				break
			}
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			t0 := opt.Tracer.Now()
			ok, nodes, err := ws.Improve(ctx, work, win)
			opt.Tracer.Kernel("refine_window", t0)
			stats.Windows++
			stats.Nodes += nodes
			if err != nil {
				return nil, nil, err
			}
			if ok {
				accepts++
				stats.Accepts++
			}
		}
		if accepts == 0 {
			break
		}
	}
	n.Normalize(work)
	if opt.Tracer.Enabled() {
		opt.Tracer.Count("refine.windows", float64(stats.Windows))
		opt.Tracer.Count("refine.accepts", float64(stats.Accepts))
		opt.Tracer.Count("refine.ilp_nodes", float64(stats.Nodes))
		opt.Tracer.Gauge("refine.hpwl", n.HPWL(work))
	}
	return work, stats, nil
}

// schedule returns the deterministic window list for one pass: device
// indices sorted by (y, x, index) — a row-major sweep of the current
// placement — cut into windowSize chunks (odd passes staggered by half a
// window), each chunk closed over symmetry-pair partners so mirrored
// devices move together with their axis.
// A non-nil focus mask drops windows whose devices are all unmarked.
func schedule(n *circuit.Netlist, p *circuit.Placement, pass int, focus []bool) [][]int {
	nd := len(n.Devices)
	order := make([]int, nd)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if p.Y[ia] != p.Y[ib] {
			return p.Y[ia] < p.Y[ib]
		}
		if p.X[ia] != p.X[ib] {
			return p.X[ia] < p.X[ib]
		}
		return ia < ib
	})
	partner := make(map[int]int)
	for gi := range n.SymGroups {
		for _, pr := range n.SymGroups[gi].Pairs {
			partner[pr[0]] = pr[1]
			partner[pr[1]] = pr[0]
		}
	}
	start := 0
	if pass%2 == 1 {
		start = -windowSize / 2 // leading half-window staggers the cut points
	}
	var wins [][]int
	for lo := start; lo < nd; lo += windowSize {
		a, b := lo, lo+windowSize
		if a < 0 {
			a = 0
		}
		if b > nd {
			b = nd
		}
		if b <= a {
			continue
		}
		chunk := order[a:b]
		seen := make(map[int]bool, 2*len(chunk))
		win := make([]int, 0, 2*len(chunk))
		for _, i := range chunk {
			if !seen[i] {
				seen[i] = true
				win = append(win, i)
			}
		}
		for _, i := range chunk {
			if q, ok := partner[i]; ok && !seen[q] {
				seen[q] = true
				win = append(win, q)
			}
		}
		if focus != nil {
			hit := false
			for _, i := range win {
				if focus[i] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		}
		sort.Ints(win)
		wins = append(wins, win)
	}
	return wins
}
