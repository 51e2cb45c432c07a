// Package refine provides search-level parallelism and matheuristic
// refinement on top of the base placement methods:
//
//   - Portfolio runs simulated annealing as N independent chains with
//     deterministic per-chain seeds and a deterministic best-of reduction:
//     spare cores become extra chains instead of idle time, with
//     bit-identical results at any thread count.
//   - Refine is an ILP large-neighborhood local search (the matheuristic
//     of Grus & Hanzálek): small windows of a legal placement — chosen by
//     spatial locality and closed over symmetry pairs — are re-solved
//     exactly with the Eq. (4) ILP and accepted only when they strictly
//     improve wirelength without growing the bounding box. Any method's
//     output can be refined as a post-pass.
//
// Both stages follow the repo-wide determinism contract: schedules, seeds,
// and reductions are pure functions of the problem and the options, never
// of thread count or timing.
package refine

import (
	"context"

	"repro/internal/anneal"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/par"
)

// chainSeedStride separates per-chain RNG streams. Chain 0 keeps the base
// seed, so a 1-chain portfolio reproduces the plain annealer bit for bit
// and every chain count has a deterministic seed schedule.
const chainSeedStride = 7919

// PortfolioOptions configures a portfolio SA run.
type PortfolioOptions struct {
	// Chains is the number of independent SA chains (default 2, or 1 for
	// a warm start, whose seeded low-temperature polish gains nothing from
	// a second chain).
	Chains int
	// Threads is how many chains may run at once, each on its own
	// goroutine; 1 or less runs them one after another on the caller's
	// goroutine. Results do not depend on it in any way.
	Threads int
	// Tracer receives an "sa" stage span — the same stage name the inline
	// annealer emits, so per-stage runtime attribution stays comparable
	// across chain counts — with one aggregate SA sample per chain plus
	// the sa.* counters and sa.portfolio.* gauges. With exactly one chain
	// the run is traced inline by the annealer itself.
	Tracer *obs.Tracer
}

// Portfolio runs SA as independent chains and returns the best placement
// under a deterministic reduction: lowest weighted HPWL, then smallest
// bounding-box area, then lowest chain index (with a performance model
// attached, lowest predicted failure probability leads instead). Chain c
// anneals with seed Seed + 7919·c; the reduction compares
// exact geometric metrics, not SA-internal costs, because each chain
// normalizes its cost scale independently.
//
// Cancellation is honored both inside chains (the annealer's move-loop
// poll) and between them: once ctx is canceled no new chain starts.
func Portfolio(ctx context.Context, n *circuit.Netlist, saOpt anneal.Options, popt PortfolioOptions) (*circuit.Placement, *anneal.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	chains := popt.Chains
	if chains <= 0 {
		chains = 2
		if saOpt.Warm != nil {
			chains = 1
		}
	}
	if chains == 1 {
		// A single chain runs inline under the caller's tracer: identical
		// bits to chain 0 of any wider portfolio.
		o := saOpt
		if o.Tracer == nil {
			o.Tracer = popt.Tracer
		}
		return anneal.Place(ctx, n, o)
	}

	span := popt.Tracer.StartSpan("sa")
	defer span.End()

	type chainResult struct {
		place *circuit.Placement
		stats *anneal.Stats
		err   error
	}
	results := make([]chainResult, chains)
	par.Run(popt.Threads, chains, func(c int) {
		if err := ctx.Err(); err != nil {
			results[c] = chainResult{err: err}
			return
		}
		o := saOpt
		// Chains run concurrently, so they must not share the tracer:
		// the span stack is not safe for concurrent nesting. Aggregate
		// telemetry is emitted below from the calling goroutine.
		o.Tracer = nil
		o.Seed = saOpt.Seed + chainSeedStride*int64(c)
		p, st, err := anneal.Place(ctx, n, o)
		results[c] = chainResult{place: p, stats: st, err: err}
	})
	for c := range results {
		if err := results[c].err; err != nil {
			return nil, nil, err
		}
	}

	// Deterministic best-of reduction on exact metrics, in chain order.
	best := 0
	bestWL := n.HPWL(results[0].place)
	bestArea := n.Area(results[0].place)
	bestPhi := 0.0
	if saOpt.Perf != nil {
		bestPhi = saOpt.Perf.Prob(n, results[0].place)
	}
	for c := 1; c < chains; c++ {
		wl := n.HPWL(results[c].place)
		area := n.Area(results[c].place)
		better := wl < bestWL || (wl == bestWL && area < bestArea)
		if saOpt.Perf != nil {
			phi := saOpt.Perf.Prob(n, results[c].place)
			better = phi < bestPhi ||
				(phi == bestPhi && (wl < bestWL || (wl == bestWL && area < bestArea)))
			if better {
				bestPhi = phi
			}
		}
		if better {
			best, bestWL, bestArea = c, wl, area
		}
	}

	stats := &anneal.Stats{BestCost: results[best].stats.BestCost}
	for c := range results {
		stats.Proposals += results[c].stats.Proposals
		stats.Accepts += results[c].stats.Accepts
	}
	if popt.Tracer.Enabled() {
		for c := range results {
			popt.Tracer.SAEvent(obs.SARecord{
				Chain: c,
				Move:  results[c].stats.Proposals,
				Cur:   results[c].stats.BestCost,
				Best:  results[best].stats.BestCost,
			})
		}
		popt.Tracer.Count("sa.proposals", float64(stats.Proposals))
		popt.Tracer.Count("sa.accepts", float64(stats.Accepts))
		popt.Tracer.Gauge("sa.best_cost", stats.BestCost)
		popt.Tracer.Gauge("sa.portfolio.chains", float64(chains))
		popt.Tracer.Gauge("sa.portfolio.winner", float64(best))
	}
	return results[best].place, stats, nil
}
