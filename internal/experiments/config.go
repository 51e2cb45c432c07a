// Package experiments regenerates every table and figure of the paper's
// evaluation: Table I (soft vs. hard symmetry), Fig. 2 (area-term
// ablation), Table III (main conventional comparison), Table IV
// (detailed-placement comparison), Fig. 5 (HPWL–area tradeoff), Table V
// (FOM comparison), Table VI (CC-OTA metric details), Table VII
// (performance-driven comparison) and Fig. 6 (FOM–area tradeoff). Each
// experiment returns structured rows plus a formatted table whose layout
// mirrors the paper, so paper-vs-measured comparisons are direct.
package experiments

import (
	"context"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/gnn"
	"repro/internal/obs"
	"repro/internal/testcircuits"
)

// Config controls experiment scale.
type Config struct {
	Seed int64
	// Quick trades fidelity for speed (small SA budgets, single-start
	// portfolio, small GNN datasets) so tests and benchmarks stay fast.
	Quick bool
	// Tracer, when non-nil, is threaded into every placement, GNN training,
	// and routing call the experiments make.
	Tracer *obs.Tracer
	// Ctx, when non-nil, bounds every placement and training run the
	// experiments make (cmd/experiments -timeout); nil means no limit.
	Ctx context.Context
}

// ctx returns the run-bounding context, defaulting to context.Background().
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// saOptions returns the simulated-annealing move budget for the run mode:
// the full mode mirrors the paper's "practical runtime limit" regime.
func (c Config) saOptions(seed int64) *anneal.Options {
	if c.Quick {
		return &anneal.Options{Seed: seed, Moves: 30000, Tracer: c.Tracer}
	}
	return &anneal.Options{Seed: seed, Tracer: c.Tracer} // package default: long chains
}

// perfSAOptions returns the budget for performance-driven SA, whose cost
// function runs GNN inference per proposal; the paper's perf-driven SA
// runtimes are of the same magnitude as its conventional SA.
func (c Config) perfSAOptions(seed int64, n int) *anneal.Options {
	if c.Quick {
		return &anneal.Options{Seed: seed, Moves: 8000, Tracer: c.Tracer}
	}
	return &anneal.Options{Seed: seed, Moves: 100000 + 5000*n, Tracer: c.Tracer}
}

// saChains returns the SA portfolio width: one chain in quick mode, core's
// default (two) otherwise.
func (c Config) saChains() int {
	if c.Quick {
		return 1
	}
	return 0
}

// portfolio returns the ePlace-A portfolio size.
func (c Config) portfolio() int {
	if c.Quick {
		return 1
	}
	return 3
}

// trainOptions returns the GNN training configuration.
func (c Config) trainOptions(seed int64) core.TrainOptions {
	if c.Quick {
		return core.TrainOptions{Seed: seed, Samples: 300, Epochs: 20, Anchors: -1, Tracer: c.Tracer}
	}
	return core.TrainOptions{Seed: seed, Samples: 1200, Epochs: 45, Tracer: c.Tracer}
}

// MethodMetrics is one method's result on one circuit.
type MethodMetrics struct {
	AreaUM2  float64
	HPWLUM   float64
	RuntimeS float64
	FOM      float64 // filled by performance experiments
	Legal    bool
}

// metricsOf converts a core result.
func metricsOf(res *core.Result) MethodMetrics {
	return MethodMetrics{
		AreaUM2:  res.AreaUM2,
		HPWLUM:   res.HPWLUM,
		RuntimeS: res.Runtime.Seconds(),
		Legal:    res.Legal,
	}
}

// Models caches one trained GNN per circuit, shared by the
// performance-driven experiments. A model is bound to the exact netlist it
// was trained on, so Cases holds the benchmark instances the models belong
// to and every performance experiment must run on these instances.
type Models struct {
	Cases  []*testcircuits.Case
	ByName map[string]*gnn.Model
	Stats  map[string]*gnn.TrainStats
	TrainS float64 // total training wall time, seconds
}

// Case returns the benchmark case (bound to its trained model) by name.
func (m *Models) Case(name string) *testcircuits.Case {
	for _, c := range m.Cases {
		if c.Netlist.Name == name {
			return c
		}
	}
	return nil
}

// TrainAll trains a performance GNN for every benchmark circuit.
func TrainAll(cfg Config) (*Models, error) {
	out := &Models{
		Cases:  testcircuits.All(),
		ByName: map[string]*gnn.Model{},
		Stats:  map[string]*gnn.TrainStats{},
	}
	start := time.Now()
	for _, c := range out.Cases {
		model, stats, err := core.TrainPerfGNNCtx(cfg.ctx(), c.Netlist, c.Perf, 0 /* auto */, cfg.trainOptions(cfg.Seed+11))
		if err != nil {
			return nil, err
		}
		out.ByName[c.Netlist.Name] = model
		out.Stats[c.Netlist.Name] = stats
	}
	out.TrainS = time.Since(start).Seconds()
	return out, nil
}
