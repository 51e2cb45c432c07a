package refine_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/anneal"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/refine"
)

func testNetlist(t *testing.T, devices int) *circuit.Netlist {
	t.Helper()
	n, err := gen.Generate(gen.Params{Devices: devices, Seed: 9})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	return n
}

func fastSA(seed int64) anneal.Options {
	return anneal.Options{Seed: seed, Moves: 6000}
}

func placementBytes(t *testing.T, n *circuit.Netlist, p *circuit.Placement) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.WritePlacementJSON(&buf, p); err != nil {
		t.Fatalf("encode placement: %v", err)
	}
	return buf.Bytes()
}

// The portfolio reduction is a pure function of the chain results, and the
// chains are seed-isolated, so any thread count — 1 (sequential), fewer
// than the chains, more than them — must produce identical bytes.
func TestPortfolioByteIdenticalAcrossPools(t *testing.T) {
	n := testNetlist(t, 24)
	var want []byte
	for _, threads := range []int{1, 2, 8} {
		p, stats, err := refine.Portfolio(context.Background(), n, fastSA(21),
			refine.PortfolioOptions{Chains: 5, Threads: threads})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if stats.Proposals == 0 {
			t.Fatalf("threads=%d: no proposals recorded", threads)
		}
		got := placementBytes(t, n, p)
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Errorf("threads=%d: placement bytes differ from threads=1", threads)
		}
	}
}

// One chain must reproduce the plain annealer bit for bit — this is what
// keeps single-chain runs (the quick-bench default) byte-stable across the
// portfolio rewrite.
func TestPortfolioSingleChainMatchesAnnealer(t *testing.T) {
	n := testNetlist(t, 24)
	direct, _, err := anneal.Place(context.Background(), n, fastSA(21))
	if err != nil {
		t.Fatal(err)
	}
	viaPortfolio, _, err := refine.Portfolio(context.Background(), n, fastSA(21),
		refine.PortfolioOptions{Chains: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(placementBytes(t, n, direct), placementBytes(t, n, viaPortfolio)) {
		t.Error("1-chain portfolio differs from the annealer")
	}
}

// Chain 0 runs the base seed, so the best-of reduction can never return a
// placement with higher weighted HPWL than the single-chain run.
func TestPortfolioNeverWorseThanChainZero(t *testing.T) {
	n := testNetlist(t, 24)
	single, _, err := refine.Portfolio(context.Background(), n, fastSA(21),
		refine.PortfolioOptions{Chains: 1})
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := refine.Portfolio(context.Background(), n, fastSA(21),
		refine.PortfolioOptions{Chains: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n.HPWL(multi) > n.HPWL(single) {
		t.Errorf("4-chain HPWL %.6f worse than 1-chain %.6f", n.HPWL(multi), n.HPWL(single))
	}
}

// A canceled portfolio returns the context's error, whether its chains
// run in turn or on their own goroutines.
func TestPortfolioCanceled(t *testing.T) {
	n := testNetlist(t, 24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, threads := range []int{0, 3} {
		_, _, err := refine.Portfolio(ctx, n, fastSA(21), refine.PortfolioOptions{Chains: 3, Threads: threads})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("threads=%d: canceled portfolio returned %v, want context.Canceled", threads, err)
		}
	}
}

// Refinement is accept-if-improved under a bounding-box cap: the result
// must be legal, no worse on HPWL or area, deterministic, and must leave
// the input placement untouched.
func TestRefineMonotoneLegalDeterministic(t *testing.T) {
	n := testNetlist(t, 48)
	p, _, err := anneal.Place(context.Background(), n, fastSA(7))
	if err != nil {
		t.Fatal(err)
	}
	if !n.CheckLegal(p, 1e-6).OK() {
		t.Fatal("SA placement not legal")
	}
	before := placementBytes(t, n, p)
	wlBefore, areaBefore := n.HPWL(p), n.Area(p)

	refined, stats, err := refine.Refine(context.Background(), n, p, refine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, placementBytes(t, n, p)) {
		t.Error("Refine mutated its input placement")
	}
	if stats.Windows == 0 {
		t.Error("no windows solved")
	}
	if wl := n.HPWL(refined); wl > wlBefore {
		t.Errorf("refined HPWL %.6f > input %.6f", wl, wlBefore)
	}
	if a := n.Area(refined); a > areaBefore+1e-9 {
		t.Errorf("refined area %.6f > input %.6f", a, areaBefore)
	}
	if rep := n.CheckLegal(refined, 1e-6); !rep.OK() {
		t.Errorf("refined placement illegal: %v", rep.Err())
	}

	again, stats2, err := refine.Refine(context.Background(), n, p, refine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(placementBytes(t, n, refined), placementBytes(t, n, again)) {
		t.Error("two identical Refine calls produced different placements")
	}
	if *stats != *stats2 {
		t.Errorf("stats differ across identical runs: %+v vs %+v", stats, stats2)
	}
}

// A canceled refine returns promptly with ctx's error and the input
// placement bit-untouched — the cancellation contract of the satellite.
func TestRefineCanceledLeavesInputUntouched(t *testing.T) {
	n := testNetlist(t, 48)
	p, _, err := anneal.Place(context.Background(), n, fastSA(7))
	if err != nil {
		t.Fatal(err)
	}
	before := placementBytes(t, n, p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	refined, _, err := refine.Refine(ctx, n, p, refine.Options{})
	if err == nil {
		t.Error("canceled refine returned nil error")
	}
	if refined != nil {
		t.Error("canceled refine returned a placement")
	}
	if !bytes.Equal(before, placementBytes(t, n, p)) {
		t.Error("canceled refine mutated its input placement")
	}
}

// The window budget knob bounds work: a tiny budget must be respected
// exactly and still never worsen the placement.
func TestRefineWindowBudget(t *testing.T) {
	n := testNetlist(t, 48)
	p, _, err := anneal.Place(context.Background(), n, fastSA(7))
	if err != nil {
		t.Fatal(err)
	}
	refined, stats, err := refine.Refine(context.Background(), n, p, refine.Options{Windows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows > 3 {
		t.Errorf("budget 3 exceeded: %d windows", stats.Windows)
	}
	if n.HPWL(refined) > n.HPWL(p) {
		t.Error("budgeted refine worsened HPWL")
	}
}
