package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/anneal"
	"repro/internal/eplacea"
	"repro/internal/gen"
	"repro/internal/prevwork"
	"repro/internal/testcircuits"
)

// fastSA keeps SA test runs quick: 6000 moves per chain, two chains by
// default.
func fastSA(seed int64) *anneal.Options {
	return &anneal.Options{Seed: seed, Moves: 6000}
}

func TestAllMethodsLegalOnAdder(t *testing.T) {
	c, err := testcircuits.ByName("Adder")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodSA, MethodPrev, MethodEPlaceA} {
		res, err := Place(c.Netlist, m, Options{Seed: 1, SA: fastSA(1)})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !res.Legal {
			t.Errorf("%v: illegal placement: %v", m, c.Netlist.CheckLegal(res.Placement, 1e-6).Err())
		}
		if res.AreaUM2 <= 0 || res.HPWLUM <= 0 {
			t.Errorf("%v: degenerate metrics %+v", m, res)
		}
		if res.Runtime <= 0 {
			t.Errorf("%v: runtime not recorded", m)
		}
	}
}

func TestAllMethodsLegalOnCCOTA(t *testing.T) {
	c, err := testcircuits.ByName("CC-OTA")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodSA, MethodPrev, MethodEPlaceA} {
		res, err := Place(c.Netlist, m, Options{Seed: 2, SA: fastSA(2)})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !res.Legal {
			t.Errorf("%v: illegal placement: %v", m, c.Netlist.CheckLegal(res.Placement, 1e-6).Err())
		}
	}
}

func TestMethodDiagnosticsRecorded(t *testing.T) {
	c, _ := testcircuits.ByName("Adder")
	sa, err := Place(c.Netlist, MethodSA, Options{Seed: 1, SA: fastSA(1)})
	if err != nil {
		t.Fatal(err)
	}
	if sa.SAProposals == 0 {
		t.Error("SA proposals not recorded")
	}
	ep, err := Place(c.Netlist, MethodEPlaceA, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ep.GPIterations == 0 {
		t.Error("ePlace-A GP iterations not recorded")
	}
	pv, err := Place(c.Netlist, MethodPrev, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pv.GPIterations == 0 {
		t.Error("prev GP iterations not recorded")
	}
}

func TestAreaWeightTradesOff(t *testing.T) {
	c, _ := testcircuits.ByName("CC-OTA")
	low, err := Place(c.Netlist, MethodEPlaceA, Options{Seed: 3, AreaWeight: 0.08, Mu: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Place(c.Netlist, MethodEPlaceA, Options{Seed: 3, AreaWeight: 1.2, Mu: 8})
	if err != nil {
		t.Fatal(err)
	}
	if high.AreaUM2 > low.AreaUM2*1.1 {
		t.Errorf("heavier area weight did not reduce area: %.1f vs %.1f", high.AreaUM2, low.AreaUM2)
	}
}

func TestTrainPerfGNN(t *testing.T) {
	c, _ := testcircuits.ByName("CC-OTA")
	model, stats, err := TrainPerfGNN(c.Netlist, c.Perf, c.Threshold,
		TrainOptions{Seed: 4, Samples: 400, Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if model == nil {
		t.Fatal("nil model")
	}
	if stats.ValAccuracy < 0.7 {
		t.Errorf("validation accuracy %.2f < 0.7", stats.ValAccuracy)
	}
}

func TestPerformanceDrivenImprovesFOM(t *testing.T) {
	c, _ := testcircuits.ByName("CC-OTA")
	model, _, err := TrainPerfGNN(c.Netlist, c.Perf, c.Threshold,
		TrainOptions{Seed: 5, Samples: 500, Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := Place(c.Netlist, MethodEPlaceA, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	perf, err := Place(c.Netlist, MethodEPlaceA, Options{Seed: 6, Perf: &PerfTerm{Model: model}})
	if err != nil {
		t.Fatal(err)
	}
	if !perf.Legal {
		t.Fatal("performance-driven placement illegal")
	}
	fConv := c.Perf.FOM(c.Netlist, conv.Placement)
	fPerf := c.Perf.FOM(c.Netlist, perf.Placement)
	if fPerf < fConv-0.02 {
		t.Errorf("performance-driven FOM %.3f clearly worse than conventional %.3f", fPerf, fConv)
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	c, _ := testcircuits.ByName("Adder")
	if _, err := Place(c.Netlist, Method(99), Options{}); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestNegativePortfolioRejected checks a negative ePlace-A portfolio is an
// error, not an index panic on an empty candidate list.
func TestNegativePortfolioRejected(t *testing.T) {
	c, _ := testcircuits.ByName("Adder")
	for _, m := range []Method{MethodSA, MethodPrev, MethodEPlaceA} {
		res, err := Place(c.Netlist, m, Options{Portfolio: -1})
		if err == nil || !strings.Contains(err.Error(), "negative Portfolio -1") {
			t.Errorf("%v: error %v, want negative Portfolio", m, err)
		}
		if res != nil {
			t.Errorf("%v: rejected run returned a result", m)
		}
	}
}

func TestMethodString(t *testing.T) {
	if MethodSA.String() == "" || MethodPrev.String() == "" || MethodEPlaceA.String() == "" {
		t.Error("empty method names")
	}
}

func TestDegenerateThresholdRejected(t *testing.T) {
	c, _ := testcircuits.ByName("Adder")
	if _, _, err := TrainPerfGNN(c.Netlist, c.Perf, 0.0001,
		TrainOptions{Seed: 1, Samples: 50, Epochs: 1}); err == nil {
		t.Error("expected degenerate-labels error for absurd threshold")
	}
}

// TestSolverOwnedDefaults pins the defaults the solvers own rather than
// core: each zero-valued knob places byte-identically to its resolved
// value (rows with want), and a warm SA run anneals max(Moves/3, 2000)
// proposals of an explicit move budget (rows with proposals).
func TestSolverOwnedDefaults(t *testing.T) {
	base := gen.Params{Seed: 9, Devices: 48}
	n := gen.MustGenerate(base)
	edited := gen.MustGenerate(gen.Edited(base, 12))
	prior, err := Place(n, MethodSA, Options{Seed: 1, SA: fastSA(1)})
	if err != nil {
		t.Fatal(err)
	}
	warm := func() *WarmStart {
		return &WarmStart{Base: n, Placement: prior.Placement}
	}
	fewIters := func(epochs int) *prevwork.Options {
		return &prevwork.Options{Epochs: epochs, ItersPerEpoch: 25}
	}
	// An unreachable overflow target runs GP to its iteration cap.
	toCap := func(maxIter int) *eplacea.Options {
		return &eplacea.Options{MaxIter: maxIter, StopOverflow: 1e-9}
	}
	cases := []struct {
		name      string
		method    Method
		opt       Options
		want      *Options // resolved equivalent of opt
		proposals int      // expected SAProposals
	}{
		{name: "sa cold chains 0 = 2", method: MethodSA,
			opt:  Options{Seed: 2, SA: fastSA(2)},
			want: &Options{Seed: 2, SA: fastSA(2), Chains: 2}},
		{name: "sa warm chains 0 = 1", method: MethodSA,
			opt:  Options{Seed: 2, SA: fastSA(2), WarmStart: warm()},
			want: &Options{Seed: 2, SA: fastSA(2), WarmStart: warm(), Chains: 1}},
		{name: "sa warm moves 9000 -> 3000", method: MethodSA,
			opt:       Options{Seed: 2, SA: &anneal.Options{Moves: 9000}, WarmStart: warm()},
			proposals: 3000},
		{name: "sa warm moves 3000 -> 2000", method: MethodSA,
			opt:       Options{Seed: 2, SA: &anneal.Options{Moves: 3000}, WarmStart: warm()},
			proposals: 2000},
		{name: "prev warm epochs 0 = 7", method: MethodPrev,
			opt:  Options{Seed: 2, Prev: fewIters(0), WarmStart: warm()},
			want: &Options{Seed: 2, Prev: fewIters(7), WarmStart: warm()}},
		{name: "eplace-a warm iterations 0 = 350", method: MethodEPlaceA,
			opt:  Options{Seed: 2, GP: toCap(0), WarmStart: warm()},
			want: &Options{Seed: 2, GP: toCap(350), WarmStart: warm()}},
	}
	render := func(res *Result) []byte {
		var buf bytes.Buffer
		if err := edited.WritePlacementJSON(&buf, res.Placement); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Place(edited, tc.method, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if tc.proposals != 0 && got.SAProposals != tc.proposals {
				t.Errorf("SAProposals = %d, want %d", got.SAProposals, tc.proposals)
			}
			if tc.want == nil {
				return
			}
			want, err := Place(edited, tc.method, *tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(render(got), render(want)) {
				t.Error("placement differs from the resolved default's")
			}
		})
	}
}
