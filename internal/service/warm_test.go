package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/gen"
	"repro/internal/netio"
)

func netlistJSON(t *testing.T, devices int, seed int64) json.RawMessage {
	t.Helper()
	n, err := gen.Generate(gen.Params{Devices: devices, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmStartJob runs the ECO serving flow end to end: a base job, an
// edited resubmission warm-started via base_job, the same warm solve via
// an inline base placement (which must hit the base_job run's cache
// entry), and the scheduling/observability surface of warm jobs.
func TestWarmStartJob(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueCap: 8, CacheBytes: 64 << 20})
	defer drain(t, m)

	baseJSON := netlistJSON(t, 24, 3)
	editedJSON := netlistJSON(t, 32, 3)

	base, err := m.Submit(SubmitRequest{Netlist: baseJSON, Method: "prev", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, base, StateDone)
	baseRes := base.Status().Result

	eco, err := m.Submit(SubmitRequest{Netlist: editedJSON, Method: "prev", Seed: 5, BaseJob: base.ID()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, eco, StateDone)
	st := eco.Status()
	if !st.Warm || st.BaseJob != base.ID() {
		t.Errorf("warm status not surfaced: warm=%v base_job=%q", st.Warm, st.BaseJob)
	}
	if st.Result.WarmPerturbed == 0 {
		t.Errorf("warm job reports an empty perturbed region")
	}
	if !st.Result.Legal {
		t.Errorf("warm placement not legal")
	}

	// The same warm solve expressed with an inline base must share the
	// content address: the key hashes the base netlist and placement, not
	// how they were named.
	inline, err := m.Submit(SubmitRequest{
		Netlist: editedJSON, Method: "prev", Seed: 5,
		BaseNetlist: baseJSON, BasePlacement: baseRes.Placement,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, inline, StateDone)
	if r := inline.Status().Result; !r.Cached {
		t.Errorf("inline-base resubmission missed the cache")
	} else if !bytes.Equal(r.Placement, st.Result.Placement) {
		t.Errorf("inline-base cached placement differs from the base_job run")
	}

	// Warm and cold solves of the same edited netlist must never collide.
	coldSpec, err := m.validate(SubmitRequest{Netlist: editedJSON, Method: "prev", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	warmSpec, err := m.validate(SubmitRequest{Netlist: editedJSON, Method: "prev", Seed: 5, BaseJob: base.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if cacheKeyFor(coldSpec).String() == cacheKeyFor(warmSpec).String() {
		t.Errorf("cold and warm cache keys collide")
	}

	// ECO jobs are priced by their perturbed region, not the device count.
	// (At this toy size the edit perturbs nearly everything; the locality
	// of the diff itself is covered in internal/netio.)
	baseNet, err := netio.DecodeBytes(baseJSON, "base")
	if err != nil {
		t.Fatal(err)
	}
	d := netio.DiffNetlists(baseNet, warmSpec.Netlist)
	if want := float64(1 + d.PerturbedCount()); warmSpec.WarmCost != want {
		t.Errorf("WarmCost = %v, want 1+perturbed = %v", warmSpec.WarmCost, want)
	}
}

func TestWarmStartValidation(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueCap: 8})
	defer drain(t, m)
	baseJSON := netlistJSON(t, 24, 3)

	bad := []SubmitRequest{
		// base_netlist without base_placement
		{Netlist: baseJSON, BaseNetlist: baseJSON},
		// unknown base job
		{Netlist: baseJSON, BaseJob: "no-such-job"},
		// both base_job and inline base
		{Netlist: baseJSON, BaseJob: "x", BasePlacement: json.RawMessage(`{}`)},
		// base placement that is not a placement document
		{Netlist: baseJSON, BasePlacement: json.RawMessage(`{"devices":[]}`)},
	}
	for i, req := range bad {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}
