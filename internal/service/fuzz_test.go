package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netio"
)

// FuzzValidate decodes arbitrary request bodies the way handleSubmit does
// and validates them. Validation must never panic, an accepted request
// must resolve to a netlist, and an accepted "gen:" circuit must be within
// the generated-circuit device limit. The seeds cover each input source: a
// built-in circuit, a generator spec with request knobs set, an inline
// netlist, and an inline warm start against that netlist's prev placement.
func FuzzValidate(f *testing.F) {
	n, _, err := netio.Load("", "gen:6@3")
	if err != nil {
		f.Fatal(err)
	}
	res, err := core.Place(n, core.MethodPrev, core.Options{Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var nl, pl bytes.Buffer
	if err := n.WriteJSON(&nl); err != nil {
		f.Fatal(err)
	}
	if err := n.WritePlacementJSON(&pl, res.Placement); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"circuit":"Adder","method":"sa","seed":1}`,
		`{"circuit":"gen:30@2","method":"prev","seed":3,"chains":2,"refine":true,"refine_windows":4,` +
			`"threads":2,"timeout_sec":5,"tenant":"acme","priority":"batch"}`,
		fmt.Sprintf(`{"netlist":%s,"method":"eplace-a","portfolio":1}`, nl.Bytes()),
		fmt.Sprintf(`{"netlist":%s,"method":"prev","base_placement":%s}`, nl.Bytes(), pl.Bytes()),
	} {
		f.Add([]byte(seed))
	}

	m := NewManager(Config{Workers: 1, QueueCap: 1})
	f.Cleanup(func() { drain(f, m) })
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req SubmitRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		spec, err := m.validate(req)
		if err != nil {
			return
		}
		if spec.Netlist == nil {
			t.Fatalf("accepted %s without a netlist", body)
		}
		for _, v := range []int{req.Portfolio, req.Chains} {
			if v < 0 || v > maxWidth {
				t.Fatalf("accepted portfolio %d, chains %d outside [0, %d]", req.Portfolio, req.Chains, maxWidth)
			}
		}
		if req.Mu < 0 {
			t.Fatalf("accepted negative mu %g", req.Mu)
		}
		if gen.IsSpec(req.Circuit) {
			if p, err := gen.ParseSpec(req.Circuit); err != nil || p.Devices > maxGenDevices {
				t.Fatalf("accepted circuit %q over the %d-device limit (%v)", req.Circuit, maxGenDevices, err)
			}
		}
	})
}
