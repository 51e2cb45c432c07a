package netio

import (
	"bytes"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

func genNetlist(t *testing.T, devices int, seed int64) *circuit.Netlist {
	t.Helper()
	n, err := gen.Generate(gen.Params{Devices: devices, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// clone deep-copies the parts of a netlist the diff tests mutate.
func cloneNetlist(n *circuit.Netlist) *circuit.Netlist {
	c := *n
	c.Devices = append([]circuit.Device(nil), n.Devices...)
	c.Nets = make([]circuit.Net, len(n.Nets))
	for i := range n.Nets {
		c.Nets[i] = n.Nets[i]
		c.Nets[i].Pins = append([]circuit.PinRef(nil), n.Nets[i].Pins...)
	}
	return &c
}

// dropConstraints removes every constraint referencing device index v
// (which tests delete from the device list, so stale references would be
// out of range).
func dropConstraints(n *circuit.Netlist, v int) {
	groups := make([]circuit.SymmetryGroup, 0, len(n.SymGroups))
	for _, g := range n.SymGroups {
		ng := circuit.SymmetryGroup{}
		for _, pr := range g.Pairs {
			if pr[0] != v && pr[1] != v {
				ng.Pairs = append(ng.Pairs, pr)
			}
		}
		for _, s := range g.Self {
			if s != v {
				ng.Self = append(ng.Self, s)
			}
		}
		if len(ng.Pairs)+len(ng.Self) > 0 {
			groups = append(groups, ng)
		}
	}
	n.SymGroups = groups
	filterPairs := func(ps [][2]int) [][2]int {
		out := ps[:0]
		for _, pr := range ps {
			if pr[0] != v && pr[1] != v {
				out = append(out, pr)
			}
		}
		return out
	}
	n.BottomAlign = filterPairs(append([][2]int(nil), n.BottomAlign...))
	n.VCenterAlign = filterPairs(append([][2]int(nil), n.VCenterAlign...))
	orders := make([][]int, 0, len(n.HOrders))
	for _, grp := range n.HOrders {
		ng := make([]int, 0, len(grp))
		for _, di := range grp {
			if di != v {
				ng = append(ng, di)
			}
		}
		if len(ng) >= 2 {
			orders = append(orders, ng)
		}
	}
	n.HOrders = orders
}

// anchorCount counts the devices d.Anchored marks.
func anchorCount(d *Diff) int {
	n := 0
	for _, a := range d.Anchored() {
		if a {
			n++
		}
	}
	return n
}

func TestDiffIdenticalNetlists(t *testing.T) {
	n := genNetlist(t, 40, 3)
	d := DiffNetlists(n, n)
	if d.Added != 0 || d.Removed != 0 || d.Changed != 0 {
		t.Fatalf("self-diff not clean: added=%d removed=%d changed=%d", d.Added, d.Removed, d.Changed)
	}
	if got, want := anchorCount(d), len(n.Devices); got != want {
		t.Fatalf("AnchorCount = %d, want %d (every device)", got, want)
	}
	if d.PerturbedCount() != 0 {
		t.Fatalf("PerturbedCount = %d, want 0", d.PerturbedCount())
	}
	for i, u := range d.Unchanged {
		if !u {
			t.Fatalf("device %d (%s) not unchanged in self-diff", i, n.Devices[i].Name)
		}
	}
}

// TestDiffGrownNetlist exercises the canonical ECO edit: the generator's
// own growth, which keeps the original devices as a prefix. The original
// devices away from the new tiles must stay anchored, and the additions
// must all be perturbed.
func TestDiffGrownNetlist(t *testing.T) {
	base := genNetlist(t, 160, 3)
	edited := genNetlist(t, len(base.Devices)+8, 3)
	if len(edited.Devices) <= len(base.Devices) {
		t.Fatalf("edit did not grow: %d -> %d devices", len(base.Devices), len(edited.Devices))
	}
	for i := range base.Devices {
		if base.Devices[i].Name != edited.Devices[i].Name {
			t.Fatalf("generator prefix broke at device %d: %q vs %q",
				i, base.Devices[i].Name, edited.Devices[i].Name)
		}
	}

	d := DiffNetlists(base, edited)
	if d.Removed != 0 {
		t.Fatalf("Removed = %d, want 0", d.Removed)
	}
	if want := len(edited.Devices) - len(base.Devices); d.Added != want {
		t.Fatalf("Added = %d, want %d", d.Added, want)
	}
	for i := len(base.Devices); i < len(edited.Devices); i++ {
		if d.BaseIndex[i] != -1 || !d.Perturbed[i] {
			t.Fatalf("added device %d: BaseIndex=%d perturbed=%v, want -1/true", i, d.BaseIndex[i], d.Perturbed[i])
		}
	}
	// The edit is local: most of the base must survive as anchors, and the
	// perturbed region must stay well under the full netlist.
	if anchorCount(d) < len(base.Devices)/2 {
		t.Fatalf("only %d of %d base devices anchored; edit should be local", anchorCount(d), len(base.Devices))
	}
	if d.PerturbedCount() >= len(edited.Devices) {
		t.Fatalf("entire netlist perturbed")
	}
	anch := d.Anchored()
	for i := range anch {
		if anch[i] && (d.BaseIndex[i] < 0 || d.Perturbed[i]) {
			t.Fatalf("Anchored mask inconsistent at %d", i)
		}
	}
}

func TestDiffRemovedDevice(t *testing.T) {
	base := genNetlist(t, 160, 5)
	edited := cloneNetlist(base)
	// Drop the last device and its net pins.
	victim := len(edited.Devices) - 1
	edited.Devices = edited.Devices[:victim]
	for ni := range edited.Nets {
		keep := edited.Nets[ni].Pins[:0]
		for _, pr := range edited.Nets[ni].Pins {
			if pr.Device != victim {
				keep = append(keep, pr)
			}
		}
		edited.Nets[ni].Pins = keep
	}
	dropConstraints(edited, victim)

	d := DiffNetlists(base, edited)
	if d.Removed != 1 {
		t.Fatalf("Removed = %d, want 1", d.Removed)
	}
	if d.Added != 0 {
		t.Fatalf("Added = %d, want 0", d.Added)
	}
	// Ex-neighbors of the victim see a changed net membership, so the
	// perturbed region is non-empty even though no surviving device moved.
	if d.PerturbedCount() == 0 {
		t.Fatalf("removal did not perturb the victim's neighborhood")
	}
	if anchorCount(d) == 0 {
		t.Fatalf("removal destroyed every anchor")
	}
}

func TestDiffGeometryChange(t *testing.T) {
	base := genNetlist(t, 30, 5)
	edited := cloneNetlist(base)
	edited.Devices[4].W *= 1.5

	d := DiffNetlists(base, edited)
	if d.Changed == 0 {
		t.Fatalf("geometry change not detected")
	}
	if d.Unchanged[4] || !d.Perturbed[4] {
		t.Fatalf("resized device: unchanged=%v perturbed=%v", d.Unchanged[4], d.Perturbed[4])
	}
	if anchorCount(d) == 0 {
		t.Fatalf("single resize destroyed every anchor")
	}
}

// TestDiffNetRenameInvariance checks that renaming a net changes nothing:
// context hashes key nets by membership, not by name.
func TestDiffNetRenameInvariance(t *testing.T) {
	base := genNetlist(t, 30, 7)
	edited := cloneNetlist(base)
	for ni := range edited.Nets {
		edited.Nets[ni].Name = "renamed_" + edited.Nets[ni].Name
	}

	d := DiffNetlists(base, edited)
	if d.Changed != 0 || d.PerturbedCount() != 0 {
		t.Fatalf("pure net rename marked changed=%d perturbed=%d, want 0/0", d.Changed, d.PerturbedCount())
	}
	if got, want := anchorCount(d), len(base.Devices); got != want {
		t.Fatalf("AnchorCount = %d, want %d", got, want)
	}
}

func TestDiffNetWeightChange(t *testing.T) {
	base := genNetlist(t, 30, 7)
	edited := cloneNetlist(base)
	// Pick a small (local) net so the weight change is in-context.
	ni := -1
	for i := range edited.Nets {
		if np := len(edited.Nets[i].Pins); np >= 2 && np <= MaxFanout {
			ni = i
			break
		}
	}
	if ni < 0 {
		t.Fatal("no local net in generated netlist")
	}
	edited.Nets[ni].Weight += 1

	d := DiffNetlists(base, edited)
	if d.Changed == 0 {
		t.Fatalf("net weight change not detected")
	}
	for _, pr := range edited.Nets[ni].Pins {
		if !d.Perturbed[pr.Device] {
			t.Fatalf("device %d on reweighted net not perturbed", pr.Device)
		}
	}
}

// TestDiffRadius checks the hop expansion: the perturbed region holds
// every added and every changed device, and more once it grows through
// their nets.
func TestDiffRadius(t *testing.T) {
	base := genNetlist(t, 160, 3)
	edited := genNetlist(t, len(base.Devices)+8, 3)

	d := DiffNetlists(base, edited)
	for i, bi := range d.BaseIndex {
		if (bi < 0 || !d.Unchanged[i]) && !d.Perturbed[i] {
			t.Fatalf("device %d is added or changed but not perturbed", i)
		}
	}
	if got, seed := d.PerturbedCount(), d.Added+d.Changed; got <= seed {
		t.Fatalf("perturbed %d devices, want more than the %d added or changed", got, seed)
	}
}

func TestFingerprintPlacementStability(t *testing.T) {
	n := genNetlist(t, 20, 11)
	p := circuit.NewPlacement(n)
	for i := range n.Devices {
		p.X[i] = float64(i) * 1.5
		p.Y[i] = float64(i) * 0.5
	}
	a := FingerprintPlacement(n, p)
	b := FingerprintPlacement(n, p.Clone())
	if a != b {
		t.Fatalf("fingerprint not stable across identical placements")
	}
	q := p.Clone()
	q.X[3] += 1e-9
	if FingerprintPlacement(n, q) == a {
		t.Fatalf("fingerprint ignored a coordinate change")
	}
}

// TestPlacementDocRoundTrip writes a placement document and binds it back
// onto the same netlist, and checks that binding it onto a grown netlist,
// whose added devices it lacks, fails.
func TestPlacementDocRoundTrip(t *testing.T) {
	n := genNetlist(t, 24, 9)
	p := circuit.NewPlacement(n)
	for i := range n.Devices {
		p.X[i] = float64(i)
		p.Y[i] = float64(2 * i)
		p.FlipX[i] = i%3 == 0
	}
	n.ResolveAxes(p)

	var buf bytes.Buffer
	if err := n.WritePlacementJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	doc, err := circuit.ReadPlacementDoc(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := PlacementForNetlist(n, doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Devices {
		if got.X[i] != p.X[i] || got.Y[i] != p.Y[i] || got.FlipX[i] != p.FlipX[i] || got.FlipY[i] != p.FlipY[i] {
			t.Fatalf("device %d round-trip mismatch", i)
		}
	}
	if FingerprintPlacement(n, got) != FingerprintPlacement(n, p) {
		t.Fatalf("round-trip changed the placement fingerprint")
	}

	grown := genNetlist(t, len(n.Devices)+8, 9)
	if _, err := PlacementForNetlist(grown, doc); err == nil {
		t.Fatalf("bind accepted a document missing the added devices")
	}
}
