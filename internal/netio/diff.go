package netio

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strconv"

	"repro/internal/circuit"
)

// MaxFanout bounds which nets count as local connectivity. Nets with more
// pins (supply rails, global biases) are treated as global: they neither
// enter a device's context hash nor propagate perturbation — otherwise one
// new device on vdd would mark every device on the rail as changed and no
// anchors would survive. Analog signal nets are small; ten-plus pins means
// a rail, bus, or bias distribution.
const MaxFanout = 10

// radius is how many net hops the perturbed region expands beyond the
// devices whose local context changed.
const radius = 1

// Diff classifies the devices of an edited netlist against a base
// netlist. Devices are matched by name; a matched device is unchanged
// when its local context hash — geometry, pins, the canonical membership
// of its low-fanout incident nets (net names excluded, so pure renames
// are invisible), and its constraint neighborhoods — is identical in both
// netlists. The perturbed region is the changed/added set expanded
// radius hops through low-fanout nets of the edited netlist; removals
// perturb implicitly because the surviving members of the touched nets
// see a changed membership list.
type Diff struct {
	// BaseIndex maps each edited-netlist device to its base-netlist index,
	// or -1 for added devices.
	BaseIndex []int
	// Unchanged marks edited devices whose local context is identical in
	// the base netlist.
	Unchanged []bool
	// Perturbed marks edited devices inside the perturbed region.
	Perturbed []bool

	Added   int // edited devices with no base counterpart
	Removed int // base devices with no edited counterpart
	Changed int // matched devices whose context hash differs
}

// Anchored returns the per-device anchor mask: matched devices outside
// the perturbed region. These are the devices a warm-start solve pins
// with anchor pseudonets.
func (d *Diff) Anchored() []bool {
	out := make([]bool, len(d.BaseIndex))
	for i, bi := range d.BaseIndex {
		out[i] = bi >= 0 && !d.Perturbed[i]
	}
	return out
}

// PerturbedCount returns the number of perturbed devices.
func (d *Diff) PerturbedCount() int {
	n := 0
	for _, p := range d.Perturbed {
		if p {
			n++
		}
	}
	return n
}

// DiffNetlists diffs edited against base. Both netlists must be valid.
func DiffNetlists(base, edited *circuit.Netlist) *Diff {
	baseHash := contextHashes(base)
	editHash := contextHashes(edited)

	baseIdx := make(map[string]int, len(base.Devices))
	for i := range base.Devices {
		baseIdx[base.Devices[i].Name] = i
	}

	nd := len(edited.Devices)
	d := &Diff{
		BaseIndex: make([]int, nd),
		Unchanged: make([]bool, nd),
		Perturbed: make([]bool, nd),
	}
	matched := 0
	for i := range edited.Devices {
		bi, ok := baseIdx[edited.Devices[i].Name]
		if !ok {
			d.BaseIndex[i] = -1
			d.Added++
			d.Perturbed[i] = true
			continue
		}
		matched++
		d.BaseIndex[i] = bi
		if baseHash[bi] == editHash[i] {
			d.Unchanged[i] = true
		} else {
			d.Changed++
			d.Perturbed[i] = true
		}
	}
	d.Removed = len(base.Devices) - matched

	// Expand the perturbed region through the edited netlist's local nets.
	for hop := 0; hop < radius; hop++ {
		for ni := range edited.Nets {
			net := &edited.Nets[ni]
			if len(net.Pins) > MaxFanout {
				continue
			}
			hit := false
			for _, pr := range net.Pins {
				if d.Perturbed[pr.Device] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			for _, pr := range net.Pins {
				d.Perturbed[pr.Device] = true
			}
		}
	}
	return d
}

// contextHashes computes the per-device local-context hash: the device
// record itself, the canonical membership of its low-fanout incident
// nets, and its constraint neighborhoods. Net names are deliberately
// excluded so renaming a net changes nothing.
func contextHashes(n *circuit.Netlist) [][32]byte {
	nd := len(n.Devices)
	lines := make([][]string, nd)
	for i := range n.Devices {
		d := &n.Devices[i]
		rec := "dev " + d.Type.String() + " " + fbits(d.W) + " " + fbits(d.H)
		for _, p := range d.Pins {
			rec += " pin " + p.Name + " " + fbits(p.Offset.X) + " " + fbits(p.Offset.Y)
		}
		lines[i] = append(lines[i], rec)
	}
	for ni := range n.Nets {
		net := &n.Nets[ni]
		if len(net.Pins) > MaxFanout {
			continue
		}
		members := make([]string, 0, len(net.Pins))
		touched := make(map[int]bool, len(net.Pins))
		for _, pr := range net.Pins {
			members = append(members,
				n.Devices[pr.Device].Name+"."+n.Devices[pr.Device].Pins[pr.Pin].Name)
			touched[pr.Device] = true
		}
		sort.Strings(members)
		line := "net " + fbits(net.Weight)
		for _, m := range members {
			line += " " + m
		}
		for di := range touched {
			lines[di] = append(lines[di], line)
		}
	}
	for _, g := range n.SymGroups {
		for _, pr := range g.Pairs {
			lines[pr[0]] = append(lines[pr[0]], "sym pair "+n.Devices[pr[1]].Name)
			lines[pr[1]] = append(lines[pr[1]], "sym pair "+n.Devices[pr[0]].Name)
		}
		for _, s := range g.Self {
			lines[s] = append(lines[s], "sym self")
		}
	}
	for _, pr := range n.BottomAlign {
		lines[pr[0]] = append(lines[pr[0]], "balign "+n.Devices[pr[1]].Name)
		lines[pr[1]] = append(lines[pr[1]], "balign "+n.Devices[pr[0]].Name)
	}
	for _, pr := range n.VCenterAlign {
		lines[pr[0]] = append(lines[pr[0]], "vcalign "+n.Devices[pr[1]].Name)
		lines[pr[1]] = append(lines[pr[1]], "vcalign "+n.Devices[pr[0]].Name)
	}
	for _, grp := range n.HOrders {
		for k, di := range grp {
			line := "horder"
			if k > 0 {
				line += " prev " + n.Devices[grp[k-1]].Name
			}
			if k < len(grp)-1 {
				line += " next " + n.Devices[grp[k+1]].Name
			}
			lines[di] = append(lines[di], line)
		}
	}

	out := make([][32]byte, nd)
	for i := range lines {
		head := lines[i][0]
		rest := lines[i][1:]
		sort.Strings(rest)
		h := sha256.New()
		h.Write([]byte(head))
		h.Write([]byte{'\n'})
		for _, l := range rest {
			h.Write([]byte(l))
			h.Write([]byte{'\n'})
		}
		h.Sum(out[i][:0])
	}
	return out
}

// FingerprintPlacement content-addresses a placement of n: per-device
// name, exact coordinate bits and flips (sorted by device name), plus the
// symmetry-axis coordinates. It is the base-placement component of a
// warm-start result-cache key.
func FingerprintPlacement(n *circuit.Netlist, p *circuit.Placement) [32]byte {
	order := make([]int, len(n.Devices))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return n.Devices[order[a]].Name < n.Devices[order[b]].Name
	})
	h := sha256.New()
	for _, i := range order {
		fmt.Fprintf(h, "place %q %s %s %t %t\n", n.Devices[i].Name,
			fbits(p.X[i]), fbits(p.Y[i]), p.FlipX[i], p.FlipY[i])
	}
	for gi, ax := range p.AxisX {
		fmt.Fprintf(h, "axis %s %s\n", strconv.Itoa(gi), fbits(ax))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// PlacementForNetlist binds a placement document to netlist n by device
// name. Every device of n must be in the document — the contract for a
// warm-start base placement, which must cover its base netlist completely.
// Axis coordinates are copied when the group count matches and re-derived
// from the pair positions otherwise.
func PlacementForNetlist(n *circuit.Netlist, doc *circuit.PlacementDoc) (*circuit.Placement, error) {
	p := circuit.NewPlacement(n)
	for i := range n.Devices {
		di, ok := doc.Device(n.Devices[i].Name)
		if !ok {
			return nil, fmt.Errorf("netio: placement for %q is missing device %q of netlist %q",
				doc.Design, n.Devices[i].Name, n.Name)
		}
		p.X[i] = doc.X[di]
		p.Y[i] = doc.Y[di]
		p.FlipX[i] = doc.FlipX[di]
		p.FlipY[i] = doc.FlipY[di]
	}
	if len(doc.AxesX) == len(n.SymGroups) {
		copy(p.AxisX, doc.AxesX)
	} else {
		n.ResolveAxes(p)
	}
	return p, nil
}

// Resolve loads a netlist from entry, treating it as a file path when one
// exists on disk and as a built-in name or generator spec otherwise — the
// convention cmd/bench uses for -netlist entries and cmd/placer for
// -warm-base.
func Resolve(entry string) (*circuit.Netlist, error) {
	if _, err := os.Stat(entry); err == nil {
		return LoadFile(entry)
	}
	n, _, err := Load("", entry)
	return n, err
}
