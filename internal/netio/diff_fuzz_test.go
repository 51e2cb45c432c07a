package netio

import (
	"testing"

	"repro/internal/gen"
)

// FuzzDiffNetlists diffs generated netlists: the fuzzer picks a netlist of
// 4–96 devices, its seed, and a growth of 0–8 devices (gen.Edited's, so 0
// means its default edit). A netlist diffed against itself or against a
// copy with every net renamed changes nothing, and a growth keeps the base
// devices at their indices and perturbs every added or changed device.
func FuzzDiffNetlists(f *testing.F) {
	cases, err := gen.Suite("quick", 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range cases {
		f.Add(uint8(c.Params.Devices-4), c.Params.Seed, uint8(0))
	}
	f.Add(uint8(24-4), int64(6), uint8(1))
	f.Fuzz(func(t *testing.T, devices uint8, seed int64, growth uint8) {
		p := gen.Params{Devices: 4 + int(devices)%93, Seed: seed}
		base := gen.MustGenerate(p)
		nd := len(base.Devices)

		self := DiffNetlists(base, base)
		if self.Added != 0 || self.Removed != 0 || self.Changed != 0 || self.PerturbedCount() != 0 {
			t.Fatalf("self-diff: added %d, removed %d, changed %d, perturbed %d, want none",
				self.Added, self.Removed, self.Changed, self.PerturbedCount())
		}
		for i, bi := range self.BaseIndex {
			if bi != i {
				t.Fatalf("self-diff: BaseIndex[%d] = %d", i, bi)
			}
		}
		if got := anchorCount(self); got != nd {
			t.Fatalf("self-diff: %d of %d devices anchored", got, nd)
		}

		renamed := cloneNetlist(base)
		for ni := range renamed.Nets {
			renamed.Nets[ni].Name = "renamed_" + renamed.Nets[ni].Name
		}
		if d := DiffNetlists(base, renamed); d.PerturbedCount() != 0 {
			t.Fatalf("renaming every net perturbed %d devices", d.PerturbedCount())
		}

		edited := gen.MustGenerate(gen.Edited(p, int(growth%9)))
		d := DiffNetlists(base, edited)
		if d.Removed != 0 || d.Added != len(edited.Devices)-nd {
			t.Fatalf("growth %d → %d devices: removed %d, added %d", nd, len(edited.Devices), d.Removed, d.Added)
		}
		for i, bi := range d.BaseIndex {
			if i < nd && bi != i {
				t.Fatalf("growth moved base device %d to base index %d", i, bi)
			}
			if (bi < 0 || !d.Unchanged[i]) && !d.Perturbed[i] {
				t.Fatalf("device %d is added or changed but not perturbed", i)
			}
		}
	})
}
