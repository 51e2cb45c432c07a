"""Independent checks of a placement the placer wrote.

The benchmark does not trust the placer's own legality flag or QoR figures:
it re-reads the netlist JSON it handed the placer and the placement JSON it
got back, checks every constraint class the netlist declares, and recomputes
HPWL and bounding-box area with the same formulas as internal/circuit.
"""

import json
import math

GRID_UM = 0.1  # one grid unit in micrometres (circuit.GridMicron)
TOL = 1e-6  # grid units; the placer's own legality tolerance


class Netlist:
    """The parts of a netlist JSON document the checks need."""

    def __init__(self, path):
        with open(path) as f:
            doc = json.load(f)
        self.name = doc["name"]
        self.devices = doc["devices"]
        self.index = {d["name"]: i for i, d in enumerate(self.devices)}
        self.nets = []  # (weight, [(device index, pin offset x, pin offset y)])
        for net in doc["nets"]:
            pins = [self._pin(ref) for ref in net["pins"]]
            self.nets.append((net.get("weight") or 1.0, pins))
        self.sym = [
            ([(self.index[a], self.index[b]) for a, b in g.get("pairs", [])],
             [self.index[s] for s in g.get("self", [])])
            for g in doc.get("symmetry_groups", [])
        ]
        self.bottom = [(self.index[a], self.index[b]) for a, b in doc.get("bottom_align", [])]
        self.vcenter = [(self.index[a], self.index[b]) for a, b in doc.get("vcenter_align", [])]
        self.orders = [[self.index[d] for d in grp] for grp in doc.get("horizontal_orders", [])]

    def _pin(self, ref):
        # Device names may contain dots, so try every split from the right,
        # as the placer's own reader does.
        parts = ref.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            di = self.index.get(".".join(parts[:cut]))
            if di is None:
                continue
            pin_name = ".".join(parts[cut:])
            for p in self.devices[di]["pins"]:
                if p["name"] == pin_name:
                    return di, p["x"], p["y"]
        raise ValueError(f"{self.name}: bad pin reference {ref!r}")


def check(netlist, placement_path):
    """Verify a placement JSON file against netlist.

    Return (HPWL in µm, bounding-box area in µm²); raise ValueError naming
    the first violation found."""
    with open(placement_path) as f:
        doc = json.load(f)
    placed = {d["name"]: d for d in doc["devices"]}
    if len(placed) != len(doc["devices"]) or set(placed) != set(netlist.index):
        raise ValueError(f"{netlist.name}: placement does not name each device exactly once")
    n = len(netlist.devices)
    x = [0.0] * n
    y = [0.0] * n
    fx = [False] * n
    fy = [False] * n
    for i, d in enumerate(netlist.devices):
        p = placed[d["name"]]
        x[i], y[i] = float(p["x"]), float(p["y"])
        fx[i], fy[i] = bool(p.get("flip_x")), bool(p.get("flip_y"))
        if not (math.isfinite(x[i]) and math.isfinite(y[i])):
            raise ValueError(f"{netlist.name}: device {d['name']} has no finite position")
    w = [d["w"] for d in netlist.devices]
    h = [d["h"] for d in netlist.devices]
    lo_x = [x[i] - w[i] / 2 for i in range(n)]
    hi_x = [x[i] + w[i] / 2 for i in range(n)]
    lo_y = [y[i] - h[i] / 2 for i in range(n)]
    hi_y = [y[i] + h[i] / 2 for i in range(n)]

    def fail(what):
        raise ValueError(f"{netlist.name}: {what}")

    for i in range(n):
        for j in range(i + 1, n):
            dx = min(hi_x[i], hi_x[j]) - max(lo_x[i], lo_x[j])
            dy = min(hi_y[i], hi_y[j]) - max(lo_y[i], lo_y[j])
            if dx > TOL and dy > TOL:
                fail(f"devices {netlist.devices[i]['name']} and {netlist.devices[j]['name']} overlap")
    axes = doc.get("symmetry_axes_x") or []
    if len(axes) != len(netlist.sym):
        fail(f"{len(axes)} symmetry axes for {len(netlist.sym)} groups")
    for axis, (pairs, selfs) in zip(axes, netlist.sym):
        for a, b in pairs:
            if abs(y[a] - y[b]) > TOL or abs((x[a] + x[b]) / 2 - axis) > TOL:
                fail(f"pair ({netlist.devices[a]['name']}, {netlist.devices[b]['name']}) is not mirrored")
        for s in selfs:
            if abs(x[s] - axis) > TOL:
                fail(f"{netlist.devices[s]['name']} is off its symmetry axis")
    for a, b in netlist.bottom:
        if abs(lo_y[a] - lo_y[b]) > TOL:
            fail(f"bottom alignment ({netlist.devices[a]['name']}, {netlist.devices[b]['name']}) broken")
    for a, b in netlist.vcenter:
        if abs(x[a] - x[b]) > TOL:
            fail(f"centre alignment ({netlist.devices[a]['name']}, {netlist.devices[b]['name']}) broken")
    for grp in netlist.orders:
        for a, b in zip(grp, grp[1:]):
            if hi_x[a] > lo_x[b] + TOL:
                fail(f"order {netlist.devices[a]['name']} < {netlist.devices[b]['name']} broken")

    hpwl = 0.0
    for weight, pins in netlist.nets:
        px = []
        py = []
        for di, ox, oy in pins:
            if fx[di]:
                ox = w[di] - ox
            if fy[di]:
                oy = h[di] - oy
            px.append(lo_x[di] + ox)
            py.append(lo_y[di] + oy)
        hpwl += weight * ((max(px) - min(px)) + (max(py) - min(py)))
    hpwl_um = hpwl * GRID_UM
    area_um2 = (max(hi_x) - min(lo_x)) * (max(hi_y) - min(lo_y)) * GRID_UM * GRID_UM
    for label, ours, theirs in (("HPWL", hpwl_um, doc["hpwl_um"]), ("area", area_um2, doc["area_um2"])):
        if abs(ours - theirs) > 1e-9 * max(1.0, abs(ours)):
            fail(f"reported {label} {theirs} but the placement measures {ours}")
    return hpwl_um, area_um2
