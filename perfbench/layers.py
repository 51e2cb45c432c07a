"""Per-layer profile of placer solves, read from outside the program.

Each traced solve leaves a JSONL trace (placer -trace) whose last event is
a summary: span totals per pipeline stage and the solvers' own counters.
The benchmark adds what only the outside sees: the process's wall time
beyond the traced placement (start-up, netlist load, output write) and the
warm-start line of the placer's log.
"""

import json
import re

WARM_RE = re.compile(r"warm start: (\d+) anchored, (\d+) perturbed of (\d+) devices")

# Stage spans under "place", by the layer they time.
STAGES = {"gp": "place/gp", "dp": "place/detailed", "refine": "place/refine"}


def read(path, wall_ms, stderr):
    """Return one solve's layer figures from its trace file and log."""
    with open(path) as f:
        lines = f.read().splitlines()
    event = json.loads(lines[-1]) if lines else {}
    if event.get("kind") != "summary":
        raise ValueError(f"{path}: the last event is not the summary")
    summary = event["summary"]
    counters = summary.get("counters", {})
    spans = summary.get("spans", {})
    t = {f"{k}_ms": spans.get(v, {}).get("total_ms", 0.0) for k, v in STAGES.items()}
    place_ms = spans["place"]["total_ms"]
    t["place_other_ms"] = max(0.0, place_ms - sum(t.values()))
    t["process_ms"] = max(0.0, wall_ms - summary["wall_ms"])
    t["gp_iterations"] = counters.get("gp.iterations", 0) + counters.get("prev.iterations", 0)
    for name in ("lp.solves", "lp.pivots", "ilp.solves", "ilp.nodes", "refine.windows", "refine.accepts"):
        t[name.replace(".", "_")] = counters.get(name, 0)
    m = WARM_RE.search(stderr)
    t["warm_devices"] = int(m.group(3)) if m else 0
    t["warm_anchored"] = int(m.group(1)) if m else 0
    return t


def ratio(num, den):
    return num / den if den else 0.0


def metrics(traces):
    """Aggregate solves into the per-layer metrics: means per solve, plus
    rates whose base is named in the metric."""
    n = len(traces)
    tot = {k: sum(t[k] for t in traces) for k in traces[0]}
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for k in ("gp_ms", "dp_ms", "refine_ms", "place_other_ms", "process_ms"):
        put(k, tot[k] / n, "ms")
    for k in ("gp_iterations", "lp_solves", "lp_pivots", "ilp_solves", "ilp_nodes", "refine_windows"):
        put(k, tot[k] / n, "count")
    put("gp_us_per_iteration", ratio(tot["gp_ms"] * 1e3, tot["gp_iterations"]), "us")
    put("pivots_per_lp", ratio(tot["lp_pivots"], tot["lp_solves"]), "count")
    put("nodes_per_ilp", ratio(tot["ilp_nodes"], tot["ilp_solves"]), "count")
    put("refine_accept_rate", ratio(tot["refine_accepts"], tot["refine_windows"]), "ratio")
    put("warm_anchored_share", ratio(tot["warm_anchored"], tot["warm_devices"]), "ratio")
    return out
