#!/usr/bin/env python3
"""End-to-end benchmark of the placer, measured from outside the program.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eplace --seed 1 --seconds 20 --trace 0

It builds cmd/placer from source into .bench_build/, writes the workload's
input netlists with the placer's own -dump-netlist (timed as set-up), then
places every netlist of the workload round after round for --seconds
seconds, one `placer` process per solve. Each solve is timed by its wall
clock and compared with a fixed reference computation timed between solves.
--seed picks the placement seeds. Every placement is checked here,
independently of the placer: legality against each constraint in the
netlist, HPWL and area recomputed, and byte-identical output whenever the
same netlist and seed are placed again.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones: solve time relative to the reference, QoR and
set-up time. With --trace 1 each solve also writes a JSONL trace (-trace),
and the metrics are the per-layer profile read from those traces and from
the placer's log.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import placement  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
PLACER = os.path.join(BUILD, "bin", "placer")

# Every solve runs single-threaded: placements are bit-identical at any
# thread count, and one thread keeps timings steady on a small shared host.
THREADS = "1"
SETUP_REPS = 15
SOLVE_TIMEOUT_S = 60
REFERENCE_LOOPS = 100_000

# The netlists of each workload are fixed, so its difficulty does not move
# with --seed; the seed draws `slots` placement seeds per netlist, and round
# r places every netlist with seed slot r mod slots. QoR is taken over the
# slots, so it is a function of --seed alone. At least slots + 1 rounds run,
# so every netlist is placed twice with one seed and the two outputs must
# match.
QUICK_SUITE = ["gen:12@13", "gen:24@25", "gen:48@49"]  # cmd/bench -quick, seed 1
WORKLOADS = {
    # The paper's method, cold, on the paper's circuits that place in under
    # 2 s. Time goes to Nesterov GP and the integrated-ILP detailed stage.
    "eplace": {
        "method": "eplace-a",
        "netlists": ["Adder", "CC-OTA", "VCO2", "Comp1", "VGA"],
        "slots": 3,
    },
    # The earlier analytical placer on the quick suite. Time goes to its
    # conjugate-gradient global placement.
    "prev": {
        "method": "prev",
        "netlists": QUICK_SUITE,
        "slots": 3,
    },
    # Incremental (ECO) re-placement: each netlist grows by one generator
    # tile and is re-placed with -warm-start from the cold eplace-a
    # placement of the original at seed 1, as a finished job would hold it.
    # Warm solves skip the integrated ILP and end with ILP window
    # refinement.
    "eco": {
        "method": "eplace-a",
        "netlists": ["gen:12@13", "gen:12@2", "gen:12@3", "gen:12@4"],
        "slots": 3,
        "warm": True,
    },
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def go_env():
    """Keep every file the Go toolchain writes inside the checkout."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd", "placer")):
        raise SystemExit("perfbench: no cmd/placer here; run from the root of a source checkout")
    os.makedirs(os.path.dirname(PLACER), exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-trimpath", "-o", PLACER, "./cmd/placer"],
        cwd=ROOT, env=go_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: building cmd/placer failed:\n{proc.stdout}")


def run_placer(args):
    """Run the placer once; return (exit code, stderr, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run([PLACER] + args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=SOLVE_TIMEOUT_S)
    return proc.returncode, proc.stderr, time.perf_counter() - t0


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Case:
    """One netlist of a workload and everything measured on it."""

    def __init__(self, source, seeds, work):
        self.source = source  # -circuit argument: a built-in name or gen: spec
        self.name = source.replace(":", "").replace("@", "-")
        self.seeds = seeds  # placement seed per slot
        self.path = os.path.join(work, f"{self.name}.json")
        self.out = os.path.join(work, f"{self.name}-placed.json")
        self.trace = os.path.join(work, f"{self.name}.jsonl")
        self.base = None  # (netlist, placement) an ECO solve starts from
        self.netlist = None
        self.wall_ms = []
        self.refs = []  # per solve, the index of the reference timing before it
        self.digests = {}  # slot -> placement digest
        self.qor = {}  # slot -> (HPWL µm, area µm²)
        self.layers = []


def dump(source, path):
    code, err, _ = run_placer(["-circuit", source, "-dump-netlist", "-out", path])
    if code != 0:
        raise RuntimeError(f"writing {source}: {err.strip()}")


def write_inputs(cases, warm):
    for c in cases:
        if not warm:
            dump(c.source, c.path)
            continue
        # Grow the netlist by one tile: the generator appends whole tiles
        # until it reaches its target count, so asking for one device more
        # than the original holds keeps the original as a prefix.
        base = c.path.replace(".json", "-base.json")
        dump(c.source, base)
        devices = len(placement.Netlist(base).devices)
        dump(f"gen:{devices + 1}@{c.source.split('@')[1]}", c.path)
        c.base = (base, c.path.replace(".json", "-base-placed.json"))


def setup(cases, warm):
    """Write every input netlist SETUP_REPS times; return the median time.
    The generator is deterministic, so every repetition must write the same
    bytes."""
    times = []
    first = None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        write_inputs(cases, warm)
        times.append(time.perf_counter() - t0)
        digests = [file_digest(p) for c in cases for p in [c.path] + ([c.base[0]] if c.base else [])]
        if first is None:
            first = digests
        elif digests != first:
            raise RuntimeError("set-up wrote different netlists from the same sources")
    for c in cases:
        c.netlist = placement.Netlist(c.path)
    return statistics.median(times)


def place_bases(cases, method):
    """Cold-place each ECO original once; its warm solves start from it."""
    for c in cases:
        code, err, _ = run_placer(["-in", c.base[0], "-method", method, "-seed", "1",
                                   "-threads", THREADS, "-out", c.base[1]])
        if code != 0:
            raise RuntimeError(f"{c.name}: placing the ECO original failed: {err.strip()}")
        placement.check(placement.Netlist(c.base[0]), c.base[1])


def reference_ms(samples):
    """Time a fixed CPU-bound computation that does not depend on the
    placer: the median of `samples` samples, each the best of three runs of
    about 8 ms."""
    times = []
    for _ in range(samples):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            s = 0
            for i in range(REFERENCE_LOOPS):
                s += i * i % 7
            best = min(best, time.perf_counter() - t0)
        times.append(best * 1e3)
    return statistics.median(times)


def solve(c, slot, spec, trace, ref):
    """Place one case with one seed slot and record what it measured; ref
    indexes the reference timing taken just before. Return None, or a
    description of what went wrong."""
    args = ["-in", c.path, "-method", spec["method"], "-seed", str(c.seeds[slot]),
            "-threads", THREADS, "-out", c.out]
    if c.base:
        args += ["-warm-start", c.base[1], "-warm-base", c.base[0]]
    if trace:
        args += ["-trace", c.trace]
    try:
        code, err, wall = run_placer(args)
    except subprocess.TimeoutExpired:
        return "timed out"
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}"
    try:
        qor = placement.check(c.netlist, c.out)
    except (ValueError, KeyError, TypeError) as e:
        return str(e)
    digest = file_digest(c.out)
    if c.digests.setdefault(slot, digest) != digest:
        return f"seed {c.seeds[slot]} placed it differently the second time"
    c.qor[slot] = qor
    c.wall_ms.append(wall * 1e3)
    c.refs.append(ref)
    if trace:
        try:
            c.layers.append(layers.read(c.trace, wall * 1e3, err))
        except (ValueError, KeyError, OSError) as e:
            return f"trace: {e}"
    return None


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def measure(cases, spec, seconds, trace):
    """Place every case round after round until `seconds` have passed.
    Return (solves attempted, solves failed, reference timings)."""
    attempted = failed = rounds = 0
    refs = [reference_ms(1)]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for c in cases:
            attempted += 1
            t = time.perf_counter()
            problem = solve(c, rounds % spec["slots"], spec, trace, len(refs) - 1)
            if problem:
                failed += 1
                log(f"{c.name}: {problem}")
                return attempted, failed, refs
            # One reference sample per second of solve, up to 8: the samples
            # on either side of a long solve speak for seconds of host time.
            refs.append(reference_ms(1 + min(7, int(time.perf_counter() - t))))
        rounds += 1
        now = time.perf_counter()
        # Stop once every seed slot ran twice somewhere and the next round
        # would end past the deadline by more than half a round.
        if rounds > spec["slots"] and now - start + 0.5 * (now - t0) >= seconds:
            break
    log(f"{rounds} rounds of {len(cases)} netlists in {now - start:.1f}s")
    return attempted, failed, refs


def main():
    ap = argparse.ArgumentParser(description="Benchmark cmd/placer from outside.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    spec = WORKLOADS[a.workload]

    build()
    work = os.path.join(BUILD, "work", f"{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        rng = random.Random(a.seed)
        cases = [Case(src, [rng.randrange(1, 1 << 31) for _ in range(spec["slots"])], work)
                 for src in spec["netlists"]]
        setup_s = setup(cases, spec.get("warm"))
        bases = 0
        if spec.get("warm"):
            place_bases(cases, spec["method"])
            bases = len(cases)
        attempted, failed, refs = measure(cases, spec, a.seconds, a.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not all(c.wall_ms for c in cases):
        raise SystemExit("perfbench: a netlist was never placed")
    for c in cases:
        hpwl = [q[0] for q in c.qor.values()]
        log(f"  {c.name:12s} {len(c.wall_ms):3d} solves, median {statistics.median(c.wall_ms):8.1f}ms, "
            f"HPWL {min(hpwl):.2f}-{max(hpwl):.2f}um")
    if a.trace:
        metrics = layers.metrics([t for c in cases for t in c.layers])
        metrics["traced_solve_ms"] = {"value": geomean([statistics.median(c.wall_ms) for c in cases]),
                                      "unit": "ms"}
    else:
        # Each solve's wall time over the mean of the reference timings on
        # either side of it: the host's speed drifts by 10-20 % over minutes
        # (and by more in bursts), and the ratio cancels most of that.
        rel = [statistics.median(w / ((refs[k] + refs[k + 1]) / 2) for w, k in zip(c.wall_ms, c.refs))
               for c in cases]
        metrics = {
            "solve_rel": {"value": geomean(rel), "unit": "ratio"},
            "hpwl_um": {"value": geomean([q[0] for c in cases for q in c.qor.values()]), "unit": "um"},
            "area_um2": {"value": geomean([q[1] for c in cases for q in c.qor.values()]), "unit": "um2"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    complete = all(len(c.qor) == spec["slots"] for c in cases)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": bases + attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
