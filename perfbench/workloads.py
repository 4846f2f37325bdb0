"""Workload plans, entry-point calls and output checks for the benchmark.

A workload is an endless sequence of rounds drawn from the fixed pools in
``data/pools.json`` by a ``random.Random`` seeded with the workload name and
seed.  Every round has the same composition (a fixed number of draws from
every stratum), so a run of whole rounds measures the same mix whatever the
seed.  The program sees only the drawn inputs, through its public entry
points ``cli.run_scan`` and ``cli.main``; calls go through the module
attribute so that a traced run sees its wrappers.

The host the benchmark was tuned on drifts in speed by about 20% over
minutes, and a fixed pure-Python loop slows down with it.  ``measure``
therefore times that loop (``calibrate``) before every call and after the
last, and gives every call a *reference time*: its time scaled by
``CAL_REF_S`` over the median loop time around it.  That is the time the
call would take on a host where the loop takes ``CAL_REF_S``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

WORKLOADS = ("scan", "scan_j2", "k0", "verify")
# workloads that draw windows from the scan pool and need its reference
SCAN_WORKLOADS = ("scan", "scan_j2")

# name of one work item and of one entry-point call, per workload
UNITS = {
    "scan": ("discs", "window"),
    "scan_j2": ("discs", "window"),
    "k0": ("fields", "field"),
    "verify": ("samples", "field"),
}

VERIFY_BOOLEANS = ("i_after_boundary_trivial", "mu_after_i_trivial",
                   "boundary_after_mu1_trivial", "boundary_is_homomorphism",
                   "constructive_kernel")


def load_pools() -> dict:
    with open(os.path.join(DATA, "pools.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict:
    """The pinned scan CSV's header, the reference window width and, per
    window start, the window's (row count, digest of its lines); see
    ``make_reference.py``."""
    with open(os.path.join(DATA, "scan_reference.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    return {"header": doc["header"], "window_width": doc["window_width"],
            "windows": {int(lo): tuple(v)
                        for lo, v in doc["windows"].items()}}


def scan_windows(starts: list[int], block_width: int,
                 width: int) -> list[tuple[int, int]]:
    """(lo, hi) of every ``width``-wide window of the blocks at
    ``starts``."""
    return [(s + k, s + k + width - 1) for s in starts
            for k in range(0, block_width, width)]


def window_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# host-speed calibration

# the reference host: one ``calibrate`` loop takes this many seconds
CAL_REF_S = 0.005
CAL_LOOP = 60_000


def calibrate() -> float:
    """Seconds one fixed pure-Python integer loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def host_factors(cals: list[float]) -> list[float]:
    """Per call, ``CAL_REF_S`` over the median of the six calibrations
    nearest to it; ``cals[i]`` ran before call ``i`` and the last one after
    the last call."""
    return [CAL_REF_S / statistics.median(cals[max(0, i - 2):i + 4])
            for i in range(len(cals) - 1)]


# ---------------------------------------------------------------------------
# plans

def rounds(workload: str, seed: int, pools: dict):
    """Endless rounds of call specs for one workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in SCAN_WORKLOADS:
        # the blocks are the scan pool's; width and draws the workload's own
        blocks = pools["scan"]
        own = pools[workload]
        bins = [scan_windows(starts, blocks["block_width"],
                             own["window_width"])
                for starts in blocks["blocks"]]
        while True:
            rnd = [("scan", lo, hi, own["jobs"]) for windows in bins
                   for lo, hi in rng.sample(windows, own["windows_per_bin"])]
            rng.shuffle(rnd)
            yield rnd
    elif workload == "k0":
        strata = pools["k0"]["strata"]
        while True:
            rnd = [("k0", *f) for s in strata
                   for f in rng.sample(s["fields"], s["draws"])]
            rng.shuffle(rnd)
            yield rnd
    elif workload == "verify":
        ver = pools["verify"]
        while True:
            rnd = [("verify", d, ver["samples"], rng.randrange(1 << 30))
                   for d in ver["fields"]
                   for _ in range(ver["calls_per_field"])]
            rng.shuffle(rnd)
            yield rnd
    else:
        raise ValueError(f"unknown workload {workload!r}")


def trace_plan(workload: str, seed: int, pools: dict) -> list[tuple]:
    """The calls a traced run makes: the first ``trace_calls`` of the
    workload's first round, so the same on every host and commit."""
    return next(rounds(workload, seed, pools))[:pools[workload]["trace_calls"]]


# ---------------------------------------------------------------------------
# calls and checks

@dataclass
class CallResult:
    spec: tuple
    seconds: float
    items: int
    failed: int
    error: str = ""
    # ``seconds`` at the reference host speed; set by ``measure``
    ref_seconds: float = 0.0


def _main(argv: list[str]) -> tuple[int, str]:
    from qknorm import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_call(spec: tuple, reference: dict | None) -> CallResult:
    """Run one entry-point call, time it, and check its output.

    An exception from the call or from the check of its output fails every
    item of the call.
    """
    from qknorm import cli

    kind = spec[0]
    if kind == "scan":
        _, lo, hi, jobs = spec
        width = reference["window_width"]
        items = sum(reference["windows"][w][0]
                    for w in range(lo, hi + 1, width))

        def call():
            return cli.run_scan(cli.ScanConfig(min=lo, max=hi, jobs=jobs))[0]

        def check(rows):
            return _scan_error(rows, reference, lo, hi)
    else:
        if kind == "k0":
            _, disc, h = spec
            argv = ["k0", "--disc", str(disc)]
            items = 1
        else:
            _, disc, samples, vseed = spec
            argv = ["verify", "--disc", str(disc), "--samples", str(samples),
                    "--seed", str(vseed)]
            items = samples

        def call():
            return _main(argv)

        def check(out):
            return (_k0_error(*out, h) if kind == "k0"
                    else _verify_error(*out, samples))
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:
        return CallResult(spec, time.perf_counter() - start, items, items,
                          repr(exc))
    seconds = time.perf_counter() - start
    try:
        error = check(out)
    except Exception as exc:  # malformed output
        error = f"check raised {exc!r}"
    return CallResult(spec, seconds, items, items if error else 0, error)


def _scan_error(rows: list[dict], reference: dict, lo: int, hi: int) -> str:
    """Why the rows of the scan of ``lo..hi`` are wrong, or ""."""
    bad = [r["delta"] for r in rows
           if (r["verdict_69"], r["verdict_67"], r["verdict_68"])
           != ("true",) * 3]
    if bad:
        return f"verdicts not all true at delta {', '.join(bad)}"
    if rows and ",".join(rows[0]) != reference["header"]:
        return "columns differ from the reference header"
    width = reference["window_width"]
    expected = 0
    for start in range(lo, hi + 1, width):
        count, digest = reference["windows"][start]
        expected += count
        part = [",".join(r.values()) for r in rows
                if start <= int(r["delta"]) < start + width]
        if window_digest(part) != digest:
            return f"rows of {start}..{start + width - 1} differ from the " \
                   "reference lines"
    if len(rows) != expected:
        return f"{len(rows)} rows, reference has {expected}"
    return ""


def _k0_error(rc: int, text: str, h: int) -> str:
    if rc != 0:
        return f"exit {rc}"
    doc = json.loads(text)
    if doc["exact"] != "true":
        return "exact is false"
    if int(doc["h"]) != h:
        return f"h = {doc['h']}, pool says {h}"
    if int(doc["k0_order"]) != int(doc["h0_units_order"]) * h:
        return f"k0_order {doc['k0_order']} != h0 * h"
    return ""


def _verify_error(rc: int, text: str, samples: int) -> str:
    if rc != 0:
        return f"exit {rc}"
    doc = json.loads(text)
    if doc["samples"] != str(samples):
        return f"samples = {doc['samples']}"
    bad = [k for k in VERIFY_BOOLEANS if doc[k] != "true"]
    return f"false: {', '.join(bad)}" if bad else ""


def measure(workload: str, seed: int, seconds: float, pools: dict,
            reference: dict | None) -> list[CallResult]:
    """Whole rounds until at least ``seconds`` of calls have run, with a
    calibration before every call and after the last."""
    results: list[CallResult] = []
    cals: list[float] = []
    plan = rounds(workload, seed, pools)
    while sum(r.seconds for r in results) < seconds:
        for spec in next(plan):
            cals.append(calibrate())
            results.append(run_call(spec, reference))
    cals.append(calibrate())
    for r, factor in zip(results, host_factors(cals)):
        r.ref_seconds = r.seconds * factor
    return results


def warm_up(workload: str) -> None:
    """One small call per path the workload takes, outside the timing."""
    from qknorm import cli

    if workload in SCAN_WORKLOADS:
        jobs = 2 if workload == "scan_j2" else 1
        cli.run_scan(cli.ScanConfig(min=-151, max=150, jobs=jobs))
    elif workload == "k0":
        _main(["k0", "--disc", "-23"])
        _main(["k0", "--disc", "229"])
    else:
        _main(["verify", "--disc", "-23", "--samples", "2", "--seed", "0"])
