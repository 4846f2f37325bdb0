"""qknorm benchmark: one workload, one seed, printed as one JSON line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 18 --trace 0

Run it from the root of a checkout; it imports ``qknorm`` from ``src/``.
Workloads: ``scan`` and ``scan_j2`` (``cli.run_scan`` at one and two jobs
over windows of the |delta| <= 10^5 range), ``k0`` and ``verify``
(``cli.main`` on fields drawn from fixed pools).  See
``perfbench/README.md``.

With ``--trace 0`` the run measures whole rounds of calls until ``--seconds``
of calls have run and reports the end-to-end metrics, with times at the
reference host speed (see ``workloads``).  With ``--trace 1`` it runs a
fixed plan of calls (the first ``trace_calls`` of the first round, sized to
take about ``--seconds`` in all) untraced, replays the same calls with the
per-layer wrappers of ``layertrace`` installed, and reports the per-layer
metrics and the tracing overhead.  Every output is checked; the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-up is timed this many times per run (once here, the rest in fresh
# interpreters) and reported as the median
SETUP_REPEATS = 5
# calibrations before and after each timed set-up
SETUP_CALS = 3


def set_up(workload: str) -> tuple[float, float, dict]:
    """Import the package, load the pools and warm the workload's path.

    Returns the set-up's seconds at the reference host speed, its measured
    seconds and the pools.
    """
    if not os.path.isfile(os.path.join(SRC, "qknorm", "__init__.py")):
        raise SystemExit(f"error: no qknorm package under {SRC}")
    cals = [workloads.calibrate() for _ in range(SETUP_CALS)]
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import qknorm.cli  # noqa: F401  (the import is part of set-up)

    pools = workloads.load_pools()
    workloads.warm_up(workload)
    seconds = time.perf_counter() - start
    cals += [workloads.calibrate() for _ in range(SETUP_CALS)]
    ref = seconds * workloads.CAL_REF_S / statistics.median(cals)
    return ref, seconds, pools


def setup_in_fresh_interpreter(workload: str) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    ref, seconds = proc.stdout.split()[-2:]
    return float(ref), float(seconds)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile that still has at least
    ten samples beyond it; the maximum (percentile 100) below 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(results, setup_s: float,
               rss_mb: float) -> tuple[dict, float]:
    """Metrics from the reference times of the calls."""
    busy = sum(r.ref_seconds for r in results)
    call_s = [r.ref_seconds for r in results]
    pct, tail_s = tail(call_s)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "items_per_s": {"value": sum(r.items for r in results) / busy,
                        "unit": "1/s"},
        "call_s_p50": {"value": statistics.median(call_s), "unit": "s"},
        "call_s_tail": {"value": tail_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }
    return metrics, pct


def report(workload: str, results, metrics: dict, pct: float | None,
           raw: dict | None = None) -> None:
    """Human-readable lines, under the names the README uses; ``raw`` holds
    figures as measured on this host, printed for information."""
    item, call = workloads.UNITS[workload]
    attempted = sum(r.items for r in results)
    failed = sum(r.failed for r in results)
    prefix = "scan" if workload in workloads.SCAN_WORKLOADS else workload
    alias = {"items_per_s": f"{prefix}.{item}_per_s",
             "call_s_p50": f"{prefix}.{call}_s_p50",
             "call_s_tail": f"{prefix}.{call}_s_tail"}
    print(f"# workload {workload}: {len(results)} {call} calls, "
          f"{attempted} {item}")
    for name, m in metrics.items():
        shown = alias.get(name, name)
        print(f"{shown:44s} {m['value']:.6g} {m['unit']}")
    if pct is not None:
        print(f"{'(tail percentile, samples)':44s} p{pct:.1f} of "
              f"{len(results)}")
    for name, (value, unit) in (raw or {}).items():
        print(f"{'(as measured) ' + name:44s} {value:.6g} {unit}")
    print(f"{'failed_frac':44s} {failed / attempted:.6g} ({failed} of "
          f"{attempted} {item})")
    for r in results:
        if r.failed:
            print(f"FAILED {r.spec}: {r.failed} {item} {r.error}")


def traced(workload: str, seed: int, pools, reference):
    """Untraced then traced run of the same fixed calls; per-layer
    metrics."""
    import layertrace

    plan = workloads.trace_plan(workload, seed, pools)
    plain = [workloads.run_call(spec, reference) for spec in plan]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with_trace = [workloads.run_call(spec, reference) for spec in plan]
    finally:
        tracer.restore()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace_{workload}.json"))
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in with_trace)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = {
        "value": (traced_s - plain_s) / plain_s, "unit": "ratio"}
    return plain + with_trace, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up once and print the seconds")
    args = parser.parse_args(argv)

    setup = set_up(args.workload)
    pools = setup[2]
    if args.setup_only:
        print(repr(setup[0]), repr(setup[1]))
        return 0
    # the harness's reference data is loaded outside the timed set-up
    reference = (workloads.load_reference()
                 if args.workload in workloads.SCAN_WORKLOADS else None)
    raw = None
    if args.trace:
        results, metrics = traced(args.workload, args.seed, pools, reference)
        pct = None
    else:
        results = workloads.measure(args.workload, args.seed, args.seconds,
                                    pools, reference)
        # the process plus its largest Pool child, before any set-up child
        rss_mb = sum(resource.getrusage(who).ru_maxrss for who in (
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
        setups = [setup[:2]] + [setup_in_fresh_interpreter(args.workload)
                                for _ in range(SETUP_REPEATS - 1)]
        metrics, pct = end_to_end(
            results, statistics.median(s[0] for s in setups), rss_mb)
        busy = sum(r.seconds for r in results)
        raw = {"items_per_s": (sum(r.items for r in results) / busy, "1/s"),
               "call_s_p50": (statistics.median(r.seconds for r in results),
                              "s"),
               "setup_s": (statistics.median(s[1] for s in setups), "s"),
               "host_slowdown": (busy / sum(r.ref_seconds for r in results),
                              "ratio")}
    report(args.workload, results, metrics, pct, raw)
    attempted = sum(r.items for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
