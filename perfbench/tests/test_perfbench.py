"""Tests of the benchmark itself: seeded inputs, output checks, the tracer.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import layertrace
import run
import workloads
from conftest import BENCH, ROOT
from qknorm import cli
from qknorm.ideals import FracIdeal
from qknorm.quadfield import is_fundamental


@pytest.fixture(scope="module")
def pools():
    return workloads.load_pools()


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _first_rounds(workload, seed, pools, k=3):
    return list(itertools.islice(workloads.rounds(workload, seed, pools), k))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(workload, pools):
    assert _first_rounds(workload, 7, pools) == \
        _first_rounds(workload, 7, pools)
    assert _first_rounds(workload, 7, pools) != \
        _first_rounds(workload, 8, pools)


@pytest.mark.parametrize("workload", workloads.SCAN_WORKLOADS)
def test_windows_come_from_the_scan_blocks(workload, pools):
    scan, own = pools["scan"], pools[workload]
    blocks = [(s, s + scan["block_width"] - 1) for b in scan["blocks"]
              for s in b]
    for rnd in _first_rounds(workload, 3, pools):
        assert len(rnd) == len(set(rnd)) == \
            own["windows_per_bin"] * len(scan["blocks"])
        for kind, lo, hi, jobs in rnd:
            assert (kind, hi - lo + 1, jobs) == \
                ("scan", own["window_width"], own["jobs"])
            assert any(a <= lo and hi <= b for a, b in blocks)


def test_fields_come_from_the_pools(pools):
    k0 = pools["k0"]
    stratum_of = {tuple(f): i for i, st in enumerate(k0["strata"])
                  for f in st["fields"]}
    for rnd in _first_rounds("k0", 3, pools):
        assert len(set(rnd)) == len(rnd)
        assert sorted(stratum_of[spec[1:]] for spec in rnd) == [
            i for i, st in enumerate(k0["strata"]) for _ in range(st["draws"])]
    ver = pools["verify"]
    for rnd in _first_rounds("verify", 3, pools):
        assert sorted(spec[1] for spec in rnd) == \
            sorted(ver["fields"] * ver["calls_per_field"])


def test_reference_covers_every_pool_window(pools, reference):
    scan = pools["scan"]
    windows = workloads.scan_windows(
        [s for b in scan["blocks"] for s in b], scan["block_width"],
        scan["window_width"])
    assert sorted(reference["windows"]) == sorted(lo for lo, _ in windows)
    for lo, hi in windows[::7]:
        want = sum(1 for d in range(lo, hi + 1) if is_fundamental(d))
        assert reference["windows"][lo][0] == want


def test_checks_catch_wrong_outputs(reference):
    lo, hi = -97700, -97101
    rows, _ = cli.run_scan(cli.ScanConfig(min=lo, max=hi))
    assert workloads._scan_error(rows, reference, lo, hi) == ""
    wrong_h = [dict(rows[0], h=str(int(rows[0]["h"]) + 1))] + rows[1:]
    false_verdict = [dict(rows[0], verdict_67="false")] + rows[1:]
    for bad in (wrong_h, false_verdict, rows[:-1], rows + rows[-1:]):
        assert workloads._scan_error(bad, reference, lo, hi)
    k0 = json.dumps({"h": "3", "h0_units_order": "1", "k0_order": "3",
                     "exact": "true"})
    assert workloads._k0_error(0, k0, 3) == ""
    assert workloads._k0_error(0, k0, 5)
    assert workloads._k0_error(1, k0, 3)


@pytest.mark.parametrize("text", ["not json", "{}", '{"samples": "3"}'])
def test_malformed_output_is_a_failure(monkeypatch, text):
    monkeypatch.setattr(workloads, "_main", lambda argv: (0, text))
    for spec, items in ((("k0", -23, 3), 1), (("verify", -23, 3, 1), 3)):
        result = workloads.run_call(spec, None)
        assert (result.items, result.failed) == (items, items)
        assert result.error.startswith("check raised")


def test_host_factors_scale_by_the_nearby_calibrations():
    cals = [0.01] * 5 + [0.02] * 6
    factors = workloads.host_factors(cals)
    assert len(factors) == len(cals) - 1
    assert factors[0] == workloads.CAL_REF_S / 0.01
    assert factors[-1] == workloads.CAL_REF_S / 0.02
    assert factors == sorted(factors, reverse=True)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    pct, value = run.tail([float(v) for v in range(1, 41)])
    assert (pct, value) == (75.0, 30.0)
    assert run.tail([2.0, 1.0]) == (100.0, 2.0)


def _qknorm_bindings():
    mods = layertrace._qknorm_modules()
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out[("FracIdeal", "__mul__")] = FracIdeal.__dict__["__mul__"]
    return out


def _small_calls(reference):
    specs = [("scan", -89700, -89401, 1), ("k0", -23, 3),
             ("k0", 229, 3), ("verify", -23, 3, 1)]
    return [workloads.run_call(s, reference) for s in specs]


def test_traced_run_restores_every_name(reference):
    before = _qknorm_bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        from qknorm import local, mv
        import qknorm

        # one wrapper in every module that imported the name
        assert mv.genus_char_space is local.genus_char_space
        assert qknorm.genus_char_space is local.genus_char_space
        assert mv.genus_char_space is not \
            before[("qknorm.local", "genus_char_space")]
        results = _small_calls(reference)
    finally:
        tracer.restore()
    assert all(r.failed == 0 for r in results), results
    after = _qknorm_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert tracer.totals()["cli.main"][0] == 3


def test_self_times_fit_in_the_traced_wall_time(reference):
    tracer = layertrace.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        _small_calls(reference)
    finally:
        wall = time.perf_counter() - start
        tracer.restore()
    assert 0 < sum(t[1] for t in tracer.totals().values()) <= wall
    for _, name, s, e, parent, self_s in tracer.spans:
        assert 0 <= self_s <= e - s
    metrics = tracer.layer_metrics()
    assert metrics["knorm.k0_context.per_field"]["value"] == 2
    assert metrics["local.hilbert_symbol.per_genus_call"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_plan_is_fixed_by_the_seed(workload, pools):
    plan = workloads.trace_plan(workload, 5, pools)
    assert len(plan) == pools[workload]["trace_calls"]
    assert plan == _first_rounds(workload, 5, pools, k=1)[0][:len(plan)]


def test_traced_counts_are_the_same_on_every_run(pools, reference):
    small = dict(pools, verify=dict(pools["verify"], trace_calls=2))
    first, second = (run.traced("verify", 9, small, reference)[1]
                     for _ in range(2))
    calls = {k: v for k, v in first.items() if k.endswith(".calls")}
    assert calls["cli.main.calls"]["value"] == 2
    assert calls == {k: second[k] for k in calls}


def test_metric_names_match_benchmark_json(benchmark_json):
    per_layer = [m["name"] for m in benchmark_json["per_layer"]]
    assert per_layer == list(layertrace.Tracer().layer_metrics()) + \
        ["trace.overhead_frac"]
    assert [w["name"] for w in benchmark_json["workloads"]] == \
        list(workloads.WORKLOADS)


def test_untraced_run_never_imports_the_wrappers(benchmark_json):
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "import run\n"
        "run.main(['--workload', 'verify', '--seed', '3', '--seconds', "
        "'0.1', '--trace', '0'])\n"
        "assert 'layertrace' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    assert sorted(doc["metrics"]) == \
        sorted(m["name"] for m in benchmark_json["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
