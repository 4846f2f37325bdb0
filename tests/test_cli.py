import csv
import io
import json
import multiprocessing
import subprocess
import sys

import pytest

from qknorm import classgroup, cli, ideals, knorm, mv
from qknorm.cli import (EXIT_OK, EXIT_USAGE, ScanConfig, ScanConfigError,
                        fundamental_range, main, run_scan)
from qknorm.quadfield import make_discriminant
from qknorm.units import fundamental_unit

from helpers import scan_row


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classgroup_json(capsys):
    code, out = _run(capsys, ["classgroup", "--disc", "-23"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["h"] == "3" and doc["rank2"] == "0"
    assert doc["delta"] == "-23"


def test_classgroup_real(capsys):
    code, out = _run(capsys, ["classgroup", "--disc", "12"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["h"] == "1" and doc["eps_norm"] == "1"


def test_classgroup_real_generators(capsys):
    # a real class's generator is the ideal of its key: the least form
    # with a > 0 on its rho-cycle, here (2, 4, -3)
    code, out = _run(capsys, ["classgroup", "--disc", "40"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["h"], doc["h_narrow"]) == ("2", "2")
    assert doc["generators"] == ["FracIdeal(1*[2, (0+sqrt(40))/2])"]


@pytest.mark.parametrize("command", ["classgroup", "k0"])
def test_csv_list_cells_split_on_semicolons(capsys, command):
    # a list cell joins its items with ';', which no item contains (a
    # generator's repr has spaces), so splitting it gives the JSON list back
    argv = [command, "--disc", "-84"]
    _, out_json = _run(capsys, argv)
    _, out_csv = _run(capsys, argv + ["--csv"])
    doc = json.loads(out_json)
    (row,) = csv.DictReader(io.StringIO(out_csv))
    lists = [k for k, v in doc.items() if isinstance(v, list)]
    assert lists and all(len(doc[k]) > 1 for k in lists)
    assert {k: row[k].split(";") for k in lists} == \
        {k: doc[k] for k in lists}
    assert {k: row[k] for k in doc if k not in lists} == \
        {k: doc[k] for k in doc if k not in lists}


def test_invalid_disc_usage_error(capsys):
    code, _ = _run(capsys, ["classgroup", "--disc", "45"])
    assert code == EXIT_USAGE


def test_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_is_built_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    first = _run(capsys, ["k0", "--disc", "-15"])
    with pytest.raises(SystemExit) as exc:
        main(["k0"])  # --disc is required
    assert exc.value.code == EXIT_USAGE
    assert "--disc" in capsys.readouterr().err
    assert main(["scan", "--min", "10", "--max", "5"]) == EXIT_USAGE
    capsys.readouterr()
    assert _run(capsys, ["k0", "--disc", "-15"]) == first
    assert first[0] == EXIT_OK and json.loads(first[1])["k0_order"] == "4"


def test_k0_report(capsys):
    code, out = _run(capsys, ["k0", "--disc", "-15"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["k0_order"] == "4" and doc["exact"] == "true"
    code, out = _run(capsys, ["k0", "--disc", "8"])
    assert json.loads(out)["k0_order"] == "1"


def test_scan_range(capsys):
    code, out = _run(capsys, ["scan", "--min", "-100", "--max", "100"])
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["verdict_69"] == "true" for r in rows)
    sixty = [r for r in rows if r["delta"] == "60"]
    assert sixty and sixty[0]["exceptional"] == "true"
    assert sixty[0]["rank2"] == "1"


def test_scan_empty_range(capsys):
    # a range without fundamental discriminants: the CSV is its header alone
    header = ",".join(cli.SCAN_COLUMNS) + "\r\n"
    for argv in (["--min", "2", "--max", "4"],
                 ["--csv", "--min", "2", "--max", "3"]):
        code, out = _run(capsys, ["scan", *argv])
        assert code == EXIT_OK
        assert out == header
    code, out = _run(capsys, ["scan", "--json", "--min", "2", "--max", "3"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["summary"]["count"] == "0" and doc["rows"] == []


def test_scan_json_csv_agree(capsys):
    code, out_csv = _run(capsys, ["scan", "--min", "-50", "--max", "50"])
    assert code == EXIT_OK
    code, out_json = _run(capsys,
                          ["scan", "--min", "-50", "--max", "50", "--json"])
    assert code == EXIT_OK
    rows_csv = list(csv.DictReader(io.StringIO(out_csv)))
    rows_json = json.loads(out_json)["rows"]
    assert rows_csv == rows_json
    # the rows of both signs follow the CSV header's column order
    assert out_csv.startswith(",".join(cli.SCAN_COLUMNS) + "\r\n")
    assert {r["eps_norm"] == "" for r in rows_json} == {True, False}
    assert all(tuple(r) == cli.SCAN_COLUMNS for r in rows_json)


def test_scan_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out = _run(capsys, ["scan", "--min", "-30", "--max", "30",
                              "--out", str(path)])
    assert code == EXIT_OK and out == ""
    rows = list(csv.DictReader(path.open()))
    assert rows and rows[0]["delta"] == "-24"


def test_verify_pass(capsys):
    code, out = _run(capsys, ["verify", "--disc", "-15",
                              "--samples", "40", "--seed", "42"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["constructive_kernel"] == "true"


def test_verify_seed_reproducible(capsys):
    _, out1 = _run(capsys, ["verify", "--disc", "60",
                            "--samples", "30", "--seed", "5"])
    _, out2 = _run(capsys, ["verify", "--disc", "60",
                            "--samples", "30", "--seed", "5"])
    assert out1 == out2


def test_verify_class_products_linear_in_h(capsys, monkeypatch):
    # the norm equation reads square roots from one table of h squares
    k0_context = knorm.k0_context
    products, groups = [0], []

    def counting_context(disc):
        ctx = k0_context(disc)
        mul = ctx.cg.mul

        def counted(k1, k2):
            products[0] += 1
            return mul(k1, k2)
        ctx.cg.mul = counted
        groups.append(ctx.cg)
        return ctx

    monkeypatch.setattr(knorm, "k0_context", counting_context)
    code, out = _run(capsys, ["verify", "--disc", "-85159",
                              "--samples", "80"])
    assert code == EXIT_OK
    assert json.loads(out)["constructive_kernel"] == "true"
    assert len(groups) == 1 and groups[0].h == 139
    assert products[0] <= groups[0].h


def test_verify_class_keys_linear_in_samples(capsys, monkeypatch):
    # k0_eq decides equal representatives without class keys, so the
    # homomorphism check costs none; the mu1 check keeps one per sample
    calls = [0]
    key = knorm.k0_key

    def counted(ctx, e):
        calls[0] += 1
        return key(ctx, e)

    monkeypatch.setattr(knorm, "k0_key", counted)
    monkeypatch.setattr(mv, "k0_key", counted)
    code, out = _run(capsys, ["verify", "--disc", "-23", "--samples", "80",
                              "--seed", "0"])
    assert code == EXIT_OK
    assert json.loads(out)["boundary_is_homomorphism"] == "true"
    assert calls[0] <= 80 + 20


def test_k0_key_reduces_once(capsys, monkeypatch):
    # the reduction that finds a class also gives its generator, so each
    # class lookup of k0 is one checked class_and_generator with one
    # reduction: one lookup per class pair of class_group's closure (about
    # h + r of them, h = 139 and r = 1 here), kept in a table; k0_group
    # presents K0 on the class group's basis, and at D < 0 it multiplies no
    # class pair, so it looks up only the keys of sigma(1) and sigma(-1)
    counts = {"command": 0, "k0_group": 0, "reductions": 0}
    in_group, in_lookup = [False], [False]
    reduce_t = classgroup.reduce_definite_t
    lookup = classgroup.ClassGroupData.class_and_generator
    group = knorm.k0_group

    def counted_reduce(f):
        counts["reductions"] += in_lookup[0]
        return reduce_t(f)

    def counted_lookup(self, i):
        counts["command"] += 1
        counts["k0_group"] += in_group[0]
        in_lookup[0] = True
        try:
            return lookup(self, i)
        finally:
            in_lookup[0] = False

    def counted_group(ctx):
        in_group[0] = True
        try:
            return group(ctx)
        finally:
            in_group[0] = False

    monkeypatch.setattr(classgroup, "reduce_definite_t", counted_reduce)
    monkeypatch.setattr(classgroup.ClassGroupData, "class_and_generator",
                        counted_lookup)
    monkeypatch.setattr(knorm, "k0_group", counted_group)
    code, out = _run(capsys, ["k0", "--disc", "-85159"])
    doc = json.loads(out)
    assert code == EXIT_OK and doc["k0_order"] == "278"
    h, r = int(doc["h"]), 1
    assert h <= counts["command"] <= h + r + 8
    assert counts["k0_group"] == 2
    assert 0 < counts["reductions"] <= counts["command"]


def test_k0_checks_generators_without_products(capsys, monkeypatch):
    # generators are checked by norm and membership, so the Hermite forms
    # of k0 are those of the class products alone (986 when each check was
    # an ideal product, 279 when class_group and the K0 closure multiplied
    # each class pair apart): one per class pair of class_group's closure,
    # about h + r (h = 139, r = 1); k0_group's presentation reads no class
    # product at D < 0, from the table or otherwise
    calls, products, in_group = [0, 0], [0], [False]
    hnf2 = ideals._hnf2
    product = classgroup.ClassGroupData.product
    group = knorm.k0_group

    def counted(vectors):
        calls[in_group[0]] += 1
        return hnf2(vectors)

    def counted_product(self, c1, c2):
        products[0] += in_group[0]
        return product(self, c1, c2)

    def counted_group(ctx):
        in_group[0] = True
        try:
            return group(ctx)
        finally:
            in_group[0] = False

    monkeypatch.setattr(ideals, "_hnf2", counted)
    monkeypatch.setattr(classgroup.ClassGroupData, "product",
                        counted_product)
    monkeypatch.setattr(knorm, "k0_group", counted_group)
    code, out = _run(capsys, ["k0", "--disc", "-85159"])
    assert code == EXIT_OK and json.loads(out)["k0_order"] == "278"
    assert 0 < calls[0] <= 139 + 1 + 8
    assert calls[1] == products[0] == 0


def test_fundamental_range_contents():
    rng = fundamental_range(-20, 20)
    assert set(rng) == {-20, -19, -15, -11, -8, -7, -4, -3, 5, 8, 12, 13, 17}


def test_run_scan_jobs_agree():
    cfg1 = ScanConfig(min=-3000, max=3000, jobs=1)
    cfg2 = ScanConfig(min=-3000, max=3000, jobs=2)
    rows1, sum1 = run_scan(cfg1)
    rows2, sum2 = run_scan(cfg2)
    assert rows1 == rows2 and sum1 == sum2


@pytest.mark.parametrize("lo,hi", [(-3000, 3000), (98500, 99500)])
def test_rows_do_not_depend_on_block_cuts(lo, hi, monkeypatch):
    whole, summary = run_scan(ScanConfig(min=lo, max=hi))
    assert whole == [scan_row(d) for d in fundamental_range(lo, hi)]
    # the same range as pieces split at odd offsets
    cuts = [lo, lo + 1, lo + 38, lo + 401, (lo + hi) // 2 | 1, hi - 2, hi + 1]
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        pieces += run_scan(ScanConfig(min=a, max=b - 1))[0]
    assert pieces == whole
    # and cut into blocks of odd widths
    for width in (7, 151):
        monkeypatch.setattr(cli, "BLOCK_WIDTH", width)
        assert run_scan(ScanConfig(min=lo, max=hi)) == (whole, summary)


@pytest.mark.parametrize("lo,hi,deltas", [
    (2, 3, []), (5, 5, [5]), (-4, -3, [-4, -3]),
    (-8, 8, [-8, -7, -4, -3, 5, 8])])
def test_scan_edge_ranges(lo, hi, deltas):
    for jobs in (1, 2):
        rows, summary = run_scan(ScanConfig(min=lo, max=hi, jobs=jobs))
        assert rows == [scan_row(d) for d in deltas]
        assert summary["count"] == str(len(deltas))


def test_jobs_clamped_to_cpus_and_blocks(monkeypatch):
    started = []

    def recorder(blocks, jobs):
        """Stands in for cli._scan_parallel and starts no process."""
        started.append(jobs)
        return map(cli.scan_block, blocks)

    monkeypatch.setattr(cli, "_scan_parallel", recorder)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    w = cli.BLOCK_WIDTH
    for blocks, want in ((3, [3]), (10, [4]), (1, [])):
        started.clear()
        cfg = ScanConfig(min=1000, max=1000 + blocks * w - 1, jobs=64)
        rows = run_scan(cfg)[0]
        assert started == want, blocks
        assert rows == run_scan(ScanConfig(min=cfg.min, max=cfg.max))[0]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    started.clear()
    run_scan(ScanConfig(min=1000, max=1000 + 3 * w - 1, jobs=64))
    assert started == []

    # one job needs no CPU count, so a one-job scan does not ask for it
    def unreachable():
        raise AssertionError("os.cpu_count called at one job")

    monkeypatch.setattr(cli.os, "cpu_count", unreachable)
    rows = run_scan(ScanConfig(min=1000, max=1000 + 3 * w - 1))[0]
    assert started == [] and rows


def test_scan_leaves_no_process_behind(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    w = cli.BLOCK_WIDTH
    cfg = ScanConfig(min=-4 * w, max=-1, jobs=2)
    rows = run_scan(cfg)[0]
    assert rows == run_scan(ScanConfig(min=cfg.min, max=cfg.max))[0]
    assert multiprocessing.active_children() == []
    # the second block is the first of the worker's stripe; the fork
    # inherits the patched scan_block
    scan_block = cli.scan_block

    def failing(bounds):
        if bounds[0] >= cfg.min + w:
            raise ValueError(f"block {bounds[0]}")
        return scan_block(bounds)

    monkeypatch.setattr(cli, "scan_block", failing)
    with pytest.raises(ValueError, match=f"block {cfg.min + w}$"):
        run_scan(cfg)
    assert multiprocessing.active_children() == []


def test_scan_eps_norm_matches_fundamental_unit():
    # scan rows read N(eps) off h_narrow = h instead of computing eps
    for delta in fundamental_range(1, 20000):
        want = fundamental_unit(make_discriminant(delta)).eps_norm
        assert scan_row(delta)["eps_norm"] == str(want), delta


def _loaded_after(src_env, calls, module):
    """Run the CLI calls in a fresh interpreter; "True" or "False" for
    whether ``module`` was imported."""
    code = ("import contextlib, io, sys\n"
            "from qknorm.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            + "".join(f"    assert main({argv!r}) == 0\n" for argv in calls)
            + f"print({module!r} in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_reports_do_not_import_numpy(src_env):
    # numpy is for the scan only; a k0, classgroup or verify report must not
    # pay its import and memory (verify imports mv, whose genus engine
    # imports the scan's kernels on its first call)
    calls = [["k0", "--disc", "229"], ["classgroup", "--disc", "229"],
             ["verify", "--disc", "-23", "--samples", "2"]]
    assert _loaded_after(src_env, calls, "numpy") == "False"


def test_numpy_is_imported_by_scancounts_only():
    # one module holds the scan's numpy code and imports numpy once, at its
    # top; every other module, the sieve included, is plain Python
    import ast
    from pathlib import Path

    importers = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append((path.name, id(node) in top))
    assert importers == [("scancounts.py", True)]


# the asserts left in src/; a check that must hold under -O raises a named
# error instead, so this bound may only go down
ASSERT_BOUND = 6


def test_asserts_in_src_do_not_grow():
    import ast
    from pathlib import Path

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert len(found) <= ASSERT_BOUND, found


def test_sieve_does_not_import_numpy(src_env):
    code = ("import sys\n"
            "from qknorm.quadfield import fundamental_discriminants\n"
            "assert len(fundamental_discriminants(-1000, 1000)) == 607\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_reports_do_not_import_multiprocessing(src_env):
    # only run_scan at more than one job forks stripe workers
    calls = [["k0", "--disc", "-23"],
             ["verify", "--disc", "-23", "--samples", "2"]]
    assert _loaded_after(src_env, calls, "multiprocessing") == "False"


def test_reports_do_not_import_sympy(src_env):
    # the runtime is plain ints (qknorm.arith); sympy is a test reference
    calls = [["k0", "--disc", "-85159"], ["classgroup", "--disc", "229"],
             ["verify", "--disc", "-15", "--samples", "2"]]
    assert _loaded_after(src_env, calls, "sympy") == "False"


def test_runtime_dependencies_do_not_name_sympy():
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    test = re.search(r"^test = \[(.*?)\]", text, re.M | re.S)
    assert deps and test
    assert "sympy" not in deps.group(1).lower()
    assert '"sympy' in test.group(1)


def test_scan_config_validation():
    with pytest.raises(ScanConfigError):
        ScanConfig(min=5, max=1)
    with pytest.raises(ScanConfigError):
        ScanConfig(min=0, max=1, jobs=0)


def test_verify_negative_samples_usage_error(capsys):
    for samples in ("-3", "0"):
        code = main(["verify", "--disc", "60", "--samples", samples])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("argv", [
    ["scan", "--min", "10", "--max", "5"],
    ["verify", "--disc", "60", "--samples", "-3"],
    ["verify", "--disc", "60", "--samples", "0"],
])
def test_usage_errors_survive_optimize(argv, src_env):
    # under -O every assert is stripped, so input checks must not be asserts
    proc = subprocess.run([sys.executable, "-O", "-m", "qknorm.cli", *argv],
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == "" and "error:" in proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("argv", [
    ["k0", "--disc", "-23"],
    ["classgroup", "--disc", "40", "--csv"],
    ["scan", "--min", "-20", "--max", "20"],
    ["verify", "--disc", "-23", "--samples", "2"],
])
def test_unwritable_out_is_a_usage_error(argv, flags, src_env, tmp_path):
    # a missing directory and a directory in place of the file
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "qknorm.cli", *argv, "--out",
             str(out)], capture_output=True, text=True, env=src_env,
            timeout=120)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot write --out {out}: ")
        assert "Traceback" not in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == []
