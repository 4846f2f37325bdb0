import csv
import io
import json
import multiprocessing
import subprocess
import sys

import pytest

from qknorm import cli, knorm, mv
from qknorm.cli import (EXIT_OK, EXIT_USAGE, EXIT_VERDICT, ScanConfig,
                        ScanConfigError, fundamental_range, main, run_scan,
                        scan_row)
from qknorm.quadfield import make_discriminant
from qknorm.units import fundamental_unit


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
    code, out = _run(capsys, ["scan", "--min", "2", "--max", "4"])
    assert code == EXIT_OK
    assert out.strip() == ""


def test_scan_json_csv_agree(capsys):
    code, out_csv = _run(capsys, ["scan", "--min", "-50", "--max", "50"])
    assert code == EXIT_OK
    code, out_json = _run(capsys,
                          ["scan", "--min", "-50", "--max", "50", "--json"])
    assert code == EXIT_OK
    rows_csv = list(csv.DictReader(io.StringIO(out_csv)))
    rows_json = json.loads(out_json)["rows"]
    assert rows_csv == rows_json


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
        mul = ctx.cg._mul

        def counted(k1, k2):
            products[0] += 1
            return mul(k1, k2)
        ctx.cg._mul = counted
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
    # numpy is for the scan only; a k0 or classgroup report must not pay
    # its import and memory
    calls = [["k0", "--disc", "229"], ["classgroup", "--disc", "229"]]
    assert _loaded_after(src_env, calls, "numpy") == "False"


def test_reports_do_not_import_multiprocessing(src_env):
    # only run_scan at more than one job starts a Pool
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


# the constructive-kernel preimages are built from split-prime pairs; with
# every pair replaced by the identity idele, no preimage maps back
BROKEN_PREIMAGES = (
    "import sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "mv.split_pair_idele = lambda disc, p, u: mv.IdeleFS.one(disc)\n"
    "sys.exit(main(['verify', '--disc', '-23', '--samples', '5']))\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_broken_kernel_preimage_fails_verify(flags, src_env):
    proc = subprocess.run([sys.executable, *flags, "-c", BROKEN_PREIMAGES],
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == EXIT_VERDICT, proc.stderr
    assert json.loads(proc.stdout)["constructive_kernel"] == "false"
    assert "constructive_kernel: D = -23" in proc.stderr


# boundary_after_mu1_trivial reads the boundary of the diagonal idele of a
# norm-one w over a unit idele, which is the class of w*O; a boundary that
# flips the sign of every class off O_F must turn it false
BROKEN_BOUNDARY = (
    "import sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "from qknorm.knorm import K0Elt\n"
    "boundary = mv.boundary\n"
    "def flipped(z):\n"
    "    e = boundary(z)\n"
    "    return e if e.ideal.is_unit_ideal() else K0Elt(-1, e.ideal)\n"
    "mv.boundary = flipped\n"
    "sys.exit(max(main(['verify', '--disc', d, '--samples', '20', '--csv'])\n"
    "             for d in ('-23', '60')))\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_broken_boundary_fails_mu1_check(flags, src_env):
    proc = subprocess.run([sys.executable, *flags, "-c", BROKEN_BOUNDARY],
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == EXIT_VERDICT, proc.stderr
    lines = proc.stdout.splitlines()  # a header and a row per call
    rows = [dict(zip(lines[i].split(","), lines[i + 1].split(",")))
            for i in (0, 2)]
    assert [r["delta"] for r in rows] == ["-23", "60"]
    assert all(r["boundary_after_mu1_trivial"] == "false" for r in rows)


# boundary_is_homomorphism compares boundary(z * z2) with the product of
# the boundaries; a boundary that keeps norm one but drops every idele with
# components above two or more rational primes is not multiplicative, and
# the representatives it gives differ, so k0_eq must compare their classes
NONMULTIPLICATIVE_BOUNDARY = (
    "import sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "from qknorm.knorm import k0_identity\n"
    "boundary = mv.boundary\n"
    "def local_only(z):\n"
    "    if len(z.support_primes()) > 1:\n"
    "        return k0_identity(z.disc)\n"
    "    return boundary(z)\n"
    "mv.boundary = local_only\n"
    "sys.exit(main(['verify', '--disc', '-23', '--samples', '80', '--csv']))\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_nonmultiplicative_boundary_fails_homomorphism(flags, src_env):
    proc = subprocess.run([sys.executable, *flags, "-c",
                           NONMULTIPLICATIVE_BOUNDARY],
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == EXIT_VERDICT, proc.stderr
    header, row = proc.stdout.splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert row["delta"] == "-23"
    assert row["boundary_is_homomorphism"] == "false"


# a unit idele with a single irrational component above the split 2 of -15
# has no rational idele norm; the explicit check must stop verify also
# under -O, where the old assert vanished
LOPSIDED_UNIT_IDELE = (
    "import sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "from qknorm.quadfield import QuadNum\n"
    "def lopsided(disc, rng, primes=None):\n"
    "    pid = mv.primes_above(disc, 2).primes[0]\n"
    "    return mv.IdeleFS({pid: QuadNum(1, 1, 1, disc)}, disc)\n"
    "mv.random_unit_idele = lopsided\n"
    "sys.exit(main(['verify', '--disc', '-15', '--samples', '5']))\n")


def test_idele_norm_check_survives_optimize(src_env):
    proc = subprocess.run([sys.executable, "-O", "-c", LOPSIDED_UNIT_IDELE],
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == EXIT_VERDICT, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "verify: idele_norm: D = -15: the components above the split prime "
        "2 have no rational joint image"), proc.stderr
    assert "Traceback" not in proc.stderr


# K0 classes are keyed through principal generators; a read-off that returns
# 2z names an ideal of four times the norm, which the generator check catches
BROKEN_GENERATORS = (
    "import sys\n"
    "import qknorm.classgroup as cg\n"
    "from qknorm.cli import main\n"
    "read_off = cg._generator_from_transform\n"
    "cg._generator_from_transform = lambda *a: 2 * read_off(*a)\n"
    "codes = [main(['k0', '--disc', '-23']),\n"
    "         main(['verify', '--disc', '-23', '--samples', '5'])]\n"
    "print(*codes)\n"
    "sys.exit(max(codes))\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_broken_generator_fails_k0_and_verify(flags, src_env):
    proc = subprocess.run([sys.executable, *flags, "-c", BROKEN_GENERATORS],
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == EXIT_VERDICT, proc.stderr
    assert proc.stdout.split() == [str(EXIT_VERDICT)] * 2
    for command in ("k0", "verify"):
        assert f"{command}: principal_generator: D = -23: " in proc.stderr


def _capped_scan(lo, hi, jobs):
    """A scan of lo..hi with no split prime allowed for any genus space; at
    two jobs on two CPUs, so that a worker takes every other block."""
    return ("import os, sys\n"
            "import qknorm.local as local\n"
            "from qknorm.cli import main\n"
            "local._SPLIT_PRIME_CAP = 0\n"
            "os.cpu_count = lambda: 2\n"
            f"sys.exit(main(['scan', '--min', '{lo}', '--max', '{hi}', "
            f"'--jobs', '{jobs}']))\n")


# a cap or budget hit leaves the verdict open: no split prime allowed for
# the genus space of -56 in the scan, and a K0 closure budget of two classes;
# over several blocks the first failure in block order is the one reported,
# at any job count
INCONCLUSIVE = {
    "scan": (
        [_capped_scan(-60, -50, 1)],
        "scan: inconclusive: genus character space of Discriminant(-56)"),
    "scan_blocks": (
        [_capped_scan(-1200, -50, jobs) for jobs in (1, 2)],
        "scan: inconclusive: genus character space of Discriminant(-1195)"),
    "k0": (
        ["import sys\n"
         "import qknorm.knorm as knorm\n"
         "from qknorm.cli import main\n"
         "knorm.k0_group.__defaults__ = (2,)\n"
         "sys.exit(main(['k0', '--disc', '-23']))\n"],
        "k0: inconclusive: more than 2 classes generated"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("command", sorted(INCONCLUSIVE))
def test_cap_hit_is_inconclusive(command, flags, src_env):
    codes, message = INCONCLUSIVE[command]
    stderrs = []
    for code in codes:
        proc = subprocess.run([sys.executable, *flags, "-c", code],
                              capture_output=True, text=True, env=src_env,
                              timeout=120)
        assert proc.returncode == EXIT_VERDICT, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith(message), proc.stderr
        assert "Traceback" not in proc.stderr
        stderrs.append(proc.stderr)
    assert stderrs == stderrs[:1] * len(codes)


# a stripe worker that dies inside a block must fail the scan, not hang it
DYING_WORKER = (
    "import os, sys\n"
    "from qknorm import cli\n"
    "parent = os.getpid()\n"
    "scan_block = cli.scan_block\n"
    "def dying(bounds):\n"
    "    if os.getpid() != parent:\n"
    "        os._exit(3)\n"
    "    return scan_block(bounds)\n"
    "cli.scan_block = dying\n"
    "os.cpu_count = lambda: 2\n"
    "sys.exit(cli.main(['scan', '--min', '-1200', '--max', '-1', "
    "'--jobs', '2']))\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_dead_worker_fails_scan(flags, src_env):
    proc = subprocess.run([sys.executable, *flags, "-c", DYING_WORKER],
                          capture_output=True, text=True, env=src_env,
                          timeout=60)
    assert proc.returncode == EXIT_VERDICT, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("scan: stripe worker 1 ended with exit code 3 "
                           "before sending the rows of -1050..-901\n")


# a fault patched before the scan reaches the forked workers: a genus space
# one dimension too large fails verdict (67) on every row at any job count
WIDE_GENUS_SPACE = (
    "import os, sys\n"
    "import qknorm.mv as mv\n"
    "from qknorm.cli import main\n"
    "from types import SimpleNamespace\n"
    "space = mv.genus_char_space\n"
    "mv.genus_char_space = lambda d: SimpleNamespace(dim=space(d).dim + 1)\n"
    "os.cpu_count = lambda: 2\n"
    "sys.exit(main(['scan', '--min', '-1200', '--max', '1200', "
    "'--jobs', sys.argv[1]]))\n")


def test_patched_fault_reaches_workers(src_env):
    outs = []
    for jobs in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", WIDE_GENUS_SPACE, jobs],
                              capture_output=True, text=True, env=src_env,
                              timeout=120)
        assert proc.returncode == EXIT_VERDICT, proc.stderr
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 729
        assert all(r["verdict_67"] == "false" for r in rows)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
