"""Command-line surface: class group and K0 reports, the discriminant scan,
and the sampled verification suite.

Exit codes: 0 all verdicts pass, 1 a mathematical verdict failed or could
not be reached (a cap was hit: "inconclusive"), 2 usage or input
error.  Integers are emitted as decimal strings in JSON and CSV so that
consumers with 64-bit parsers never overflow.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .classgroup import BLOCK_WIDTH, ClassGroupCheckError, \
    GeneratorCheckError, ScanCountError, block_counts, class_group
from .ideals import LatticeCheckError
from .knorm import bass_sequence_report
from .local import SplitPrimeCapExceeded
from .mv import IdeleCheckError, NormKernelViolation, NotInNormKernel, \
    genus_engine, sampled_exactness
from .quadfield import NotFundamental, fundamental_discriminants, \
    make_discriminant
from .units import fundamental_unit

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2


_BOOL = {True: "true", False: "false"}


class OutputPathError(ValueError):
    """An --out path that cannot be written: a usage error."""


def _s(v: int) -> str:
    """Stringify report values: ints as decimal strings, bools as true/false."""
    return _BOOL[v] if isinstance(v, bool) else str(v)


def _emit(doc: dict, fmt: str, out_path: str | None,
          columns: tuple[str, ...] | None = None) -> None:
    """Write ``doc`` as JSON, or as CSV: with ``columns``, the rows of
    ``doc["rows"]`` under that header, which is written even when there are
    no rows; without, ``doc`` as one row."""
    if fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        if columns is None:
            # flatten list-valued fields to semicolon-joined cells
            rows = [{k: ";".join(v) if isinstance(v, list) else v
                     for k, v in doc.items()}]
            columns = list(doc)
        else:
            rows = doc["rows"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputPathError(
                f"cannot write --out {out_path}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _parse_disc(n: int):
    try:
        return make_discriminant(n)
    except NotFundamental as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_classgroup(args) -> int:
    disc = _parse_disc(args.disc)
    if disc is None:
        return EXIT_USAGE
    cg = class_group(disc)
    units = fundamental_unit(disc)
    doc = {
        "delta": _s(disc.delta),
        "h": _s(cg.h),
        "h_narrow": _s(cg.h_narrow),
        "divisors": [_s(d) for d in cg.divisors],
        "rank2": _s(cg.rank2),
        "generators": [repr(g) for g in cg.generators],
        "eps": "" if units.eps is None else repr(units.eps),
        "eps_norm": _s(units.eps_norm) if units.eps is not None else "",
        "torsion_order": _s(units.torsion_order),
        "h0_units_order": _s(units.h0_units_order),
    }
    _emit(doc, args.fmt, args.out)
    return EXIT_OK


def cmd_k0(args) -> int:
    disc = _parse_disc(args.disc)
    if disc is None:
        return EXIT_USAGE
    report = bass_sequence_report(disc)
    ctx = report.group.ctx
    doc = {
        "delta": _s(disc.delta),
        "h0_units_order": _s(ctx.units.h0_units_order),
        "h": _s(ctx.cg.h),
        "k0_order": _s(report.order),
        "k0_divisors": [_s(d) for d in report.group.divisors],
        "sigma_injective": _s(report.sigma_injective),
        "kernel_rho_is_image_sigma": _s(report.kernel_rho_is_image_sigma),
        "rho_surjective": _s(report.rho_surjective),
        "exact": _s(report.exact),
    }
    _emit(doc, args.fmt, args.out)
    return EXIT_OK if report.exact else EXIT_VERDICT


class ScanConfigError(ValueError):
    """A scan range with min > max, or a job count below one."""


@dataclass(frozen=True)
class ScanConfig:
    min: int
    max: int
    jobs: int = 1

    def __post_init__(self):
        if self.min > self.max:
            raise ScanConfigError(
                f"empty scan range: min {self.min} > max {self.max}")
        if self.jobs < 1:
            raise ScanConfigError(f"job count {self.jobs} is below 1")


def fundamental_range(lo: int, hi: int) -> list[int]:
    return [d.delta for d in fundamental_discriminants(lo, hi)]


# the columns of a scan row, in the order ``_row`` builds them: the CSV
# header, written also for a scan without rows
SCAN_COLUMNS = ("delta", "t_fin", "t_all", "h", "rank2", "eps_norm",
                "exceptional", "dim_v", "dim_h", "verdict_69", "verdict_67",
                "verdict_68")


# the decimal strings of the small counts of a row: t_fin, t_all, rank2,
# dim_v and dim_h are counts of primes or dimensions over them, from 0 to at
# most 16 for any 64-bit discriminant (at most 15 primes divide one)
_SMALL = tuple(map(str, range(64)))


def _row(rep) -> dict:
    # every column has a fixed type, so each is formatted without ``_s``
    (delta, t_fin, t_all, h, h_narrow, rank2, dim_v, dim_h, exceptional,
     verdict_69, verdict_67, verdict_68) = rep
    eps_norm = ""
    if delta > 0:
        # N(eps) = -1 exactly when the class of (sqrt(delta)) is trivial,
        # that is when the narrow and wide class numbers agree
        eps_norm = "-1" if h_narrow == h else "1"
    return {
        "delta": str(delta),
        "t_fin": _SMALL[t_fin],
        "t_all": _SMALL[t_all],
        "h": str(h),
        "rank2": _SMALL[rank2],
        "eps_norm": eps_norm,
        "exceptional": _BOOL[exceptional],
        "dim_v": _SMALL[dim_v],
        "dim_h": _SMALL[dim_h],
        "verdict_69": _BOOL[verdict_69],
        "verdict_67": _BOOL[verdict_67],
        "verdict_68": _BOOL[verdict_68],
    }


def scan_block(bounds: tuple[int, int]) -> list[dict]:
    """The scan rows of the fundamental discriminants in lo..hi, in order."""
    discs = fundamental_discriminants(*bounds)
    counts = block_counts([d.delta for d in discs])
    return [_row(rep) for rep in genus_engine(discs, counts)]


class ScanWorkerDied(RuntimeError):
    """A stripe worker of a scan ended before it sent all its rows."""


def _stripe_worker(blocks: list[tuple[int, int]], conn) -> None:
    """Scan ``blocks`` in order in a forked worker: ``(True, rows)`` down
    ``conn`` per block, or ``(False, exc)`` once if a block raises."""
    try:
        for bounds in blocks:
            conn.send((True, scan_block(bounds)))
    except Exception as exc:
        conn.send((False, exc))
    finally:
        conn.close()


def _scan_parallel(blocks: list[tuple[int, int]], jobs: int):
    """The rows of each block, in block order, over ``jobs`` stripes.

    Block i belongs to stripe i mod jobs.  The calling process scans stripe
    0 itself; every other stripe runs in one forked worker that sends its
    blocks' rows down a one-way pipe.  Reading the blocks in order makes the
    first failure in block order the one raised, as at one job.  Workers
    are forked, so they inherit the loaded modules and any state patched
    before the scan (the scan starts no threads, so forking is safe);
    ``multiprocessing`` is imported here, on first use.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    workers, conns = [], []
    try:
        for k in range(1, jobs):
            conn, send = ctx.Pipe(duplex=False)
            conns.append(conn)
            worker = ctx.Process(target=_stripe_worker, daemon=True,
                                 args=(blocks[k::jobs], send))
            try:
                worker.start()
            finally:
                # the worker holds the only write end, so its exit reads
                # as EOF here
                send.close()
            workers.append(worker)
        for i, bounds in enumerate(blocks):
            k = i % jobs
            if k == 0:
                yield scan_block(bounds)
                continue
            try:
                ok, value = conns[k - 1].recv()
            except (EOFError, OSError):
                worker = workers[k - 1]
                worker.join()
                raise ScanWorkerDied(
                    f"stripe worker {k} ended with exit code "
                    f"{worker.exitcode} before sending the rows of "
                    f"{bounds[0]}..{bounds[1]}") from None
            if not ok:
                raise value
            yield value
        for k, worker in enumerate(workers, 1):
            worker.join()
            if worker.exitcode:
                raise ScanWorkerDied(f"stripe worker {k} ended with exit "
                                     f"code {worker.exitcode}")
    except BaseException:
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join()
        raise
    finally:
        for conn in conns:
            conn.close()


def run_scan(cfg: ScanConfig) -> tuple[list[dict], dict]:
    # blocks of BLOCK_WIDTH integers, each sieved in plain Python and counted
    # in one numpy pass; striped over no more workers than CPUs or blocks
    blocks = [(lo, min(lo + BLOCK_WIDTH - 1, cfg.max))
              for lo in range(cfg.min, cfg.max + 1, BLOCK_WIDTH)]
    # a one-job scan does not ask for the CPU count (tens of microseconds)
    jobs = 1 if cfg.jobs == 1 else min(cfg.jobs, os.cpu_count() or 1,
                                       len(blocks))
    if jobs > 1:
        # the blocks import the scan counts, and with them numpy; importing
        # them before the fork lets every worker inherit them instead of
        # importing them again
        from . import scancounts  # noqa: F401

        parts = _scan_parallel(blocks, jobs)
    else:
        parts = map(scan_block, blocks)
    # blocks are in order and each block's rows are too
    rows = [row for part in parts for row in part]
    # one pass over the rows: how many show each (exceptional, verdicts)
    verdicts = ("verdict_67", "verdict_68", "verdict_69")
    tally = Counter(map(itemgetter("exceptional", *verdicts), rows)).items()
    summary = {
        "count": _s(len(rows)),
        "violations": _s(sum(n for k, n in tally if "false" in k[1:])),
        "min": _s(cfg.min),
        "max": _s(cfg.max),
        "exceptional": _s(sum(n for k, n in tally if k[0] == "true")),
    }
    for i, v in enumerate(verdicts, 1):  # rows that fail this verdict
        summary[f"{v}_violations"] = _s(sum(n for k, n in tally
                                            if k[i] == "false"))
    return rows, summary


def cmd_scan(args) -> int:
    try:
        cfg = ScanConfig(min=args.min, max=args.max, jobs=args.jobs)
    except ScanConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows, summary = run_scan(cfg)
    if args.fmt == "json":
        _emit({"summary": summary, "rows": rows}, "json", args.out)
    else:
        _emit({"rows": rows}, "csv", args.out, columns=SCAN_COLUMNS)
    return EXIT_OK if summary["violations"] == "0" else EXIT_VERDICT


def cmd_verify(args) -> int:
    if args.samples < 1:
        print(f"error: --samples {args.samples} is below 1", file=sys.stderr)
        return EXIT_USAGE
    disc = _parse_disc(args.disc)
    if disc is None:
        return EXIT_USAGE
    rep = sampled_exactness(disc, args.samples, args.seed)
    if not rep.constructive_kernel:
        print(f"constructive_kernel: {rep.kernel_failure}", file=sys.stderr)
    doc = {
        "delta": _s(disc.delta),
        "samples": _s(args.samples),
        "seed": _s(args.seed),
        "i_after_boundary_trivial": _s(rep.i_after_boundary_trivial),
        "mu_after_i_trivial": _s(rep.mu_after_i_trivial),
        "boundary_after_mu1_trivial": _s(rep.boundary_after_mu1_trivial),
        "boundary_is_homomorphism": _s(rep.boundary_is_homomorphism),
        "constructive_kernel": _s(rep.constructive_kernel),
    }
    _emit(doc, args.fmt, args.out)
    return EXIT_OK if rep.all_pass else EXIT_VERDICT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qknorm",
        description="class groups, norm K-groups and genus verdicts of "
                    "quadratic fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fmt(p, default="json"):
        grp = p.add_mutually_exclusive_group()
        grp.add_argument("--json", dest="fmt", action="store_const",
                         const="json", default=default)
        grp.add_argument("--csv", dest="fmt", action="store_const",
                         const="csv")
        p.add_argument("--out", default=None, help="output path")

    p = sub.add_parser("classgroup", help="class group and unit report")
    p.add_argument("--disc", type=int, required=True)
    add_fmt(p)
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("k0", help="norm K-group and its exact sequence")
    p.add_argument("--disc", type=int, required=True)
    add_fmt(p)
    p.set_defaults(func=cmd_k0)

    p = sub.add_parser("scan", help="genus verdicts over a discriminant range")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    add_fmt(p, default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="sampled exactness of the snake maps")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    add_fmt(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OutputPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GeneratorCheckError, LatticeCheckError, ClassGroupCheckError,
            IdeleCheckError, NotInNormKernel, NormKernelViolation,
            ScanWorkerDied) as exc:
        # the K0 classes of k0 and verify rest on checked generators and
        # checked ideal products, h on checked class enumerations, K0's
        # relations on power chains that end at the identity class, and
        # verify's samples on checked idele norms, norm-kernel samples and
        # boundaries; the rows of a dead scan worker's blocks were never
        # checked
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (SplitPrimeCapExceeded, ScanCountError) as exc:
        # a cap hit, or counts that fail their own check, leave the verdict
        # open; it must not read as a pass
        print(f"{args.command}: inconclusive: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
