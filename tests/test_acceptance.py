"""Acceptance gate: the eight headline verdicts, one test each.

The full-range scan is computed once per session, in the scan's blocks, and
its rows are shared by the four criteria that consume them and by the check
of their CSV against the pinned sha256.  Two narrow windows near 10^7 pin
the scan past the int32 bound of the real counts' columns.
"""

import hashlib
import random
from fractions import Fraction
from math import prod

import pytest

from qknorm.cli import EXIT_OK, SCAN_COLUMNS, _emit, main
from qknorm.classgroup import BLOCK_WIDTH, block_counts, class_group, \
    scan_counts
from qknorm.knorm import bass_sequence_report
from qknorm.local import block_genus_dims, genus_char_space, \
    hilbert_symbol, is_global_norm
from qknorm.mv import genus_engine, sampled_exactness
from qknorm.quadfield import fundamental_discriminants, is_fundamental, \
    make_discriminant
from qknorm.units import fundamental_unit

from oracle import hilbert2_oracle, pell_min, relevant_places

SCAN_BOUND = 100_000
# sha256 of the CSV of `qknorm scan --min -100000 --max 100000`
SCAN_CSV_SHA256 = \
    "1664ed2ce9a3c091fee30fc245657f1424dc9f54de7c77e37cb3ccdcd80e36ed"
# sha256 of the CSV of `qknorm scan` over each window, whose real fields the
# counts take on their int64 path (``scancounts._real_dtype``)
INT64_WINDOW_SHA256 = {
    (9976001, 9987999):
        "b302d4b8ca8195a32dfac4582cdb52abad7e8d1302eef8f306f0cbd1fd750bb2",
    (-9987999, -9976001):
        "8bbee0838ee822ee8d90f4c1bcedf779b5185b55e62c54441eec2953b7cd1179",
}

VERIFICATION_DISCS = [-15, 12, 60, -23, 8, 40, -56, 105, -120, 136,
                      229, 316, -231, -84, -47, 904, 469, -95, 140, -39]


@pytest.fixture(scope="session")
def full_scan_rows():
    # the scan's own route: each block of BLOCK_WIDTH integers sieved and
    # counted in one pass, and its rows built by the block engine
    discs, rows, fallbacks = [], [], 0
    for lo in range(-SCAN_BOUND, SCAN_BOUND + 1, BLOCK_WIDTH):
        block = fundamental_discriminants(lo, min(lo + BLOCK_WIDTH - 1,
                                                  SCAN_BOUND))
        got = genus_engine(block, block_counts([d.delta for d in block]))
        # the engine's dims, and the block kernel's where it certifies
        # them, against the per-field path on every field
        for d, row, dim_v, dim_h in zip(block, got,
                                        *block_genus_dims(block)):
            want = (genus_char_space(d).dim,
                    0 if is_global_norm(-1, d) else 1)
            assert (int(row["dim_v"]), int(row["dim_h"])) == want, d
            if dim_v < 0:
                fallbacks += 1
            else:
                assert (dim_v, dim_h) == want, d
        rows += got
        discs += block
    # the fields whose span needs a split prime past the kernel's list
    assert fallbacks == 23
    # the sieve's discriminants and ramified primes against factorint
    assert discs == [make_discriminant(d)
                     for d in range(-SCAN_BOUND, SCAN_BOUND + 1)
                     if is_fundamental(d)]
    return rows


def test_criterion_1_two_rank_vs_ramification(full_scan_rows):
    """rank2 = t - 1, or t - 2 exactly in the exceptional real case."""
    bad = [r["delta"] for r in full_scan_rows if r["verdict_69"] != "true"]
    assert bad == [], f"two-rank violations at {bad[:10]}"


def test_criterion_2_genus_space_dimension(full_scan_rows):
    """dim of the genus character space is t_fin - 1 (real) / t_fin (imag)."""
    for r in full_scan_rows:
        t_fin = int(r["t_fin"])
        expect = t_fin - 1 if int(r["delta"]) > 0 else t_fin
        assert int(r["dim_v"]) == expect == int(r["t_all"]) - 1, r["delta"]


def test_criterion_3_dimension_identity(full_scan_rows):
    """dim V = dim H + rank2 across the entire scanned range."""
    bad = [r["delta"] for r in full_scan_rows if r["verdict_67"] != "true"]
    assert bad == [], f"dimension-identity violations at {bad[:10]}"


def test_criterion_8_hasse_for_minus_one(full_scan_rows):
    """real fields: -1 fails to be a norm iff some p = 3 mod 4 ramifies."""
    for r in full_scan_rows:
        if int(r["delta"]) > 0:
            assert (int(r["dim_h"]) == 1) == (r["exceptional"] == "true"), \
                r["delta"]


def test_scan_csv_is_pinned(full_scan_rows, tmp_path):
    """The CSV of the scan over |Delta| <= 100000 is byte for byte the pinned
    one, written from the fixture's rows as ``qknorm scan`` writes it."""
    path = tmp_path / "scan.csv"
    _emit({"rows": full_scan_rows}, "csv", str(path), columns=SCAN_COLUMNS)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCAN_CSV_SHA256


@pytest.mark.parametrize("lo,hi,jobs", [(9976001, 9987999, 1),
                                        (-9987999, -9976001, 1),
                                        (-9987999, -9976001, 2)])
def test_int64_window_csv_is_pinned(lo, hi, jobs, tmp_path):
    """The CSV of `qknorm scan` over a 12000-wide window near +-10^7 is byte
    for byte the pinned one."""
    path = tmp_path / "scan.csv"
    assert main(["scan", "--min", str(lo), "--max", str(hi), "--jobs",
                 str(jobs), "--out", str(path)]) == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        INT64_WINDOW_SHA256[lo, hi]


def _verification_set_200():
    out = []
    delta = 0
    while len(out) < 200:
        delta += 1
        for d in (-delta, delta):
            if is_fundamental(d) and scan_counts(make_discriminant(d))[0] <= 50:
                out.append(d)
    return out[:200]


def test_criterion_4_bass_sequence_exactness():
    """|K0| = |H^0(units)| * h and ker rho = im sigma, 200 discriminants."""
    for delta in _verification_set_200():
        rep = bass_sequence_report(make_discriminant(delta))
        assert rep.exact, (delta, rep)


def test_criterion_5a_class_number_two_paths():
    """structure-theoretic order = enumerated class count, |delta| <= 2000."""
    for delta in range(-2000, 2001):
        if not is_fundamental(delta):
            continue
        disc = make_discriminant(delta)
        cg = class_group(disc)
        assert prod(cg.divisors, start=1) == cg.h, delta
        assert scan_counts(disc)[0] == cg.h, delta
        # the recorded generators really generate
        seen = {cg.identity_key()}
        frontier = [cg.identity_key()]
        gens = [cg.key_of_ideal(g) for g in cg.generators]
        while frontier:
            nxt = []
            for k in frontier:
                for g in gens:
                    kg = cg.mul(k, g)
                    if kg not in seen:
                        seen.add(kg)
                        nxt.append(kg)
            frontier = nxt
        assert len(seen) == cg.h, delta


def test_criterion_5b_units_vs_bounded_pell():
    """continued-fraction units against brute-force Pell, delta <= 5000."""
    cap = 1500
    for delta in range(2, 5001):
        if not is_fundamental(delta):
            continue
        u = fundamental_unit(make_discriminant(delta))
        eps = u.eps
        assert eps is not None and abs(eps.norm()) == 1
        got = pell_min(delta, cap)
        if got is None:
            assert eps.y > cap, delta
        else:
            x, y, pm = got
            assert (eps.x, eps.y) == (x, y), delta
            assert int(4 * eps.norm()) == pm, delta


def test_criterion_6_sampled_exactness_and_kernel():
    """composites vanish on 500 samples at 20 discriminants; every kernel
    element of the full K0 enumeration has a constructed idele preimage
    (``sampled_exactness`` decides both)."""
    assert len(VERIFICATION_DISCS) == 20
    for delta in VERIFICATION_DISCS:
        rep = sampled_exactness(make_discriminant(delta), 500,
                                seed=20_000 + delta)
        assert rep.constructive_kernel, (delta, rep.kernel_failure)
        assert rep.all_pass, (delta, rep)


def test_criterion_7_hilbert_soundness():
    """product formula on 10^4 random pairs; p = 2 against the exhaustive
    two-adic oracle on the full |a|, |b| <= 50 grid."""
    rng = random.Random(777)
    for _ in range(10 ** 4):
        a = Fraction(rng.randint(-300, 300), rng.randint(1, 300))
        b = Fraction(rng.randint(-300, 300), rng.randint(1, 300))
        if not a or not b:
            continue
        assert prod(hilbert_symbol(a, b, v)
                    for v in relevant_places(a, b)) == 1, (a, b)
    for a in range(-50, 51):
        for b in range(-50, 51):
            if a and b:
                assert hilbert_symbol(a, b, 2) == hilbert2_oracle(a, b), (a, b)
