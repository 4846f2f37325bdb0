import random
import subprocess
import sys
from math import isqrt, prod, sqrt

import pytest

from qknorm import classgroup, scancounts
from qknorm.classgroup import (block_counts, class_group, cycle_of,
                               enumerate_reduced_definite,
                               enumerate_reduced_indefinite, principal_form,
                               principal_generator, reduce_definite,
                               scan_counts)
from qknorm.ideals import FracIdeal, primes_above, principal_ideal
from qknorm.quadfield import QuadNum, is_fundamental, make_discriminant

from helpers import compose_forms, is_unit_ideal, workspace_nbytes
from oracle import (KNOWN_CLASS_NUMBERS, definite_reduced_count,
                    imaginary_class_number, invariant_factors_by_torsion,
                    real_class_number_analytic)


@pytest.mark.parametrize("delta,h", sorted(KNOWN_CLASS_NUMBERS.items()))
def test_known_class_numbers(delta, h):
    assert class_group(make_discriminant(delta)).h == h


def test_definite_counts_match_independent_enumeration():
    for D in range(-400, 0):
        if is_fundamental(D):
            assert len(enumerate_reduced_definite(D)) == \
                definite_reduced_count(D)


def test_imaginary_h_matches_dirichlet_formula():
    for D in range(-500, 0):
        if is_fundamental(D):
            disc = make_discriminant(D)
            assert class_group(disc).h == imaginary_class_number(D)


def test_group_axioms_and_structure():
    rng = random.Random(3)
    for delta in (-47, -84, 316, 145, -231, 60):
        cg = class_group(make_discriminant(delta))
        elems = cg.elements()
        assert len(elems) == cg.h
        e = cg.identity_key()
        for _ in range(30):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert cg.mul(a, b) in elems
            assert cg.mul(a, b) == cg.mul(b, a)
            assert cg.mul(cg.mul(a, b), c) == cg.mul(a, cg.mul(b, c))
            assert cg.mul(a, e) == a
        # invariant factors multiply to the order and divide in a chain
        assert prod(cg.divisors) == cg.h
        for d1, d2 in zip(cg.divisors, cg.divisors[1:]):
            assert d2 % d1 == 0
        assert cg.rank2 == sum(1 for d in cg.divisors if d % 2 == 0)


def test_structure_matches_torsion_oracle():
    # every fundamental |delta| <= 2000, and five fields with h = 99
    deltas = [d for d in range(-2000, 2001) if is_fundamental(d)]
    for delta in deltas + [-12959, -28019, -13367, -8447, -5591]:
        cg = class_group(make_discriminant(delta))
        assert cg.divisors == invariant_factors_by_torsion(cg.elements(),
                                                           cg.mul), delta
        # the generators are a basis: each has the order of its factor
        assert len(cg.generators) == len(cg.divisors)
        for g, d in zip(cg.generators, cg.divisors):
            k = x = cg.key_of_ideal(g)
            order = 1
            while x != cg.identity_key():
                x = cg.mul(x, k)
                order += 1
            assert order == d, (delta, g)


def test_generators_generate():
    for delta in (-47, -84, 316, -231, 904):
        cg = class_group(make_discriminant(delta))
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
        assert len(seen) == cg.h


def test_composition_well_defined_on_classes():
    rng = random.Random(4)
    for delta in (-84, 316, -47):
        disc = make_discriminant(delta)
        cg = class_group(disc)
        for _ in range(20):
            i = FracIdeal.unit(disc)
            for p in rng.sample([2, 3, 5, 7, 11], k=2):
                i = i * rng.choice(primes_above(disc, p).primes)
            j = i * principal_ideal(QuadNum(rng.randint(1, 9) * 2, 0, 1, disc))
            assert cg.key_of_ideal(i) == cg.key_of_ideal(j)


def test_principal_generator_roundtrip():
    rng = random.Random(5)
    for delta in (-15, 12, 60, -23, 229, 316):
        disc = make_discriminant(delta)
        for _ in range(15):
            z = QuadNum(rng.randint(-20, 20), rng.randint(-20, 20),
                        rng.randint(1, 5), disc)
            if not z:
                continue
            i = principal_ideal(z)
            g = principal_generator(i)
            assert g is not None
            assert principal_ideal(g) == i
            # generators agree up to a unit
            u = z * g.inverse()
            assert abs(u.norm()) == 1 and is_unit_ideal(principal_ideal(u))


def test_nonprincipal_detected():
    disc = make_discriminant(-15)
    p3 = primes_above(disc, 3).primes[0]
    assert principal_generator(p3) is None
    disc = make_discriminant(40)
    p2 = primes_above(disc, 2).primes[0]
    assert principal_generator(p2) is None


def test_generator_exactly_for_principal_class():
    # the one-cycle walk, on a representative of every wide class; real
    # fields with N(eps) = -1 and +1 alike
    for delta in range(-1000, 1001):
        if not is_fundamental(delta):
            continue
        cg = class_group(make_discriminant(delta))
        for k in cg.elements():
            i = cg.rep_ideal(k)
            z = principal_generator(i)
            assert (z is not None) == (k == cg.identity_key()), (delta, k)
            if z is not None:
                assert principal_ideal(z) == i, delta


@pytest.mark.parametrize("delta", [-23, -15, 60, 229])
def test_generator_check_is_the_product_check(delta, monkeypatch):
    # norm and membership accept z exactly when z * rep = i: on i = z*rep,
    # on its conjugate, and on i*P/conj(P) and 2i, where P is above a split
    # prime (same norm but another ideal, or the same lattice twice over)
    disc = make_discriminant(delta)
    cg = class_group(disc)
    split = next(primes_above(disc, p) for p in (2, 3, 5, 7, 11)
                 if primes_above(disc, p).kind == "split")
    P, Pc = split.primes
    rng = random.Random(delta)
    outcomes = set()
    for _ in range(30):
        rep = cg.rep_ideal(rng.choice(cg.elements()))
        z = QuadNum(rng.randint(-40, 40), rng.randint(1, 9),
                    rng.randint(1, 5), disc)
        zi = principal_ideal(z) * rep
        monkeypatch.setattr(classgroup, "_generator_from_transform",
                            lambda i, m, g: z)
        for i in (zi, zi.conjugate(), zi * P * Pc.inverse(),
                  zi * FracIdeal.scaled(2, 1, 1, delta % 2, disc)):
            try:
                classgroup._checked_generator(i, None, None, rep, "check")
                accepted = True
            except classgroup.GeneratorCheckError as exc:
                assert str(exc).startswith(f"check: D = {delta}: ")
                accepted = False
            assert accepted == (i == zi), (z, rep, i)
            outcomes.add(accepted)
    assert outcomes == {True, False}


def test_narrow_vs_wide():
    # real: h_narrow = 2h exactly when the fundamental unit has norm +1
    from qknorm.units import fundamental_unit

    for delta in (8, 12, 40, 60, 229, 316, 136, 904):
        disc = make_discriminant(delta)
        cg = class_group(disc)
        eps_norm = fundamental_unit(disc).eps_norm
        if eps_norm == -1:
            assert cg.h_narrow == cg.h
        else:
            assert cg.h_narrow == 2 * cg.h
    for delta in (-15, -23, -120):
        cg = class_group(make_discriminant(delta))
        assert cg.h_narrow == cg.h


def test_real_h_matches_analytic_formula():
    # class_group's real class numbers against Dirichlet's formula, a check
    # that shares nothing with either class-group path
    from qknorm.units import fundamental_unit

    for D in range(1, 2001):
        if not is_fundamental(D):
            continue
        disc = make_discriminant(D)
        eps = fundamental_unit(disc).eps
        eps_val = (eps.x + eps.y * sqrt(D)) / (2 * eps.d)
        value = real_class_number_analytic(D, eps_val)
        assert abs(value - round(value)) < 1e-6, D
        assert class_group(disc).h == round(value), D


def test_scan_counts_agree_with_class_group():
    # for both signs the scan counts are a path independent of class_group
    deltas = list(range(-250, 0)) + list(range(0, 450)) \
        + list(range(99000, 99301))
    deltas = [d for d in deltas if is_fundamental(d)]
    want = []
    for delta in deltas:
        disc = make_discriminant(delta)
        cg = class_group(disc)
        want.append((cg.h, cg.h_narrow, cg.rank2))
        # scan_counts is block_counts on a block of one
        assert scan_counts(disc) == want[-1], delta
    # all at once, in blocks and shuffled
    assert block_counts(deltas) == want
    order = random.Random(5).sample(range(len(deltas)), len(deltas))
    assert block_counts([deltas[i] for i in order]) == \
        [want[i] for i in order]


def test_scan_counts_agree_with_class_group_near_a_million():
    # the widest sort keys the scan uses are at the top of its largest range
    deltas = [d for d in (*range(-999_999, -999_849),
                          *range(999_850, 1_000_000)) if is_fundamental(d)]
    want = []
    for delta in deltas:
        cg = class_group(make_discriminant(delta))
        want.append((cg.h, cg.h_narrow, cg.rank2))
    assert len(deltas) == 88
    assert block_counts(deltas) == want


def test_imaginary_scan_block_near_a_million():
    # the scan's first block of the range -10^6..10^6, where few pairs
    # (a, c) hold more than one b: counted whole, in blocks of 7 and one
    # field at a time (scan_counts is a block of one), and against
    # class_group on a sample
    lo = -1_000_000
    deltas = [d for d in range(lo, lo + classgroup.BLOCK_WIDTH)
              if is_fundamental(d)]
    per_field = [scan_counts(make_discriminant(d)) for d in deltas]
    assert block_counts(deltas) == per_field
    sevens = []
    for start in range(lo, lo + classgroup.BLOCK_WIDTH, 7):
        sevens += block_counts([d for d in deltas if start <= d < start + 7])
    assert sevens == per_field
    for i in range(0, len(deltas), 9):
        cg = class_group(make_discriminant(deltas[i]))
        assert per_field[i] == (cg.h, cg.h_narrow, cg.rank2), deltas[i]


def test_isqrt_is_the_truncated_float_root_below_2_52():
    # k^2 - 1, k^2, k^2 + 1 and (k + 1)^2 - 1 for every k below 5000 and
    # random k below 2^26 (so every value is below 2^52): the truncated
    # float root is isqrt.  Past 2^53, where int64 to float rounds, it is
    # not: k^2 - 1 for k just past 2^27 rounds up to k^2
    import numpy as np

    rng = np.random.default_rng(12)
    ks = np.concatenate((np.arange(0, 5000),
                         rng.integers(0, 1 << 26, size=200000)))
    x = np.concatenate((ks * ks, ks * ks + 1, (ks + 1) ** 2 - 1,
                        ks[ks > 0] ** 2 - 1))
    assert int(x.max()) < 1 << 52
    got = scancounts._isqrt(x, np.empty(len(x), dtype=np.int64))
    assert got.tolist() == [isqrt(v) for v in x.tolist()]
    ks = np.arange((1 << 27) + 1, (1 << 27) + 2001, dtype=np.int64)
    x = ks * ks - 1
    got = scancounts._isqrt(x, np.empty(len(x), dtype=np.int64))
    assert (got != ks - 1).all()


def _cycle_minima(P):
    """The least index of the cycle of each i under the permutation P, by
    walking every cycle once."""
    label = [None] * len(P)
    for i in range(len(P)):
        if label[i] is None:
            cycle, j = [], i
            while label[j] is None:
                label[j] = -1
                cycle.append(j)
                j = P[j]
            for j in cycle:
                label[j] = i  # cycles are entered at their least index
    return label


@pytest.mark.parametrize("seed", range(6))
def test_label_cycles_match_a_cycle_walk(seed, monkeypatch):
    # a random permutation of fixed points, 2-cycles and longer cycles,
    # with one cycle exactly ``most`` long, shuffled over the indices
    import numpy as np

    rng = random.Random(seed)
    most = rng.choice([2, 5, 64, 65, 97, 128, 300])
    lengths = [1] * rng.randint(0, 40) + [2] * rng.randint(0, 40) + \
        [rng.randint(1, most) for _ in range(rng.randint(0, 30))] + [most]
    rng.shuffle(lengths)
    n = sum(lengths)
    order = list(range(n))
    rng.shuffle(order)
    P = [0] * n
    at = 0
    for length in lengths:
        cycle = order[at:at + length]
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            P[x] = y
        at += length
    assert max(lengths) == most
    monkeypatch.setattr(scancounts, "_WS", scancounts._Workspace())
    got = scancounts._label_cycles(np.array(P, dtype=np.intp), most)
    assert got.tolist() == _cycle_minima(P)
    # fewer rounds than the longest cycle needs leave a label unsettled
    if most > 2:
        short = scancounts._label_cycles(np.array(P, dtype=np.intp),
                                         (most + 1) // 2)
        assert short.tolist() != _cycle_minima(P)


@pytest.mark.parametrize("lens", [
    [0, 0, 3, 1, 2], [2, 1, 0, 0, 3, 1], [1, 3, 2, 0, 0], [0], [0, 0, 0],
    [], [4], [1, 0, 1, 0, 1]])
@pytest.mark.parametrize("dtype", ["int32", "int64"])
def test_expand_matches_a_python_reference(lens, dtype, monkeypatch):
    import numpy as np

    monkeypatch.setattr(scancounts, "_WS", scancounts._Workspace())
    grp, starts = scancounts._expand(np.array(lens, dtype=dtype), "test")
    want_grp = [i for i, n in enumerate(lens) for _ in range(n)]
    assert grp.dtype == np.intp and grp.tolist() == want_grp
    assert starts.dtype == dtype
    assert starts.tolist() == [sum(lens[:i]) for i in range(len(lens))]
    # element t is number t - starts[grp[t]] of its range
    assert [t - starts[i] for t, i in enumerate(grp.tolist())] == \
        [j for n in lens for j in range(n)]


def test_scan_count_checks_raise_under_optimize(src_env):
    # D = 25 is a square, whose reduced forms rho leaves; D = 80 and
    # D = -32 are not fundamental, and their non-primitive forms give three
    # self-inverse or ambiguous classes.  All must raise, not return
    # counts, with asserts stripped.
    code = (
        "from qknorm.classgroup import ScanCountError, block_counts\n"
        "for D in (25, 80, -32):\n"
        "    try:\n"
        "        block_counts([D])\n"
        "    except ScanCountError as exc:\n"
        "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=src_env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("D = 25: rho of")
    assert lines[1] == "D = 80: 3 self-inverse classes, not a power of 2"
    assert lines[2] == "D = -32: 3 ambiguous classes, not a power of 2"


# the two scan-count messages that only a broken enumeration or labelling
# reaches: a crafted pair of forms with one tau-image, and pointer jumping
# cut to no rounds
UNREACHED_SCAN_MESSAGES = (
    "import numpy as np\n"
    "from qknorm import scancounts\n"
    "from qknorm.classgroup import ScanCountError, block_counts\n"
    "col = lambda *v: np.array(v, dtype=np.int32)\n"
    "try:\n"
    "    scancounts._raise_rho_miss(100, col(10, 20, 30), col(20, 20, 10),\n"
    "                               np.ones(3, dtype=bool), col(1, 2, 3),\n"
    "                               col(5, 6, 7), col(4, 4, 4), col(0, 1, 2))\n"
    "except ScanCountError as exc:\n"
    "    print(exc)\n"
    "label = scancounts._label_cycles\n"
    "scancounts._label_cycles = lambda P, most: label(P, 1)\n"
    "try:\n"
    "    block_counts([229])\n"
    "except ScanCountError as exc:\n"
    "    print(exc)\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_unreached_scan_count_messages(flags, src_env):
    proc = subprocess.run([sys.executable, *flags, "-c",
                           UNREACHED_SCAN_MESSAGES],
                          capture_output=True, text=True, env=src_env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "D = 100: rho maps two forms to the image of (1, 5, -4)",
        "D = 229: the labels of the tau-cycles did not settle"]


def _fundamental_block(start, width):
    """The fundamental D of both signs in a block of ``width`` integers that
    begins, for each sign, at the first fundamental |D| >= start."""
    out = []
    for sign in (1, -1):
        lo = next(m for m in range(start, start + 1000)
                  if is_fundamental(sign * m))
        out += [sign * m for m in range(lo, lo + width)
                if is_fundamental(sign * m)]
    return out


WORKSPACE_BLOCKS = [_fundamental_block(start, width)
                    for start in (1, 99701, 999701) for width in (1, 7, 300)]

# each block counted with a workspace of its own
FRESH_COUNTS = (
    "import json, sys\n"
    "from qknorm import classgroup, scancounts\n"
    "out = []\n"
    "for deltas in json.load(sys.stdin):\n"
    "    scancounts._WS = scancounts._Workspace()\n"
    "    out.append(classgroup.block_counts(deltas))\n"
    "print(json.dumps(out))\n")


def test_workspace_is_invisible(src_env):
    # the scan counts reuse one workspace of buffers per process; the
    # counts of a block must not depend on the blocks counted before it
    import json

    proc = subprocess.run([sys.executable, "-c", FRESH_COUNTS],
                          input=json.dumps(WORKSPACE_BLOCKS),
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = [[tuple(c) for c in counts] for counts in json.loads(proc.stdout)]
    assert all(want) and len(want[-1]) > 50
    by_size = sorted(range(len(want)), key=lambda i: len(want[i]))
    for order in (by_size[::-1], by_size):
        for i in order:
            assert block_counts(WORKSPACE_BLOCKS[i]) == want[i], i
    for i in by_size:
        with pytest.raises(classgroup.ScanCountError):
            block_counts([25])
        assert block_counts(WORKSPACE_BLOCKS[i]) == want[i], i


def test_an_equal_block_regrows_no_buffer(monkeypatch):
    monkeypatch.setattr(scancounts, "_WS", scancounts._Workspace())
    deltas = WORKSPACE_BLOCKS[4]  # 7 wide at 99701
    block_counts(deltas)
    bufs = dict(scancounts._WS.bufs)
    assert block_counts(deltas) == block_counts(deltas)
    assert scancounts._WS.bufs.keys() == bufs.keys()
    assert all(scancounts._WS.bufs[k] is buf for k, buf in bufs.items())


def test_workspace_is_bounded_by_the_block(monkeypatch):
    # the columns of a block 300 wide at 999701, both signs, with the
    # quarter of headroom the workspace grows by
    monkeypatch.setattr(scancounts, "_WS", scancounts._Workspace())
    block_counts(WORKSPACE_BLOCKS[-1])
    assert workspace_nbytes(scancounts._WS) < 14 << 20


def test_block_dtype_switches_past_the_int32_bound(monkeypatch):
    # a key (index of D, b, a) of a block of w integers up to hi is below
    # w * (isqrt(hi) + 1)^2; from the first hi where that passes 2^31 the
    # value columns are int64.  Blocks just past and just below it agree
    # with class_group and with blocks of one, which stay int32
    import numpy as np

    w = classgroup.BLOCK_WIDTH
    s = isqrt((1 << 31) // w)
    bound = s * s  # the first hi with isqrt(hi) = s
    assert w * s ** 2 <= 1 << 31 < w * (s + 1) ** 2
    assert scancounts._real_dtype(w, s - 1) is np.int32
    assert scancounts._real_dtype(w, s) is np.int64
    assert scancounts._real_dtype(1, s) is np.int32
    monkeypatch.setattr(scancounts, "_WS", scancounts._Workspace())
    # blocks exactly w wide with both ends fundamental, one ending at least
    # 30 past the bound, one ending below it
    for starts, dtype in ((range(bound + 30 - w + 1, bound + 200), np.int64),
                          (range(bound - w, bound - w - 200, -1), np.int32)):
        lo = next(lo for lo in starts
                  if is_fundamental(lo) and is_fundamental(lo + w - 1))
        deltas = [d for d in range(lo, lo + w) if is_fundamental(d)]
        counts = block_counts(deltas)
        assert scancounts._WS.bufs["v0"].dtype == dtype
        near = range(len(deltas) - 4, len(deltas))  # the last four D
        assert (deltas[near[0]] >= bound) == (dtype is np.int64)
        for i in near:
            cg = class_group(make_discriminant(deltas[i]))
            assert counts[i] == (cg.h, cg.h_narrow, cg.rank2), deltas[i]
            assert counts[i] == block_counts([deltas[i]])[0], deltas[i]


def test_square_roots_match_squaring():
    # the roots of a square form a coset of Cl[2], which has 2^rank2 classes
    for D in range(-300, 301):
        if not is_fundamental(D):
            continue
        cg = class_group(make_discriminant(D))
        elements = cg.elements()
        squares = {cg.mul(c, c) for c in elements}
        for x in elements:
            roots = cg.square_roots(x)
            assert roots == [c for c in elements if cg.mul(c, c) == x]
            assert len(roots) == (1 << cg.rank2 if x in squares else 0)
        assert cg.h == (1 << cg.rank2) * len(squares)


def _canonical(f, D):
    # the reduced form (D < 0) or the least form of the rho-cycle (D > 0)
    return reduce_definite(f) if D < 0 else min(cycle_of(f, D))


def test_cycle_closure():
    for D in (12, 60, 316, 229):
        f = principal_form(D)
        cyc = cycle_of(f, D)
        assert len(set(cyc)) == len(cyc)
        assert _canonical(f, D) in cyc


def test_compose_identity():
    for D in (-15, -84, 60, 316):
        f = principal_form(D)
        for g in (enumerate_reduced_definite(D) if D < 0
                  else enumerate_reduced_indefinite(D))[:10]:
            if g[0] < 0:
                continue
            assert _canonical(compose_forms(g, f, D), D) == _canonical(g, D)


def test_class_products_match_form_composition():
    # the table's checked ideal products against Gauss composition of the
    # keys, on every class pair
    for D in (-84, -420, -47, 60, 316, 904, 2024):
        cg = class_group(make_discriminant(D))
        elements = cg.elements()
        for c1 in elements:
            for c2 in elements:
                assert cg.mul(c1, c2) == \
                    cg.key_of_form(compose_forms(c1, c2, D)), (D, c1, c2)


def test_reduce_definite_idempotent_and_equivalent():
    for D in (-15, -84, -120, -231):
        for f in enumerate_reduced_definite(D):
            assert reduce_definite(f) == f



# real fields with N(eps) = -1 and +1, and h from 1 to 7
REAL_FIELDS = (8, 12, 40, 60, 136, 229, 316, 904, 2024, 2029, 2120)


def test_real_key_is_the_same_for_a_form_and_its_negation():
    for D in REAL_FIELDS:
        cg = class_group(make_discriminant(D))
        for a, b, c in enumerate_reduced_indefinite(D):
            assert cg.key_of_form((a, b, c)) == cg.key_of_form((-a, b, -c))


def test_every_key_is_a_reduced_form_with_a_positive():
    for D in (-23, -420, -5460) + REAL_FIELDS:
        disc = make_discriminant(D)
        cg = class_group(disc)
        for k in cg.elements():
            assert k[0] > 0 and k[1] * k[1] - 4 * k[0] * k[2] == D
            if D > 0:
                assert classgroup.is_reduced_indef(k, isqrt(D)), (D, k)
            else:
                assert reduce_definite(k) == k, (D, k)
            assert cg.rep_ideal(k) == classgroup.ideal_of_form(k, disc)
            assert cg.key_of_ideal(cg.rep_ideal(k)) == k, (D, k)


def test_real_walk_ends_on_the_key_and_on_its_negation(monkeypatch):
    # the walk stops at the first form g on the cycle that is the key or
    # its negation; both read-offs must check out, and both occur
    ends = []
    checked = classgroup._checked_generator

    def record(i, m, g, rep, where):
        ends.append(g)
        return checked(i, m, g, rep, where)

    monkeypatch.setattr(classgroup, "_checked_generator", record)
    rng = random.Random(7)
    signs = set()
    for D in REAL_FIELDS:
        disc = make_discriminant(D)
        cg = class_group(disc)
        for _ in range(30):
            i = FracIdeal.unit(disc)
            for p in rng.sample([2, 3, 5, 7, 11, 13], k=3):
                i = i * rng.choice(primes_above(disc, p).primes) ** \
                    rng.randint(-2, 2)
            ends.clear()
            key, z = cg.class_and_generator(i)
            (g,) = ends
            assert g in (key, (-key[0], key[1], -key[2])), (D, i)
            assert principal_ideal(z) * cg.rep_ideal(key) == i
            signs.add(g[0] > 0)
    assert signs == {True, False}
