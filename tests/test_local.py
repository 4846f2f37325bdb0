import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qknorm import local
from qknorm.arith import PRIMES, TABLE_BOUND, legendre
from qknorm.classgroup import scan_counts
from qknorm.local import (INFINITY, block_genus_dims, hilbert_symbol,
                          genus_char_space, h0_class_of_rational,
                          is_global_norm)
from qknorm.mv import genus_engine
from qknorm.quadfield import fundamental_discriminants, is_fundamental, \
    kronecker, make_discriminant

from helpers import scan_row, verdicts_pass
from oracle import (hilbert2_oracle, hilbert_odd_oracle, kronecker_symbol,
                    relevant_places)


def _random_nonzero(rng, span=400):
    while True:
        num = rng.randint(-span, span)
        if num:
            return Fraction(num, rng.randint(1, span))


def test_p2_formula_against_exhaustive_oracle():
    for a in range(-50, 51):
        for b in range(-50, 51):
            if a and b:
                assert hilbert_symbol(a, b, 2) == hilbert2_oracle(a, b), (a, b)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_odd_formula_against_exhaustive_oracle(p):
    rng = random.Random(p)
    for _ in range(60):
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        if a and b:
            assert hilbert_symbol(a, b, p) == hilbert_odd_oracle(a, b, p)


def test_product_formula():
    rng = random.Random(20)
    for _ in range(10 ** 4):
        a, b = _random_nonzero(rng), _random_nonzero(rng)
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_bimultiplicative_and_symmetric():
    rng = random.Random(21)
    places = [2, 3, 5, 7, 13, INFINITY]
    for _ in range(10 ** 4):
        a, b, c = (_random_nonzero(rng, 60) for _ in range(3))
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * b, c, v) == \
            hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)


def test_square_arguments_trivial():
    rng = random.Random(22)
    for _ in range(200):
        a, b = _random_nonzero(rng, 40), _random_nonzero(rng, 40)
        for v in relevant_places(a * a, b):
            assert hilbert_symbol(a * a, b, v) == 1


def test_infinite_place():
    assert hilbert_symbol(-1, -1, INFINITY) == -1
    assert hilbert_symbol(-1, 2, INFINITY) == 1
    assert hilbert_symbol(3, 5, INFINITY) == 1


def test_is_global_norm_against_explicit_norms():
    rng = random.Random(23)
    for delta in (-15, 12, 60, -23, 40, 136):
        disc = make_discriminant(delta)
        for _ in range(50):
            x = rng.randint(-20, 20)
            y = rng.randint(-20, 20)
            d = rng.randint(1, 8)
            n = Fraction(x * x - delta * y * y, 4 * d * d)
            if n:
                assert is_global_norm(n, disc), (delta, n)


def test_minus_one_norm_criterion():
    # -1 is not a norm iff the field is imaginary or some p = 3 mod 4 ramifies
    for delta in range(-300, 300):
        if not is_fundamental(delta):
            continue
        disc = make_discriminant(delta)
        expect = not (delta < 0
                      or any(p % 4 == 3 for p in disc.ramified_primes))
        assert is_global_norm(-1, disc) == expect, delta


def _unit_class_at_ramified(u, disc, p):
    """F2 class of a p-adic unit modulo norms of local units at ramified p.

    At a ramified place a unit is a norm of a unit iff it is a norm at all
    (norms of non-units have odd valuation), so the Hilbert symbol decides.
    """
    assert p in disc.ramified_primes and u.numerator % p and u.denominator % p
    return 0 if hilbert_symbol(u, disc.delta, p) == 1 else 1


def test_semilocal_unit_classes_injective():
    # distinct class vectors for distinct sign patterns over ramified primes
    for delta in (-120, 105, 60, -420):
        disc = make_discriminant(delta)
        places = disc.ramified_primes
        assert len(places) == disc.t_fin
        seen = set()
        # generate unit families from small rationals prime to each place
        for delta_units in range(1 << len(places)):
            fams = {}
            for i, p in enumerate(places):
                # find a local unit in the requested class at p
                want = delta_units >> i & 1
                u = next(Fraction(n) for n in
                         (1, -1, 2, 3, 5, 7, -2, -3, -5, -7, 11, 13, -11)
                         if n % p != 0
                         and _unit_class_at_ramified(Fraction(n), disc, p)
                         == want)
                fams[p] = u
            key = tuple(_unit_class_at_ramified(fams[p], disc, p)
                        for p in places)
            assert key == tuple(delta_units >> i & 1
                                for i in range(len(places)))
            seen.add(key)
        assert len(seen) == 1 << len(places)


def test_h0_class_of_rational_support():
    disc = make_discriminant(-15)
    v = h0_class_of_rational(5, disc)
    assert {3, 5} <= v
    assert h0_class_of_rational(1, disc) == frozenset()
    for p in v:
        assert kronecker(disc, p) != 1


def test_genus_char_space_dimension_convention():
    for delta in range(-500, 500):
        if not is_fundamental(delta):
            continue
        disc = make_discriminant(delta)
        g = genus_char_space(disc)
        if delta > 0:
            assert g.dim == disc.t_fin - 1, delta
        else:
            assert g.dim == disc.t_fin, delta
        assert g.dim == disc.t_all - 1
        # the recorded generators really span the recorded basis
        assert len(g.generating_rationals) == g.dim
        for vec, q in zip(g.basis, g.generating_rationals):
            got = frozenset(p for p in disc.ramified_primes
                            if hilbert_symbol(q, delta, p) == -1)
            assert got == vec
            if 2 not in disc.ramified_primes and kronecker(disc, 2) == -1:
                assert hilbert_symbol(q, delta, 2) == 1


def test_int_and_fraction_arguments_agree():
    rng = random.Random(24)
    for v in (2, 3, 5, 7, INFINITY):
        for _ in range(300):
            a, b = rng.randint(-200, 200) or 1, rng.randint(-200, 200) or 1
            assert hilbert_symbol(a, b, v) == \
                hilbert_symbol(Fraction(a), Fraction(b), v), (a, b, v)
    # denominators divisible by p, against the exhaustive oracles
    for p in (2, 3, 5):
        for _ in range(40):
            a = Fraction(rng.randint(-60, 60) or 1,
                         p ** rng.randint(1, 3) * rng.randint(1, 9))
            b = rng.randint(-60, 60) or 1
            want = (hilbert2_oracle(a, b) if p == 2
                    else hilbert_odd_oracle(a, b, p))
            assert hilbert_symbol(a, b, p) == want, (a, b, p)
            assert hilbert_symbol(b, a, p) == want, (a, b, p)


def test_bad_arguments_raise_under_optimize(src_env):
    # under -O asserts vanish; zero or p = 1 must still raise, not loop, and
    # a composite place must be rejected, not given a value
    code = (
        "from qknorm.local import hilbert_symbol\n"
        "for args in ((0, 5, 3), (3, 0, 2), (3, 5, 1), (2, 3, 15),\n"
        "             (3, 5, 4), (3, 5, 9)):\n"
        "    try:\n"
        "        hilbert_symbol(*args)\n"
        "    except ValueError:\n"
        "        print('ValueError')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=src_env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 6


@pytest.mark.parametrize("delta", [-56, 136])
def test_split_prime_cap_hit_raises(monkeypatch, delta):
    # each of these needs one split prime to reach t_all - 1
    monkeypatch.setattr(local, "_SPLIT_PRIME_CAP", 0)
    with pytest.raises(local.SplitPrimeCapExceeded, match=str(delta)):
        genus_char_space(make_discriminant(delta))


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _f2_rank(vectors):
    """Rank over F2 of integer bitmasks."""
    pivots = {}
    for x in vectors:
        while x:
            top = x.bit_length() - 1
            if top not in pivots:
                pivots[top] = x
                break
            x ^= pivots[top]
    return len(pivots)


def test_reciprocity_stop_loses_nothing():
    # the span of -1, the ramified primes and the first 25 split primes,
    # with no early stop, has dimension t_all - 1
    split_candidates = [p for p in range(2, 400) if _is_prime(p)]
    for delta in range(-3000, 3001):
        if not is_fundamental(delta):
            continue
        disc = make_discriminant(delta)
        ram = disc.ramified_primes
        split = [p for p in split_candidates if kronecker(disc, p) == 1]
        assert len(split) >= 25, delta
        inert_two = kronecker(disc, 2) == -1
        vecs = []
        for q in [-1, *ram, *split[:25]]:
            vecs.append(sum(1 << i for i, p in enumerate(ram)
                            if hilbert_symbol(q, delta, p) == -1))
            if inert_two:
                assert hilbert_symbol(q, delta, 2) == 1, (delta, q)
        g = genus_char_space(disc)
        assert _f2_rank(vecs) == g.dim == disc.t_all - 1, delta
        if delta > 0:
            assert all(len(v) % 2 == 0 for v in g.basis), delta


def test_norm_test_places_match_factored_delta():
    # the Hasse test reads Delta's primes off the ramified primes: 40 q on
    # each of ten chosen fields, then 5 on every fundamental |Delta| <= 3000
    rng = random.Random(25)
    chosen = [(d, 40) for d in (-15, 12, 60, -23, 40, 136, -420, 5, -4, 8)]
    every = [(d, 5) for d in range(-3000, 3001) if is_fundamental(d)]
    for delta, draws in chosen + every:
        disc = make_discriminant(delta)
        for _ in range(draws):
            q = _random_nonzero(rng, 90)
            places = relevant_places(q, delta)
            assert is_global_norm(q, disc) == all(
                hilbert_symbol(q, delta, v) == 1 for v in places)
            assert h0_class_of_rational(q, disc) == frozenset(
                v for v in places[:-1] if kronecker(disc, v) != 1
                and hilbert_symbol(q, delta, v) == -1)
            # Delta is a square at a split p, so q is a local norm there
            assert all(hilbert_symbol(q, delta, v) == 1 for v in places[:-1]
                       if kronecker(disc, v) == 1)


def _genus_reference(delta, ram):
    """The genus space as (coords, rational) pairs, derived through the
    public hilbert_symbol on frozensets: -1, the ramified primes, then the
    split primes in order until the span reaches t_all - 1, each vector
    reduced against the basis in order of its least place."""
    basis = []

    def adjoin(q):
        vec = frozenset(p for p in ram if hilbert_symbol(q, delta, p) == -1)
        for bv, bq in basis:
            if min(bv) in vec:
                vec ^= bv
                q *= bq
        if vec:
            basis.append((vec, q))
            basis.sort(key=lambda t: min(t[0]))

    for q in (-1, *ram):
        adjoin(q)
    bound = len(ram) - (delta > 0)
    p = 1
    while len(basis) < bound:
        p += 1
        if _is_prime(p) and kronecker_symbol(delta, p) == 1:
            adjoin(p)
    return basis


def test_genus_char_space_at_far_end_of_scan():
    # the bitmask span against the frozenset route on the largest |Delta|
    # the scan covers
    count = 0
    for delta in (*range(-100_000, -98_999), *range(99_000, 100_001)):
        if not is_fundamental(delta):
            continue
        disc = make_discriminant(delta)
        g = genus_char_space(disc)
        want = _genus_reference(delta, disc.ramified_primes)
        assert g.dim == len(want), delta
        assert list(g.basis) == [v for v, _ in want], delta
        assert g.generating_rationals == tuple(Fraction(q) for _, q in want)
        count += 1
    assert count > 500


def _random_unit(rng, p, span=10 ** 6):
    while True:
        u = rng.randint(-span, span)
        if u % p:
            return u


def test_hilbert_core_matches_public_symbol():
    rng = random.Random(26)
    # arbitrary stripped arguments, against the public entry and, for small
    # ones, the exhaustive oracles
    for _ in range(3000):
        p = rng.choice([2, 2, 3, 5, 7, 11, 13, 97, 65537, 99991])
        alpha, beta = rng.randint(0, 5), rng.randint(0, 5)
        u, w = _random_unit(rng, p), _random_unit(rng, p)
        want = hilbert_symbol(p ** alpha * u, p ** beta * w, p)
        assert local._hilbert_core(alpha, u, beta, w, p) == want, \
            (alpha, u, beta, w, p)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        alpha, beta = rng.randint(0, 2), rng.randint(0, 2)
        u = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 5, 7, 11, 13, 17])
        w = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 5, 7, 11, 13, 17])
        if u % p == 0 or w % p == 0:
            continue
        a, b = p ** alpha * u, p ** beta * w
        want = hilbert2_oracle(a, b) if p == 2 else hilbert_odd_oracle(a, b, p)
        assert local._hilbert_core(alpha, u, beta, w, p) == want, (a, b, p)
    # the calls genus_char_space makes: q = -1, q = p and other primes q
    # against Delta at each ramified p, with v_2(Delta) = 2 and 3 at p = 2
    deltas = [d for d in range(-3000, 3001) if is_fundamental(d)]
    assert {-4, 8, -8, 12} <= set(deltas)
    for delta in (-4, 8, -8, 12, *rng.sample(deltas, 300)):
        disc = make_discriminant(delta)
        for p in disc.ramified_primes:
            w, beta = delta, 0
            while w % p == 0:
                w //= p
                beta += 1
            if p == 2:
                assert beta in (2, 3)
            for q in (-1, p, *rng.sample(range(2, 400), 5)):
                if q > 0 and not _is_prime(q):
                    continue
                alpha = 1 if q == p else 0
                got = local._hilbert_core(alpha, q // p ** alpha, beta, w, p)
                assert got == hilbert_symbol(q, delta, p), (q, delta, p)


# ---------------------------------------------------------------------------
# the block kernel of the scan's genus layer


def _per_field_dims(disc):
    return genus_char_space(disc).dim, 0 if is_global_norm(-1, disc) else 1


def test_residue_table_matches_legendre():
    from qknorm import scancounts

    table, off = scancounts._legendre_table()
    assert len(table) == sum(PRIMES[1:])
    for p in PRIMES[1:]:
        assert table[off[p]:off[p] + p].tolist() == \
            [legendre(x, p) for x in range(p)], p


@pytest.mark.parametrize("lo,hi", [(976001, 976300), (-976300, -976001),
                                   (999701, 999999), (-999999, -999701)])
def test_block_kernel_near_a_million(lo, hi):
    # every field of these windows is certified by the kernel, with the
    # dims of the per-field path
    discs = fundamental_discriminants(lo, hi)
    dims_v, dims_h = block_genus_dims(discs)
    assert len(discs) > 80
    assert [(v, h) for v, h in zip(dims_v, dims_h)] == \
        [_per_field_dims(d) for d in discs]


def _span_with_split_primes_to(delta, top):
    """The F2 rank of the vectors of -1, the ramified primes and the split
    primes up to ``top``, from the public Hilbert symbol."""
    ram = make_discriminant(delta).ramified_primes
    split = [q for q in range(2, top + 1)
             if _is_prime(q) and kronecker_symbol(delta, q) == 1]
    return _f2_rank([sum(1 << i for i, p in enumerate(ram)
                         if hilbert_symbol(q, delta, p) == -1)
                     for q in (-1, *ram, *split)])


@pytest.mark.parametrize("delta", [
    -16003,  # 13 * 1231: the split primes up to 43 leave the span short
    -1065023,  # 1031 * 1033: no table holds the symbol of the pair
])
def test_block_kernel_falls_back_to_the_per_field_path(delta):
    disc = make_discriminant(delta)
    if delta == -16003:
        assert _span_with_split_primes_to(delta, 43) < disc.t_all - 1
    else:
        assert min(disc.ramified_primes) >= TABLE_BOUND
    assert block_genus_dims([disc]) == ([-1], [1])
    # the engine takes the per-field path for it, in a block of others, and
    # gives every field of the block the row it gives that field alone
    deltas = (-15, delta, -23)
    block = [make_discriminant(d) for d in deltas]
    rows = genus_engine(block, [scan_counts(d) for d in block])
    assert rows == [scan_row(d) for d in deltas]
    assert [(int(r["dim_v"]), int(r["dim_h"])) for r in rows] == \
        [_per_field_dims(d) for d in block]
    assert verdicts_pass(rows[1]), rows[1]


def test_block_kernel_reads_the_cap_at_call_time(monkeypatch):
    # -56 and 136 need one split prime each, -15 and 60 none; with none
    # allowed the kernel leaves the first two to the per-field path
    discs = [make_discriminant(d) for d in (-56, 136, -15, 60)]
    monkeypatch.setattr(local, "_SPLIT_PRIME_CAP", 0)
    assert block_genus_dims(discs)[0] == [-1, -1, 2, 2]
    monkeypatch.setattr(local, "_SPLIT_PRIME_CAP", 1)
    assert block_genus_dims(discs)[0] == [2, 1, 2, 2]


def _core_mask(q, disc):
    """The bitmask over the ramified primes of (q, Delta)_p = -1, for q = -1
    or a prime, from ``_hilbert_core`` on stripped ints."""
    mask = 0
    for i, p in enumerate(disc.ramified_primes):
        beta, w = local._strip(disc.delta, p)
        alpha, u = local._strip(q, p)
        if local._hilbert_core(alpha, u, beta, w, p) < 0:
            mask |= 1 << i
    return mask


@pytest.mark.parametrize("lo,hi", [(1, 300), (99701, 100000),
                                   (999701, 999999)])
@pytest.mark.parametrize("sign", [1, -1])
def test_block_kernel_symbols_match_the_core(lo, hi, sign):
    # every row the kernel builds, bit for bit: the row of -1, each list
    # prime (zero unless it splits within the cap) and each ramified prime
    # with its own symbol (zero past t_fin)
    import numpy as np

    from qknorm import scancounts

    lo, hi = sorted((sign * lo, sign * hi))
    discs = fundamental_discriminants(lo, hi)
    D = np.array([d.delta for d in discs], dtype=np.int64)
    t = np.array([d.t_fin for d in discs], dtype=np.int64)
    cap = local._SPLIT_PRIME_CAP
    masks, far = scancounts._genus_rows(discs, D, t, cap)
    width = int(t.max())
    checked = 0
    for f, disc in enumerate(discs):
        if far[f]:
            continue
        split = [q for q in scancounts._SPLIT_PRIMES.tolist()
                 if kronecker(disc, q) == 1][:cap]
        ram = disc.ramified_primes
        want = [_core_mask(-1, disc),
                *(_core_mask(q, disc) if q in split else 0
                  for q in scancounts._SPLIT_PRIMES.tolist()),
                *(_core_mask(q, disc) for q in ram),
                *[0] * (width - len(ram))]
        assert masks[:, f].tolist() == want, disc.delta
        checked += 1
    assert checked > 80


def test_block_f2_rank_matches_a_plain_rank():
    from qknorm import scancounts
    import numpy as np

    rng = random.Random(27)
    columns = [[rng.getrandbits(rng.randint(0, 8)) for _ in range(13)]
               for _ in range(200)]
    ranks = scancounts._f2_rank(np.array(columns, dtype=np.int64).T)
    assert ranks.tolist() == [_f2_rank(c) for c in columns]
