import random
from fractions import Fraction

import pytest

from qknorm.local import (INFINITY, hilbert_symbol, genus_char_space,
                          h0_class_of_rational, is_global_norm,
                          norm_uniformizer, relevant_places,
                          unit_class_at_ramified, TateVec)
from qknorm.quadfield import is_fundamental, kronecker, make_discriminant

from oracle import hilbert2_oracle, hilbert_odd_oracle


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
                assert is_global_norm(n, disc, "all"), (delta, n)


def test_minus_one_norm_criterion():
    # -1 is not a norm iff the field is imaginary or some p = 3 mod 4 ramifies
    for delta in range(-300, 300):
        if not is_fundamental(delta):
            continue
        disc = make_discriminant(delta)
        expect = not (delta < 0
                      or any(p % 4 == 3 for p in disc.ramified_primes))
        assert is_global_norm(-1, disc, "all") == expect, delta


def test_norm_uniformizer():
    for delta in (-15, 12, 60, -120, 105, -56):
        disc = make_discriminant(delta)
        for p in disc.ramified_primes:
            q = norm_uniformizer(disc, p)
            assert hilbert_symbol(q, delta, p) == 1
            num = q.numerator * q.denominator
            v = 0
            while num % p == 0:
                num //= p
                v += 1
            assert v == 1


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
                         and unit_class_at_ramified(Fraction(n), disc, p)
                         == want)
                fams[p] = u
            key = tuple(unit_class_at_ramified(fams[p], disc, p)
                        for p in places)
            assert key == tuple(delta_units >> i & 1
                                for i in range(len(places)))
            seen.add(key)
        assert len(seen) == 1 << len(places)


def test_h0_class_of_rational_support():
    disc = make_discriminant(-15)
    v = h0_class_of_rational(5, disc)
    assert v.get(3) == 1 and v.get(5) == 1
    assert h0_class_of_rational(1, disc).coords == frozenset()
    for p in v.coords:
        assert kronecker(disc, p) != 1


def test_tatevec_algebra():
    a = TateVec.make([3, 5], "ramified_only")
    b = TateVec.make([5, 7], "ramified_only")
    assert (a + b).coords == frozenset({3, 7})
    assert not (a + a)
    assert a.get(3) == 1 and a.get(11) == 0


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
            assert got == vec.coords
            if 2 not in disc.ramified_primes and kronecker(disc, 2) == -1:
                assert hilbert_symbol(q, delta, 2) == 1
