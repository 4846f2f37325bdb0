import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qknorm.arith import is_prime
from qknorm.ideals import (DiscMismatch, FracIdeal, LatticeCheckError,
                           _hnf2, element_valuation, ideal_valuation,
                           lattice_product, primes_above, principal_ideal,
                           split_power_product)
from qknorm.quadfield import QuadNum, is_fundamental, kronecker, \
    make_discriminant

from helpers import contains, is_integral_ideal, is_unit_ideal

DISCS = [make_discriminant(d) for d in (-15, -23, 12, 60, -4, 40, -120, 229)]


def test_lattice_checks_raise_a_named_error():
    # a span of rank 1, and the square of [3, sqrt(-1)] over D = -4, which
    # is not an ideal (b^2 - D = 4 is not divisible by 4a = 12)
    with pytest.raises(LatticeCheckError, match="full rank"):
        _hnf2([(2, 0), (4, 0)])
    with pytest.raises(LatticeCheckError, match="O_F-module"):
        lattice_product(3, 0, 3, 0, -4)


def _random_ideal(disc, rng):
    i = FracIdeal.unit(disc)
    for _ in range(rng.randint(1, 3)):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        dec = primes_above(disc, p)
        i = i * rng.choice(dec.primes) ** rng.randint(-2, 2)
    return i


def test_unit_ideal():
    for disc in DISCS:
        one = FracIdeal.unit(disc)
        assert one.norm() == 1 and is_integral_ideal(one)
        assert one * one == one


def test_norm_multiplicative():
    rng = random.Random(7)
    for disc in DISCS:
        for _ in range(25):
            i, j = _random_ideal(disc, rng), _random_ideal(disc, rng)
            assert (i * j).norm() == i.norm() * j.norm()


def test_inverse_and_conjugate():
    rng = random.Random(8)
    for disc in DISCS:
        for _ in range(25):
            i = _random_ideal(disc, rng)
            assert i * i.inverse() == FracIdeal.unit(disc)
            # I * conj(I) = N(I) O_F
            n = i.norm()
            scaled = FracIdeal.scaled(n.numerator, n.denominator, 1,
                                      disc.delta % 2, disc)
            assert i * i.conjugate() == scaled


def test_power_is_repeated_product():
    rng = random.Random(12)
    for disc in DISCS:
        for _ in range(5):
            i = _random_ideal(disc, rng)
            for k in range(-3, 5):
                expected = FracIdeal.unit(disc)
                for _ in range(abs(k)):
                    expected = expected * (i if k > 0 else i.inverse())
                assert i ** k == expected, (disc.delta, i, k)


def test_disc_mismatch():
    with pytest.raises(DiscMismatch):
        FracIdeal.unit(DISCS[0]) * FracIdeal.unit(DISCS[2])


def test_principal_ideal_norm():
    rng = random.Random(9)
    for disc in DISCS:
        for _ in range(40):
            z = QuadNum(rng.randint(-30, 30), rng.randint(-30, 30),
                        rng.randint(1, 10), disc)
            if not z:
                continue
            i = principal_ideal(z)
            assert i.norm() == abs(z.norm())
            assert principal_ideal(z.conj()) == i.conjugate()


def test_principal_ideal_multiplicative():
    rng = random.Random(10)
    for disc in DISCS:
        for _ in range(25):
            a = QuadNum(rng.randint(-20, 20), rng.randint(-20, 20),
                        rng.randint(1, 6), disc)
            b = QuadNum(rng.randint(-20, 20), rng.randint(-20, 20),
                        rng.randint(1, 6), disc)
            if not a or not b:
                continue
            assert principal_ideal(a * b) == \
                principal_ideal(a) * principal_ideal(b)


def test_primes_above_kinds():
    for disc in DISCS:
        for p in (2, 3, 5, 7, 11, 13, 17):
            dec = primes_above(disc, p)
            k = kronecker(disc, p)
            assert dec.kind == {1: "split", -1: "inert", 0: "ramified"}[k]
            full = FracIdeal.scaled(p, 1, 1, disc.delta % 2, disc)
            prod = FracIdeal.unit(disc)
            for q in dec.primes:
                prod = prod * q
            if dec.kind == "split":
                assert len(dec.primes) == 2 and prod == full
                assert dec.primes[0] != dec.primes[1]
            elif dec.kind == "ramified":
                assert dec.primes[0] ** 2 == full
            else:
                assert dec.primes[0] == full
                assert dec.primes[0].norm() == p * p


def test_primes_above_rejects_non_prime_under_optimize(src_env):
    # under -O the old assert vanished; the check must still raise and name p
    code = (
        "from qknorm.ideals import primes_above\n"
        "from qknorm.quadfield import make_discriminant\n"
        "for D, p in ((60, 4), (-15, 9), (229, 1), (12, 15)):\n"
        "    try:\n"
        "        primes_above(make_discriminant(D), p)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=src_env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.rsplit(" ", 1)[-1] for line in lines] == ["4", "9", "1", "15"]
    assert all("p = " in line for line in lines)


# each check of the ideal constructors, with an input that breaks it; it
# was an assert, and must now raise its named error also under -O
IDEAL_CHECKS = {
    "scale_not_in_lowest_terms": ("FracIdeal(2, 4, 2, 1, D)", "NotNormalForm"),
    "b_outside_the_range": ("FracIdeal(1, 1, 2, 3, D)", "NotNormalForm"),
    "b_not_a_root_mod_4a": ("FracIdeal(1, 1, 2, 0, D)", "NotNormalForm"),
    "zero_generator": ("principal_ideal(QuadNum(0, 0, 1, D))",
                       "ZeroGenerator"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("check", sorted(IDEAL_CHECKS))
def test_ideal_checks_raise_under_optimize(check, flags, src_env):
    expr, error = IDEAL_CHECKS[check]
    code = ("from qknorm.ideals import FracIdeal, principal_ideal\n"
            "from qknorm.quadfield import QuadNum, make_discriminant\n"
            "D = make_discriminant(-15)\n"
            "try:\n"
            f"    {expr}\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__)\n")
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, env=src_env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == error + "\n"


def test_primes_above_checks_its_root(monkeypatch):
    # a wrong square root of D mod p gives a lattice that is no prime ideal;
    # the explicit check (not an assert) must refuse it
    from qknorm import ideals

    def non_root(a, p):
        return next(x for x in range(1, p) if (x * x - a) % p)

    monkeypatch.setattr(ideals, "sqrt_mod_prime", non_root)
    for delta, p in ((-15, 3), (-15, 5), (229, 5), (-23, 13)):
        with pytest.raises(ArithmeticError, match=f"prime above {p} "):
            primes_above(make_discriminant(delta), p)


def test_valuation_and_factorization():
    # every prime ideal above p < 30 gets an exponent in -3..3; the inert
    # primes and both primes above a split p put content into q
    rng = random.Random(11)
    for delta in range(-200, 201):
        if not is_fundamental(delta):
            continue
        disc = make_discriminant(delta)
        primes = [prime for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
                  for prime in primes_above(disc, p).primes]
        for _ in range(4):
            exps = {prime: rng.randint(-3, 3) for prime in primes}
            i = FracIdeal.unit(disc)
            for prime, e in exps.items():
                i = i * prime ** e
            for prime, e in exps.items():
                assert ideal_valuation(i, prime) == e, (delta, i, prime)
                assert ideal_valuation(i.inverse(), prime) == -e


def test_element_valuation_matches_principal_ideal():
    # the closed form against v_P(z*O), at every prime above p < 14 of
    # fields of both signs; 2 splits for -15, -23, -39, 17, 41 and 105
    rng = random.Random(13)
    seen = set()
    for delta in (-15, -23, -39, -4, -8, -84, -120, 5, 8, 12, 17, 41, 60,
                  105, 229, 316):
        disc = make_discriminant(delta)
        primes = [(dec.kind, prime) for p in (2, 3, 5, 7, 11, 13)
                  for dec in [primes_above(disc, p)] for prime in dec.primes]
        for _ in range(60):
            scale = rng.choice([1, 2, 3, 4, 5, 8, 9, 25, 27, 49])
            z = QuadNum(rng.randint(-60, 60) * scale, rng.randint(-60, 60),
                        rng.choice([1, 2, 3, 4, 6, 9, 10, 16, 21, 26]), disc)
            if not z:
                continue
            i = principal_ideal(z)
            for kind, prime in primes:
                v = element_valuation(z, prime)
                assert v == ideal_valuation(i, prime), (delta, z, prime)
                seen.add((kind, prime.a == 2 or prime.n == 2, v > 0, v < 0))
    for kind in ("split", "inert", "ramified"):
        for at_two in (False, True):
            assert (kind, at_two, True, False) in seen, (kind, at_two)
            assert (kind, at_two, False, True) in seen, (kind, at_two)
    with pytest.raises(ValueError):
        element_valuation(QuadNum(0, 0, 1, DISCS[0]), primes[0][1])


def test_split_power_product_matches_powers():
    # the Hensel-lifted P^k against the repeated product, and products
    # over several split primes with a scale against the ideal products
    rng = random.Random(14)
    small = [p for p in range(2, 60) if all(p % q for q in range(2, p))]
    for delta in (-15, -23, -39, -84, 17, 41, 60, 105, 229):
        disc = make_discriminant(delta)
        split = [dec.primes for p in small
                 for dec in [primes_above(disc, p)] if dec.kind == "split"]
        for pair in split:
            for prime in pair:
                for k in range(1, 9):
                    assert split_power_product([(prime, k)], 1, 1, disc) \
                        == prime ** k, (delta, prime, k)
        for _ in range(20):
            chosen = rng.sample(split, k=min(len(split), rng.randint(1, 3)))
            powers = [(rng.choice(pair), rng.randint(1, 5))
                      for pair in chosen]
            n, d = rng.randint(1, 30), rng.randint(1, 30)
            expected = FracIdeal.scaled(n, d, 1, disc.delta % 2, disc)
            for prime, k in powers:
                expected = expected * prime ** k
            assert split_power_product(powers, n, d, disc) == expected


def test_integer_scale_is_reduced():
    disc = DISCS[0]
    i = FracIdeal.scaled(6, 4, 2, 1, disc)
    assert (i.n, i.d) == (3, 2) and i.q == Fraction(3, 2)
    assert i.norm() == Fraction(9, 2) and not i.norm_is_one()
    assert repr(i) == "FracIdeal(3/2*[2, (1+sqrt(-15))/2])"
    pid = primes_above(disc, 2).primes[0]
    for k in range(-3, 4):
        j = pid ** (2 * k) * FracIdeal.scaled(2 ** max(-k, 0), 2 ** max(k, 0),
                                              1, 1, disc)
        assert j.norm_is_one() and j.norm() == 1
        assert is_unit_ideal(j) == (k == 0)


def test_contains():
    disc = make_discriminant(-15)
    p3 = primes_above(disc, 3).primes[0]
    z = QuadNum(3, 1, 1, disc)  # (3+sqrt(-15))/2, norm 6, in p3
    assert contains(p3, z) or contains(p3.conjugate(), z)
    assert not contains(p3, QuadNum(2, 0, 3, disc))  # 1/3
    assert contains(p3, QuadNum(6, 0, 1, disc))  # 3


@pytest.mark.parametrize("delta", [-23, -15, 60, 229, -85159])
def test_contains_matches_the_product_test(delta):
    # z in I iff z * I^-1 is integral; random ideals are products of prime
    # powers above p < 40 times n/d, elements are members of I, members
    # over a small integer, and random (x + y*sqrt(D))/(2e)
    disc = make_discriminant(delta)
    primes = [p for p in range(2, 40) if is_prime(p)]
    rng = random.Random(delta)
    seen = set()
    for _ in range(40):
        i = FracIdeal.scaled(rng.randint(1, 6), rng.randint(1, 6), 1,
                             delta % 2, disc)
        for _ in range(rng.randint(1, 3)):
            dec = primes_above(disc, rng.choice(primes))
            i = i * rng.choice(dec.primes) ** rng.randint(-2, 2)
        for _ in range(6):
            # u * n*a/d + v * n*(b + sqrt(D))/(2d), from its coordinates
            u, v = rng.randint(-5, 5), rng.randint(-5, 5)
            member = QuadNum(i.n * (2 * i.a * u + i.b * v), i.n * v, i.d,
                             disc)
            x, y = rng.randint(-60, 60), rng.randint(-60, 60)
            for z in (member, member.scale(Fraction(1, rng.randint(2, 9))),
                      QuadNum(x, y, rng.randint(1, 30), disc)):
                expected = (not z or is_integral_ideal(
                    principal_ideal(z) * i.inverse()))
                assert contains(i, z) == expected, (i, z)
                seen.add(expected)
                if z:
                    # is_product, on the j with i = z*j and on its conjugate
                    j = principal_ideal(z).inverse() * i
                    for k in (j, j.conjugate()):
                        assert i.is_product(z, k) == \
                            (principal_ideal(z) * k == i), (i, z, k)
    assert seen == {True, False}
