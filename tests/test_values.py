"""The contract of the value types every hot loop builds: ``Discriminant``,
``FracIdeal``, ``K0Elt`` and ``IdeleFS`` are plain slotted classes, equal
when their fields are and hashed consistently with that, whichever path
built them."""

import random
from fractions import Fraction

import pytest

from qknorm.ideals import FracIdeal, primes_above, principal_ideal, \
    split_power_product
from qknorm.knorm import K0Elt
from qknorm.mv import FieldPrimes, IdeleFS, random_norm_kernel_idele
from qknorm.quadfield import Discriminant, QuadNum, \
    fundamental_discriminants, make_discriminant

DELTAS = (-23, -15, -4, 12, 40, 60, 229, -120)


def _same(x, y):
    assert x == y and not x != y, (x, y)
    assert hash(x) == hash(y), (x, y)


def test_instances_have_no_dict():
    disc = make_discriminant(-15)
    ideal = FracIdeal.unit(disc)
    for value in (disc, ideal, K0Elt(1, ideal), IdeleFS.one(disc)):
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_sieve_discriminants_equal_make_discriminant():
    for disc in fundamental_discriminants(-300, 300):
        made = make_discriminant(disc.delta)
        assert made is not disc
        _same(disc, made)


def test_discriminants_differing_in_one_field_are_unequal():
    d = make_discriminant(-15)
    other = Discriminant(d.delta, (3,), d.t_fin, d.t_all, d.is_real)
    assert d != other and not d == other
    assert d == Discriminant(d.delta, (3, 5), d.t_fin, d.t_all, d.is_real)
    assert d != -15


def test_equal_ideals_from_every_path():
    """Each path's ideal equals, and hashes like, the ideal built directly
    from its fields over a Discriminant object of its own."""
    rng = random.Random(3)
    for delta in DELTAS:
        disc = fundamental_discriminants(delta, delta)[0]
        twin = make_discriminant(delta)  # another Discriminant object

        def check(i):
            _same(i, FracIdeal(i.n, i.d, i.a, i.b, twin))
            assert i != FracIdeal(i.n + i.d, i.d, i.a, i.b, twin)

        primes = [q for p in (2, 3, 5, 7)
                  for q in primes_above(disc, p).primes]
        for prime in primes:
            check(prime)
            check(prime.conjugate())
            check(prime.inverse())
            check(prime * prime)
            _same(prime.conjugate().conjugate(), prime)
            _same(prime * prime.inverse(), FracIdeal.unit(twin))
        for _ in range(20):
            n, d = rng.randint(1, 12), rng.randint(1, 12)
            prime = rng.choice(primes)
            check(FracIdeal.scaled(n, d, prime.a, prime.b + 2 * prime.a,
                                   disc))
            _same(FracIdeal.scaled(n, d, prime.a, prime.b, disc),
                  FracIdeal.scaled(n * 5, d * 5, prime.a,
                                   prime.b - 2 * prime.a, twin))
            z = QuadNum(rng.randint(-30, 30), rng.randint(1, 30),
                        rng.randint(1, 9), disc)
            check(principal_ideal(z))
        for prime in primes:
            if disc.delta % prime.a:  # split: [p, ...] with p prime to D
                k = rng.randint(1, 4)
                built = split_power_product([(prime, k)], 1, 1, disc)
                check(built)
                _same(built, prime ** k)


def test_k0_elements_equal_by_sign_and_ideal():
    disc = make_discriminant(-23)
    p2 = primes_above(disc, 2).primes[0]
    twin = FracIdeal(p2.n, p2.d, p2.a, p2.b, make_discriminant(-23))
    _same(K0Elt(1, p2), K0Elt(1, twin))
    assert K0Elt(1, p2) != K0Elt(-1, p2)
    assert K0Elt(1, p2) != K0Elt(1, p2.conjugate())
    # the sign rule: the int 1 or -1, nothing else
    for sign in (2, 0, -2, 1.0, True, Fraction(1)):
        with pytest.raises(ValueError, match="not the int 1 or -1"):
            K0Elt(sign, p2)


def test_ideles_equal_by_components_and_unhashable():
    disc = make_discriminant(-15)
    rng = random.Random(5)
    for _ in range(20):
        z = random_norm_kernel_idele(disc, rng, FieldPrimes(disc))
        copy = IdeleFS(dict(z.components), make_discriminant(-15))
        assert z == copy
        assert z * z.inverse() == IdeleFS.one(disc)
    with pytest.raises(TypeError):
        hash(IdeleFS.one(disc))
