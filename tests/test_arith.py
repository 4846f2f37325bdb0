"""The integer routines of ``qknorm.arith`` against sympy, which the package
no longer imports and the tests keep as the reference."""

import random
from itertools import islice
from math import prod

import pytest
from sympy import ZZ, Matrix, factorint, isprime, legendre_symbol, nextprime
from sympy.matrices.normalforms import smith_normal_decomp

from qknorm import arith, classgroup, knorm
from qknorm.quadfield import (NotFundamental, fundamental_discriminants,
                              make_discriminant)

# strong pseudoprimes: the least to the first 4, 5, 6, 7, 9 and 12 prime
# bases, and the least to base 2
STRONG_PSEUDOPRIMES = (2047, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051,
                       318665857834031151167461)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161)


def _sieve(n):
    table = bytearray([1]) * n
    table[:2] = b"\0\0"
    for p in range(2, int(n ** 0.5) + 1):
        if table[p]:
            table[p * p::p] = bytes(len(range(p * p, n, p)))
    return table


def test_primes_in_order():
    # the table and the primes past it
    table = _sieve(20000)
    expected = [p for p in range(20000) if table[p]]
    assert list(arith.PRIMES) == [p for p in expected if p < 1024]
    assert list(islice(arith.primes(), len(expected))) == expected


def test_factorint_matches_sympy_up_to_2e5():
    for n in range(2, 200001):
        assert arith.factorint(n) == factorint(n), n
    assert arith.factorint(1) == {}
    for n in (0, -6):
        with pytest.raises(ValueError):
            arith.factorint(n)


def test_factorint_random_64_bit():
    # the factorization is unique: the product and primality of the
    # factors (by sympy) decide it
    rng = random.Random(64)
    for _ in range(2000):
        n = rng.randrange(2, 2 ** 64)
        f = arith.factorint(n)
        assert list(f) == sorted(f), n
        assert prod(p ** e for p, e in f.items()) == n, n
        assert all(e > 0 and isprime(p) for p, e in f.items()), n


def test_factorint_rho_path():
    # two ~30-bit primes lie past the trial-division table, so these are
    # split by Pollard rho
    rng = random.Random(30)
    for _ in range(10):
        p, q = sorted(nextprime(rng.randrange(2 ** 29, 2 ** 30))
                      for _ in range(2))
        assert arith.factorint(p * q) == {p: 1, q: 1}
        assert arith.factorint(12 * p * q) == {2: 2, 3: 1, p: 1, q: 1}
        assert arith.factorint(p * q * q) == {p: 1, q: 2}
        assert arith.factorint(p ** 3) == {p: 3}


def test_is_prime_below_1e6():
    table = _sieve(10 ** 6)
    for n in range(-5, 10 ** 6):
        assert arith.is_prime(n) == (n >= 0 and table[n] == 1), n


def test_is_prime_pseudoprimes_and_large():
    for n in STRONG_PSEUDOPRIMES + CARMICHAEL:
        assert not arith.is_prime(n), n
    rng = random.Random(25)
    for base in (2 ** 64, 10 ** 25):
        for _ in range(2000):
            n = base + rng.randrange(-10 ** 6, 10 ** 6)
            assert arith.is_prime(n) == isprime(n), n
    assert arith.is_prime(2 ** 89 - 1) and arith.is_prime(2 ** 127 - 1)
    assert not arith.is_prime((2 ** 61 - 1) * (2 ** 89 - 1))


def test_strong_lucas_on_odd_numbers():
    # BPSW's Lucas half on every odd n < 10^5 without a factor below 54:
    # it passes the primes and the strong Lucas pseudoprimes (OEIS A217255)
    # and nothing else
    pseudo = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
              58519, 75077, 97439}
    table = _sieve(10 ** 5)
    for n in range(55, 10 ** 5, 2):
        if any(n % p == 0 for p in arith.PRIMES[:16]):
            continue
        assert arith._strong_lucas(n) == (table[n] == 1 or n in pseudo), n


def test_make_discriminant_with_large_prime_factors():
    # cores with two prime factors past the trial-division table
    p = nextprime(2 ** 30)
    while p % 4 != 1:
        p = nextprime(p)
    p2, q = nextprime(p), nextprime(p)
    while p2 % 4 != 1:
        p2 = nextprime(p2)
    while q % 4 != 3:
        q = nextprime(q)
    assert make_discriminant(p * p2).ramified_primes == (p, p2)
    assert make_discriminant(-p * q).ramified_primes == (p, q)
    assert make_discriminant(4 * p * q).ramified_primes == (2, p, q)
    with pytest.raises(NotFundamental):
        make_discriminant(-p * p * q)


def _check_smith(m):
    # the diagonal equals sympy's, w is unimodular, and m * w^-1 * diag^-1
    # is an integer matrix of determinant +-1 (it is U^-1 for the row
    # transform U that smith_form does not keep)
    n = len(m)
    invs, w = arith.smith_form(m)
    S = smith_normal_decomp(Matrix(m), domain=ZZ)[0]
    assert list(invs) == [S[i, i] for i in range(n)], m
    W = Matrix(w)
    assert W.det() in (1, -1), m
    u = Matrix(m) * W.inv() * Matrix.diag(*invs).inv()
    assert all(x.is_integer for x in u) and u.det() in (1, -1), m
    return invs


def test_smith_form_on_relation_matrices(monkeypatch):
    # every relation matrix that class_group's closure and k0_group's
    # presentation build over the fundamental |D| <= 3000 (lower-triangular,
    # so |det| is the product of the diagonal); test_classgroup and
    # test_knorm check the invariants against torsion counts, which share
    # nothing with either Smith form
    mats = []
    snf = arith.smith_form

    def record(m):
        mats.append([list(row) for row in m])
        return snf(m)

    monkeypatch.setattr(classgroup, "smith_form", record)
    monkeypatch.setattr(knorm, "smith_form", record)
    for disc in fundamental_discriminants(-3000, 3000):
        knorm.k0_group(knorm.k0_context(disc))
    assert len(mats) == 2 * 1820
    for m in mats:
        invs = _check_smith(m)
        assert prod(invs) == prod(m[i][i] for i in range(len(m)))


def test_smith_form_on_random_lower_triangular():
    rng = random.Random(6)
    for _ in range(2000):
        n = rng.randint(1, 6)
        m = [[rng.randint(-30, 30) if j < i and rng.random() < 0.7 else 0
              for j in range(n)] for i in range(n)]
        for i in range(n):
            m[i][i] = rng.choice([1, 2, 3, 4, 6, 12, rng.randint(1, 60)])
        _check_smith(m)


def test_smith_form_refuses_singular_matrices():
    for m in ([[0]], [[1, 2], [2, 4]], [[2, 0, 0], [0, 0, 0], [0, 0, 3]]):
        with pytest.raises(ValueError, match="singular"):
            arith.smith_form(m)
    assert arith.smith_form([]) == ((), [])


def test_legendre_on_every_residue_of_the_table_primes():
    for p in arith.PRIMES[1:]:
        squares = {x * x % p for x in range(1, p)}
        for x in range(-p, 2 * p):
            want = 0 if x % p == 0 else 1 if x % p in squares else -1
            assert arith.legendre(x, p) == want, (x, p)


def test_legendre_past_the_table():
    rng = random.Random(17)
    odd_table = arith.PRIMES[1:]
    for i in range(2000):
        p = nextprime(rng.randint(arith.TABLE_BOUND, 10 ** 7))
        x = (-1, 2, rng.choice(odd_table), rng.randint(-10 ** 9, 10 ** 9),
             rng.choice(odd_table) * rng.choice((-1, 3, p)))[i % 5]
        assert arith.legendre(x, p) == legendre_symbol(x, p), (x, p)
