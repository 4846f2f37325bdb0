import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from qknorm.quadfield import (Discriminant, NotFundamental, QuadNum,
                              fundamental_discriminants, is_fundamental,
                              kronecker, make_discriminant, sqrt_mod_prime)

from helpers import NotIntegral, from_integral, is_integral_element, trace
from oracle import kronecker_symbol

D15 = make_discriminant(-15)
D12 = make_discriminant(12)


def test_fundamental_classification():
    assert is_fundamental(5)
    assert is_fundamental(-4)
    assert is_fundamental(-3)
    assert is_fundamental(8)
    assert not is_fundamental(1)
    assert not is_fundamental(0)
    assert not is_fundamental(45)  # 45 = 9 * 5
    assert not is_fundamental(-12)
    assert not is_fundamental(16)
    assert not is_fundamental(2)  # 2 mod 4


def test_make_discriminant_bookkeeping():
    d = make_discriminant(-120)
    assert d.ramified_primes == (2, 3, 5)
    assert d.t_fin == 3 and d.t_all == 4 and not d.is_real
    d = make_discriminant(60)
    assert d.ramified_primes == (2, 3, 5)
    assert d.t_all == d.t_fin == 3 and d.is_real
    with pytest.raises(NotFundamental):
        make_discriminant(45)


def _squarefree(m):
    return m != 0 and all(m % (d * d) for d in range(2, math.isqrt(abs(m)) + 1))


def test_make_discriminant_raises_exactly_off_fundamentals():
    # against the definition, by trial division: n = 1 mod 4 squarefree, or
    # n = 4m with m = 2, 3 mod 4 squarefree
    for n in range(-3000, 3001):
        fundamental = n != 1 and (
            (n % 4 == 1 and _squarefree(n))
            or (n % 4 == 0 and n // 4 % 4 in (2, 3) and _squarefree(n // 4)))
        assert is_fundamental(n) == fundamental, n
        if fundamental:
            d = make_discriminant(n)
            assert d.ramified_primes == tuple(sorted(factorint(abs(n)))), n
        else:
            with pytest.raises(NotFundamental):
                make_discriminant(n)


@pytest.mark.parametrize("lo,hi", [(-3000, 3000), (99000, 100000),
                                   (-100000, -99000), (2, 3), (5, 5),
                                   (-4, -3), (-1, 1), (0, 0),
                                   # past the prime table, |n| >= 1024^2:
                                   # 1031^2 and -1031*1033 need primes
                                   # above the table's largest, 1021
                                   (1062800, 1063100),
                                   (-1065100, -1064800),
                                   # where the table ends and _sieve begins
                                   (1048000, 1049300),
                                   (-1049300, -1048000),
                                   (2 ** 40, 2 ** 40 + 300),
                                   (-2 ** 40 - 300, -2 ** 40),
                                   (1, 1), (5, 4)])
def test_sieve_matches_make_discriminant(lo, hi):
    got = fundamental_discriminants(lo, hi)
    assert got == [make_discriminant(n) for n in range(lo, hi + 1)
                   if is_fundamental(n)]
    # plain ints, as make_discriminant gives: the scan prints and reuses them
    for d in got:
        assert type(d.delta) is int, d
        assert all(type(p) is int for p in d.ramified_primes), d


def test_canonical_form_is_reduced():
    a = QuadNum(4, 2, 6, D15)
    assert math.gcd(math.gcd(a.x, a.y), a.d) == 1
    assert QuadNum(-2, 0, -4, D15) == QuadNum(1, 0, 2, D15)


def test_integrality_convention():
    # with the /2 convention, (1+sqrt(-15))/2 is integral (D = 1 mod 4)
    assert is_integral_element(QuadNum(1, 1, 1, D15))
    assert not is_integral_element(QuadNum(1, 0, 1, D15))  # 1/2
    assert is_integral_element(QuadNum(2, 0, 1, D15))
    # D = 0 mod 4: (x + y sqrt(D))/2 integral only for even x
    assert is_integral_element(QuadNum(2, 1, 1, D12))
    assert not is_integral_element(QuadNum(1, 1, 1, D12))
    with pytest.raises(NotIntegral):
        from_integral(1, 0, D15)


def _qn(disc):
    ints = st.integers(min_value=-40, max_value=40)
    pos = st.integers(min_value=1, max_value=20)
    return st.builds(lambda x, y, d: QuadNum(x, y, d, disc), ints, ints, pos)


@given(_qn(D15), _qn(D15), _qn(D15))
@settings(max_examples=200, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a
    if b:
        assert (a / b) * b == a


@given(_qn(D12), _qn(D12))
@settings(max_examples=200, deadline=None)
def test_norm_trace_multiplicative_additive(a, b):
    assert (a * b).norm() == a.norm() * b.norm()
    assert trace(a + b) == trace(a) + trace(b)
    assert a.conj().norm() == a.norm()
    assert a.norm() == (a * a.conj()).as_rational()


@pytest.mark.parametrize("delta", [-15, -4, 8, 12, 60, -23, 229, -120])
def test_kronecker_matches_reference(delta):
    disc = make_discriminant(delta)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        assert kronecker(disc, p) == kronecker_symbol(delta, p)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([3, 5, 7, 11, 13, 101, 997]))
@settings(max_examples=300, deadline=None)
def test_sqrt_mod_prime(a, p):
    r = sqrt_mod_prime(a, p)
    if r is None:
        assert pow(a, (p - 1) // 2, p) == p - 1
    else:
        assert r * r % p == a % p


def test_rational_embedding():
    q = Fraction(-7, 3)
    a = QuadNum.from_rational(q, D15)
    assert a.is_rational() and a.as_rational() == q
    assert a.norm() == q * q and trace(a) == 2 * q
