"""Independent oracles the test suite compares the library against.

Everything here is written from first principles on purpose, apart from
factoring, which is sympy's: no imports from the package, different
algorithms, different conventions where possible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import numpy as np
from sympy import primefactors


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n) by the standard reciprocity algorithm."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def imaginary_class_number(D: int) -> int:
    """Dirichlet's finite sum for h of an imaginary quadratic field."""
    assert D < 0
    w = 6 if D == -3 else (4 if D == -4 else 2)
    s = sum(kronecker_symbol(D, k) * k for k in range(1, abs(D)))
    h = Fraction(-w * s, 2 * abs(D))
    assert h.denominator == 1 and h > 0
    return int(h)


def definite_reduced_count(D: int) -> int:
    """Count reduced positive definite forms of discriminant D < 0 directly
    from the inequalities |b| <= a <= c, b >= 0 when |b| = a or a = c."""
    assert D < 0
    count = 0
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            count += 1
    return count


def pell_min(D: int, ymax: int) -> tuple[int, int, int] | None:
    """Smallest y with x^2 - D y^2 = +-4, brute force; None beyond ymax."""
    assert D > 0
    for y in range(1, ymax + 1):
        for pm in (-4, 4):
            t = D * y * y + pm
            if t <= 0:
                continue
            x = isqrt(t)
            if x * x == t:
                return x, y, pm
    return None


def _strip_square_part(n: int) -> int:
    """n divided by its largest square divisor, sign kept."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        d += 1
    return sign * n


def _prime_factors(n: int) -> set[int]:
    """The primes dividing n > 0, by sympy's factoring."""
    return set(primefactors(n))


def relevant_places(a, b) -> list:
    """The places where (a, b)_v can differ from +1: 2, the primes of the
    numerators and denominators of a and b, and the infinite place "oo"."""
    primes = {2}
    for x in (Fraction(a), Fraction(b)):
        primes |= _prime_factors(abs(x.numerator))
        primes |= _prime_factors(x.denominator)
    return sorted(primes) + ["oo"]


def hilbert2_oracle(a, b) -> int:
    """(a, b)_2 decided by exhaustive search for a primitive zero of
    z^2 = a x^2 + b y^2 modulo 64 after removing square parts."""
    a, b = Fraction(a), Fraction(b)
    a = _strip_square_part(a.numerator * a.denominator)
    b = _strip_square_part(b.numerator * b.denominator)
    r = np.arange(64, dtype=np.int64)
    sq = (r * r) % 64
    ax = (a * sq) % 64
    by = (b * sq) % 64
    odd = r % 2 == 1
    zsq_odd = set(((r[odd] * r[odd]) % 64).tolist())
    zsq_all = set(sq.tolist())
    vals = (ax[:, None] + by[None, :]) % 64
    # a primitive solution needs x, y, z not all even
    prim_xy = odd[:, None] | odd[None, :]
    if np.isin(vals[prim_xy], sorted(zsq_all)).any():
        return 1
    if np.isin(vals[~prim_xy], sorted(zsq_odd)).any():
        return 1
    return -1


def hilbert_odd_oracle(a, b, p: int) -> int:
    """(a, b)_p for odd p by exhaustive search mod p^3 (p-free square parts).

    Every (x, y) mod p^3 is tried; whether a x^2 + b y^2 is a z^2 (with z a
    unit when x and y are not) is read from boolean tables indexed by the
    residues mod p^3.
    """
    a, b = Fraction(a), Fraction(b)
    a = _strip_square_part(a.numerator * a.denominator)
    b = _strip_square_part(b.numerator * b.denominator)
    m = p ** 3
    r = np.arange(m, dtype=np.int64)
    sq = (r * r) % m
    ax = (a * sq) % m
    by = (b * sq) % m
    unit = r % p != 0
    is_square = np.zeros(m, dtype=bool)
    is_square[sq] = True
    is_unit_square = np.zeros(m, dtype=bool)
    is_unit_square[sq[unit]] = True
    vals = (ax[:, None] + by[None, :]) % m
    prim_xy = unit[:, None] | unit[None, :]
    if (is_square[vals] & prim_xy).any():
        return 1
    if (is_unit_square[vals] & ~prim_xy).any():
        return 1
    return -1


def real_class_number_analytic(D: int, eps_val: float) -> float:
    """Dirichlet's analytic formula h = L(1, chi) sqrt(D) / (2 log eps),
    with L(1, chi) evaluated through the log-sine finite sum; returns a
    float that should sit next to an integer."""
    from math import log, pi, sin

    assert D > 0 and eps_val > 1
    s = -sum(kronecker_symbol(D, a) * log(sin(pi * a / D))
             for a in range(1, D) if kronecker_symbol(D, a))
    return s / (2 * log(eps_val))


def invariant_factors_by_torsion(elements, mul) -> list[int]:
    """Invariant factors d1 | d2 | ... (all > 1) of a finite abelian group,
    read off the torsion counts #{x : x^n = e} for the prime powers n = p^k
    dividing the order: G[p^k] / G[p^(k-1)] has order p^r, where r is the
    number of cyclic factors whose order p^k divides."""
    elements = list(elements)
    e = next(x for x in elements if mul(x, x) == x)
    n, p, primes = len(elements), 2, []
    while n > 1:
        if n % p == 0:
            primes.append(p)
            n //= p
        else:
            p += 1
    factors: list[int] = []
    for p in sorted(set(primes)):
        powers = {x: x for x in elements}  # x^(p^k), for k = 0, 1, ...
        counts = [1]
        for _ in range(primes.count(p)):
            for x, y in powers.items():
                z = y
                for _ in range(p - 1):
                    z = mul(z, y)
                powers[x] = z
            counts.append(sum(1 for z in powers.values() if z == e))
        # ranks[k-1] = number of cyclic p-factors of order >= p^k
        ranks = []
        for lo, hi in zip(counts, counts[1:]):
            r = 0
            while lo * p ** (r + 1) <= hi:
                r += 1
            assert lo * p ** r == hi
            ranks.append(r)
        exps = [sum(1 for r in ranks if r > j) for j in range(ranks[0])]
        # exps is largest first; multiply into the factors, largest first
        factors += [1] * (len(exps) - len(factors))
        for j, a in enumerate(exps):
            factors[j] *= p ** a
    return sorted(factors)


# wide class numbers of a few quadratic fields, from standard tables
KNOWN_CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3, -24: 2,
    -31: 3, -35: 2, -39: 4, -47: 5, -56: 4, -71: 7, -84: 4, -95: 8,
    -120: 4, -163: 1, -231: 12, -255: 12, -420: 8, -479: 25,
    5: 1, 8: 1, 12: 1, 13: 1, 17: 1, 21: 1, 24: 1, 28: 1, 40: 2,
    60: 2, 65: 2, 85: 2, 104: 2, 105: 2, 120: 2, 136: 2, 145: 4,
    229: 3, 316: 3, 469: 3, 904: 8,
}

# norms of fundamental units, from standard tables
KNOWN_EPS_NORMS = {
    5: -1, 8: -1, 12: 1, 13: -1, 17: -1, 21: 1, 24: 1, 29: -1, 40: -1,
    60: 1, 65: -1, 85: -1, 104: -1, 136: 1, 229: -1, 316: 1,
}
