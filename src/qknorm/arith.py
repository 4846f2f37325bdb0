"""Integer arithmetic on plain ints: one table of small primes, Legendre
symbols by Euler's criterion, primality, factoring, and the Smith form of a
square matrix with the inverse of its column transform.

Primality is deterministic Miller-Rabin on the first k prime bases, with k
read off the smallest strong pseudoprime to those bases, which makes the
test exact below 3.3e24; above that it is BPSW (a strong probable-prime
test to base 2 and a strong Lucas test), with no known counterexample.
Factoring trial-divides by the table and splits a composite cofactor by
Pollard rho in Brent's variant.  (Cohen, A Course in Computational Algebraic
Number Theory, 8.2, 8.5 and 2.4.)
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt

TABLE_BOUND = 1024


def _sieve(n: int) -> tuple[int, ...]:
    table = bytearray([1]) * n
    table[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if table[p]:
            table[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if table[p])


PRIMES = _sieve(TABLE_BOUND)  # the primes below TABLE_BOUND, in order
_TABLE = frozenset(PRIMES)


def legendre(x: int, p: int) -> int:
    """The Legendre symbol (x/p) for an odd prime p, by Euler's criterion:
    x^((p-1)/2) is 1, p - 1 or 0 mod p."""
    r = pow(x, p >> 1, p)
    return -1 if r == p - 1 else r


def primes():
    """Every prime in order: the table, then odd numbers by ``is_prime``."""
    yield from PRIMES
    for n in count(PRIMES[-1] + 2, 2):
        if is_prime(n):
            yield n


# (b, k): no strong pseudoprime below b passes the first k prime bases
_MR_BOUNDS = ((1373653, 2), (25326001, 3), (3215031751, 4),
              (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
              (3825123056546413051, 9), (318665857834031151167461, 12),
              (3317044064679887385961981, 13))


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0."""
    a %= n
    j = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                j = -j
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            j = -j
        a %= n
    return j if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test with Selfridge's parameters
    (D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4) for an odd n > 1 without small factors."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        return (x + n if x % 2 else x) // 2 % n

    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q^1 with P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality of an int: a table lookup below TABLE_BOUND, Miller-Rabin
    or BPSW above."""
    if n < TABLE_BOUND:
        return n in _TABLE
    if any(n % p == 0 for p in PRIMES[:16]):
        return False
    for bound, k in _MR_BOUNDS:
        if n < bound:
            return all(_strong_probable_prime(n, a) for a in PRIMES[:k])
    return _strong_probable_prime(n, 2) and _strong_lucas(n)


def _rho(n: int) -> int:
    """A proper factor of an odd composite n (Pollard rho, Brent's cycle
    search with batched gcds)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorint(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e for an int n >= 1, primes increasing."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out = {}
    for p in PRIMES:
        if p * p > n:
            if n > 1:
                out[n] = 1
            return out
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho(m)
            rest += [f, m // f]
    return dict(sorted(out.items()))


def smith_form(m: list[list[int]]) -> tuple[tuple[int, ...], list[list[int]]]:
    """(invariants, w) for a square integer matrix m of nonzero determinant:
    U*m*V = diag(invariants) for some unimodular U and V, with positive
    invariants d1 | d2 | ..., and w = V^-1.

    The pivot is the least nonzero |entry| left; its column and row are
    cleared by division, and an entry it does not divide is brought into its
    row by adding that entry's row.  Row operations are not kept; each column
    operation is applied inversely to w, so no inverse is taken (Cohen, A
    Course in Computational Algebraic Number Theory, 2.4.14).
    """
    a = [list(row) for row in m]
    n = len(a)
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        while True:
            nz = [(abs(a[i][j]), i, j) for i in range(k, n)
                  for j in range(k, n) if a[i][j]]
            if not nz:
                raise ValueError("smith_form: singular matrix")
            _, i, j = min(nz)
            a[k], a[i] = a[i], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            w[k], w[j] = w[j], w[k]
            p = a[k][k]
            for i in range(k + 1, n):
                q = a[i][k] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            for j in range(k + 1, n):
                q = a[k][j] // p
                for row in a:
                    row[j] -= q * row[k]
                w[k] = [x + q * y for x, y in zip(w[k], w[j])]
            if any(a[i][k] or a[k][i] for i in range(k + 1, n)):
                continue
            bad = [row for row in a[k + 1:] if any(x % p for x in row)]
            if not bad:
                break
            a[k] = [x + y for x, y in zip(a[k], bad[0])]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
    return tuple(a[k][k] for k in range(n)), w
