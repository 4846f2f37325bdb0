"""Integer arithmetic on plain ints: one table of small primes, Legendre
symbols, primality, factoring, and the Smith normal form with its
transforms.

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


class _ResidueTables(dict):
    """p -> the tuple of (x/p) at x = 0, ..., p - 1, for the odd primes below
    TABLE_BOUND; each table is built on its first lookup."""

    def __missing__(self, p: int) -> tuple[int, ...]:
        table = [-1] * p
        table[0] = 0
        for x in range(1, p // 2 + 1):
            table[x * x % p] = 1
        self[p] = table = tuple(table)
        return table


_RESIDUES = _ResidueTables()


def legendre(x: int, p: int) -> int:
    """The Legendre symbol (x/p) for an odd prime p.

    Below TABLE_BOUND it is read from p's table of residues.  Above it, x =
    -1, 2 or an odd prime q of the table goes by reciprocity to q's table,
    (q/p) = (p/q) (-1)^((p-1)/2 (q-1)/2); any other x by Euler's criterion.
    """
    if p < TABLE_BOUND:
        return _RESIDUES[p][x % p]
    if x == -1:
        return 1 if p & 3 == 1 else -1
    if x == 2:
        return 1 if p & 7 in (1, 7) else -1
    if x in _TABLE:
        r = _RESIDUES[x][p % x]
        return -r if x & p & 2 else r
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


# ---------------------------------------------------------------------------
# the Smith normal form: SymPy 1.14's ``_smith_normal_decomp`` over ZZ, step
# for step, so that its transforms (and the class-group generators read off
# them) are the same


def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b = g = gcd(a, b), as ``ZZ.gcdex`` gives."""
    if not a or not b:
        g = abs(a) or abs(b)
        return (a // g, b // g, g) if g else (0, 0, 0)
    x_sign, a = (-1, -a) if a < 0 else (1, a)
    y_sign, b = (-1, -b) if b < 0 else (1, b)
    x, r, y, s = 1, 0, 0, 1
    while b:
        q, c = divmod(a, b)
        a, b = b, c
        x, r = r, x - q * r
        y, s = s, y - q * s
    return x * x_sign, y * y_sign, a


def _eye(n: int) -> list[list[int]]:
    return [[int(i == j) for i in range(n)] for j in range(n)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _add_rows(m, i, j, a, b, c, d):
    # m[i] <- a*m[i] + b*m[j] and m[j] <- c*m[i] + d*m[j]
    for k in range(len(m[0])):
        e = m[i][k]
        m[i][k] = a * e + b * m[j][k]
        m[j][k] = c * e + d * m[j][k]


def _add_columns(m, i, j, a, b, c, d):
    # m[:, i] <- a*m[:, i] + b*m[:, j] and m[:, j] <- c*m[:, i] + d*m[:, j]
    for row in m:
        e = row[i]
        row[i] = a * e + b * row[j]
        row[j] = c * e + d * row[j]


def smith_normal_decomp(m: list[list[int]]):
    """(invariants, s, t) with s*m*t the diagonal matrix of the invariants,
    s and t unimodular, for an integer matrix m given as a list of rows."""
    m = [list(row) for row in m]
    rows, cols = len(m), len(m[0]) if m else 0
    if not rows or not cols:
        return (), _eye(rows), _eye(cols)
    s, t = _eye(rows), _eye(cols)

    def clear(line, other, ops, n):
        # make the first column (row) of m zero below (right of) m[0][0]
        pivot = line(0)
        for j in range(1, n):
            if line(j) == 0:
                continue
            d, r = divmod(line(j), pivot)
            if r == 0:
                ops(m, 0, j, 1, 0, -d, 1)
                ops(other, 0, j, 1, 0, -d, 1)
            else:
                a, b, g = _gcdex(pivot, line(j))
                d_0, d_j = line(j) // g, pivot // g
                ops(m, 0, j, a, b, d_0, -d_j)
                ops(other, 0, j, a, b, d_0, -d_j)
                pivot = g

    # bring a nonzero entry to m[0][0], if there is one (the index test is
    # SymPy's: a nonzero m[0][0] is left in place)
    ind = [i for i in range(rows) if m[i][0]]
    if ind and ind[0] != 0:
        m[0], m[ind[0]] = m[ind[0]], m[0]
        s[0], s[ind[0]] = s[ind[0]], s[0]
    else:
        ind = [j for j in range(cols) if m[0][j]]
        if ind and ind[0] != 0:
            for row in m + t:
                row[0], row[ind[0]] = row[ind[0]], row[0]

    while (any(m[0][j] for j in range(1, cols))
           or any(m[i][0] for i in range(1, rows))):
        clear(lambda j: m[j][0], s, _add_rows, rows)
        clear(lambda j: m[0][j], t, _add_columns, cols)

    if m[0][0] < 0:
        m[0][0] = -m[0][0]
        s[0] = [-e for e in s[0]]

    invs = ()
    if rows > 1 and cols > 1:
        invs, s_small, t_small = smith_normal_decomp(
            [r[1:] for r in m[1:]])
        s = _matmul([[1] + [0] * (rows - 1)] + [[0] + r for r in s_small], s)
        t = _matmul(t, [[1] + [0] * (cols - 1)] + [[0] + r for r in t_small])

    if not m[0][0]:
        if rows > 1:
            s = s[1:] + [s[0]]
        if cols > 1:
            t = [row[1:] + [row[0]] for row in t]
        return invs + (m[0][0],), s, t
    result = [m[0][0], *invs]
    # in case m[0][0] does not divide the invariants of the rest
    for i in range(len(result) - 1):
        a, b = result[i], result[i + 1]
        if not b or b % a == 0:
            break
        x, y, d = _gcdex(a, b)
        alpha, beta = a // d, b // d
        _add_rows(s, i, i + 1, 1, 0, x, 1)
        _add_columns(t, i, i + 1, 1, y, 0, 1)
        _add_rows(s, i, i + 1, 1, -alpha, 0, 1)
        _add_columns(t, i, i + 1, 1, 0, -beta, 1)
        _add_rows(s, i, i + 1, 0, 1, -1, 0)
        result[i + 1] = b * alpha
        result[i] = d
    return tuple(result), s, t


def unimodular_inverse(v: list[list[int]]) -> list[list[int]]:
    """The inverse of a square integer matrix of determinant +-1, by
    integer row reduction of [v | 1]."""
    n = len(v)
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(v)]
    for c in range(n):
        while True:  # Euclid down column c
            nz = [r for r in range(c, n) if a[r][c]]
            if not nz:
                raise ValueError("unimodular_inverse: singular matrix")
            p = min(nz, key=lambda r: abs(a[r][c]))
            a[c], a[p] = a[p], a[c]
            if len(nz) == 1:
                break
            for r in range(c + 1, n):
                q = a[r][c] // a[c][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[c])]
        if abs(a[c][c]) != 1:
            raise ValueError("unimodular_inverse: determinant is not +-1")
        if a[c][c] < 0:
            a[c] = [-x for x in a[c]]
    for c in reversed(range(n)):
        for r in range(c):
            q = a[r][c]
            a[r] = [x - q * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]
