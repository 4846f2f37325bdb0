"""Fundamental discriminants and exact arithmetic in a quadratic field.

Elements are stored as (x + y*sqrt(D))/(2d) with integer x, y and positive
denominator d, reduced so that gcd(x, y, d) = 1.  With this convention the
ring of integers is exactly the set of elements with d = 1 (and the parity
constraint x = y*D mod 2), for both D = 0 and D = 1 mod 4.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, isqrt

from .arith import PRIMES, TABLE_BOUND, _sieve, factorint, legendre


class NotFundamental(ValueError):
    """Raised when an integer is not a fundamental quadratic discriminant."""


class DiscMismatch(ValueError):
    """Raised when combining values over different discriminants."""


class Discriminant:
    """A fundamental discriminant with the primes that ramify in its field.

    A plain value: equal when every field is, hashed on ``delta`` alone (so
    on an int), and immutable by convention.
    """

    __slots__ = ("delta", "ramified_primes", "t_fin", "t_all", "is_real")

    def __init__(self, delta: int, ramified_primes: tuple[int, ...],
                 t_fin: int, t_all: int, is_real: bool):
        self.delta = delta
        self.ramified_primes = ramified_primes
        self.t_fin = t_fin
        self.t_all = t_all
        self.is_real = is_real

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Discriminant:
            return NotImplemented
        return (self.delta == other.delta
                and self.ramified_primes == other.ramified_primes
                and self.t_fin == other.t_fin and self.t_all == other.t_all
                and self.is_real == other.is_real)

    def __hash__(self):
        return hash(self.delta)

    def __repr__(self):
        return f"Discriminant({self.delta})"


def _fundamental_primes(n: int) -> tuple[int, ...] | None:
    """The primes dividing n when n is a fundamental discriminant, else None.

    n is fundamental when n = 1 mod 4 is squarefree (n != 1), or n = 4m with
    m = 2, 3 mod 4 squarefree; one factorization decides it and gives the
    primes.
    """
    if n % 4 == 1 and n != 1:
        core = n
    elif n % 4 == 0 and n // 4 % 4 in (2, 3):
        core = n // 4
    else:
        return None
    f = factorint(abs(core))
    if any(e > 1 for e in f.values()):
        return None
    primes = set(f) | ({2} if n % 4 == 0 else set())
    return tuple(sorted(primes))


def is_fundamental(n: int) -> bool:
    return _fundamental_primes(n) is not None


def _discriminant(n: int, ramified: tuple[int, ...]) -> Discriminant:
    t_fin = len(ramified)
    t_all = t_fin if n > 0 else t_fin + 1
    return Discriminant(n, ramified, t_fin, t_all, n > 0)


def make_discriminant(n: int) -> Discriminant:
    ramified = _fundamental_primes(n)
    if ramified is None:
        raise NotFundamental(f"{n} is not a fundamental discriminant")
    return _discriminant(n, ramified)


def fundamental_discriminants(lo: int, hi: int) -> list[Discriminant]:
    """Every fundamental discriminant in lo..hi, in order, by a sieve.

    For n = 1 mod 4, or n = 4m with m = 2, 3 mod 4 (n = 8, 12 mod 16), the
    core is squarefree exactly when no odd p^2 divides n (the power of 2 is
    fixed by the residue).  Each odd prime p <= sqrt(max |n|), read from
    ``arith``'s prime table for |n| < 1024^2, is divided out once from the
    odd part of every multiple in the range, and a second factor p drops n;
    what is left is 1 or one more prime.  The ramified primes come out in
    order: 2, the sieved primes, the last prime.
    """
    if lo > hi:
        return []
    rest = [0] * (hi - lo + 1)  # the odd part of |n| not yet divided out
    primes = [None] * len(rest)
    for r, shift, step in ((1, 0, 4), (8, 3, 16), (12, 2, 16)):
        for i in range((r - lo) % step, len(rest), step):
            rest[i] = abs(lo + i) >> shift
            primes[i] = [2] if shift else []
    if lo <= 1 <= hi:
        rest[1 - lo] = 0
    root = isqrt(max(-lo, hi))
    odd = (PRIMES[1:bisect_right(PRIMES, root)] if root < TABLE_BOUND
           else _sieve(root + 1)[1:])
    for p in odd:
        for i in range(-lo % p, len(rest), p):
            if rest[i]:
                q = rest[i] // p
                rest[i] = 0 if q % p == 0 else q
                primes[i].append(p)
    return [_discriminant(lo + i, tuple(primes[i] + [q] if q > 1
                                        else primes[i]))
            for i, q in enumerate(rest) if q]


class QuadNum:
    """An element (x + y*sqrt(delta))/(2d) of the quadratic field."""

    __slots__ = ("x", "y", "d", "disc")

    def __init__(self, x: int, y: int, d: int, disc: Discriminant):
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            x, y, d = -x, -y, -d
        g = gcd(gcd(x, y), d)
        if g > 1:
            x //= g
            y //= g
            d //= g
        self.x = x
        self.y = y
        self.d = d
        self.disc = disc

    @classmethod
    def from_rational(cls, q, disc: Discriminant) -> "QuadNum":
        q = Fraction(q)
        return cls(2 * q.numerator, 0, q.denominator, disc)

    def _key(self):
        return (self.x, self.y, self.d, self.disc.delta)

    def __eq__(self, other):
        return isinstance(other, QuadNum) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"QuadNum(({self.x}+{self.y}*sqrt({self.disc.delta}))/{2*self.d})"

    def __bool__(self):
        return self.x != 0 or self.y != 0

    def is_rational(self) -> bool:
        return self.y == 0

    def as_rational(self) -> Fraction:
        assert self.y == 0
        return Fraction(self.x, 2 * self.d)

    def conj(self) -> "QuadNum":
        return QuadNum(self.x, -self.y, self.d, self.disc)

    def norm(self) -> Fraction:
        D = self.disc.delta
        return Fraction(self.x * self.x - D * self.y * self.y,
                        4 * self.d * self.d)

    def __neg__(self):
        return QuadNum(-self.x, -self.y, self.d, self.disc)

    def __add__(self, other):
        other = self._coerce(other)
        return QuadNum(self.x * other.d + other.x * self.d,
                       self.y * other.d + other.y * self.d,
                       self.d * other.d, self.disc)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        D = self.disc.delta
        x = self.x * other.x + D * self.y * other.y
        y = self.x * other.y + self.y * other.x
        return QuadNum(x, y, 2 * self.d * other.d, self.disc)

    __radd__ = __add__
    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        # 1/a = conj(a)/N(a)
        c = self.conj()
        return QuadNum(c.x * n.denominator, c.y * n.denominator,
                       c.d * n.numerator, self.disc)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def scale(self, q) -> "QuadNum":
        q = Fraction(q)
        return QuadNum(self.x * q.numerator, self.y * q.numerator,
                       self.d * q.denominator, self.disc)

    def _coerce(self, other):
        if isinstance(other, QuadNum):
            if other.disc.delta != self.disc.delta:
                raise DiscMismatch(f"discriminants {self.disc.delta} and "
                                   f"{other.disc.delta} differ")
            return other
        return QuadNum.from_rational(other, self.disc)


def kronecker(disc: Discriminant, p: int) -> int:
    """0 if p ramifies, +1 if p splits, -1 if p is inert."""
    D = disc.delta
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 == 1 else -1
    return legendre(D, p)


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod an odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
