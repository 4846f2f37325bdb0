"""Exact fractional-ideal arithmetic in the maximal order of a quadratic field.

An ideal is stored as q * (a*Z + ((b+sqrt(D))/2)*Z) with a positive rational
scale q, a > 0 and -a < b <= a.  Products are Z-module products on the
integral basis {1, w}, w = (D+sqrt(D))/2, followed by Hermite normalization
(``lattice_product``, shared with the composition of forms), which keeps
everything exact.  Valuations are read off (q, a, b) (``ideal_valuation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .local import _valuation
from .quadfield import (Discriminant, QuadNum, is_prime, kronecker,
                        sqrt_mod_prime)


class DiscMismatch(ValueError):
    """Raised when combining ideals over different discriminants."""


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf2(vectors: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite form of the Z-module spanned by 2-coordinate vectors.

    Returns (n, c, e) with module = Z*(n,0) + Z*(c,e), n > 0, e > 0.
    """
    c, e = 0, 0
    zs = []
    for u, v in vectors:
        if v == 0:
            if u:
                zs.append(u)
            continue
        if e == 0:
            c, e = u, v
            continue
        g, s, t = _xgcd(e, v)
        residual = (e * u - v * c) // g
        if residual:
            zs.append(residual)
        c, e = s * c + t * u, g
    if e < 0:
        c, e = -c, -e
    n = 0
    for z in zs:
        n = gcd(n, z)
    assert n > 0 and e > 0, "module does not have full rank"
    c %= n
    return n, c, e


def lattice_product(a1: int, b1: int, a2: int, b2: int,
                    D: int) -> tuple[int, int, int]:
    """[a1, (b1+sqrt(D))/2] * [a2, (b2+sqrt(D))/2] = e * [a, (b+sqrt(D))/2].

    Returns (e, a, b) with -a < b <= a.  The products of the basis vectors,
    (b-D)/2 + w with w^2 = D*w - (D^2-D)/4, are put in Hermite form.
    """
    x1, x2 = (b1 - D) // 2, (b2 - D) // 2
    n, c, e = _hnf2([(a1 * a2, 0), (a1 * x2, a1), (a2 * x1, a2),
                     (x1 * x2 - (D * D - D) // 4, x1 + x2 + D)])
    assert n % e == 0 and c % e == 0, "product is not an O_F-module"
    a = n // e
    b = (2 * (c // e) + D) % (2 * a)
    return e, a, (b - 2 * a if b > a else b)


@dataclass(frozen=True)
class FracIdeal:
    q: Fraction
    a: int
    b: int
    disc: Discriminant

    def __post_init__(self):
        D = self.disc.delta
        assert self.q > 0 and self.a > 0
        assert -self.a < self.b <= self.a
        assert (self.b * self.b - D) % (4 * self.a) == 0

    def __repr__(self):
        return f"FracIdeal({self.q}*[{self.a}, ({self.b}+sqrt({self.disc.delta}))/2])"

    @classmethod
    def make(cls, q, a: int, b: int, disc: Discriminant) -> "FracIdeal":
        b = b % (2 * a)
        if b > a:
            b -= 2 * a
        return cls(Fraction(q), a, b, disc)

    @classmethod
    def unit(cls, disc: Discriminant) -> "FracIdeal":
        return cls.make(1, 1, disc.delta % 2, disc)

    def is_unit_ideal(self) -> bool:
        return self.q == 1 and self.a == 1

    def is_integral(self) -> bool:
        return self.q.denominator == 1

    def norm(self) -> Fraction:
        return self.q * self.q * self.a

    def conjugate(self) -> "FracIdeal":
        return FracIdeal.make(self.q, self.a, -self.b, self.disc)

    def inverse(self) -> "FracIdeal":
        c = self.conjugate()
        return FracIdeal(c.q / self.norm(), c.a, c.b, c.disc)

    def __mul__(self, other: "FracIdeal") -> "FracIdeal":
        if not isinstance(other, FracIdeal):
            return NotImplemented
        if other.disc.delta != self.disc.delta:
            raise DiscMismatch(
                f"discriminants {self.disc.delta} and {other.disc.delta} differ")
        e, a, b = lattice_product(self.a, self.b, other.a, other.b,
                                  self.disc.delta)
        return FracIdeal(self.q * other.q * e, a, b, self.disc)

    def __pow__(self, k: int) -> "FracIdeal":
        if k < 0:
            return self.inverse() ** (-k)
        # left to right over the bits of k after the leading one
        result = self if k else FracIdeal.unit(self.disc)
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def contains(self, z: QuadNum) -> bool:
        if not z:
            return True
        return (principal_ideal(z) * self.inverse()).is_integral()


def principal_ideal(z: QuadNum) -> FracIdeal:
    """The fractional ideal z * O_F."""
    assert z, "zero generates no fractional ideal"
    disc = z.disc
    D = disc.delta
    # z = w / (2d) with w = x + y*sqrt(D) integral
    u0, v0 = z.x - z.y * D, 2 * z.y  # coords of w on {1, w-basis}... see below
    # w = x + y*sqrt(D) = (2x + 2y*sqrt(D))/2 -> v = 2y, u = x - y*D
    nw = (D * D - D) // 4
    gens = [(u0, v0), (-v0 * nw, u0 + v0 * D)]  # w, w*omega
    n, c, e = _hnf2(gens)
    assert n % e == 0 and c % e == 0
    return FracIdeal.make(Fraction(e, 2 * z.d), n // e, 2 * (c // e) + D, disc)


@dataclass(frozen=True)
class Decomposition:
    kind: str  # "split" | "inert" | "ramified"
    p: int
    primes: tuple[FracIdeal, ...]


def primes_above(disc: Discriminant, p: int) -> Decomposition:
    if not is_prime(p):
        raise ValueError(f"primes_above needs a rational prime, got p = {p}")
    k = kronecker(disc, p)
    D = disc.delta
    if k == -1:
        inert = FracIdeal.make(p, 1, D % 2, disc)
        return Decomposition("inert", p, (inert,))
    if p == 2:
        b = next(b for b in range(4) if (b * b - D) % 8 == 0)
    else:
        # the root of D mod p with the parity of D is a root mod 4p
        r = sqrt_mod_prime(D, p)
        b = r + p * ((r - D) % 2)
    # [p, (b+sqrt(D))/2] is an ideal of norm p iff b^2 = D mod 4p, and then
    # its product with its conjugate [p, (-b+sqrt(D))/2] is (p); it is its
    # own conjugate (p ramifies) iff p | b
    if (b * b - D) % (4 * p) or (k == 0) != (b % p == 0):
        raise ArithmeticError(
            f"primes_above: b = {b} gives no prime above {p} for D = {D}")
    pid = FracIdeal.make(1, p, b, disc)
    if k == 0:
        return Decomposition("ramified", p, (pid,))
    return Decomposition("split", p, (pid, pid.conjugate()))


def rational_prime_of(prime: FracIdeal) -> int:
    """The p below a prime from ``primes_above``: [p, ...] or, inert, p*O."""
    return int(prime.q) if prime.a == 1 else prime.a


def ideal_valuation(i: FracIdeal, prime: FracIdeal) -> int:
    """Exponent of the prime ideal P above p in the factorization of i.

    The lattice [a, (b+sqrt(D))/2] of i is primitive: it has no inert
    factor, holds a ramified P once if p | a, and a split P = [p, (b_P +
    sqrt(D))/2] to the power v_p(a) if b = b_P mod 2p.  The rest is v_P(q).
    """
    p = rational_prime_of(prime)
    v = _valuation(i.q, p)
    if prime.a == 1:  # inert
        return v
    if i.disc.delta % p == 0:  # ramified
        return 2 * v + (i.a % p == 0)
    return v + (0 if (i.b - prime.b) % (2 * p) else _valuation(i.a, p))
