"""Exact fractional-ideal arithmetic in the maximal order of a quadratic field.

An ideal is stored as (n/d) * (a*Z + ((b+sqrt(D))/2)*Z) with coprime ints
n, d > 0, a > 0 and -a < b <= a.  Products are Z-module products on the
integral basis {1, w}, w = (D+sqrt(D))/2, followed by Hermite normalization
(``lattice_product``), which keeps everything exact; a Hermite form that
is not of full rank, or not an O_F-module, raises ``LatticeCheckError``,
also under ``python -O``.  Membership of an element is two divisibility
tests on its coordinates (``FracIdeal._contains``), with no product; with norms, it
decides whether an ideal is z times another (``FracIdeal.is_product``),
which is how generators are checked.  Valuations of ideals are read off (n, d, a,
b) (``ideal_valuation``) and those of elements off their coordinates
(``element_valuation``); products of split prime powers are built by Hensel
lifting and the Chinese remainder theorem (``split_power_product``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import is_prime
from .local import _strip
from .quadfield import DiscMismatch, Discriminant, QuadNum, kronecker, \
    sqrt_mod_prime


class NotNormalForm(ValueError):
    """Raised when (n, d, a, b) is not the normal form of a ``FracIdeal``."""


class ZeroGenerator(ValueError):
    """Raised when zero is asked for the fractional ideal it generates."""


class LatticeCheckError(ArithmeticError):
    """A Hermite form on the ideal product path failed its check: the
    module it spans is not of full rank, or not an O_F-module."""


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
    if not (n > 0 and e > 0):
        raise LatticeCheckError(
            f"_hnf2: the span of {vectors} does not have full rank")
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
    if n % e or c % e:
        raise LatticeCheckError(
            f"lattice_product: D = {D}: [{a1}, {b1}] * [{a2}, {b2}] has "
            f"Hermite form ({n}, {c}, {e}), not an O_F-module")
    a = n // e
    b = (2 * (c // e) + D) % (2 * a)
    return e, a, (b - 2 * a if b > a else b)


class FracIdeal:
    """(n/d) * [a, (b+sqrt(D))/2] with coprime ints n, d > 0.

    A plain value in one normal form: n/d in lowest terms, a > 0,
    -a < b <= a and b^2 = D mod 4a, checked by the constructor, which
    raises ``NotNormalForm`` also under ``python -O``.  Equal when every
    field is, hashed once on the ints (n, d, a, b, D), immutable by
    convention.
    """

    __slots__ = ("n", "d", "a", "b", "disc", "_hash")

    def __init__(self, n: int, d: int, a: int, b: int, disc: Discriminant):
        if not (n > 0 and d > 0 and gcd(n, d) == 1):
            raise NotNormalForm(
                f"FracIdeal: the scale {n}/{d} is not in lowest terms with "
                f"n, d > 0")
        if not (a > 0 and -a < b <= a):
            raise NotNormalForm(
                f"FracIdeal: [{a}, {b}] does not have a > 0 and -a < b <= a")
        if (b * b - disc.delta) % (4 * a):
            raise NotNormalForm(
                f"FracIdeal: [{a}, {b}] does not have b^2 = D mod 4a for "
                f"D = {disc.delta}")
        self.n = n
        self.d = d
        self.a = a
        self.b = b
        self.disc = disc
        self._hash = None

    def __eq__(self, other):
        if other.__class__ is not FracIdeal:
            return NotImplemented
        return (self.n == other.n and self.d == other.d and self.a == other.a
                and self.b == other.b and self.disc == other.disc)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.n, self.d, self.a, self.b,
                                   self.disc.delta))
        return h

    def __repr__(self):
        return f"FracIdeal({self.q}*[{self.a}, ({self.b}+sqrt({self.disc.delta}))/2])"

    @property
    def q(self) -> Fraction:
        """The scale n/d."""
        return Fraction(self.n, self.d)

    @classmethod
    def scaled(cls, n: int, d: int, a: int, b: int,
               disc: Discriminant) -> "FracIdeal":
        """(n/d) * [a, (b+sqrt(D))/2] for ints n, d > 0 and any b with
        b^2 = D mod 4a."""
        g = gcd(n, d)
        b %= 2 * a
        if b > a:
            b -= 2 * a
        return cls(n // g, d // g, a, b, disc)

    @classmethod
    def unit(cls, disc: Discriminant) -> "FracIdeal":
        return cls(1, 1, 1, disc.delta % 2, disc)

    def norm(self) -> Fraction:
        return Fraction(self.n * self.n * self.a, self.d * self.d)

    def norm_is_one(self) -> bool:
        # n^2 a = d^2 with n, d coprime forces n = 1
        return self.n == 1 and self.a == self.d * self.d

    def conjugate(self) -> "FracIdeal":
        return FracIdeal.scaled(self.n, self.d, self.a, -self.b, self.disc)

    def inverse(self) -> "FracIdeal":
        # conj(I) / N(I): the scale n/d over n^2 a / d^2 is d / (n a)
        return FracIdeal.scaled(self.d, self.n * self.a, self.a, -self.b,
                                self.disc)

    def __mul__(self, other: "FracIdeal") -> "FracIdeal":
        if not isinstance(other, FracIdeal):
            return NotImplemented
        if other.disc.delta != self.disc.delta:
            raise DiscMismatch(
                f"discriminants {self.disc.delta} and {other.disc.delta} differ")
        e, a, b = lattice_product(self.a, self.b, other.a, other.b,
                                  self.disc.delta)
        n, d = self.n * other.n * e, self.d * other.d
        g = gcd(n, d)
        return FracIdeal(n // g, d // g, a, b, self.disc)

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

    def _contains(self, x: int, y: int, e: int) -> bool:
        """(x + y*sqrt(D))/(2e) in self, for any ints x, y and e > 0.

        (d/n)*(x + y*sqrt(D))/(2e) = s*a + t*(b+sqrt(D))/2 has t = d*y/(e*n)
        and s = (d*x - t*b*e*n)/(2a*e*n), which must be ints.
        """
        en = e * self.n
        t, r = divmod(self.d * y, en)
        return not r and \
            (self.d * x - t * self.b * en) % (2 * self.a * en) == 0

    def is_product(self, z: QuadNum, j: "FracIdeal") -> bool:
        """Whether self = z*j, decided with no ideal product.

        z*j lies in self when z times each Z-basis element of j, (n/d)*a and
        (n/d)*(b+sqrt(D))/2, does; and for fractional ideals J in I,
        [I : J] = N(J)/N(I) (Cohen, A Course in Computational Algebraic
        Number Theory, 4.6-5.2), so then |N(z)|*N(j) = N(self) makes z*j
        all of self.  Both are compared on integers.
        """
        D = self.disc.delta
        if not z.disc.delta == j.disc.delta == D:
            raise DiscMismatch(
                f"discriminants {D}, {z.disc.delta} and {j.disc.delta} differ")
        x, y, e = z.x, z.y, z.d
        # N(z) = (x^2 - D*y^2)/(4e^2) and N(j) = j.n^2*j.a/j.d^2
        if (abs(x * x - D * y * y) * j.n * j.n * j.a * self.d * self.d
                != 4 * e * e * self.n * self.n * self.a * j.d * j.d):
            return False
        na = j.n * j.a
        return (self._contains(x * na, y * na, e * j.d)
                and self._contains(j.n * (x * j.b + y * D),
                                   j.n * (x + y * j.b), 2 * e * j.d))


def _omega_coords(z: QuadNum) -> tuple[int, int]:
    """(u, v) with 2d*z = x + y*sqrt(D) = u + v*w, w = (D+sqrt(D))/2."""
    return z.x - z.y * z.disc.delta, 2 * z.y


def principal_ideal(z: QuadNum) -> FracIdeal:
    """The fractional ideal z * O_F."""
    if not z:
        raise ZeroGenerator("zero generates no fractional ideal")
    disc = z.disc
    D = disc.delta
    # z = w/(2d) with w = u + v*omega integral; w*O is spanned by w and
    # w*omega, where omega^2 = D*omega - (D^2-D)/4
    u, v = _omega_coords(z)
    n, c, e = _hnf2([(u, v), (-v * ((D * D - D) // 4), u + v * D)])
    if n % e or c % e:
        raise LatticeCheckError(
            f"principal_ideal: D = {D}: {z!r} * O_F has Hermite form "
            f"({n}, {c}, {e}), not an O_F-module")
    return FracIdeal.scaled(e, 2 * z.d, n // e, 2 * (c // e) + D, disc)


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
        inert = FracIdeal(p, 1, 1, D % 2, disc)
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
    pid = FracIdeal.scaled(1, 1, p, b, disc)
    if k == 0:
        return Decomposition("ramified", p, (pid,))
    return Decomposition("split", p, (pid, pid.conjugate()))


def rational_prime_of(prime: FracIdeal) -> int:
    """The p below a prime from ``primes_above``: [p, ...] or, inert, p*O."""
    return prime.n if prime.a == 1 else prime.a


def ideal_valuation(i: FracIdeal, prime: FracIdeal) -> int:
    """Exponent of the prime ideal P above p in the factorization of i.

    The lattice [a, (b+sqrt(D))/2] of i is primitive: it has no inert
    factor, holds a ramified P once if p | a, and a split P = [p, (b_P +
    sqrt(D))/2] to the power v_p(a) if b = b_P mod 2p.  The rest is v_P(n/d).
    """
    p = rational_prime_of(prime)
    v = _strip(i.n, p)[0] - _strip(i.d, p)[0]
    if prime.a == 1:  # inert
        return v
    if i.disc.delta % p == 0:  # ramified
        return 2 * v + (i.a % p == 0)
    return v + (0 if (i.b - prime.b) % (2 * p) else _strip(i.a, p)[0])


def element_valuation(z: QuadNum, prime: FracIdeal) -> int:
    """v_P(z) for z != 0, read off z = (x + y*sqrt(D))/(2d) with no ideal.

    With m = N(2d*z) = x^2 - D*y^2: an inert P has v_P(z) = v_p(N z)/2 and a
    ramified one v_p(N z).  At a split P = [p, (b+sqrt(D))/2], write 2d*z =
    c*(u + v*w) with w = (D+sqrt(D))/2 and gcd(u, v) = 1.  The primitive
    u + v*w is not divisible by both P and its conjugate; it lies in P iff
    u + v*(D-b)/2 = 0 mod p, and then P carries all of its norm.
    """
    if not z:
        raise ValueError("zero has no valuation")
    D = z.disc.delta
    p = rational_prime_of(prime)
    m = z.x * z.x - D * z.y * z.y
    v2d = _strip(2 * z.d, p)[0]
    if prime.a == 1:  # inert
        return _strip(m, p)[0] // 2 - v2d
    if D % p == 0:  # ramified
        return _strip(m, p)[0] - 2 * v2d
    u, v = _omega_coords(z)
    c = gcd(u, v)
    vc = _strip(c, p)[0]
    if (u // c + v // c * ((D - prime.b) // 2)) % p:
        return vc - v2d
    return _strip(m, p)[0] - vc - v2d


def _hensel_b(D: int, p: int, b: int, k: int) -> int:
    """The b' = b mod 2p with b'^2 = D mod 4p^k, for a split prime P = [p,
    (b+sqrt(D))/2]: then P^k = [p^k, (b'+sqrt(D))/2]."""
    if p == 2:
        # for odd b with b^2 = D mod 2^m, m >= 3, b or b + 2^(m-1) is a root
        # mod 2^(m+1)
        for m in range(3, k + 2):
            if (b * b - D) >> m & 1:
                b += 1 << (m - 1)
        return b
    # Newton's step r -> r - (r^2 - D)/(2r) doubles the power of p; the
    # root with the parity of D is then a root mod 4p^k
    r, e = b % p, 1
    while e < k:
        e = min(2 * e, k)
        pe = p ** e
        r = (r - (r * r - D) * pow(2 * r, -1, pe)) % pe
    return r + p ** k * ((r - D) % 2)


def split_power_product(powers: list[tuple[FracIdeal, int]], n: int, d: int,
                        disc: Discriminant) -> FracIdeal:
    """(n/d) * prod P^k over split primes P = [p, (b_P+sqrt(D))/2] above
    distinct p, each k >= 1, with no ideal product.

    The product is [prod p^k, (b+sqrt(D))/2] with b = b' mod 2p^k for the
    Hensel lift b' of each b_P (``_hensel_b``), found by the Chinese
    remainder theorem.
    """
    D = disc.delta
    a, b = 1, D % 2  # b mod 2a
    for prime, k in powers:
        p = prime.a
        pk = p ** k
        # b + 2a*t = b' mod 2p^k, where b = b' = D mod 2
        t = (_hensel_b(D, p, prime.b, k) - b) // 2 * pow(a, -1, pk) % pk
        b += 2 * a * t
        a *= pk
    return FracIdeal.scaled(n, d, a, b, disc)
