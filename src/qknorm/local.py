"""Local norm data: Hilbert symbols, the Hasse norm test, semi-local unit
classes at ramified primes, and the genus-character subspace.

Places are labelled by rational primes together with the symbol "oo".
Coordinate vectors over places are F2-valued with finite support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from sympy import factorint, nextprime

from .quadfield import Discriminant, _legendre, is_prime, kronecker

INFINITY = "oo"

Place = int | str


def _strip(n: int, p: int) -> tuple[int, int]:
    """(v_p(n), n with every factor p divided out) for an integer n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _valuation(q, p: int) -> int:
    """v_p of a nonzero rational (int or Fraction)."""
    return _strip(q.numerator, p)[0] - _strip(q.denominator, p)[0]


def hilbert_symbol(a, b, v: Place) -> int:
    """The classical Hilbert symbol (a, b)_v over the rationals.

    a and b are ints or Fractions.  n/d is n*d times a square, so each is
    replaced by the integer n*d and the symbol is read off integers.
    """
    a = a.numerator * a.denominator
    b = b.numerator * b.denominator
    if not a or not b:
        raise ValueError("the Hilbert symbol needs nonzero arguments")
    if v == INFINITY:
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(v, int) or not is_prime(v):
        raise ValueError(f"not a place: {v!r}")
    p = v
    alpha, u = _strip(a, p)
    beta, w = _strip(b, p)
    if p == 2:
        # (-1)^(eps(u) eps(w) + alpha omega(w) + beta omega(u)), where
        # eps(u) = 1 iff u = 3 mod 4 and omega(u) = 1 iff u = 3, 5 mod 8
        e = (u & w & 2) >> 1
        e ^= alpha & ((w & 7) in (3, 5))
        e ^= beta & ((u & 7) in (3, 5))
        return -1 if e else 1
    sign = -1 if alpha & beta & 1 and p & 2 else 1
    if beta & 1:
        sign *= _legendre(u, p)
    if alpha & 1:
        sign *= _legendre(w, p)
    return sign


def _primes_of(q) -> set[int]:
    """The primes dividing the numerator or denominator of q."""
    return {int(p) for n in (abs(q.numerator), q.denominator) if n > 1
            for p in factorint(n)}


def relevant_places(a, b) -> list[Place]:
    """Finite set of places where (a, b)_v can differ from +1."""
    a, b = Fraction(a), Fraction(b)
    return sorted({2} | _primes_of(a) | _primes_of(b)) + [INFINITY]


def _norm_test_primes(q, disc: Discriminant) -> set[int]:
    """The primes where (q, Delta)_p can differ from +1: 2, the ramified
    primes (those of Delta) and the primes of q."""
    return {2, *disc.ramified_primes} | _primes_of(q)


def is_global_norm(q, disc: Discriminant) -> bool:
    """Hasse test: q is a norm from F iff it is a local norm everywhere."""
    return all(hilbert_symbol(q, disc.delta, v) == 1
               for v in (INFINITY, *_norm_test_primes(q, disc)))


@dataclass(frozen=True)
class TateVec:
    """F2 coordinate vector over places; absent coordinates are 0."""
    coords: frozenset[Place]
    support_rule: str  # "ramified_only" | "nonsplit_finite" | "all"

    @classmethod
    def make(cls, places, support_rule: str) -> "TateVec":
        return cls(frozenset(places), support_rule)

    def __bool__(self):
        return bool(self.coords)

    def __add__(self, other: "TateVec") -> "TateVec":
        assert self.support_rule == other.support_rule
        return TateVec(self.coords ^ other.coords, self.support_rule)

    def get(self, v: Place) -> int:
        return 1 if v in self.coords else 0


def is_nonsplit(disc: Discriminant, p: int) -> bool:
    return kronecker(disc, p) != 1


def norm_uniformizer(disc: Discriminant, p: int) -> Fraction:
    """A rational of valuation 1 at p that is a local norm from F at p.

    At a ramified place the obvious uniformizer p need not be a norm, and
    unit classes extracted with a non-norm uniformizer depend on the chosen
    presentation; always dividing by a norm removes that ambiguity.
    """
    for n in (1, -1, 3, 5, 7, -3, -5, -7, 11, -11):
        if n % p and hilbert_symbol(n * p, disc.delta, p) == 1:
            return Fraction(n * p)
    raise AssertionError(f"no small norm uniformizer at {p} for {disc}")


def unit_class_at_ramified(u, disc: Discriminant, p: int) -> int:
    """F2 class of a p-adic unit modulo norms of local units at ramified p.

    At a ramified place a unit is a norm of a unit iff it is a norm at all
    (norms of non-units have odd valuation), so the Hilbert symbol decides.
    """
    u = Fraction(u)
    if p not in disc.ramified_primes:
        raise ValueError(f"{p} is not ramified in {disc}")
    if _valuation(u, p) != 0:
        raise ValueError(f"{u} is not a unit at {p}")
    return 0 if hilbert_symbol(u, disc.delta, p) == 1 else 1


def h0_class_of_rational(q, disc: Discriminant) -> TateVec:
    """Image of a rational in the sum of local norm-residue groups at
    nonsplit finite places (coordinate 1 where q fails to be a local norm)."""
    on = [p for p in _norm_test_primes(q, disc)
          if is_nonsplit(disc, p) and hilbert_symbol(q, disc.delta, p) == -1]
    return TateVec.make(on, "nonsplit_finite")


@dataclass(frozen=True)
class GenusCharSpace:
    disc: Discriminant
    dim: int
    basis: tuple[TateVec, ...]
    generating_rationals: tuple[Fraction, ...]


def _span_reduce(basis, vec, tag):
    """Reduce vec against an F2 basis of (frozenset, tag) pairs; the tag of
    the reduced vector is the matching product of rationals."""
    for bv, bt in basis:
        if min(bv) in vec:
            vec = vec ^ bv
            tag = tag * bt
    return vec, tag


def _span_add(basis, vec, tag) -> bool:
    vec, tag = _span_reduce(basis, vec, tag)
    if not vec:
        return False
    basis.append((vec, tag))
    basis.sort(key=lambda t: min(t[0]))
    return True


_SPLIT_PRIME_CAP = 25


class SplitPrimeCapExceeded(RuntimeError):
    """Raised when the split primes allowed run out before the genus
    character space reaches its proven dimension."""


def _primes():
    p = 2
    while True:
        yield p
        p = nextprime(p)


def genus_char_space(disc: Discriminant) -> GenusCharSpace:
    """Image in F2^(ramified primes) of the rationals that are local norms at
    every finite nonsplit unramified place.

    Mod squares such a rational is supported on -1, the ramified primes and
    the split primes (an odd inert prime power is never a local norm at its
    own place, and an inert 2 adds no condition: every candidate is then a
    2-adic unit and Delta = 1 mod 4).  By the product formula the vectors
    lie in the even-weight hyperplane when Delta > 0, so the span has
    dimension at most t_all - 1; split primes are adjoined until it gets
    there.  Running out of them first raises SplitPrimeCapExceeded.
    """
    ram = disc.ramified_primes
    bound = len(ram) - disc.is_real  # = t_all - 1

    def vector_of(q: int) -> frozenset:
        return frozenset(p for p in ram
                         if hilbert_symbol(q, disc.delta, p) == -1)

    basis: list[tuple[frozenset, int]] = []
    for g in (-1, *ram):
        _span_add(basis, vector_of(g), g)
    split = islice((p for p in _primes() if kronecker(disc, p) == 1),
                   _SPLIT_PRIME_CAP)
    while len(basis) < bound:
        p = next(split, None)
        if p is None:
            raise SplitPrimeCapExceeded(
                f"genus character space of {disc}: span {len(basis)} after "
                f"{_SPLIT_PRIME_CAP} split primes, below the bound {bound}")
        _span_add(basis, vector_of(p), p)
    return GenusCharSpace(
        disc=disc, dim=len(basis),
        basis=tuple(TateVec(v, "ramified_only") for v, _ in basis),
        generating_rationals=tuple(Fraction(q) for _, q in basis))
