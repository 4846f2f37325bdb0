"""Local norm data: Hilbert symbols, the Hasse norm test, semi-local unit
classes at ramified primes, and the genus-character subspace.

Places are labelled by rational primes together with the symbol "oo".
Coordinate vectors over places are F2-valued with finite support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sympy import factorint

from .quadfield import Discriminant, _legendre, kronecker

INFINITY = "oo"

Place = int | str


def _val_unit(q: Fraction, p: int) -> tuple[int, Fraction]:
    """(v_p(q), unit part of q at p)."""
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_mod(u: Fraction, m: int) -> int:
    """Residue of a p-unit rational mod m (m a power of the same p)."""
    return u.numerator * pow(u.denominator, -1, m) % m


def hilbert_symbol(a, b, v: Place) -> int:
    """The classical Hilbert symbol (a, b)_v over the rationals."""
    a, b = Fraction(a), Fraction(b)
    assert a != 0 and b != 0
    if v == INFINITY:
        return -1 if a < 0 and b < 0 else 1
    p = v
    assert isinstance(p, int) and p >= 2
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    if p == 2:
        um, wm = _unit_mod(u, 8), _unit_mod(w, 8)
        eps_u, eps_w = (um - 1) // 2 % 2, (wm - 1) // 2 % 2
        om_u, om_w = (um * um - 1) // 8 % 2, (wm * wm - 1) // 8 % 2
        e = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if e % 2 else 1
    ls_u = _legendre(_unit_mod(u, p), p)
    ls_w = _legendre(_unit_mod(w, p), p)
    sign = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= ls_u
    if alpha % 2:
        sign *= ls_w
    return sign


def relevant_places(a, b) -> list[Place]:
    """Finite set of places where (a, b)_v can differ from +1."""
    a, b = Fraction(a), Fraction(b)
    primes = {2}
    for q in (a, b):
        primes |= {int(p) for p in factorint(abs(q.numerator))}
        primes |= {int(p) for p in factorint(q.denominator)}
    return sorted(primes) + [INFINITY]


def is_global_norm(q, disc: Discriminant, places: str = "all") -> bool:
    """Hasse test: q is a norm from F iff it is a local norm everywhere."""
    assert places in ("all", "finite_only")
    q = Fraction(q)
    assert q != 0
    for v in relevant_places(q, disc.delta):
        if v == INFINITY and places == "finite_only":
            continue
        if hilbert_symbol(q, disc.delta, v) == -1:
            return False
    return True


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
        q = Fraction(n * p)
        if _val_unit(q, p)[0] != 1:
            continue
        if hilbert_symbol(q, disc.delta, p) == 1:
            return q
    raise AssertionError(f"no small norm uniformizer at {p} for {disc}")


def unit_class_at_ramified(u, disc: Discriminant, p: int) -> int:
    """F2 class of a p-adic unit modulo norms of local units at ramified p.

    At a ramified place a unit is a norm of a unit iff it is a norm at all
    (norms of non-units have odd valuation), so the Hilbert symbol decides.
    """
    u = Fraction(u)
    assert p in disc.ramified_primes
    assert _val_unit(u, p)[0] == 0
    return 0 if hilbert_symbol(u, disc.delta, p) == 1 else 1


def h0_class_of_rational(q, disc: Discriminant) -> TateVec:
    """Image of a rational in the sum of local norm-residue groups at
    nonsplit finite places (coordinate 1 where q fails to be a local norm)."""
    q = Fraction(q)
    assert q != 0
    on = []
    for v in relevant_places(q, disc.delta):
        if v == INFINITY:
            continue
        if not is_nonsplit(disc, v):
            continue
        if hilbert_symbol(q, disc.delta, v) == -1:
            on.append(v)
    return TateVec.make(on, "nonsplit_finite")


@dataclass(frozen=True)
class GenusCharSpace:
    disc: Discriminant
    dim: int
    basis: tuple[TateVec, ...]
    generating_rationals: tuple[Fraction, ...]
    dim_t_fin_based: int
    dim_t_all_based: int


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


# coordinate label for the inert-2 membership constraint; sorts before primes
_C2 = 0

_SPLIT_PRIME_CAP = 25


def genus_char_space(disc: Discriminant) -> GenusCharSpace:
    """Image in F2^(ramified primes) of the rationals that are local norms at
    every finite nonsplit unramified place.

    Mod squares such a rational is supported on -1, the ramified primes and
    the split primes (an odd inert prime power is never a local norm at its
    own place); only an inert 2 adds a membership constraint, tracked as an
    extra coordinate and eliminated at the end.  Split primes are adjoined
    until the span stops growing.
    """
    from sympy import nextprime

    ram = disc.ramified_primes
    check_two = 2 not in ram and kronecker(disc, 2) == -1

    def vector_of(q: Fraction) -> frozenset:
        coords = {p for p in ram if hilbert_symbol(q, disc.delta, p) == -1}
        if check_two and hilbert_symbol(q, disc.delta, 2) == -1:
            coords.add(_C2)
        return frozenset(coords)

    basis: list[tuple[frozenset, Fraction]] = []
    for g in [Fraction(-1)] + [Fraction(p) for p in ram]:
        _span_add(basis, vector_of(g), g)
    p, tried = 2, 0
    while tried < _SPLIT_PRIME_CAP and len(basis) < disc.t_fin + 1:
        if kronecker(disc, p) == 1:
            tried += 1
            _span_add(basis, vector_of(Fraction(p)), Fraction(p))
        p = int(nextprime(p))
    # eliminate the constraint coordinate: at most one basis vector keeps it
    pivot = next((bv for bv, _ in basis if _C2 in bv), None)
    if pivot is not None:
        cleaned = []
        ptag = next(t for bv, t in basis if bv == pivot)
        for bv, t in basis:
            if bv == pivot:
                continue
            if _C2 in bv:
                bv, t = bv ^ pivot, t * ptag
            if bv:
                cleaned.append((bv, t))
        basis = sorted(cleaned, key=lambda t: min(t[0]))
    dim = len(basis)
    return GenusCharSpace(
        disc=disc, dim=dim,
        basis=tuple(TateVec(v, "ramified_only") for v, _ in basis),
        generating_rationals=tuple(q for _, q in basis),
        dim_t_fin_based=disc.t_fin - 1,
        dim_t_all_based=disc.t_all - 1)
