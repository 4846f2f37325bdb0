"""Local norm data: Hilbert symbols, the Hasse norm test, and the
genus-character subspace.

Places are labelled by rational primes together with the symbol "oo".  An
F2 vector over places is a ``frozenset`` of primes, those whose coordinate
is 1: the sum is ``^`` and the zero vector is the empty set.

The Hilbert symbol has one scalar formula (Serre, A Course in Arithmetic,
III.1.2), on arguments already split as p^alpha u with u prime to p, and
every Legendre symbol in it is ``arith.legendre``.  ``_hilbert_core``
evaluates it; ``hilbert_symbol`` is the checked entry for ints and
Fractions, and every place that is a prime by construction goes straight to
the core: the finite places of ``is_global_norm`` and
``h0_class_of_rational``, the ramified primes of ``mv.map_i``, and the
ramified primes of ``genus_char_space``, which strips Delta once per
ramified prime and keeps its F2 span as int bitmasks over them.

The scan takes its genus dims a block at a time from ``block_genus_dims``,
whose kernel (in ``scancounts``, imported on the first call) writes the
same formula out for -1, the ramified primes and the split primes up to 43
of every field at once; the tests compare its symbols with the core's
bit for bit.  ``genus_char_space`` and ``is_global_norm`` stay the
reference, and the path of a field the kernel cannot certify: one whose span
needs a split prime past 43, or with two ramified primes past the prime
table.  The cap on split primes binds both, and only ``genus_char_space``
raises ``SplitPrimeCapExceeded``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .arith import factorint, is_prime, legendre, primes
from .quadfield import Discriminant, kronecker

INFINITY = "oo"

Place = int | str


def _strip(n: int, p: int) -> tuple[int, int]:
    """(v_p(n), n with every factor p divided out) for an integer n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _hilbert_core(alpha: int, u: int, beta: int, w: int, p: int) -> int:
    """(p^alpha u, p^beta w)_p for a prime p and integers u, w prime to p
    (Serre, A Course in Arithmetic, III.1.2)."""
    if p == 2:
        # (-1)^(eps(u) eps(w) + alpha omega(w) + beta omega(u)), where
        # eps(u) = 1 iff u = 3 mod 4 and omega(u) = 1 iff u = 3, 5 mod 8
        e = (u & w & 2) >> 1
        e ^= alpha & ((w & 7) in (3, 5))
        e ^= beta & ((u & 7) in (3, 5))
        return -1 if e else 1
    # (-1)^(alpha beta (p-1)/2) (u/p)^beta (w/p)^alpha
    e = alpha & beta & (p >> 1)  # (p-1)/2 is odd iff p = 3 mod 4
    if beta & 1:
        e ^= legendre(u, p) < 0
    if alpha & 1:
        e ^= legendre(w, p) < 0
    return -1 if e & 1 else 1


def hilbert_symbol(a, b, v: Place) -> int:
    """The classical Hilbert symbol (a, b)_v over the rationals.

    a and b are ints or Fractions.  n/d is n*d times a square, so each is
    replaced by the integer n*d; at a prime v both are stripped of their
    factors v and passed to ``_hilbert_core``.
    """
    a = a.numerator * a.denominator
    b = b.numerator * b.denominator
    if not a or not b:
        raise ValueError("the Hilbert symbol needs nonzero arguments")
    if v == INFINITY:
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(v, int) or not is_prime(v):
        raise ValueError(f"not a place: {v!r}")
    return _hilbert_core(*_strip(a, v), *_strip(b, v), v)


def _primes_of(q) -> set[int]:
    """The primes dividing the numerator or denominator of q."""
    return {p for n in (abs(q.numerator), q.denominator) if n > 1
            for p in factorint(n)}


def _norm_test_primes(q, disc: Discriminant) -> set[int]:
    """The primes where (q, Delta)_p can differ from +1: 2, the ramified
    primes (those of Delta) and the primes of q."""
    return {2, *disc.ramified_primes} | _primes_of(q)


def is_global_norm(q, disc: Discriminant) -> bool:
    """Hasse test: q is a norm from F iff it is a local norm everywhere.

    The entry point checks q at the infinite place; the finite places are
    primes by construction, so their symbols go to the core.
    """
    if hilbert_symbol(q, disc.delta, INFINITY) == -1:
        return False
    n = q.numerator * q.denominator
    return all(_hilbert_core(*_strip(n, p), *_strip(disc.delta, p), p) == 1
               for p in _norm_test_primes(q, disc))


def h0_class_of_rational(q, disc: Discriminant) -> frozenset[int]:
    """Image of a rational in the sum of local norm-residue groups at
    nonsplit finite places: the primes where q fails to be a local norm.
    They are primes by construction, so their symbols go to the core."""
    n = q.numerator * q.denominator
    if not n:
        raise ValueError("the Hilbert symbol needs nonzero arguments")
    return frozenset(p for p in _norm_test_primes(q, disc)
                     if kronecker(disc, p) != 1
                     and _hilbert_core(*_strip(n, p), *_strip(disc.delta, p),
                                       p) == -1)


class GenusCharSpace(NamedTuple):
    """The genus character space of ``disc``: its dimension and a witness,
    a basis over the ramified primes (each vector a frozenset of them) and
    the rationals that generate it, in order of each vector's least
    ramified prime."""
    disc: Discriminant
    dim: int
    basis: tuple[frozenset[int], ...]
    generating_rationals: tuple[Fraction, ...]


_SPLIT_PRIME_CAP = 25


def block_genus_dims(discs) -> tuple[list[int], list[int]]:
    """(dim_v, dim_h) of each field of ``discs``, with dim_v = -1 for a field
    the block kernel cannot certify: ``scancounts.block_genus_dims`` under
    the split-prime cap as it stands at the call.  Its module, and with it
    numpy, is imported here, on the first call, as for the scan counts."""
    from .scancounts import block_genus_dims

    return block_genus_dims(discs, _SPLIT_PRIME_CAP)


class SplitPrimeCapExceeded(RuntimeError):
    """Raised when the split primes allowed run out before the genus
    character space reaches its proven dimension."""


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

    Vectors are int bitmasks, bit i for the i-th ramified prime p, with
    Delta = p^beta w stripped once per p.  One loop runs over the candidates
    q: -1, the ramified primes, then the split primes.  Each q is -1 or a
    prime, so v_p(q) = [q = p], and (q, Delta)_p is ``_hilbert_core`` on
    (v_p(q), q / p^v_p(q), beta, w).  The span keeps one vector per pivot,
    its lowest set bit; a new vector is reduced against the pivots in
    increasing order.
    """
    ram = disc.ramified_primes
    bound = len(ram) - disc.is_real  # = t_all - 1
    places = [(1 << i, p, *_strip(disc.delta, p)) for i, p in enumerate(ram)]
    pivots: dict[int, tuple[int, int]] = {}  # lowest set bit -> (vec, q)
    fixed, used = len(ram), 0
    for n, q in enumerate(chain((-1,), ram, primes())):
        if n > fixed:  # past -1 and the ramified primes
            if len(pivots) == bound:
                break
            if kronecker(disc, q) != 1:
                continue  # q does not split
            if used == _SPLIT_PRIME_CAP:
                raise SplitPrimeCapExceeded(
                    f"genus character space of {disc}: span {len(pivots)} "
                    f"after {_SPLIT_PRIME_CAP} split primes, below the "
                    f"bound {bound}")
            used += 1
        vec = 0
        for bit, p, beta, w in places:
            if _hilbert_core(int(q == p), 1 if q == p else q, beta, w, p) < 0:
                vec |= bit
        for bit, _, _, _ in places:  # the pivots in increasing order
            if vec & bit and bit in pivots:
                bvec, bq = pivots[bit]
                vec ^= bvec
                q *= bq
        if vec:
            pivots[vec & -vec] = (vec, q)
    order = [pivots[bit] for bit in sorted(pivots)]
    return GenusCharSpace(
        disc, len(order),
        tuple(frozenset(p for i, p in enumerate(ram) if vec >> i & 1)
              for vec, _ in order),
        tuple(Fraction(q) for _, q in order))
