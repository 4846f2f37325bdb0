"""Finite-support ideles and the Mayer-Vietoris maps around the norm K-group.

Ideles are stored with globally-presented components: each component is a
field element indexed by a prime of O_F, read locally at that prime.  At a
split prime the pair of components must multiply (one against the conjugate
of the other) to a rational so the idele norm stays exact.  The boundary map
sends a norm-kernel idele to the class [1, I_z] built from the component
valuations; i and mu unpack a K0 class into a rational modulo norms plus
unit classes at the ramified places.  Those classes, and mu's values at the
nonsplit places, are F2 vectors over places: frozensets of the primes whose
coordinate is 1, added by ``^``.

The genus engine at the end builds the rows of the scan over fundamental
discriminants, for a whole block of fields at once: each row holds the
2-rank comparisons the scan certifies, as the strings the CSV and JSON
write.  Their genus dims come from the block kernel
(``local.block_genus_dims``), and a field it cannot certify from
``genus_char_space`` and ``is_global_norm``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .arith import PRIMES
from .classgroup import ScanCountError
from .ideals import Decomposition, DiscMismatch, FracIdeal, \
    element_valuation, ideal_valuation, primes_above, principal_ideal, \
    rational_prime_of, split_power_product
from .knorm import K0Context, K0Elt, k0_eq, k0_group, k0_identity, k0_key, \
    k0_mul, k0_rep, solve_norm_equation
from .local import _hilbert_core, _primes_of, _strip, block_genus_dims, \
    genus_char_space, h0_class_of_rational, is_global_norm
from .quadfield import Discriminant, QuadNum, kronecker


class NotInNormKernel(ValueError):
    """Raised when an idele's norm has a nonzero valuation somewhere."""


class NormKernelViolation(ValueError):
    """Raised when a norm-one precondition fails."""


class KernelPreimageError(ArithmeticError):
    """A check behind a constructed boundary preimage failed."""


class IdeleCheckError(ArithmeticError):
    """An idele norm or a boundary, on which the sampled verdicts rest,
    failed its check."""


class ZeroComponent(ValueError):
    """Raised when an idele is given a zero component."""


class IdeleFS:
    """A finite-support idele: a nonzero field element at each prime of
    O_F in ``components``, 1 at every other place.

    A plain value, equal when components and discriminant are, unhashable
    (its components are a dict) and immutable by convention.  The
    constructor checks every component, also under ``python -O``: a prime or
    an element of another field raises ``DiscMismatch``, a zero
    ``ZeroComponent``.  Products and inverses of checked ideles skip it.
    """

    __slots__ = ("components", "disc")

    def __init__(self, components: dict[FracIdeal, QuadNum],
                 disc: Discriminant):
        for prime, z in components.items():
            if prime.disc.delta != disc.delta or z.disc.delta != disc.delta:
                raise DiscMismatch(
                    f"idele of D = {disc.delta} has a component {z!r} at "
                    f"{prime!r}")
            if not z:
                raise ZeroComponent(
                    f"idele of D = {disc.delta} has a zero component at "
                    f"{prime!r}")
        self.components = components
        self.disc = disc

    @classmethod
    def _of_checked(cls, components: dict[FracIdeal, QuadNum],
                    disc: Discriminant) -> "IdeleFS":
        """An idele from components that passed the constructor's check."""
        idele = object.__new__(cls)
        idele.components = components
        idele.disc = disc
        return idele

    def __eq__(self, other):
        if other.__class__ is not IdeleFS:
            return NotImplemented
        return self.components == other.components and self.disc == other.disc

    __hash__ = None

    def __repr__(self):
        return f"IdeleFS(components={self.components!r}, disc={self.disc!r})"

    @classmethod
    def one(cls, disc: Discriminant) -> "IdeleFS":
        return cls({}, disc)

    def __mul__(self, other: "IdeleFS") -> "IdeleFS":
        if other.disc.delta != self.disc.delta:
            raise DiscMismatch(f"ideles of D = {self.disc.delta} and "
                               f"{other.disc.delta}")
        out = dict(self.components)
        for prime, z in other.components.items():
            w = out.get(prime)
            prod = z if w is None else w * z
            # 1 = (2 + 0*sqrt(D))/2 has one normal form
            if prod.x == 2 and prod.y == 0 and prod.d == 1:
                out.pop(prime, None)
            else:
                out[prime] = prod
        # nonzero products of nonzero components at checked primes
        return IdeleFS._of_checked(out, self.disc)

    def inverse(self) -> "IdeleFS":
        return IdeleFS._of_checked(
            {p: z.inverse() for p, z in self.components.items()}, self.disc)


class FieldPrimes:
    """Prime data of one field for one ``sampled_exactness`` run: the split
    primes below 60 that the samplers draw from, and the decomposition of
    each prime the run meets, memoised for this object's lifetime only."""

    def __init__(self, disc: Discriminant):
        self.disc = disc
        self.split = [p for p in _SMALL_PRIMES if kronecker(disc, p) == 1]
        self._above: dict[int, Decomposition] = {}

    def above(self, p: int) -> Decomposition:
        dec = self._above.get(p)
        if dec is None:
            dec = self._above[p] = primes_above(self.disc, p)
        return dec


def diagonal_idele(z: QuadNum, primes: FieldPrimes) -> IdeleFS:
    """The diagonal image of z, truncated to the primes of z*O (its other
    components are 1 by convention; the maps used here only read valuations
    and norms, which agree with the full diagonal).

    With z = (x + y*sqrt(D))/(2d), every P where z is not a unit lies over a
    prime of 2d or of N(z); at a split p both halves are kept, so that the
    joint image stays rational.
    """
    if not z:
        raise ValueError("the diagonal idele of zero does not exist")
    disc = z.disc
    comps: dict[FracIdeal, QuadNum] = {}
    for p in sorted(_primes_of(z.norm()) | _primes_of(2 * z.d)):
        dec = primes.above(p)
        if any(element_valuation(z, prime) for prime in dec.primes):
            for prime in dec.primes:
                comps[prime] = z
    return IdeleFS(comps, disc)


def _pair_idele(dec: Decomposition, u: Fraction) -> IdeleFS:
    pid, pbar = dec.primes
    n, d, disc = u.numerator, u.denominator, pid.disc
    return IdeleFS({pid: QuadNum(2 * n, 0, d, disc),
                    pbar: QuadNum(2 * d, 0, n, disc)}, disc)


def split_pair_idele(disc: Discriminant, p: int, u) -> IdeleFS:
    """Idele (u, 1/u) at the two primes above a split p; its norm is 1."""
    dec = primes_above(disc, p)
    if dec.kind != "split":
        raise ValueError(f"split_pair_idele: {p} is {dec.kind} in {disc}")
    u = Fraction(u)
    if u == 0:
        raise ValueError("split_pair_idele: u = 0")
    return _pair_idele(dec, u)


def idele_norm(z: IdeleFS) -> dict[int, Fraction]:
    """Componentwise norm down to rational ideles, exact in this model: the
    component at each rational prime under the support (absent ones are 1).

    Raises ``IdeleCheckError`` when a nonsplit p carries more than one
    component, or when the components above a split p are not at conjugate
    primes or have no rational joint image.
    """
    disc = z.disc
    by_p: dict[int, list[tuple[FracIdeal, QuadNum]]] = {}
    for prime, comp in z.components.items():
        by_p.setdefault(rational_prime_of(prime), []).append((prime, comp))
    out: dict[int, Fraction] = {}
    for p, entries in by_p.items():
        if kronecker(disc, p) != 1:
            if len(entries) != 1:
                raise IdeleCheckError(
                    f"idele_norm: D = {disc.delta}: {len(entries)} "
                    f"components at the nonsplit prime {p}")
            out[p] = entries[0][1].norm()
            continue
        # product of the two local images: z_w * conj(z_wbar)
        if len(entries) == 1:
            prod = entries[0][1]
        else:
            (p1, c1), (p2, c2) = entries
            if p1.conjugate() != p2:
                raise IdeleCheckError(
                    f"idele_norm: D = {disc.delta}: the components above "
                    f"the split prime {p} are not at conjugate primes")
            prod = c1 * c2.conj()
        if not prod.is_rational():
            raise IdeleCheckError(
                f"idele_norm: D = {disc.delta}: the components above the "
                f"split prime {p} have no rational joint image")
        out[p] = prod.as_rational()
    return out


def boundary(z: IdeleFS) -> K0Elt:
    """The class [1, I_z], I_z the product of P^(v_P(z_P)) over the primes.

    On the norm kernel only split p carry a valuation: r at one prime P
    above p and -r at its conjugate, so I_z = prod P^(2r) / p^r, built as
    (1/prod p^r) * [prod p^(2r), (b+sqrt(D))/2] by ``split_power_product``
    with no ideal product.  Raises ``NotInNormKernel`` when the idele norm
    has a nonzero valuation, and ``IdeleCheckError`` when I_z does not come
    out of norm one.
    """
    disc = z.disc
    by_p: dict[int, int] = {}
    powers, d = [], 1
    for prime, comp in z.components.items():
        r = element_valuation(comp, prime)
        p = rational_prime_of(prime)
        # N(P^r) is p^(2r) for an inert P = p*O and p^r otherwise
        by_p[p] = by_p.get(p, 0) + (2 * r if prime.a == 1 else r)
        if r > 0:
            powers.append((prime, 2 * r))
            d *= p ** r
    bad = [p for p, s in by_p.items() if s]
    if bad:
        raise NotInNormKernel(
            f"idele norm has nonzero valuation at {sorted(bad)}")
    ideal = split_power_product(powers, 1, d, disc)
    if not ideal.norm_is_one():
        raise IdeleCheckError(
            f"boundary: D = {disc.delta}: I_z = {ideal!r} is not of norm 1")
    return K0Elt(1, ideal)


def map_i(e: K0Elt) -> tuple[Fraction, frozenset[int]]:
    """A K0 class as (rational modulo global norms, ramified unit classes).

    Mod squares, t = sign*a for I = (n/d)*[a, ...], and the unit part is the
    set of ramified p with (sign*a, Delta)_p = -1.  Dividing sign*a by a
    uniformizer pi that is a local norm at p would change nothing: the
    symbol is bimultiplicative, so (a*pi, Delta)_p = (a, Delta)_p when
    (pi, Delta)_p = 1.  The set does not depend on the presentation [t, I]
    of the class: another one is [N(z)*t, z*I], and N(z) is a norm at every
    place, so (N(z), Delta)_p = 1.  The ramified primes are primes by
    construction, so their symbols go to ``local._hilbert_core``.
    """
    disc = e.disc
    a = e.sign * e.ideal.a
    return e.t, frozenset(
        p for p in disc.ramified_primes
        if _hilbert_core(*_strip(a, p), *_strip(disc.delta, p), p) == -1)


def mu(disc: Discriminant, t: Fraction, y: frozenset[int]) -> frozenset[int]:
    """F2 difference of the global class of t and the embedded unit classes,
    spread over the nonsplit finite places."""
    return h0_class_of_rational(t, disc) ^ y


def i_is_trivial(disc: Discriminant,
                 pair: tuple[Fraction, frozenset[int]]) -> bool:
    t, y = pair
    return is_global_norm(t, disc) and not y


def mu1(z: QuadNum, u: IdeleFS, primes: FieldPrimes) -> IdeleFS:
    """The idele z/u for a norm-one z and a norm-trivial unit idele u."""
    if z.norm() != 1:
        raise NormKernelViolation(f"N(z) = {z.norm()} != 1")
    if not all(v == 1 for v in idele_norm(u).values()):
        raise NormKernelViolation("u does not have trivial idele norm")
    return diagonal_idele(z, primes) * u.inverse()


# ---------------------------------------------------------------------------
# constructive kernel of i inside the image of the boundary

def boundary_preimage(ctx: K0Context, e: K0Elt) -> IdeleFS | None:
    """An idele z with boundary(z) equal to e as a class, when i kills e.

    Raises ``KernelPreimageError`` when t has no global norm solution
    although it is a norm everywhere locally, when e.ideal / (x) for the
    solution x is not a norm-one product over split primes, or when
    boundary(z) is not the class of e.
    """
    disc = e.disc
    if not i_is_trivial(disc, map_i(e)):
        return None
    x = solve_norm_equation(e.t, ctx)
    if x is None:
        raise KernelPreimageError(
            f"D = {disc.delta}: {e.t} is a local norm everywhere but no "
            f"global norm (Hasse principle)")
    ideal = e.ideal * principal_ideal(x).inverse()
    if not ideal.norm_is_one():
        raise KernelPreimageError(
            f"D = {disc.delta}: {ideal!r} = I / (x) is not of norm 1")
    z = IdeleFS.one(disc)
    for p in sorted(_primes_of(ideal.n * ideal.d * ideal.a)):
        dec = primes_above(disc, p)
        vals = [ideal_valuation(ideal, q) for q in dec.primes]
        if dec.kind != "split":
            if vals[0]:
                raise KernelPreimageError(
                    f"D = {disc.delta}: {ideal!r} = I / (x) has valuation "
                    f"{vals[0]} at the {dec.kind} prime above {p}")
            continue
        v = vals[0]
        if vals[1] != -v:
            raise KernelPreimageError(
                f"D = {disc.delta}: {ideal!r} = I / (x) has valuations "
                f"{vals} above the split prime {p}")
        if v:
            z = z * split_pair_idele(disc, p, Fraction(p) ** v)
    if not k0_eq(ctx, boundary(z), e):
        raise KernelPreimageError(
            f"D = {disc.delta}: the boundary of the constructed idele is not "
            f"the class of ({e.t}, {e.ideal})")
    return z


# ---------------------------------------------------------------------------
# seeded random generators for the sampled exactness checks

_SMALL_PRIMES = tuple(p for p in PRIMES if p < 60)


def _random_quadnum(disc: Discriminant, rng: random.Random) -> QuadNum:
    while True:
        z = QuadNum(2 * rng.randint(-30, 30), 2 * rng.randint(-30, 30),
                    rng.randint(1, 30), disc)
        if z:
            return z


def random_norm_one_element(disc: Discriminant,
                            rng: random.Random) -> QuadNum:
    """x / conj(x) = x^2 / N(x) for a random x: with x = (X + Y*sqrt(D))/(2d),
    that is (X^2 + D*Y^2 + 2XY*sqrt(D)) / (X^2 - D*Y^2)."""
    x = _random_quadnum(disc, rng)
    X, Y, D = x.x, x.y, disc.delta
    return QuadNum(2 * (X * X + D * Y * Y), 4 * X * Y, X * X - D * Y * Y,
                   disc)


def random_norm_kernel_idele(disc: Discriminant, rng: random.Random,
                             primes: FieldPrimes) -> IdeleFS:
    z = IdeleFS.one(disc)
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5 or not primes.split:
            z = z * diagonal_idele(random_norm_one_element(disc, rng), primes)
        else:
            p = rng.choice(primes.split)
            u = Fraction(p) ** rng.randint(-2, 2) * rng.randint(1, 9)
            z = z * _pair_idele(primes.above(p), u)
    return z


def random_unit_idele(disc: Discriminant, rng: random.Random,
                      primes: FieldPrimes) -> IdeleFS:
    """A norm-trivial idele whose components are local units."""
    z = IdeleFS.one(disc)
    for _ in range(rng.randint(0, 2)):
        if not primes.split:
            break
        p = rng.choice(primes.split)
        u = Fraction(rng.choice([1, 2, 3, 5, 7, 9]))
        while u % p == 0:
            u += 1
        z = z * _pair_idele(primes.above(p), u)
    return z


_K0_SAMPLE_PRIMES = [p for p in _SMALL_PRIMES if p < 40]


def random_k0_elt(disc: Discriminant, rng: random.Random,
                  primes: FieldPrimes) -> K0Elt:
    ideal = FracIdeal.unit(disc)
    for p in rng.sample(_K0_SAMPLE_PRIMES, k=rng.randint(0, 3)):
        prime = rng.choice(primes.above(p).primes)
        ideal = ideal * prime ** rng.randint(-2, 2)
    return K0Elt(rng.choice([1, -1]), ideal)


@dataclass(frozen=True)
class SampledExactness:
    disc: Discriminant
    samples: int
    seed: int
    i_after_boundary_trivial: bool
    mu_after_i_trivial: bool
    boundary_after_mu1_trivial: bool
    boundary_is_homomorphism: bool
    # why the constructive kernel check failed, None when it passed
    kernel_failure: str | None

    @property
    def constructive_kernel(self) -> bool:
        return self.kernel_failure is None

    @property
    def all_pass(self) -> bool:
        return (self.i_after_boundary_trivial and self.mu_after_i_trivial
                and self.boundary_after_mu1_trivial
                and self.boundary_is_homomorphism
                and self.constructive_kernel)


def sampled_exactness(disc: Discriminant, samples: int,
                      seed: int) -> SampledExactness:
    """The five verdicts of ``qknorm verify``: four composites on seeded
    samples, then a checked boundary preimage for every K0 class that i
    kills, the identity among them, or the first ``KernelPreimageError``.

    ``i_after_boundary_trivial`` holds by construction: ``boundary``
    returns [1, I] with N(I) = 1, and I's lattice coefficient a is
    prod p^(2r), a square, so ``map_i`` of every boundary is (1, {}).  That
    verdict can fail only through ``boundary``'s own raises."""
    from .knorm import k0_context

    if samples < 1:
        raise ValueError(f"{samples} samples: nothing would be checked")
    rng = random.Random(seed)
    ctx = k0_context(disc)
    identity_key = k0_key(ctx, k0_identity(disc))
    primes = FieldPrimes(disc)
    ok_ib = ok_mi = ok_bm = ok_hom = True
    for _ in range(samples):
        z = random_norm_kernel_idele(disc, rng, primes)
        e = boundary(z)
        if not i_is_trivial(disc, map_i(e)):
            ok_ib = False

        e2 = random_k0_elt(disc, rng, primes)
        t, y = map_i(e2)
        if mu(disc, t, y):
            ok_mi = False

        w = random_norm_one_element(disc, rng)
        u = random_unit_idele(disc, rng, primes)
        if k0_key(ctx, boundary(mu1(w, u, primes))) != identity_key:
            ok_bm = False

        z2 = random_norm_kernel_idele(disc, rng, primes)
        if not k0_eq(ctx, boundary(z * z2), k0_mul(e, boundary(z2))):
            ok_hom = False
    kernel_failure = None
    try:
        for key in k0_group(ctx).keys:
            # None off the kernel of i; a preimage that fails its check raises
            if boundary_preimage(ctx, k0_rep(ctx, key)) is None \
                    and key == identity_key:
                # the identity lies in the kernel of every homomorphism
                raise KernelPreimageError(
                    f"D = {disc.delta}: the identity class has no boundary "
                    "preimage")
    except KernelPreimageError as exc:
        kernel_failure = str(exc)
    return SampledExactness(disc, samples, seed, ok_ib, ok_mi, ok_bm, ok_hom,
                            kernel_failure)


# ---------------------------------------------------------------------------
# the genus engine

# the columns of a scan row, in the order ``genus_engine`` builds them: the
# CSV header, written also for a scan without rows
SCAN_COLUMNS = ("delta", "t_fin", "t_all", "h", "rank2", "eps_norm",
                "exceptional", "dim_v", "dim_h", "verdict_69", "verdict_67",
                "verdict_68")

_BOOL = {True: "true", False: "false"}


def genus_engine(discs: list[Discriminant],
                 counts: list[tuple[int, int, int]]) -> list[dict[str, str]]:
    """The scan rows of a block of fields, in order: 2-rank of the class
    group against the ramification count, three ways, each row a dict of
    decimal strings and "true"/"false" keyed by ``SCAN_COLUMNS`` in order.

    ``counts`` holds (h, h_narrow, rank2) per field, which the scan counts
    for a whole block at once (``block_counts``).  The counts must first
    meet four invariants, or ``ScanCountError`` names D: 2^rank2 divides h
    (the 2-torsion of the class group has order 2^rank2); h_narrow is h or
    2h; h_narrow = h for D < 0; and h_narrow = 2h for an exceptional real
    D, where -1 is not a square mod a ramified p = 3 mod 4, so N(eps) = +1.
    dim V and dim H come from the block kernel (``block_genus_dims``); a
    field it cannot certify goes to ``genus_char_space`` and
    ``is_global_norm(-1, .)``, whose cap raises ``SplitPrimeCapExceeded``.
    dim V must then be t_all - 1, or ``ScanCountError`` names D: Hilbert
    reciprocity bounds it by t_all - 1, and the existence of rationals with
    given symbols (Serre, A Course in Arithmetic, III.2.2, Theorem 4) meets
    the bound.  The fields are taken in order, each check before the next
    field, so the first failing field names the error, whichever check
    fails.  N(eps) of a real field is -1 exactly when the class of
    (sqrt(D)) is trivial, that is when h_narrow = h; it is empty for D < 0.
    """
    dims_v, dims_h = block_genus_dims(discs)
    rows = []
    for disc, (h, h_narrow, rank2), dim_v, dim_h in zip(discs, counts,
                                                         dims_v, dims_h):
        D = disc.delta
        real = disc.is_real
        exceptional = real and any(p % 4 == 3 for p in disc.ramified_primes)
        if h % (1 << rank2):
            raise ScanCountError(f"D = {D}: h = {h} is not divisible by "
                                 f"2^rank2 = {1 << rank2}")
        if h_narrow != h and h_narrow != 2 * h:
            raise ScanCountError(
                f"D = {D}: h_narrow = {h_narrow} is neither h = {h} nor 2h")
        if D < 0 and h_narrow != h:
            raise ScanCountError(
                f"D = {D}: h_narrow = {h_narrow} is not h = {h} for D < 0")
        if exceptional and h_narrow != 2 * h:
            raise ScanCountError(
                f"D = {D}: h_narrow = {h_narrow} is not 2h = {2 * h} for an "
                f"exceptional real D")
        if dim_v < 0:  # a field the kernel cannot certify
            dim_v = genus_char_space(disc).dim
            dim_h = 0 if is_global_norm(-1, disc) else 1
        t_fin, t_all = disc.t_fin, disc.t_all
        if dim_v != t_all - 1:
            raise ScanCountError(f"D = {D}: dim V = {dim_v} is not "
                                 f"t_all - 1 = {t_all - 1}")
        rows.append({
            "delta": str(D),
            "t_fin": str(t_fin),
            "t_all": str(t_all),
            "h": str(h),
            "rank2": str(rank2),
            "eps_norm": ("-1" if h_narrow == h else "1") if real else "",
            "exceptional": _BOOL[exceptional],
            "dim_v": str(dim_v),
            "dim_h": str(dim_h),
            "verdict_69": _BOOL[rank2 == t_fin - 1 - exceptional],
            "verdict_67": _BOOL[dim_v == dim_h + rank2],
            "verdict_68": _BOOL[rank2 <= t_fin - 1 if real
                                else rank2 == t_fin - 1],
        })
    return rows
