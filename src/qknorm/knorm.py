"""Grothendieck group of the norm functor on a quadratic field.

An element is a pair [t, I] with t a nonzero rational, I a fractional ideal
and |t| = N(I), stored as (sign, I) with t = sign * N(I); two pairs are
identified when [t', I'] = [N(z)*t, z*I] for some z in F*.  The group sits
in an exact sequence between the units-mod-norms group of the field and its
class group, verified here by explicit enumeration.

A class is keyed by (sign, wide class of I) (``k0_key``): one class lookup
gives the class and a checked z with I = z * i0 for the class's
representative i0, and the sign, where it is an invariant of the class, is
that of t0 in [t, I] = [N(z)*t0, z*i0].  ``k0_rep`` builds the
representative [t0, i0] of a key.

The closure (``k0_group``) multiplies keys by class pairs: the product of
(s1, c1) and (s2, c2) is (s1*s2*sign N(z), c), where i1*i2 = z*i0 is the
class group's product of the pair (c1, c2) (``ClassGroupData.product``).
It takes the class group's elements as generators in the order its closure
did, so it meets the same class pairs and reads each product from the
class group's table; the sign comes from ``k0_sign``, which ``k0_key``
shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .arith import factorint
# ClosureBudgetExceeded is raised by k0_group and importable from here
from .classgroup import (ClassGroupData, ClosureBudgetExceeded,
                         GeneratorCheckError, abelian_closure, class_group,
                         principal_generator)
from .ideals import FracIdeal, primes_above
from .quadfield import Discriminant, QuadNum
from .units import UnitData, fundamental_unit


class K0Elt:
    """The pair [sign * N(ideal), ideal]: a plain value, equal when sign and
    ideal are, immutable by convention."""

    __slots__ = ("sign", "ideal")

    def __init__(self, sign: int, ideal: FracIdeal):
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"K0 sign {sign!r} is not the int 1 or -1")
        self.sign = sign
        self.ideal = ideal

    def __eq__(self, other):
        if other.__class__ is not K0Elt:
            return NotImplemented
        return self.sign == other.sign and self.ideal == other.ideal

    def __hash__(self):
        return hash((self.sign, self.ideal))

    def __repr__(self):
        return f"K0Elt(sign={self.sign!r}, ideal={self.ideal!r})"

    @property
    def t(self) -> Fraction:
        i = self.ideal
        return Fraction(self.sign * i.n * i.n * i.a, i.d * i.d)

    @property
    def disc(self) -> Discriminant:
        return self.ideal.disc


def k0_identity(disc: Discriminant) -> K0Elt:
    return K0Elt(1, FracIdeal.unit(disc))


def k0_mul(e1: K0Elt, e2: K0Elt) -> K0Elt:
    return K0Elt(e1.sign * e2.sign, e1.ideal * e2.ideal)


@dataclass
class K0Context:
    """Class group plus unit data, enough to canonicalize K0 classes."""
    disc: Discriminant
    cg: ClassGroupData
    units: UnitData

    @property
    def sign_is_invariant(self) -> bool:
        # the sign of t can be absorbed exactly when a unit of norm -1 exists
        return self.units.h0_units_order == 2


def k0_context(disc: Discriminant) -> K0Context:
    return K0Context(disc=disc, cg=class_group(disc),
                     units=fundamental_unit(disc))


def k0_sign(ctx: K0Context, sign: int, z: QuadNum) -> int:
    """The sign of a key: that of t0 in [sign * N(I), I] = [N(z) * t0, z * i0]
    when the sign is an invariant of the class, else 1."""
    if not ctx.sign_is_invariant:
        return 1
    return sign if z.x * z.x > ctx.disc.delta * z.y * z.y else -sign


def k0_key(ctx: K0Context, e: K0Elt):
    """Canonical key (sign, wide class key); equal keys iff equal classes.

    One class lookup gives the wide class of I and a checked generator z
    of I over the class's representative i0
    (``ClassGroupData.class_and_generator``)."""
    key, z = ctx.cg.class_and_generator(e.ideal)
    return (k0_sign(ctx, e.sign, z), key)


def k0_rep(ctx: K0Context, key) -> K0Elt:
    """The representative [sign * N(i0), i0] of a K0 key."""
    sign, ckey = key
    return K0Elt(sign, ctx.cg.rep_ideal(ckey))


def k0_eq(ctx: K0Context, e1: K0Elt, e2: K0Elt) -> bool:
    """Whether e1 and e2 are the same K0 class.

    Equal representatives are the same class: ``FracIdeal`` has one normal
    form (coprime n/d, a > 0, -a < b <= a), so equal (sign, ideal) pairs
    are equal pairs [t, I].  Only different representatives go to the
    canonical keys.  This decides nothing differently: a pair that is not
    equal as (sign, ideal) is compared by class exactly as before, so a map
    that breaks a relation such as the multiplicativity of ``boundary``
    still meets ``k0_key``; what is skipped is ``k0_key``'s generator check
    on the pair itself, which ``sampled_exactness`` runs on every sample
    through the boundary of mu1.
    """
    if e1 == e2:
        return True
    return k0_key(ctx, e1) == k0_key(ctx, e2)


def sigma(ctx: K0Context, sign: int) -> K0Elt:
    """Image of a unit class: [sign, O_F]."""
    return K0Elt(sign, FracIdeal.unit(ctx.disc))


@dataclass
class K0Group:
    order: int
    divisors: list[int]
    keys: list
    ctx: K0Context


# k0_group raises ClosureBudgetExceeded past this many K0 classes
K0_BUDGET = 1_000_000


def k0_group(ctx: K0Context) -> K0Group:
    """All classes, enumerated from sigma(-1) and the class group's
    elements, with the abelian structure; ClosureBudgetExceeded past
    ``K0_BUDGET``.

    The representatives of (s1, c1) and (s2, c2) multiply to
    [s1*s2, i1*i2], and with i1*i2 = z*i0 its key is (s1*s2*sign N(z), c)
    (``k0_sign``).  So the ideal product and its checked class lookup depend
    on the class pair (c1, c2) alone, and come from the class group's table
    (``ClassGroupData.product``).  The generators are the keys (1, c) of
    the representatives [N(i0), i0] (a unit's norm is 1 where the sign is
    an invariant) in ``class_group``'s order, after sigma(-1): the sign
    classes lie over the identity class, so the closure meets the class
    pairs ``class_group``'s closure met and computes no product of its own
    but sigma(-1)'s, of the identity class with itself.
    """
    cg = ctx.cg

    def mul(k1, k2):
        (s1, c1), (s2, c2) = k1, k2
        c, z = cg.product(c1, c2)
        return (k0_sign(ctx, s1 * s2, z), c)

    one = cg.identity_key()
    # sigma(-1) = [-1, O_F * O_F], the product of (-1, one) and (1, one)
    gens = [mul((-1, one), (1, one))] + [(1, c) for c in cg.elements()]
    elements, divisors, _ = abelian_closure(gens, mul, (1, one), K0_BUDGET)
    keys = sorted(elements)
    return K0Group(order=len(keys), divisors=divisors, keys=keys, ctx=ctx)


@dataclass(frozen=True)
class BassReport:
    disc: Discriminant
    order: int
    expected_order: int
    sigma_injective: bool
    sigma_expected_injective: bool
    kernel_rho_is_image_sigma: bool
    rho_surjective: bool
    # the group the report was read from, with its context
    group: K0Group = field(repr=False, compare=False)

    @property
    def exact(self) -> bool:
        return (self.order == self.expected_order
                and self.sigma_injective == self.sigma_expected_injective
                and self.kernel_rho_is_image_sigma and self.rho_surjective)


def bass_sequence_report(disc: Discriminant) -> BassReport:
    """Check exactness of units-mod-norms -> K0 -> class group -> 1."""
    ctx = k0_context(disc)
    grp = k0_group(ctx)
    im_sigma = {k0_key(ctx, sigma(ctx, 1)), k0_key(ctx, sigma(ctx, -1))}
    unit_key = ctx.cg.key_of_ideal(FracIdeal.unit(disc))
    ker_rho = {k for k in grp.keys if k[1] == unit_key}
    classes_hit = {k[1] for k in grp.keys}
    expected = ctx.units.h0_units_order * ctx.cg.h
    return BassReport(
        disc=disc, order=grp.order, expected_order=expected,
        sigma_injective=len(im_sigma) == 2,
        sigma_expected_injective=ctx.units.h0_units_order == 2,
        kernel_rho_is_image_sigma=ker_rho == im_sigma,
        rho_surjective=len(classes_hit) == ctx.cg.h, group=grp)


# ---------------------------------------------------------------------------
# the norm equation N(x) = t, solved through principality tests

def _integral_ideals_of_norm(disc: Discriminant, m: int):
    """All integral ideals of norm m > 0."""
    if m <= 0:
        raise ValueError(f"integral ideals have positive norm, got m = {m}")
    choices = []
    for p, e in factorint(m).items():
        dec = primes_above(disc, p)
        if dec.kind == "inert":
            if e % 2:
                return
            choices.append([dec.primes[0] ** (e // 2)])
        elif dec.kind == "ramified":
            choices.append([dec.primes[0] ** e])
        else:
            pid, pbar = dec.primes
            choices.append([pid ** k * pbar ** (e - k) for k in range(e + 1)])
    for combo in product(*choices):
        out = FracIdeal.unit(disc)
        for j in combo:
            out = out * j
        if out.norm() != m:
            raise GeneratorCheckError(
                f"_integral_ideals_of_norm: D = {disc.delta}: {out!r} has "
                f"norm {out.norm()}, not {m}")
        yield out


def solve_norm_equation(t, ctx: K0Context) -> QuadNum | None:
    """An x in F* with N(x) = t in the field of ``ctx``, or None if none.

    The principal ideal of a solution is an integral ideal J0 above the
    primes dividing t times a norm-one twist A * conj(A)^-1, whose class is
    the square of [A]; so it suffices to run over the integral parts J0 and
    over the square roots of [J0]^-1 = [conj(J0)], looked up in the class
    group's table of squares (``ClassGroupData.square_roots``), and read off
    generators.  Every root is tried in turn: when N(eps) = +1 the sign of
    the generator's norm depends on the root.  A generator that does not give
    N(x) = t raises ``GeneratorCheckError``.
    """
    disc, cg, units = ctx.disc, ctx.cg, ctx.units
    t = Fraction(t)
    if t == 0:
        raise ValueError("the norm equation N(x) = 0 has no solution in F*")
    if disc.delta < 0 and t < 0:
        return None
    # clear the denominator: N(y) = t * den^2 with y = x * den
    m = t.numerator * t.denominator
    for j0 in _integral_ideals_of_norm(disc, abs(m)):
        for c in cg.square_roots(cg.key_of_ideal(j0.conjugate())):
            a = cg.rep_ideal(c)
            j = j0 * a * a.conjugate().inverse()
            z = principal_generator(j)
            if z is not None and z.norm() == -m:
                if units.eps_norm != -1:
                    continue
                z = z * units.eps
            if z is None or z.norm() != m:
                raise GeneratorCheckError(
                    f"solve_norm_equation: D = {disc.delta}: {j!r} has no "
                    f"generator of norm {m}")
            return z.scale(Fraction(1, t.denominator))
    return None
