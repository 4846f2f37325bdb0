"""Class groups of quadratic fields via binary quadratic forms.

A class is keyed by a reduced form with a > 0 for both signs of the
discriminant, and its representative ideal is that form's ideal.  For
D < 0 the key is the unique reduced form of the class.  For D > 0 a form
and its negation (-a, b, -c) span the same lattice, so the wide class is
read off the forms with a > 0 of a rho-cycle of reduced forms: the key is
the least of them (``_real_class_keys``), and h_narrow is the number of
cycles.  ``class_group`` has one enumerator per sign of the discriminant
and one reduction loop per kind of form, all in plain Python.  The abelian
structure is read off one coset enumeration and the Smith form of its
relation matrix (``abelian_closure``), which also gives the basis that
``knorm`` presents K0 on.

The scan's ``block_counts`` shares no logic with ``class_group``, so for both
signs it is an independent second path.  It counts a whole block of
discriminants (at most ``BLOCK_WIDTH`` consecutive integers) in one numpy
pass; its code is in ``scancounts``, which only the scan imports and which
is the only module that imports numpy.  ``scan_counts`` is a block of one.

Forms are plain (a, b, c) tuples.  A principal ideal's generator is read
off the transform that takes its form to one with |a| = 1
(``principal_generator``), for D > 0 by the walk (``rho_walk``) that also
gives ``units`` the fundamental unit.  The same read-off gives any ideal's
class together with a generator over the class's representative ideal, from
the one reduction (D < 0) or walk to the key (D > 0) that finds the class
(``ClassGroupData.class_and_generator``, on which K0 keys rest); the
representatives are built once per group.  Every read-off generator is
checked by its norm and by membership (``_checked_generator``), with no
ideal product.

Classes multiply through their representatives: the product of the classes
c1 and c2 is the class of the ideal product rep(c1) * rep(c2), read off with
its generator over rep(c) by the same checked lookup.  Each class pair is
multiplied once per group and kept with its generator
(``ClassGroupData.product``); ``class_group``'s closure, the table of
squares and the power chains of K0's presentation (``knorm.k0_group``) all
read that table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from .arith import smith_form
from .ideals import FracIdeal
from .quadfield import Discriminant, QuadNum

Form = tuple[int, int, int]
Mat = tuple[int, int, int, int]  # row-major 2x2

_ID: Mat = (1, 0, 0, 1)


def principal_form(D: int) -> Form:
    b = D % 2
    return (1, b, (b * b - D) // 4)


def form_of_ideal(i: FracIdeal) -> Form:
    return (i.a, i.b, (i.b * i.b - i.disc.delta) // (4 * i.a))


def ideal_of_form(f: Form, disc: Discriminant) -> FracIdeal:
    assert f[0] > 0, "only positive leading coefficients correspond to ideals"
    return FracIdeal.scaled(1, 1, f[0], f[1], disc)


# ---------------------------------------------------------------------------
# reduction, with optional SL2 transformation tracking (f_red = f o M)

def _mat_mul(m: Mat, n: Mat) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def reduce_definite(f: Form) -> Form:
    return reduce_definite_t(f)[0]


def reduce_definite_t(f: Form) -> tuple[Form, Mat]:
    a, b, c = f
    assert a > 0
    m = _ID
    while True:
        if a > c:
            m = _mat_mul(m, (0, -1, 1, 0))
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            t = (r - b) // (2 * a)
            m = _mat_mul(m, (1, t, 0, 1))
            c = c + t * ((r + b) // 2)
            b = r
            continue
        if a == c and b < 0:
            m = _mat_mul(m, (0, -1, 1, 0))
            b = -b
            continue
        return (a, b, c), m


def is_reduced_indef(f: Form, s: int) -> bool:
    a, b, _ = f
    return 0 < b <= s and b >= s + 1 - 2 * abs(a) and b >= 2 * abs(a) - s


def _normalize_indef_t(f: Form, s: int) -> tuple[Form, Mat]:
    a, b, c = f
    hi = abs(a) if abs(a) > s else s
    step = 2 * abs(a)
    k = (hi - b) // step
    t = k if a > 0 else -k
    b2 = b + 2 * a * t
    c2 = c + t * ((b2 + b) // 2)
    return (a, b2, c2), (1, t, 0, 1)


def rho(f: Form, s: int) -> Form:
    return _normalize_indef_t((f[2], -f[1], f[0]), s)[0]


def rho_t(f: Form, s: int) -> tuple[Form, Mat]:
    g, m = _normalize_indef_t((f[2], -f[1], f[0]), s)
    return g, _mat_mul((0, -1, 1, 0), m)


def reduce_indef_t(f: Form, D: int) -> tuple[Form, Mat]:
    s = isqrt(D)
    g, m = _normalize_indef_t(f, s)
    while not is_reduced_indef(g, s):
        g2, m2 = rho_t(g, s)
        g, m = g2, _mat_mul(m, m2)
    return g, m


def cycle_of(f: Form, D: int) -> list[Form]:
    """The rho-cycle through the reduced form equivalent to f."""
    s = isqrt(D)
    out = [reduce_indef_t(f, D)[0]]
    h = rho(out[0], s)
    while h != out[0]:
        out.append(h)
        h = rho(h, s)
    return out


# ---------------------------------------------------------------------------
# enumeration of reduced forms

def enumerate_reduced_definite(D: int) -> list[Form]:
    """All reduced primitive forms of discriminant D < 0 (b of both signs)."""
    assert D < 0
    n = -D
    out = []
    for a in range(1, isqrt(n // 3) + 1):
        for b in range(D % 2, a + 1, 2):
            if (b * b + n) % (4 * a):
                continue
            c = (b * b + n) // (4 * a)
            if c < a:
                continue
            out.append((a, b, c))
            if 0 < b < a and a < c:
                out.append((a, -b, c))
    return out


def enumerate_reduced_indefinite(D: int) -> list[Form]:
    """All reduced primitive forms of discriminant D > 0 (both signs of a),
    in order of b, then |a|.

    For non-square D, (a, b, c) is reduced exactly when (c, b, a) is, so for
    one b the values of |a| pair up as divisors of (D - b^2)/4.  Only the
    smaller one of each pair is searched for, upwards from the reduction
    bound 2|a| > sqrt(D) - b.
    """
    assert D > 0
    s = isqrt(D)
    assert s * s != D, "square D: not the discriminant of a real field"
    out = []
    for b in range(2 - D % 2, s + 1, 2):
        m = (D - b * b) // 4
        small = [a for a in range((s + 2 - b) // 2, isqrt(m) + 1) if not m % a]
        if small:
            for ap in small + [m // a for a in reversed(small) if a * a != m]:
                cp = m // ap
                out.append((ap, b, -cp))
                out.append((-ap, b, cp))
    return out


class ClassGroupCheckError(ArithmeticError):
    """A consistency check behind the class number h failed."""


def _positive(f: Form) -> Form:
    """The one of f and its negation (-a, b, -c) with a > 0.  Both span the
    lattice [|a|, (b+sqrt(D))/2], so they lie in one wide class."""
    return f if f[0] > 0 else (-f[0], f[1], -f[2])


def _real_class_keys(D: int) -> tuple[dict[Form, Form], int]:
    """({reduced form: its wide class key}, number of rho-cycles) for D > 0.

    Each rho-cycle of reduced forms is one narrow class.  Negation commutes
    with rho, so it maps the cycle of a narrow class onto that of the class
    times the class of (sqrt(delta)), with the same forms _positive(g).  So
    the forms _positive(g) of one cycle are those of its wide class, and the
    least of them is the class key: a reduced form with a > 0.
    """
    forms = enumerate_reduced_indefinite(D)
    form_set = set(forms)
    keys: dict[Form, Form] = {}
    cycles = 0
    for f in forms:
        if f in keys:
            continue
        cyc = cycle_of(f, D)
        if not form_set.issuperset(cyc):
            raise ClassGroupCheckError(
                f"class_group: D = {D}: the cycle of {f} leaves the "
                "enumerated reduced forms")
        keys.update(dict.fromkeys(cyc, min(map(_positive, cyc))))
        cycles += 1
    return keys, cycles


# ---------------------------------------------------------------------------
# principality with explicit generator

class GeneratorCheckError(ArithmeticError):
    """A principal generator, on which K0 verdicts rest, failed its check."""


def _generator_from_transform(i: FracIdeal, m: Mat, g: Form) -> QuadNum:
    """The z = (n/d)*alpha/|g[0]|, alpha = a*u + ((b+sqrt(D))/2)*v, with
    i = z * [|g[0]|, (g[1]+sqrt(D))/2] for i = (n/d)*[a, (b+sqrt(D))/2],
    (u, v) the first column of a proper m and f o m = g for the form f of i.

    The columns of m take the basis of [a, (b+sqrt(D))/2] to one (alpha,
    beta) with beta/alpha = (g[1]+sqrt(D))/(2*g[0]), a root of g; so z
    generates i when |g[0]| = 1.  The norm of alpha, g[0]*a, is checked
    here; the caller (``_checked_generator``) checks that z times the
    ideal of g is i."""
    v = m[2]
    x = 2 * i.a * m[0] + i.b * v  # alpha = (x + v*sqrt(D))/2
    if x * x - i.disc.delta * v * v != 4 * g[0] * i.a:
        raise GeneratorCheckError(
            f"generator read-off: D = {i.disc.delta}: "
            f"N({QuadNum(x, v, 1, i.disc)!r}) is not {g[0]} * {i.a}")
    return QuadNum(x * i.n, v * i.n, i.d * abs(g[0]), i.disc)


def rho_walk(g: Form, m: Mat, s: int,
             target: Form | None = None) -> tuple[Form, Mat]:
    """From the reduced form g = f o m, follow rho to the next form h on
    the cycle with _positive(h) = ``target``, or when it is None with
    |a| = 1, or back to g; returns h and the M with f o M = h."""
    start = g
    while True:
        g, step = rho_t(g, s)
        m = _mat_mul(m, step)
        if g == start or (abs(g[0]) == 1 if target is None
                          else _positive(g) == target):
            return g, m


def principal_generator(i: FracIdeal) -> QuadNum | None:
    """A generator z with z*O_F = i (either sign of N(z)), or None.

    If f o M = g for the form f of i, then f(M*e1) = g[0]; so i is principal
    exactly when a reduced form equivalent to f has |a| = 1, and then z is
    read off the first column of M.  For D < 0 that is the reduced form of
    f; for D > 0 the walk follows rho around the cycle of f.
    """
    D = i.disc.delta
    f = form_of_ideal(i)
    if D < 0:
        g, m = reduce_definite_t(f)
    else:
        g, m = reduce_indef_t(f, D)
        if abs(g[0]) != 1:
            g, m = rho_walk(g, m, isqrt(D))
    if abs(g[0]) != 1:
        return None
    return _checked_generator(i, m, g, None, "principal_generator")


def _checked_generator(i: FracIdeal, m: Mat, g: Form, rep: FracIdeal | None,
                       where: str) -> QuadNum:
    """The z of ``_generator_from_transform``, checked to give z*rep = i,
    where rep is the ideal of g (None for O_F, when |g[0]| = 1), by its norm
    and two membership tests with no ideal product (``FracIdeal.is_product``).
    """
    z = _generator_from_transform(i, m, g)
    if not i.is_product(z, FracIdeal.unit(i.disc) if rep is None else rep):
        raise GeneratorCheckError(
            f"{where}: D = {i.disc.delta}: {z!r} times "
            f"{'O_F' if rep is None else rep} is not {i!r}")
    return z


# ---------------------------------------------------------------------------
# the class group object

@dataclass
class ClassGroupData:
    h: int
    h_narrow: int
    divisors: list[int]
    # the class keys of a basis, basis[i] of order divisors[i]
    basis: list[Form]
    rank2: int
    disc: Discriminant
    # the class keys (elements()), reduced forms with a > 0
    _elements: list = field(repr=False, default_factory=list)
    # D > 0: {reduced form: its class key} (``_real_class_keys``); None for
    # D < 0, where the reduced form is the key
    _keys: dict | None = field(repr=False, default=None)
    # {c^2: [c, ...]} in elements() order, built by the first square_roots
    _roots: dict | None = field(repr=False, compare=False, default=None)
    # {key: rep_ideal(key)}, filled by rep_ideal as keys are asked for
    _reps: dict = field(repr=False, compare=False, default_factory=dict)
    # {(c1, c2): (key, z)}, filled by product as class pairs are asked for
    _products: dict = field(repr=False, compare=False, default_factory=dict)
    # the key of the principal class, reduced by the first identity_key
    _identity: Form | None = field(repr=False, compare=False, default=None)

    @property
    def generators(self) -> list[FracIdeal]:
        return [self.rep_ideal(k) for k in self.basis]

    def key_of_form(self, f: Form) -> Form:
        if self._keys is None:
            return reduce_definite(f)
        return self._keys[reduce_indef_t(f, self.disc.delta)[0]]

    def key_of_ideal(self, i: FracIdeal) -> Form:
        return self.key_of_form(form_of_ideal(i))

    def product(self, c1: Form, c2: Form):
        """(key, z) with rep_ideal(c1) * rep_ideal(c2) = z * rep_ideal(key):
        the ideal product and its checked class lookup
        (``class_and_generator``), done once per class pair."""
        kz = self._products.get((c1, c2))
        if kz is None:
            kz = self._products[c1, c2] = self.class_and_generator(
                self.rep_ideal(c1) * self.rep_ideal(c2))
        return kz

    def mul(self, k1: Form, k2: Form) -> Form:
        return self.product(k1, k2)[0]

    def identity_key(self) -> Form:
        if self._identity is None:
            self._identity = self.key_of_form(principal_form(self.disc.delta))
        return self._identity

    def elements(self):
        return list(self._elements)

    def rep_ideal(self, key: Form) -> FracIdeal:
        """The ideal of the key, built once."""
        rep = self._reps.get(key)
        if rep is None:
            rep = self._reps[key] = ideal_of_form(key, self.disc)
        return rep

    def class_and_generator(self, i: FracIdeal):
        """(key, z) with i = z * rep_ideal(key), the class of i and a
        generator of i over its class's representative.

        The reduction of the form f of i gives g = f o M.  For D < 0 g is
        the key.  For D > 0 the walk follows g's rho-cycle on to the form
        g' = f o M' with _positive(g') = key, the key or its negation, which
        spans the same lattice.  z is read off the first column of M
        (``_generator_from_transform``, Cohen, A Course in Computational
        Algebraic Number Theory, 5.2) and checked to give z * rep = i by
        its norm and two membership tests, with no ideal product
        (``_checked_generator``).  So one reduction (D < 0) or walk (D > 0)
        gives both.
        """
        f = form_of_ideal(i)
        if self._keys is None:
            key, m = reduce_definite_t(f)
            g = key
        else:
            D = self.disc.delta
            g, m = reduce_indef_t(f, D)
            key = self._keys[g]
            if _positive(g) != key:
                g, m = rho_walk(g, m, isqrt(D), key)
            if _positive(g) != key:
                raise GeneratorCheckError(
                    f"class_and_generator: D = {D}: the rho-walk from {f} "
                    f"did not reach {key}")
        return key, _checked_generator(i, m, g, self.rep_ideal(key),
                                       "class_and_generator")

    def square_roots(self, key) -> list:
        """The classes c with c^2 = key, in elements() order ([] when key is
        not a square): a coset of Cl[2], read from a table of all h squares
        built on the first call."""
        if self._roots is None:
            self._roots = {}
            for c in self._elements:
                self._roots.setdefault(self.mul(c, c), []).append(c)
        return self._roots.get(key, [])


def abelian_closure(gens, mul, identity):
    """The finite abelian group generated by ``gens``: (elements, divisors,
    basis), with invariant factors d1 | d2 | ... > 1 and basis[i] of order
    divisors[i].

    For each gen g outside the subgroup H found so far, the cosets H*g, ...,
    H*g^(m-1) are added, where g^m is the first power back in H.  Every
    element keeps its exponent vector over the gens used, and each step gives
    the relation m*e_g = exps(g^m).  The relation matrix is lower-triangular
    with determinant |G|; its Smith form U*R*V (``smith_form``) gives the
    invariant factors, and row i of V^-1 the exponents of the i-th basis
    element (Cohen, A Course in Computational Algebraic Number Theory,
    2.4.3).  The basis is the one that reduction finds, not otherwise fixed.
    """
    exps = {identity: ()}
    rels = []  # (exps(g^m), m), one per gen used
    for g in gens:
        if g in exps:
            continue
        n = len(rels)
        base = [(x, v + (0,) * (n - len(v))) for x, v in exps.items()]
        coset, j = [x for x, _ in base], 1
        while (y := mul(coset[0], g)) not in exps:
            coset = [y] + [mul(x, g) for x in coset[1:]]
            for x, (_, v) in zip(coset, base):
                exps[x] = v + (j,)
            j += 1
        rels.append((exps[y], j))
    r = len(rels)
    R = [[-c for c in v] + [0] * (r - len(v)) for v, _ in rels]
    for i, (_, m) in enumerate(rels):
        R[i][i] = m
    invs, w = smith_form(R)
    at = {v + (0,) * (r - len(v)): x for x, v in exps.items()}
    divisors, basis = [], []
    for d, x in zip(invs, w):
        if d == 1:
            continue
        for k in reversed(range(r)):  # canonical exponents, last gen first
            v, m = rels[k]
            q, x[k] = divmod(x[k], m)
            for t, c in enumerate(v):
                x[t] += q * c
        divisors.append(d)
        basis.append(at[tuple(x)])
    return list(exps), divisors, basis


def class_group(disc: Discriminant) -> ClassGroupData:
    D = disc.delta
    if D < 0:
        keys = None
        elements = enumerate_reduced_definite(D)
        h_narrow = len(elements)
    else:
        keys, h_narrow = _real_class_keys(D)
        elements = sorted(set(keys.values()))
    data = ClassGroupData(h=len(elements), h_narrow=h_narrow, divisors=[],
                          basis=[], rank2=0, disc=disc,
                          _elements=elements, _keys=keys)
    closure, data.divisors, data.basis = abelian_closure(
        elements, data.mul, data.identity_key())
    if len(closure) != len(elements):
        raise ClassGroupCheckError(
            f"class_group: D = {D}: the {len(elements)} enumerated classes "
            f"generate a group of order {len(closure)}")
    data.rank2 = sum(1 for d in data.divisors if d % 2 == 0)
    return data


# ---------------------------------------------------------------------------
# the scan's counts: ``scancounts``, the one module that imports numpy; only
# a scan imports it, so class_group and K0 runs neither load numpy nor
# compile it

class ScanCountError(ArithmeticError):
    """A consistency check behind the scan's class counts failed."""


# block_counts counts at most this many consecutive integers per numpy pass;
# the width bounds the pass's arrays (a few 10^4 forms near |D| = 10^5)
BLOCK_WIDTH = 300


def scan_counts(disc: Discriminant) -> tuple[int, int, int]:
    """(h, h_narrow, rank2 of the wide group) of one field: ``block_counts``
    on a block of one."""
    return block_counts([disc.delta])[0]


def block_counts(deltas) -> list[tuple[int, int, int]]:
    """(h, h_narrow, rank2 of the wide group) for each D in ``deltas``,
    counted without building any group: ``scancounts.block_counts``, whose
    module is imported here, on the first scan, so that a process that
    never scans does not compile it."""
    from .scancounts import block_counts

    return block_counts(deltas)
