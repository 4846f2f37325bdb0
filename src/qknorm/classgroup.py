"""Class groups of quadratic fields via binary quadratic forms.

The narrow group is computed first from proper equivalence classes of
primitive forms: the unique reduced form for negative discriminants, the
rho-cycle of reduced forms for positive ones.  The wide group is the quotient
by the narrow class of the principal ideal generated by sqrt(delta).
``class_group`` has one enumerator per sign of the discriminant, one
reduction loop per kind of form, and one narrow-class builder for real fields
(``_NarrowClasses``), all in plain Python.  The abelian structure, of the wide
group here and of K0 in ``knorm``, is read off one coset enumeration and the
Smith form of its relation matrix (``abelian_closure``).

The scan's ``block_counts`` shares no logic with ``class_group``, so for both
signs it is an independent second path.  It counts a whole block of
discriminants (at most ``BLOCK_WIDTH`` consecutive integers) in one numpy
pass, and only it and the scan's sieve import numpy: for D < 0 the reduced
forms of every D of the block in one enumeration, on and off the boundary of
the fundamental domain, counted by bincount; for D > 0 the cycles of rho
followed by negation on the reduced forms with a > 0 of every D of the
block, labelled on index arrays by min-label pointer jumping.
``scan_counts`` is a block of one.

Forms are plain (a, b, c) tuples.  Composition is the product of the
corresponding ideals (``ideals.lattice_product``, the same product as
``FracIdeal``'s) with the content dropped, which is Gauss composition at
class level.  A principal ideal's generator is read off the transform that
takes its form to one with |a| = 1 (``principal_generator``), for D > 0 by
the walk (``rho_walk``) that also gives ``units`` the fundamental unit.  The
same read-off gives any ideal's class together with a generator over the
class's representative ideal, from the one reduction (D < 0) or walk
(D > 0) that finds the class (``ClassGroupData.class_and_generator``, on
which K0 keys rest); the representatives are built once per group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from .arith import smith_normal_decomp, unimodular_inverse
from .ideals import FracIdeal, lattice_product, principal_ideal
from .quadfield import Discriminant, QuadNum, _ragged

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


def _apply(f: Form, m: Mat, D: int) -> Form:
    a, b, c = f
    p, q, r, s = m
    a2 = a * p * p + b * p * r + c * r * r
    c2 = a * q * q + b * q * s + c * s * s
    b2 = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
    assert b2 * b2 - 4 * a2 * c2 == D
    return (a2, b2, c2)


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
        if b == -a:
            m = _mat_mul(m, (1, 1, 0, 1))
            b = a
            continue
        if a == c and b < 0:
            m = _mat_mul(m, (0, -1, 1, 0))
            b = -b
            continue
        assert _apply(f, m, b * b - 4 * a * c) == (a, b, c)
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
    assert _apply(f, m, D) == g
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
# composition (class level): the product of the two ideals, primitivized

def compose_forms(f1: Form, f2: Form, D: int) -> Form:
    assert f1[0] > 0 and f2[0] > 0
    _, a, b = lattice_product(f1[0], f1[1], f2[0], f2[1], D)
    return (a, b, (b * b - D) // (4 * a))


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


def _partition_cycles(forms: list[Form], D: int) -> dict[Form, Form]:
    """Map each reduced form to its cycle anchor (lexicographic minimum)."""
    form_set = set(forms)
    anchor: dict[Form, Form] = {}
    for f in forms:
        if f in anchor:
            continue
        cyc = cycle_of(f, D)
        if not form_set.issuperset(cyc):
            raise ClassGroupCheckError(
                f"class_group: D = {D}: the cycle of {f} leaves the "
                "enumerated reduced forms")
        a0 = min(cyc)
        for h in cyc:
            anchor[h] = a0
    return anchor


class _NarrowClasses:
    """Narrow class group of a real field.

    Each class is keyed by the lexicographic minimum of its rho-cycle of
    reduced forms.  The wide group is the quotient by the class c0 of the
    ideal (sqrt(delta)); ``wide_of`` sends a narrow key to the smaller key of
    its coset {k, k*c0}, which keys the wide class.
    """

    def __init__(self, disc: Discriminant):
        D = disc.delta
        self.D, self.s = D, isqrt(D)
        self.anchors = _partition_cycles(enumerate_reduced_indefinite(D), D)
        self.keys = sorted(set(self.anchors.values()))
        self.identity = self.anchor_of(principal_form(D))
        sqrt_delta = QuadNum(0, 2, 1, disc)
        c0 = self.anchor_of(form_of_ideal(principal_ideal(sqrt_delta)))
        if c0 == self.identity:
            self.wide_of = {k: k for k in self.keys}
        else:
            self.wide_of = {k: min(k, self.mul(k, c0)) for k in self.keys}

    def anchor_of(self, f: Form) -> Form:
        return self.anchors[reduce_indef_t(f, self.D)[0]]

    def pos_rep(self, k: Form) -> Form:
        """The first form with a > 0 on the cycle from k."""
        g = k
        while g[0] < 0:
            g = rho(g, self.s)
        return g

    def mul(self, k1: Form, k2: Form) -> Form:
        return self.anchor_of(
            compose_forms(self.pos_rep(k1), self.pos_rep(k2), self.D))

    def walk_to_rep(self, f: Form) -> tuple[Form, Form, Mat]:
        """(k, h, M): the wide key k of f and f o M = h, from the reduction
        of f and a walk along its cycle.  h is pos_rep(k) when f is in the
        narrow class k, else its negation (-a, b, -c): f is then in k*c0,
        and negation maps the cycle of k onto that of k*c0."""
        g, m = reduce_indef_t(f, self.D)
        anchor = self.anchors[g]
        key = self.wide_of[anchor]
        r = self.pos_rep(key)
        target = r if anchor == key else (-r[0], r[1], -r[2])
        if g != target:
            g, m = rho_walk(g, m, self.s, target)
        if g != target:
            raise GeneratorCheckError(
                f"walk_to_rep: D = {self.D}: the rho-walk from {f} did not "
                f"reach {target}")
        return key, g, m


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
    here, the ideal by the caller (``_checked_generator``)."""
    u, v = m[0], m[2]
    z0 = QuadNum(2 * i.a * u + i.b * v, v, 1, i.disc)
    if z0.x * z0.x - i.disc.delta * v * v != 4 * g[0] * i.a:
        raise GeneratorCheckError(
            f"generator read-off: D = {i.disc.delta}: N({z0!r}) is not "
            f"{g[0]} * {i.a}")
    return QuadNum(z0.x * i.n, z0.y * i.n, i.d * abs(g[0]), i.disc)


def rho_walk(g: Form, m: Mat, s: int,
             target: Form | None = None) -> tuple[Form, Mat]:
    """From the reduced form g = f o m, follow rho to ``target``, or when
    it is None to the next form with |a| = 1 on the cycle, or back to g;
    returns that form h and the M with f o M = h."""
    start = g
    while True:
        g, step = rho_t(g, s)
        m = _mat_mul(m, step)
        if g == start or (abs(g[0]) == 1 if target is None else g == target):
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
    """The z of ``_generator_from_transform``, checked by one product:
    z*rep = i, where rep is the ideal of g (None for O_F, when |g[0]| = 1)."""
    z = _generator_from_transform(i, m, g)
    zi = principal_ideal(z) if rep is None else principal_ideal(z) * rep
    if zi != i:
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
    generators: list[FracIdeal]
    rank2: int
    disc: Discriminant
    # internal handles (wide group as canonical keys)
    _elements: list = field(repr=False, default_factory=list)
    _mul: object = field(repr=False, default=None)
    _identity: object = field(repr=False, default=None)
    _key_of_form: object = field(repr=False, default=None)
    _rep_form: object = field(repr=False, default=None)
    # the narrow classes of a real field (None for D < 0)
    _narrow: _NarrowClasses | None = field(repr=False, default=None)
    # {c^2: [c, ...]} in elements() order, built by the first square_roots
    _roots: dict | None = field(repr=False, compare=False, default=None)
    # {key: rep_ideal(key)}, filled by rep_ideal as keys are asked for
    _reps: dict = field(repr=False, compare=False, default_factory=dict)

    def key_of_ideal(self, i: FracIdeal):
        return self._key_of_form(form_of_ideal(i))

    def mul(self, k1, k2):
        return self._mul(k1, k2)

    def identity_key(self):
        return self._identity

    def elements(self):
        return list(self._elements)

    def rep_ideal(self, key) -> FracIdeal:
        """The ideal of the class's representative form, built once."""
        rep = self._reps.get(key)
        if rep is None:
            rep = self._reps[key] = ideal_of_form(self._rep_form(key),
                                                  self.disc)
        return rep

    def class_and_generator(self, i: FracIdeal):
        """(key, z) with i = z * rep_ideal(key), the class of i and a
        generator of i over its class's representative.

        For D < 0 the key is the reduced form g = f o M of the form f of i,
        and the representative is the ideal of g; z is read off the first
        column of M (``_generator_from_transform``, Cohen, A Course in
        Computational Algebraic Number Theory, 5.2) and checked by one
        product, z * rep = i.  So one reduction gives both.

        For D > 0 the representative is the ideal of the first form r with
        a > 0 on the wide key's cycle, and M comes from the reduction of f
        and a walk along its cycle to r, or to r's negation when the narrow
        class of f differs from r's by the class of (sqrt(delta))
        (``_NarrowClasses.walk_to_rep``); z is read off and checked as for
        D < 0.
        """
        f = form_of_ideal(i)
        if self._narrow is None:
            key, m = reduce_definite_t(f)
            g = key
        else:
            key, g, m = self._narrow.walk_to_rep(f)
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


class ClosureBudgetExceeded(RuntimeError):
    """Raised when group closure does not stabilize within the budget."""


def abelian_closure(gens, mul, identity, budget=None):
    """The finite abelian group generated by ``gens``: (elements, divisors,
    basis), with invariant factors d1 | d2 | ... > 1 and basis[i] of order
    divisors[i].

    For each gen g outside the subgroup H found so far, the cosets H*g, ...,
    H*g^(m-1) are added, where g^m is the first power back in H.  Every
    element keeps its exponent vector over the gens used, and each step gives
    the relation m*e_g = exps(g^m).  The relation matrix is lower-triangular
    with determinant |G|; its Smith form U*R*V gives the invariant factors,
    and row i of V^-1 the exponents of the i-th basis element (Cohen, A
    Course in Computational Algebraic Number Theory, 2.4).
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
            if budget is not None and len(exps) + len(base) > budget:
                raise ClosureBudgetExceeded(
                    f"more than {budget} classes generated")
            coset = [y] + [mul(x, g) for x in coset[1:]]
            for x, (_, v) in zip(coset, base):
                exps[x] = v + (j,)
            j += 1
        rels.append((exps[y], j))
    r = len(rels)
    R = [[-c for c in v] + [0] * (r - len(v)) for v, _ in rels]
    for i, (_, m) in enumerate(rels):
        R[i][i] = m
    invs, _, V = smith_normal_decomp(R)
    at = {v + (0,) * (r - len(v)): x for x, v in exps.items()}
    divisors, basis = [], []
    for d, x in zip(invs, unimodular_inverse(V)):
        if abs(d) == 1:
            continue
        for k in reversed(range(r)):  # canonical exponents, last gen first
            v, m = rels[k]
            q, x[k] = divmod(x[k], m)
            for t, c in enumerate(v):
                x[t] += q * c
        divisors.append(abs(d))
        basis.append(at[tuple(x)])
    return list(exps), divisors, basis


def class_group(disc: Discriminant) -> ClassGroupData:
    D = disc.delta
    if D < 0:
        reduced = enumerate_reduced_definite(D)
        identity = reduce_definite(principal_form(D))

        def key_of_form(f: Form):
            return reduce_definite(f)

        def rep_form(k: Form) -> Form:
            return k

        def mul(k1, k2):
            return reduce_definite(compose_forms(k1, k2, D))

        narrow = None
        narrow_keys = list(reduced)
        h_narrow = len(narrow_keys)
        wide_keys = narrow_keys
        wide_mul = mul
        wide_identity = identity
    else:
        narrow = nc = _NarrowClasses(disc)
        h_narrow = len(nc.keys)
        wide_keys = sorted(set(nc.wide_of.values()))
        wide_identity = nc.wide_of[nc.identity]
        rep_form = nc.pos_rep

        def key_of_form(f: Form):
            return nc.wide_of[nc.anchor_of(f)]

        def wide_mul(k1, k2):
            return nc.wide_of[nc.mul(k1, k2)]

    elements, divisors, gen_keys = abelian_closure(wide_keys, wide_mul,
                                                   wide_identity)
    if len(elements) != len(wide_keys):
        raise ClassGroupCheckError(
            f"class_group: D = {D}: the {len(wide_keys)} enumerated classes "
            f"generate a group of order {len(elements)}")
    data = ClassGroupData(
        h=len(wide_keys), h_narrow=h_narrow, divisors=divisors,
        generators=[], rank2=sum(1 for d in divisors if d % 2 == 0),
        disc=disc, _elements=wide_keys, _mul=wide_mul,
        _identity=wide_identity, _key_of_form=key_of_form,
        _rep_form=rep_form, _narrow=narrow)
    data.generators = [data.rep_ideal(k) for k in gen_keys]
    return data


# ---------------------------------------------------------------------------
# fast counting path for the large discriminant scan (numpy, imported here
# only, so that class_group and K0 runs never load it)

class ScanCountError(ArithmeticError):
    """A consistency check behind the scan's class counts failed."""


def _exact_log2(count: int, D: int, what: str) -> int:
    if count < 1 or count & (count - 1):
        raise ScanCountError(f"D = {D}: {count} {what}, not a power of 2")
    return count.bit_length() - 1


# block_counts counts at most this many consecutive integers per numpy pass;
# the width bounds the pass's arrays (a few 10^4 forms near |D| = 10^5)
BLOCK_WIDTH = 300


def scan_counts(disc: Discriminant) -> tuple[int, int, int]:
    """(h, h_narrow, rank2 of the wide group) of one field: ``block_counts``
    on a block of one."""
    return block_counts([disc.delta])[0]


def block_counts(deltas) -> list[tuple[int, int, int]]:
    """(h, h_narrow, rank2 of the wide group) for each D in ``deltas``,
    counted without building any group: an independent second path beside
    ``class_group``.

    The D of one sign are cut into runs that span fewer than BLOCK_WIDTH
    integers.  The reduced forms of every integer of a run are enumerated
    in one pass, and the forms of the integers not asked for are dropped.
    Each check is made per D and names it.
    """
    import numpy as np

    out = {}
    for sign, counts in ((-1, _counts_imag), (1, _counts_real)):
        run = []
        for m in sorted({sign * D for D in deltas if sign * D > 0}):
            if run and m - run[0] >= BLOCK_WIDTH:
                out.update(counts(np.array(run, dtype=np.int64)))
                run = []
            run.append(m)
        if run:
            out.update(counts(np.array(run, dtype=np.int64)))
    return [out[D] for D in deltas]


def _counts_imag(ns) -> dict[int, tuple[int, int, int]]:
    """Counts for D = -n, n in the sorted array ``ns``, from the reduced
    forms (a, b, c) with 0 <= b <= a <= c and 4ac - b^2 = n.

    The forms are enumerated over the pairs (a, c) that hold one: c runs
    from max(a, lo/4a) up to (hi + a^2)/4a, and b over the square roots of
    4ac - hi .. 4ac - lo that are at most a.  A form on the boundary of the
    fundamental domain (b = 0, b = a or a = c) is one ambiguous class; any
    other stands for the two classes (a, +-b, c).  h is one bincount on n
    and the ambiguous classes a second.
    """
    import numpy as np

    lo, hi = int(ns[0]), int(ns[-1])
    a_vals = np.arange(1, isqrt(hi // 3) + 1, dtype=np.int64)
    c_lo = np.maximum(a_vals, -(-lo // (4 * a_vals)))
    off, a, c = _ragged(
        np.maximum((hi + a_vals * a_vals) // (4 * a_vals) - c_lo + 1, 0),
        a_vals, c_lo)
    c += off
    four_ac = 4 * a * c
    # b from the ceiling of sqrt(4ac - hi) up to min(a, isqrt(4ac - lo))
    low = np.maximum(four_ac - hi, 0)
    b_lo = _isqrt_array(low)
    b_lo += b_lo * b_lo < low
    b_hi = np.minimum(a, _isqrt_array(four_ac - lo))
    # b = n mod 2 for every form of n: one parity when all n share it
    if (ns % 2 != lo % 2).any():
        step = 1
    else:
        step = 2
        b_lo += (b_lo - lo) % 2
    off, a, c, four_ac, b = _ragged(
        np.maximum((b_hi - b_lo) // step + 1, 0), a, c, four_ac, b_lo)
    b += step * off
    n = four_ac - b * b - lo
    width = hi - lo + 1
    forms = np.bincount(n, minlength=width)
    ambiguous = np.bincount(n[(b == 0) | (b == a) | (a == c)],
                            minlength=width)
    out = {}
    for m in ns.tolist():
        amb = int(ambiguous[m - lo])
        h = 2 * int(forms[m - lo]) - amb
        out[-m] = (h, h, _exact_log2(amb, -m, "ambiguous classes"))
    return out


def _isqrt_array(x):
    """``math.isqrt`` of each entry of a non-negative int64 array: the float
    square root, corrected by one either way.  The float root is within one
    of the true root for every int64, and the largest root, 3037000499,
    squares without overflow."""
    import numpy as np

    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    r -= r * r > x
    r += x - r * r > 2 * r
    return r


def _stable_argsort(keys):
    """``np.argsort(keys, kind="stable")`` for non-negative int64 keys.

    Below 2^32 it is two stable passes on 16-bit digits, low digit first,
    which numpy sorts by radix; from 2^32 on (past |D| ~ 5*10^7 in
    ``_counts_real``) it is the int64 argsort itself.
    """
    import numpy as np

    if not len(keys) or int(keys.max()) >> 32:
        return np.argsort(keys, kind="stable")
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    high = (keys >> 16).astype(np.uint16)[order]
    return order[np.argsort(high, kind="stable")]


def _counts_real(Ds) -> dict[int, tuple[int, int, int]]:
    """Counts for the D > 0 in the sorted array ``Ds`` from the reduced forms
    with a > 0.

    A reduced form of D is (a, b, -k) or its partner (k, b, -a) with
    D = b^2 + 4ak, a <= k, b <= s = isqrt(D) and 2a > s - b; the triples
    (b, a, k) of the whole range are enumerated at once, and each form is
    keyed by (index of D, b, a).  rho alternates the sign of the first
    coefficient, and (a, b, c) -> (-a, b, -c) (the class c0 of
    (sqrt(delta))) commutes with it, so tau = negation after rho maps the
    forms with a > 0 onto themselves.  Its index permutation is read off two
    sorts: the keys of the forms and those of their tau-images must agree
    term by term, which checks that tau is a bijection of the enumerated
    forms.  The cycles of tau are the wide classes, labelled by their least
    index through min-label pointer jumping, and tau^2 = rho^2 splits a
    cycle of even length into two narrow classes.  The reversal
    (a, b, c) -> (c, b, a) inverts the class, so (-c, b, -a), the partner
    each form was built with, lies in the inverse wide class.
    """
    import numpy as np

    lo, hi = int(Ds[0]), int(Ds[-1])
    width = hi - lo + 1
    wanted = np.zeros(width, dtype=bool)
    wanted[Ds - lo] = True
    S = _isqrt_array(np.arange(lo, hi + 1, dtype=np.int64))
    s_lo, s_hi = int(S[0]), int(S[-1])
    # (b, a) with b <= s_hi and (s_lo + 2 - b)//2 <= a, 4a^2 <= hi - b^2
    # b = D mod 2 for every form of D: one parity when all D share it
    step, b0 = (1, 1) if (Ds % 2 != lo % 2).any() else (2, 2 - lo % 2)
    b_vals = np.arange(b0, s_hi + 1, step, dtype=np.int64)
    a_lo = np.maximum((s_lo + 2 - b_vals) // 2, 1)
    a_hi = _isqrt_array((hi - b_vals * b_vals) // 4)
    off, b, a = _ragged(np.maximum(a_hi - a_lo + 1, 0), b_vals, a_lo)
    a += off
    # k from max(a, (lo - b^2)/4a) up to (hi - b^2)/4a
    k_lo = np.maximum(a, -((b * b - lo) // (4 * a)))
    off, b, a, k = _ragged(np.maximum((hi - b * b) // (4 * a) - k_lo + 1, 0),
                           b, a, k_lo)
    k += off
    J = b * b + 4 * a * k - lo
    s = S[J]
    keep = np.flatnonzero(wanted[J] & (b <= s) & (a >= (s + 2 - b) // 2))
    b, a, k, J = b[keep], a[keep], k[keep], J[keep]
    pair = np.flatnonzero(a != k)
    A = np.concatenate((a, k[pair]))
    B = np.concatenate((b, b[pair]))
    C = np.concatenate((k, a[pair]))  # |c|
    J = np.concatenate((J, J[pair]))
    # the partner of each form: the other one of its pair, or itself
    inv = np.arange(len(A))
    inv[pair] = np.arange(len(a), len(A))
    inv[len(a):] = pair
    s = S[J]
    # tau(a, b, -|c|) = (|c|, b', .), b' = 2|c| * ((s + b) // 2|c|) - b
    b2 = 2 * C * ((s + B) // (2 * C)) - B
    top = int(A.max(initial=0)) + 1  # > every |c|, the a of a partner
    row = J * (s_hi + 1)
    key = (row + B) * top + A
    image = (row + b2) * top + C
    in_range = (b2 >= 1) & (b2 <= s)
    bijective = in_range.all()
    if bijective:
        order, hit = _stable_argsort(key), _stable_argsort(image)
        bijective = (key[order] == image[hit]).all()
    if not bijective:
        _raise_rho_miss(lo, key, image, in_range, A, B, C, J)
    # P[i] is the index of tau(form i)
    P = np.empty_like(order)
    P[hit] = order
    # L[i] = min over i, P(i), ..., P^(2^r - 1)(i) after r rounds.  A cycle
    # stays within one D, so once 2^r reaches the most forms of one D, L is
    # the least index of each cycle; then it is constant along tau
    index = np.arange(len(A))
    L, Q = index, P
    for _ in range((int(np.bincount(J).max(initial=1)) - 1).bit_length()):
        L = np.minimum(L, L[Q])
        Q = Q[Q]
    unsettled = np.flatnonzero(L[P] != L)
    if len(unsettled):
        raise ScanCountError(f"D = {lo + int(J[unsettled[0]])}: the labels "
                             "of the tau-cycles did not settle")
    own = L == index
    even = np.bincount(L, minlength=len(A)) % 2 == 0
    h = np.bincount(J[own], minlength=width)
    h_narrow = h + np.bincount(J[own & even], minlength=width)
    torsion = np.bincount(J[own & (L[inv] == L)], minlength=width)
    out = {}
    for D in Ds.tolist():
        j = D - lo
        out[D] = (int(h[j]), int(h_narrow[j]),
                  _exact_log2(int(torsion[j]), D, "self-inverse classes"))
    return out


def _raise_rho_miss(lo, key, image, in_range, A, B, C, J):
    """Name the form of least key whose tau-image is not an enumerated form,
    or, when every image is one, a form that two forms map to."""
    import numpy as np

    miss = ~in_range | ~np.isin(image, key)
    if miss.any():
        m = int(np.flatnonzero(miss)[np.argmin(key[miss])])
        raise ScanCountError(
            f"D = {lo + int(J[m])}: rho of ({A[m]}, {B[m]}, {-C[m]}) is not "
            "an enumerated reduced form")
    _, first, twice = np.unique(image, return_index=True, return_counts=True)
    m = int(first[np.argmax(twice)])
    raise ScanCountError(
        f"D = {lo + int(J[m])}: rho maps two forms to the image of "
        f"({A[m]}, {B[m]}, {-C[m]})")
