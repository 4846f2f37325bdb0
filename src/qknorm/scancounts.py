"""The scan's numpy kernels: the class counts (h, h_narrow, rank2) and the
genus dims (dim V, dim H) of whole blocks of discriminants.

The class counts take one numpy pass per block and sign, on a path that
shares no logic with ``classgroup.class_group``, so for both signs it is an
independent second path.

For D < 0 the reduced forms of every D of a block are enumerated at once,
on and off the boundary of the fundamental domain, and counted by bincount.
For D > 0 the reduced forms with a > 0 of every D of the block are
enumerated at once, the image of each under rho followed by negation is
found by index arithmetic on the enumeration, with no sort, and the cycles
of that map are labelled on index arrays by min-label pointer jumping.
Both write their columns in place into one workspace of numpy buffers per
process (``_Workspace``).

The genus dims (``block_genus_dims``) are ``local.genus_char_space`` and
``is_global_norm(-1, .)`` for a whole block: the Hilbert symbols of -1, the
ramified primes and a fixed list of small split primes at every ramified
prime, the scalar ``local._hilbert_core`` written out on arrays (the tests
compare the two bit for bit), and their F2 rank by elimination, one round
per bit for all fields at once.  The symbols of the list at a place are one
gather from a small per-prime table, those of a pair of ramified primes one
gather from a table of Legendre symbols of the primes below TABLE_BOUND.  A
field whose rank falls short of t_all - 1 is left to the per-field loop.

This is the only module that imports numpy, and only the scan imports it,
through ``classgroup.block_counts``, ``classgroup.scan_counts`` and
``local.block_genus_dims``; the scan's sieve
(``quadfield.fundamental_discriminants``) is plain Python.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import isqrt

import numpy as np

from .arith import PRIMES, TABLE_BOUND
from .classgroup import BLOCK_WIDTH, ScanCountError


def _exact_log2(count: int, D: int, what: str) -> int:
    if count < 1 or count & (count - 1):
        raise ScanCountError(f"D = {D}: {count} {what}, not a power of 2")
    return count.bit_length() - 1


def block_counts(deltas) -> list[tuple[int, int, int]]:
    """(h, h_narrow, rank2 of the wide group) for each D in ``deltas``,
    counted without building any group: an independent second path beside
    ``class_group``.

    The D of one sign are cut into runs that span fewer than BLOCK_WIDTH
    integers.  The reduced forms of every integer of a run are enumerated
    in one pass, and the forms of the integers not asked for are dropped.
    Each check is made per D and names it.
    """
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


class _Workspace:
    """Named numpy buffers that the scan's counts write in place,
    one set per process, so that the blocks of a scan reuse the same pages
    instead of allocating fresh temporaries (which the C heap hands back to
    the OS and the next block faults in again).

    ``get`` returns the first n entries of a buffer.  A buffer too short
    for a request, or of another dtype, is replaced by one a quarter longer
    than the request, so a buffer grows geometrically and is at most 1.25
    times the largest request.  The counts reuse each buffer from stage to
    stage, as a slot, so the workspace is bounded by the largest block
    seen.  Buffers carry nothing from one call to the next: every entry a
    call reads it has written first.  The one exception is ``iota``, the
    constant 0, 1, 2, ...
    """

    def __init__(self):
        self.bufs = {}
        self.iotas = {}

    def get(self, name, n, dtype):
        """A view of n entries of the buffer ``name``; ``dtype`` is a numpy
        scalar type."""
        buf = self.bufs.get(name)
        if buf is None or len(buf) < n or buf.dtype.type is not dtype:
            buf = self.bufs[name] = np.empty(n + n // 4, dtype)
        return buf[:n]

    def iota(self, n, dtype):
        """0, 1, ..., n - 1 as a view of a buffer filled when it grows."""
        buf = self.iotas.get(dtype)
        if buf is None or len(buf) < n:
            buf = self.iotas[dtype] = np.arange(n + n // 4, dtype=dtype)
        return buf[:n]


_WS = _Workspace()


def _expand(lens, starts_slot: str):
    """Lay the ranges 0..lens[i]-1 end to end: (grp, starts), grp[t] the
    range i of element t (intp) and starts[i] where range i begins (so
    element t is number t - starts[grp[t]] of its range).  Every entry of
    grp is the index of a nonempty range, so a gather by grp is in range by
    construction.  grp is a new array; starts is a view of the named
    workspace slot, with the dtype of ``lens``, which holds non-negative
    ints."""
    m = len(lens)
    ends = _WS.get(starts_slot, m + 1, lens.dtype.type)
    ends[0] = 0
    lens.cumsum(out=ends[1:])
    return np.repeat(_WS.iota(m, np.intp), lens), ends[:m]


def _isqrt_array(x, out=None):
    """``math.isqrt`` of each entry of a non-negative int64 array: the float
    square root, corrected by one either way.  The float root is within one
    of the true root for every int64, and the largest root, 3037000499,
    squares without overflow.  The roots are written into ``out`` (an int64
    array of x's length, a new one when None), through workspace buffers."""
    n = len(x)
    if out is None:
        out = np.empty(n, dtype=np.int64)
    root = np.sqrt(x, out=_WS.get("isqrt_float", n, np.float64))
    np.copyto(out, root, casting="unsafe")  # truncates, as astype does
    square = np.multiply(out, out, out=_WS.get("isqrt_square", n, np.int64))
    over = np.greater(square, x, out=_WS.get("isqrt_test", n, np.bool_))
    out -= over
    np.multiply(out, out, out=square)
    np.subtract(x, square, out=square)
    twice = np.add(out, out, out=_WS.get("isqrt_twice", n, np.int64))
    out += np.greater(square, twice, out=over)
    return out


def _counts_imag(ns) -> dict[int, tuple[int, int, int]]:
    """Counts for D = -n, n in the sorted array ``ns``, from the reduced
    forms (a, b, c) with 0 <= b <= a <= c and 4ac - b^2 = n.

    The forms are enumerated over the pairs (a, c) that hold one: c runs
    from max(a, lo/4a) up to (hi + a^2)/4a, and b over the square roots of
    4ac - hi .. 4ac - lo that are at most a.  A form on the boundary of the
    fundamental domain (b = 0, b = a or a = c) is one ambiguous class; any
    other stands for the two classes (a, +-b, c).  h is one bincount on n
    and the ambiguous classes a second.  The columns are int64 (intp)
    workspace slots written in place, i1..i7, shared with ``_counts_real``.
    """
    ws, ip = _WS, np.intp
    lo, hi = int(ns[0]), int(ns[-1])
    a_vals = np.arange(1, isqrt(hi // 3) + 1, dtype=ip)
    c_lo = np.maximum(a_vals, -(-lo // (4 * a_vals)))
    grp, starts = _expand(
        np.maximum((hi + a_vals * a_vals) // (4 * a_vals) - c_lo + 1, 0),
        "si")
    m = len(grp)
    # grp holds indices of a_vals (``_expand``): no index is clipped
    a = a_vals.take(grp, out=ws.get("i1", m, ip), mode="clip")
    c = (c_lo - starts).take(grp, out=ws.get("i2", m, ip), mode="clip")
    c += ws.iota(m, ip)
    four_ac = np.multiply(a, c, out=ws.get("i3", m, ip))
    four_ac *= 4
    square = np.equal(a, c, out=ws.get("m1", m, np.bool_))  # a = c
    # b from the ceiling of sqrt(4ac - hi) up to min(a, isqrt(4ac - lo))
    low = np.subtract(four_ac, hi, out=ws.get("i4", m, ip))
    np.maximum(low, 0, out=low)
    b_lo = _isqrt_array(low, out=ws.get("i5", m, ip))
    top = np.multiply(b_lo, b_lo, out=ws.get("i6", m, ip))
    b_lo += np.less(top, low, out=ws.get("m2", m, np.bool_))
    np.subtract(four_ac, lo, out=top)
    b_hi = _isqrt_array(top, out=ws.get("i7", m, ip))
    np.minimum(b_hi, a, out=b_hi)
    lens = np.subtract(b_hi, b_lo, out=b_hi)
    lens += 1
    np.maximum(lens, 0, out=lens)
    grp, starts = _expand(lens, "i4")
    f = len(grp)
    b_lo -= starts
    # grp holds indices of the pairs: no index is clipped
    b = b_lo.take(grp, out=ws.get("i6", f, ip), mode="clip")
    b += ws.iota(f, ip)
    n = four_ac.take(grp, out=ws.get("i2", f, ip), mode="clip")
    n -= lo
    n -= np.multiply(b, b, out=ws.get("i4", f, ip))
    on_boundary = square.take(grp, out=ws.get("m2", f, np.bool_),
                              mode="clip")
    a = a.take(grp, out=ws.get("i4", f, ip), mode="clip")
    test = ws.get("m3", f, np.bool_)
    on_boundary |= np.equal(b, a, out=test)
    on_boundary |= np.equal(b, 0, out=test)
    width = hi - lo + 1
    j = ns - lo
    forms = np.bincount(n, minlength=width).take(j)
    ambiguous = np.bincount(n[on_boundary], minlength=width).take(j)
    h = 2 * forms - ambiguous
    return _checked_counts(-ns, h, h, ambiguous, "ambiguous classes")


def _divide(x, y, rounding, ft, out):
    """rounding(x / y), np.floor or np.ceil, for integer arrays with y > 0,
    written into the integer array ``out``, from the quotient in the float
    dtype ``ft``.  When x and y are integers below 2^p in magnitude, p the
    bits of ft's significand, the rounded quotient lies strictly between
    the same two integers as x/y, or is x/y when that is an integer: its
    error, below |x/y| 2^-p, is less than 1/y.  So its floor and ceiling
    are those of x/y."""
    q = np.divide(x, y, out=_WS.get("quotient", len(x), ft), dtype=ft)
    if rounding is not None:
        rounding(q, out=q)
    np.copyto(out, q, casting="unsafe")
    return out


def _real_dtype(width: int, s_hi: int):
    """The dtype of the value columns of ``_counts_real`` for a block of
    ``width`` integers up to hi, s_hi = isqrt(hi): int32 while a key
    (index of D, b, a), below width * (s_hi + 1)^2, fits it; the D, b^2 and
    4ak of the block are below (s_hi + 1)^2.  int64 otherwise."""
    return np.int32 if width * (s_hi + 1) ** 2 <= 1 << 31 else np.int64


def _counts_real(Ds) -> dict[int, tuple[int, int, int]]:
    """Counts for the D > 0 in the sorted array ``Ds`` from the reduced forms
    with a > 0.

    A reduced form of D is (a, b, -k) or its partner (k, b, -a) with
    D = b^2 + 4ak, b >= 1 and a <= k < a + b: with s = isqrt(D), the bound
    2a > s - b is D < (2a + b)^2, which is k < a + b, and b <= s holds.
    The triples (b, a, k) of the whole range are enumerated at once, a range
    of k for each pair (b, a), and those of a D not asked for are dropped.
    rho alternates the sign of the first coefficient, and
    (a, b, c) -> (-a, b, -c) (the class c0 of (sqrt(delta))) commutes with
    it, so tau = negation after rho maps the forms with a > 0 onto
    themselves: tau(A, B, -C) = (C, b', -X) with m = ((s + B) // 2) // C,
    b' = 2Cm - B and X = A + m(B - Cm), so that b'^2 + 4CX = D.  The image
    is a form of the triple (b', min(C, X), max(C, X)), whose index is read
    off the offsets of the pairs and of their ranges of k.  The form found
    for each image must have the image's (D, b, a), and no form may be found
    twice; then tau is a bijection of the enumerated forms, and P[i] is the
    index of tau(form i).  The cycles of tau are the wide classes, labelled
    by their least index (``_label_cycles``), and tau^2 = rho^2 splits a
    cycle of even length into two narrow classes.  The reversal
    (a, b, c) -> (c, b, a) inverts the class, so (-c, b, -a), the partner
    each form was built with, lies in the inverse wide class.

    The pairs with 4a > hi - lo, most of them past |D| ~ 10^5, step their D
    by 4a past the block: each has at most one k, k_lo, which a test reads
    off without a range of k to expand.  They are laid out after the other
    pairs, and their triples after the others' triples.

    The columns are workspace slots (``_WS``) written in place: values in
    ``_real_dtype`` (int32 below |D| ~ 7*10^6 for a block of 300) in
    v0..v9, indices in intp (which numpy gathers without a converted copy)
    in i0..i3, i6 and t0, labels in int32 in l0 and l1, masks in m0..m2;
    the index arrays of the expansions and of the compactions (``_expand``,
    ``np.flatnonzero``) are new arrays.  A slot is reused once the stage
    that filled it is done:

    ====  ===========  ===========  =======  ========  =======  ========
    slot  pairs        triples      forms    tau, at   check    labels
    ====  ===========  ===========  =======  ========  =======  ========
    v0    b                                  m, a'
    v1    a                                  Cm, k-t
    v2    k_lo, k-t    k-t                   k-t
    v3    lo - b^2     lo - b^2              b'
    v4    temp, k_hi                         X, k'
    v5    4a           4a                             gathered
    v6    temp         starts, 4ak  a
    v7                 4a, lo-b^2   b
    v8                              |c|
    v9                              s
    i0                                       key      gathered  powers
    i1                 D - lo                pair               powers
    i2                              kept     triple
    i3                              D - lo
    i6                                       P
    t0                              at
    l0                                                          L
    l1                                                          gathered
    m0    one          kept                           seen
    m1    one                       ghost    X < C    found     roots
    m2                                       a' > w4  test      unsettled
    ====  ===========  ===========  =======  ========  =======  ========

    Nothing returned aliases a buffer.
    """
    ws, ip = _WS, np.intp
    lo, hi = int(Ds[0]), int(Ds[-1])
    width = hi - lo + 1
    wanted = np.zeros(width, dtype=bool)
    wanted[Ds - lo] = True
    s_lo, s_hi = isqrt(lo), isqrt(hi)
    dt = _real_dtype(width, s_hi)
    # S[D - lo] = isqrt(D): s_lo, plus one from each square above lo
    S = np.full(width, s_lo, dtype=dt)
    for r in range(s_lo + 1, s_hi + 1):
        S[r * r - lo:] += 1
    # (b, a) with b <= s_hi and (s_lo + 2 - b)//2 <= a, 4a^2 <= hi - b^2:
    # first those with a <= w4, then those with 4a > hi - lo, whose D step
    # by 4a past the block, so that they have at most one k.  The pair
    # (b, a) is number pair_at[b + s_hi (a > w4)] + a
    w4 = (width - 1) // 4
    b_vals = np.arange(1, s_hi + 1, dtype=dt)
    a_lo = np.maximum((s_lo + 2 - b_vals) // 2, 1)
    # the float root of an integer below 2^52 truncates to its isqrt
    a_hi = np.sqrt((hi - b_vals.astype(np.int64) ** 2) // 4).astype(dt)
    a_from = np.concatenate((a_lo, np.maximum(a_lo, w4 + 1)))
    a_to = np.concatenate((np.minimum(a_hi, w4), a_hi))
    grp, starts = _expand(np.maximum(a_to - a_from + 1, 0), "sv")
    pair_at = np.zeros(2 * s_hi + 1, dtype=ip)
    np.subtract(starts, a_from, out=pair_at[1:])
    m, ms = len(grp), int(starts[s_hi])
    # grp holds indices of a_from (``_expand``): no index wraps
    b = np.concatenate((b_vals, b_vals)).take(grp, out=ws.get("v0", m, dt),
                                              mode="wrap")
    a = (a_from - starts).take(grp, out=ws.get("v1", m, dt), mode="wrap")
    a += ws.iota(m, dt)
    # k from max(a, (lo - b^2)/4a) up to (hi - b^2)/4a, and below a + b
    # ``_divide``'s float dtype: exact for integers below 2^24, or 2^53
    ft = np.float32 if hi < 1 << 24 else np.float64
    four_a = np.left_shift(a, 2, out=ws.get("v5", m, dt))
    y = np.multiply(b, b, out=ws.get("v3", m, dt))
    np.subtract(lo, y, out=y)  # lo - b^2
    k_lo = _divide(y, four_a, np.ceil, ft, out=ws.get("v2", m, dt))
    np.maximum(k_lo, a, out=k_lo)
    # a pair with 4a > hi - lo has a triple iff k_lo is one
    singles = np.empty(0, dtype=ip)
    if ms < m:
        temp = np.multiply(four_a[ms:], k_lo[ms:],
                           out=ws.get("v4", m - ms, dt))
        temp -= y[ms:]  # D - lo
        one = np.less_equal(temp, hi - lo,
                            out=ws.get("m0", m - ms, np.bool_))
        np.add(a[ms:], b[ms:], out=temp)
        one &= np.less(k_lo[ms:], temp, out=ws.get("m1", m - ms, np.bool_))
        singles = np.flatnonzero(one)
    # the other pairs: up to min(a + b - 1, (hi - b^2)/4a)
    k_hi = np.add(y[:ms], hi - lo, out=ws.get("v4", ms, dt))
    _divide(k_hi, four_a[:ms], None, ft, out=k_hi)
    top = np.add(a[:ms], b[:ms], out=ws.get("v6", ms, dt))
    top -= 1
    np.minimum(k_hi, top, out=k_hi)
    lens = np.subtract(k_hi, k_lo[:ms], out=k_hi)
    lens += 1
    np.maximum(lens, 0, out=lens)
    grp, starts = _expand(lens, "v6")
    # the triples: those of the first pairs, then one for each single;
    # triple t of pair p has k = k_at[p] + t
    n3 = len(grp) + len(singles)
    k_at = k_lo
    k_at[:ms] -= starts
    if len(singles):
        k_at[ms:][singles] -= ws.iota(n3, dt)[len(grp):]
        singles += ms
        grp = np.concatenate((grp, singles))
    # grp holds indices of the pairs: no index wraps.  J = D - lo is
    # b^2 - lo + 4ak
    four_ak = k_at.take(grp, out=ws.get("v6", n3, dt), mode="wrap")
    four_ak += ws.iota(n3, dt)
    four_ak *= four_a.take(grp, out=ws.get("v7", n3, dt), mode="wrap")
    J = np.subtract(four_ak, y.take(grp, out=ws.get("v7", n3, dt),
                                    mode="wrap"), out=ws.get("i1", n3, ip))
    if n3 and (int(J.min()) < 0 or int(J.max()) >= width):
        raise ScanCountError(f"D = {lo}..{hi}: a triple (b, a, k) of the "
                             "enumeration lies outside the block")
    # J is in 0..width-1 (checked above): no index wraps
    firsts = np.flatnonzero(wanted.take(J, out=ws.get("m0", n3, np.bool_),
                                        mode="wrap"))
    n1 = len(firsts)
    n = 2 * n1
    # form r is the kept triple r's (a, b, -k), and form n1 + r its
    # partner (k, b, -a); for a = k that is the same form again, a ghost that
    # tau maps to itself, which joins the cycle of form r once the labels
    # are found.  Columns A, B, C, J, and s = isqrt(D)
    A, B, C = (ws.get(f"v{i}", n, dt) for i in (6, 7, 8))
    Jf = ws.get("i3", n, ip)
    # firsts holds triple indices, and grp pair indices: no index wraps
    kept = grp.take(firsts, out=ws.get("i2", n1, ip), mode="wrap")
    a.take(kept, out=A[:n1], mode="wrap")
    b.take(kept, out=B[:n1], mode="wrap")
    k_at.take(kept, out=C[:n1], mode="wrap")
    C[:n1] += firsts
    J.take(firsts, out=Jf[:n1], mode="wrap")
    for col, first in ((A, C), (C, A), (B, B), (Jf, Jf)):
        col[n1:] = first[:n1]
    ghosts = np.flatnonzero(np.equal(A[:n1], C[:n1],
                                     out=ws.get("m1", n1, np.bool_)))
    ghosts += n1
    s = ws.get("v9", n, dt)
    S.take(Jf[:n1], out=s[:n1], mode="wrap")
    s[n1:] = s[:n1]
    # at[t] is the form of triple t (0 where t is not kept)
    at = ws.get("t0", n3, ip)
    at.fill(0)
    at[firsts] = ws.iota(n1, ip)
    # tau(A, B, -C) = (C, b', -X)
    mq = np.add(s, B, out=ws.get("v0", n, dt))
    mq >>= 1
    _divide(mq, C, np.floor, ft, out=mq)
    cm = np.multiply(C, mq, out=ws.get("v1", n, dt))
    b2 = np.add(cm, cm, out=ws.get("v3", n, dt))
    b2 -= B
    X = np.subtract(B, cm, out=ws.get("v4", n, dt))
    X *= mq
    X += A
    second = np.less(X, C, out=ws.get("m1", n, np.bool_))
    a2 = np.minimum(C, X, out=mq)
    k2 = np.maximum(C, X, out=X)
    # the form of the image: at the triple k2 - k_at[p] of the pair
    # p = pair_at[b'] + a2, or at its partner.  An image outside the
    # enumeration reads some enumerated form, which the check below rejects
    image = ws.get("i0", n, ip)
    if ms < m:
        np.multiply(np.greater(a2, w4, out=ws.get("m2", n, np.bool_)), s_hi,
                    out=image)
        image += b2
    else:
        np.copyto(image, b2)
    pair = pair_at.take(image, out=ws.get("i1", n, ip), mode="wrap")
    pair += a2
    triple = np.subtract(k2, k_at.take(pair, out=cm, mode="wrap"),
                         out=ws.get("i2", n, ip), dtype=ip)
    P = at.take(triple, out=ws.get("i6", n, ip), mode="wrap")
    P += np.multiply(second, n1, out=image)
    P[ghosts] = ghosts
    # P holds form indices (at holds nothing else): no index wraps
    gathered = ws.get("v5", n, dt)
    test = ws.get("m2", n, np.bool_)
    found = np.equal(A.take(P, out=gathered, mode="wrap"), C, out=second)
    found &= np.equal(B.take(P, out=gathered, mode="wrap"), b2, out=test)
    found &= np.equal(Jf.take(P, out=image, mode="wrap"), Jf, out=test)
    found[ghosts] = True
    seen = ws.get("m0", n, np.bool_)
    seen.fill(False)
    seen[P] = True
    if not (found.all() and seen.all()):
        form = np.ones(n, dtype=bool)
        form[ghosts] = False
        A, B, C, Jf, b2, s = (col[form] for col in (A, B, C, Jf, b2, s))
        top = s_hi + 1
        _raise_rho_miss(lo, (Jf * top + B) * top + A,
                        (Jf * top + b2) * top + C, (b2 >= 1) & (b2 <= s),
                        A, B, C, Jf)
    # a cycle stays within one D, so none is longer than the forms of one D,
    # at most twice its kept triples
    most = 2 * int(np.bincount(Jf[:n1], minlength=width).max())
    L = _label_cycles(P, most)
    # P is a permutation of 0..n-1: no index wraps
    gathered = L.take(P, out=ws.get("l1", n, np.int32), mode="wrap")
    unsettled = np.not_equal(gathered, L, out=ws.get("m2", n, np.bool_))
    if unsettled.any():
        j = int(Jf[int(np.argmax(unsettled))])
        raise ScanCountError(f"D = {lo + j}: the labels "
                             "of the tau-cycles did not settle")
    # L holds the roots, so the cycle of root r has size[r] forms; a ghost,
    # a cycle of its own until then, joins that of its form
    size = np.bincount(L, minlength=n)
    L[ghosts] = L.take(ghosts - n1)
    roots = np.flatnonzero(np.equal(L, ws.iota(n, np.int32),
                                    out=ws.get("m1", n, np.bool_)))
    even = size.take(roots) % 2 == 0
    J_own = Jf.take(roots)
    h = np.bincount(J_own, minlength=width)
    h_narrow = h + np.bincount(J_own[even], minlength=width)
    # a wide class is self-inverse iff the partner of its least form, which
    # lies in the inverse class, lies in it
    partner = np.where(roots < n1, roots + n1, roots - n1)
    self_inverse = L.take(partner) == roots
    torsion = np.bincount(J_own[self_inverse], minlength=width)
    j = Ds - lo
    return _checked_counts(Ds, h.take(j), h_narrow.take(j), torsion.take(j),
                           "self-inverse classes")


def _checked_counts(Ds, h, h_narrow, classes, what: str):
    """{D: (h, h_narrow, log2 of classes)} for the D of ``Ds``; a count of
    ``classes`` that is not a power of 2 raises for the first such D."""
    bad = (classes < 1) | (classes & (classes - 1) != 0)
    if bad.any():
        i = int(np.argmax(bad))
        _exact_log2(int(classes[i]), int(Ds[i]), what)
    rank2 = np.frexp(classes)[1] - 1  # classes = 2^rank2
    return dict(zip(Ds.tolist(), zip(h.tolist(), h_narrow.tolist(),
                                     rank2.tolist())))


def _label_cycles(P, most: int):
    """L[i], the least index of the cycle of i under the permutation P, by
    ceil(log2(most)) rounds of min-label pointer jumping, enough when no
    cycle is longer than ``most``: after r rounds L[i] is the least of i,
    P(i), ..., P^(2^r - 1)(i).  The first round is min(i, P(i)).  L is the
    int32 workspace slot l0; i0, i1 and l1 hold the powers of P and the
    gathered labels."""
    n = len(P)
    L = _WS.get("l0", n, np.int32)
    rounds = (most - 1).bit_length()
    if not rounds:
        np.copyto(L, _WS.iota(n, np.int32))
        return L
    np.minimum(P, _WS.iota(n, np.intp), out=L, casting="unsafe")
    gathered = _WS.get("l1", n, np.int32)
    Q, powers = P, (_WS.get("i0", n, np.intp), _WS.get("i1", n, np.intp))
    for r in range(1, rounds):
        # Q is P^(2^r), a permutation of 0..n-1: no index wraps
        Q = Q.take(Q, out=powers[r % 2], mode="wrap")
        np.minimum(L, L.take(Q, out=gathered, mode="wrap"), out=L)
    return L


def _raise_rho_miss(lo, key, image, in_range, A, B, C, J):
    """Name the form of least key whose tau-image is not an enumerated form,
    or, when every image is one, a form that two forms map to."""
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


# ---------------------------------------------------------------------------
# the genus dims of a block

# the split primes the kernel may adjoin, the first primes in order, as
# ``local.genus_char_space`` takes them
_SPLIT_PRIMES = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
# the rows of the list, -1 and the split primes, and the modulus of the
# residues their symbols are read by: 4 for -1, 8 for 2, 4q for an odd q
_LIST = np.array([-1, *_SPLIT_PRIMES.tolist()])
_MODULI = np.array([4, 8, *(4 * _SPLIT_PRIMES[1:]).tolist()])


@cache
def _legendre_table():
    """(table, off): table[off[p] + x] = (x/p), an int8, for every odd prime
    p below TABLE_BOUND and 0 <= x < p, the tables of all p laid end to end;
    off is indexed by p.  Built on first use, from the squares of
    1 .. (p - 1)/2, which are the nonzero residues."""
    ps = np.array(PRIMES[1:], dtype=np.int32)
    starts = np.cumsum(ps) - ps
    half = ps >> 1
    x = np.arange(1, half.sum() + 1, dtype=np.int32)
    x -= np.repeat(np.cumsum(half) - half, half)
    x *= x
    x %= np.repeat(ps, half)
    x += np.repeat(starts, half)
    table = np.full(int(starts[-1] + ps[-1]), -1, dtype=np.int8)
    table[x] = 1
    table[starts] = 0
    off = np.zeros(TABLE_BOUND, dtype=np.int64)
    off[ps] = starts
    return table, off


def _eps(x):
    """Serre's epsilon(x) = 1 iff x = 3 mod 4, for odd x, as a bool."""
    return x & 3 == 3


def _omega(x):
    """Serre's omega(x) = 1 iff x = 3, 5 mod 8 (x + 2 = 5, 7), for odd x,
    as a bool."""
    return (x + 2 & 7) > 4


@cache
def _list_tables():
    """(symbol, split, at, two), built on first use, for the rows q of
    ``_LIST`` and a residue x modulo M, ``_MODULI`` of the row, at position
    at[row] + x:

    - symbol is 1 iff (q, Delta)_p = -1 at an odd ramified p = x mod M: for
      q = -1 epsilon(p), for q = 2 omega(p), and for an odd q the Legendre
      symbol (q/p) = (p/q) (-1)^(epsilon(p) epsilon(q)) (Serre, A Course in
      Arithmetic, III.1.2); 0 for an even x;
    - split is 1 iff q splits in Q(sqrt(Delta)) for Delta = x mod M: always
      for -1, Delta = 1 mod 8 for 2, and (Delta/q) = 1 for an odd q.

    two[r], for Delta = r mod 64, describes the place 2 of an even
    Delta = 2^beta w: the symbols of the rows there, epsilon(q) epsilon(w)
    + beta omega(q) (q = -1 included; 0 for q = 2, which does not split),
    then epsilon(w), beta mod 2, omega(w) and 1.  An odd r gives zeros."""
    table, off = _legendre_table()
    at = np.cumsum(_MODULI) - _MODULI
    x = np.arange(int(_MODULI.sum())) - np.repeat(at, _MODULI)
    q = np.repeat(_LIST, _MODULI)
    # (x/q) for the odd q, where off[q] is the start of q's table
    legendre = table[off[np.maximum(q, 3)] + x % np.maximum(q, 3)]
    symbol = np.where(q == -1, _eps(x), np.where(
        q == 2, _omega(x), (legendre < 0) ^ (_eps(x) & _eps(q))))
    split = np.where(q == -1, True,
                     np.where(q == 2, x % 8 == 1, legendre == 1))
    r = np.arange(64)
    beta3 = r % 8 == 0
    even = beta3 | (r % 8 == 4)
    w = np.where(beta3, r >> 3, r >> 2)
    two = np.zeros((64, len(_LIST) + 4), dtype=np.uint8)
    two[:, :len(_LIST)] = _eps(_LIST) & _eps(w)[:, None] ^ \
        beta3[:, None] & _omega(_LIST)
    two[:, 1] = 0
    two[:, len(_LIST):] = np.stack((_eps(w), beta3, _omega(w),
                                    np.ones(64, dtype=bool)), axis=1)
    two[~even] = 0
    symbol = (symbol & (x % 2 == 1)).astype(np.uint8)
    return symbol, split.astype(np.uint8), at, two


def _place_symbols(p):
    """For an integer array ``p`` of odd primes and 1s, the 0/1 symbols of
    the rows of ``_LIST`` at each place p, along a last axis: -1 iff 1.  A 1
    (the padding of ``_genus_rows``) and an even p read 0."""
    symbol, _, at, _ = _list_tables()
    return symbol.take(p[..., None] % _MODULI + at)


@cache
def _place_table():
    """``_place_symbols`` of every p below TABLE_BOUND, one row per p, built
    on first use."""
    return _place_symbols(np.arange(TABLE_BOUND))


@cache
def _pair_weights(C: int):
    """(pairs, count, weight) for the n pairs i < j of places 0..C-1, in
    order, and the columns of ``_genus_rows``: s_p, the symbol of the prime
    at j at the place i, for each pair p; then r_p, that of the prime at i
    at the place j; then C columns of (-1/p) terms, C of (2/p) terms and one
    of omega(w), whose sum over a place's column is the parity of its own
    symbol; then the C own symbols.  pairs is i then j; ``count`` (as float,
    for BLAS) sums the columns before the own symbols per place, and
    ``weight`` packs all of them into the rows of the ramified primes, bit
    v for the place v."""
    i, j = np.triu_indices(C, 1)
    n = len(i)
    count = np.zeros((2 * n + 2 * C + 1, C))
    weight = np.zeros((2 * n + 3 * C + 1, C))
    p = np.arange(n)
    count[p, i] = count[n + p, j] = 1
    count[2 * n:2 * n + 2 * C] = np.vstack((np.eye(C), np.eye(C)))
    count[-1, 0] = 1
    weight[p, j] = 2.0 ** i
    weight[n + p, i] = 2.0 ** j
    weight[-C:] = np.diag(2.0 ** np.arange(C))
    return np.concatenate((i, j)), count, weight


def block_genus_dims(discs, cap: int) -> tuple[list[int], list[int]]:
    """(dim_v, dim_h) of each field of ``discs``, with dim_v = -1 for a
    field whose dimension the kernel cannot certify.

    The kernel is ``local.genus_char_space``'s loop written for a whole
    block: the F2 rank of the vectors, over the ramified primes, of -1, the
    ramified primes and the first split primes of ``_SPLIT_PRIMES``, at
    most ``cap``.  The rank is at most t_all - 1 (Hilbert reciprocity), and
    one that reaches it is dim_v, as the per-field loop, which adjoins the
    same candidates in the same order, would find.  A rank below it, or two
    ramified primes at or above TABLE_BOUND (whose symbol is not one
    gather), leaves the field to the per-field loop: dim_v = -1.  A rank
    above it breaks reciprocity and is returned as it is.  -1 is a norm iff
    Delta > 0 and the row of -1 is zero (the symbol at an unramified 2 is
    1), so dim_h is read off that row.
    """
    if not discs:
        return [], []
    F = len(discs)
    D = np.fromiter([d.delta for d in discs], np.int64, F)
    t = np.fromiter([d.t_fin for d in discs], np.int64, F)
    masks, far = _genus_rows(discs, D, t, cap)
    dim_h = (D < 0) | (masks[0] != 0)
    rank = _f2_rank(masks)
    rank[far | (rank < t - (D > 0))] = -1
    return rank.tolist(), dim_h.view(np.int8).tolist()


def _genus_rows(discs, D, t, cap: int):
    """(masks, far): masks[k, f] has bit i set iff (q_k, Delta)_p = -1 for
    the k-th candidate q_k of field f at its i-th ramified prime p; far[f]
    marks the fields with two ramified primes at or above TABLE_BOUND.

    The rows are -1, the primes of ``_SPLIT_PRIMES`` (zeros where q does not
    split or comes after the first ``cap`` that do) and the ramified primes
    (zeros past the field's t_fin).  With Delta = p^beta w, each q != p is
    -1 or a prime, so (Serre, A Course in Arithmetic, III.1.2):

    - at an odd p, (q/p): (-1/p) by epsilon(p), (2/p) by omega(p), and an odd
      q by the table of the smaller prime of q, p, with quadratic
      reciprocity, (q/p) = (p/q) (-1)^(epsilon(p) epsilon(q)), when that
      is q;
    - at p = 2, where beta is 2 or 3: epsilon(q) epsilon(w) + beta omega(q).

    At q = p the symbol (p, Delta)_p is omega(w) at p = 2, and (-w/p) at an
    odd p, where beta = 1.  w = Delta/p is a sign, 2^beta and the other
    ramified primes, so (-w/p) is (-1/p) for Delta > 0, times (2/p) for an
    odd beta, times the symbols (r/p) of the other odd ramified r: the
    parity of p's column over the rows of the odd ramified primes.

    Field f's ramified primes, in increasing order, are P[f, :t_f], padded
    with 1, whose symbols all read 0.  The symbols of the list at an odd
    place are one gather from ``_place_table`` below TABLE_BOUND (its rows
    of -1 and 2 are epsilon and omega of the place) and a residue lookup
    (``_place_symbols``) above it; those at the place 2 are one gather by
    Delta mod 64 (``_list_tables``).  A pair of places i < j holds the
    smaller prime at i, and both its symbols come from one gather from the
    Legendre table of that prime.  That gather reads 0 for the place 2,
    whose symbols are added once the own symbols are summed.  Two small
    products sum the columns and pack the rows (``_pair_weights``).
    """
    _, split, at, two = _list_tables()
    table, off = _legendre_table()
    F, C = len(discs), int(t.max())
    P = np.ones((F, C), dtype=np.int64)
    P[np.arange(C) < t[:, None]] = np.fromiter(
        chain.from_iterable([d.ramified_primes for d in discs]), np.int64,
        int(t.sum()))
    # the place 2 of each field, zeros for an odd Delta: its symbols of the
    # list, then epsilon(w), beta odd, omega(w), even
    at_two = two.take(D & 63, axis=0)
    K = len(_LIST)
    eps_w, beta, omega_w, even = (at_two[:, K + c, None] for c in range(4))
    # bits[f, i, k], the symbol of row k at place i: one gather below
    # TABLE_BOUND.  Packing the places gives the rows of the list
    bits = _place_table().take(P, axis=0, mode="clip")
    large = P >= TABLE_BOUND
    if large.any():
        bits[large] = _place_symbols(P[large])
    rows = np.empty((F, K + C), dtype=np.int64)
    np.matmul(1 << np.arange(C), bits, out=rows[:, :K])
    rows[:, :K] ^= at_two[:, :K]
    splits = split.take(D[:, None] % _MODULI + at)
    if cap < len(_SPLIT_PRIMES):
        splits[:, 1:] &= splits[:, 1:].cumsum(axis=1) <= cap
    rows[:, :K] *= splits
    # the pairs i < j: s = (P_j / P_i) and r = (P_i / P_j) by reciprocity;
    # then the terms of the own symbols and the own symbols, as floats for
    # the two products (``_pair_weights``)
    pairs, count, weight = _pair_weights(C)
    n = len(pairs) // 2
    eps, omega = bits[:, :, 0], bits[:, :, 1]
    columns = np.empty((F, 2 * n + 3 * C + 1))
    s, r = columns[:, :n], columns[:, n:2 * n]
    minus, two_p = columns[:, 2 * n:2 * n + C], columns[:, 2 * n + C:-C - 1]
    at_two_w, own = columns[:, -C - 1:-C], columns[:, -C:]
    # a far pair reads some entry of the table: its field is dropped
    primes, signs = P.take(pairs, axis=1), eps.take(pairs, axis=1)
    low, high = primes[:, :n], primes[:, n:]
    np.less(table.take(off.take(low, mode="clip") + high % low, mode="clip"),
            0, out=s)
    np.not_equal(s, signs[:, :n] & signs[:, n:], out=r)
    # the own symbol: the parity of the column, with (-1/p) for Delta > 0
    # and (2/p) for an odd beta; omega(w) at 2, whose column reads 0
    np.multiply(eps, D[:, None] > 0, out=minus)
    np.multiply(omega, beta, out=two_p)
    at_two_w[:] = omega_w
    parity = np.matmul(columns[:, :-C], count, out=rows[:, K:],
                       casting="unsafe")
    np.bitwise_and(parity, 1, out=own, casting="unsafe")
    # the place 2 (the first place, an even field): the symbol of each odd
    # P_j there, and (2/P_j) at P_j
    s[:, :C - 1] += eps_w & eps[:, 1:] ^ beta & omega[:, 1:]
    r[:, :C - 1] += even & omega[:, 1:]
    np.matmul(columns, weight, out=rows[:, K:], casting="unsafe")
    return rows.T, large.sum(axis=1) > 1


def _f2_rank(masks):
    """The F2 rank of the vectors of each field: masks[:, f] holds field
    f's vectors as int bitmasks.  One round per bit b, from the highest
    down, eliminates it: once no vector has a bit above b, the largest
    vector, the pivot, has bit b if any does, and it is xored into every
    vector that has the bit, itself included.  The rank counts the pivots
    with their bit."""
    masks = np.array(masks, dtype=np.int64)
    width = int(masks.max(initial=0)).bit_length()
    pivots = np.empty((width, masks.shape[1]), dtype=np.int64)
    for b in reversed(range(width)):
        masks.max(axis=0, out=pivots[b])
        if b:  # no round follows the last
            masks ^= (masks >= 1 << b) * pivots[b]
    # pivots[b] is below 2^(b + 1)
    return (pivots >> np.arange(width)[:, None]).sum(axis=0)
