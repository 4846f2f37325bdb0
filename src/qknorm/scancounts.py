"""The scan's numpy kernels: the class counts (h, h_narrow, rank2) and the
genus dims (dim V, dim H) of whole blocks of discriminants.

The class counts take one numpy pass per block and sign, on a path that
shares no logic with ``classgroup.class_group``, so for both signs it is an
independent second path.

For D < 0 the reduced forms of every D of a block are enumerated at once,
on and off the boundary of the fundamental domain, and counted by bincount.
For D > 0 the cycles of rho followed by negation on the reduced forms with
a > 0 of every D of the block are labelled on index arrays by min-label
pointer jumping.  Both write their columns in place into one workspace of
numpy buffers per process (``_Workspace``).

The genus dims (``block_genus_dims``) are ``local.genus_char_space`` and
``is_global_norm(-1, .)`` for a whole block: the Hilbert symbols of -1, the
ramified primes and a fixed list of small split primes at every ramified
prime, the scalar ``local._hilbert_core`` written out on arrays (the tests
compare the two bit for bit) with a table of Legendre symbols of the primes
below TABLE_BOUND, as int bitmasks, and their F2 rank by elimination, one
round per bit for all fields at once.  A field whose rank falls short of
t_all - 1 is left to the per-field loop.

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
    forms = np.bincount(n, minlength=width).tolist()
    ambiguous = np.bincount(n[on_boundary], minlength=width).tolist()
    out = {}
    for m in ns.tolist():
        amb = ambiguous[m - lo]
        h = 2 * forms[m - lo] - amb
        out[-m] = (h, h, _exact_log2(amb, -m, "ambiguous classes"))
    return out


def _stable_argsort(keys, out):
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys,
    written into ``out``.

    With bits = (n - 1).bit_length() for n keys, it is one sort of the int64
    values key << bits | index, whose low bits are the order: stable, since
    equal keys are ordered by their index.  Keys from 2^(62 - bits) on take
    the int64 argsort itself; in ``_counts_real`` the keys of a block of
    300 stay below 2^32 up to |D| ~ 1.4*10^7.
    """
    n = len(keys)
    bits = max(n - 1, 0).bit_length()
    if not n or int(keys.max()) >> (62 - bits):
        np.copyto(out, np.argsort(keys, kind="stable"))
        return out
    packed = _WS.get("packed", n, np.int64)
    np.copyto(packed, keys)
    packed <<= bits
    packed |= _WS.iota(n, np.int64)
    packed.sort()
    return np.bitwise_and(packed, (1 << bits) - 1, out=out)


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

    The columns are workspace slots (``_WS``) written in place: values in
    ``_real_dtype`` (int32 below |D| ~ 7*10^6 for a block of 300) in
    v0..v9, indices in intp (which numpy gathers without a converted copy)
    in i0..i5, masks in m0..m3; the index arrays of the expansions and of
    the compactions (``_expand``, ``np.flatnonzero``) are new arrays.  A
    slot is reused once the stage that filled it is done:

    ====  ======  ==========  =======  =====  =======  ========
    slot  pairs   triples     forms    tau    sorts    labels
    ====  ======  ==========  =======  =====  =======  ========
    v0    b                   a
    v1    a                   b
    v2    k_lo                |c|
    v3    lens    temp        D - lo
    v4    starts              s
    v5            k                    b'
    v6            a                    key
    v7            b                    image
    v8            D - lo                      sorted
    v9            s                           sorted
    i0                        partner
    i1                        triple          order    powers
    i2            D - lo                      order    powers
    i3            form at                     P
    i4                                                 L
    i5                                                 gathered
    ====  ======  ==========  =======  =====  =======  ========

    Nothing returned aliases a buffer.
    """
    ws, ip = _WS, np.intp
    lo, hi = int(Ds[0]), int(Ds[-1])
    width = hi - lo + 1
    wanted = np.zeros(width, dtype=bool)
    wanted[Ds - lo] = True
    S = _isqrt_array(np.arange(lo, hi + 1, dtype=np.int64))
    s_lo, s_hi = int(S[0]), int(S[-1])
    dt = _real_dtype(width, s_hi)
    S = S.astype(dt)
    # (b, a) with b <= s_hi and (s_lo + 2 - b)//2 <= a, 4a^2 <= hi - b^2
    b_vals = np.arange(1, s_hi + 1, dtype=dt)
    a_lo = np.maximum((s_lo + 2 - b_vals) // 2, 1)
    a_hi = _isqrt_array((hi - b_vals.astype(np.int64) ** 2) // 4).astype(dt)
    grp, starts = _expand(np.maximum(a_hi - a_lo + 1, 0), "sv")
    m = len(grp)
    # grp holds indices of b_vals (``_expand``): no index is clipped
    b = b_vals.take(grp, out=ws.get("v0", m, dt), mode="clip")
    a = (a_lo - starts).take(grp, out=ws.get("v1", m, dt), mode="clip")
    a += ws.iota(m, dt)
    # k from max(a, (lo - b^2)/4a) up to (hi - b^2)/4a, with x // 4a taken
    # as (x >> 2) // a
    k_lo = np.multiply(b, b, out=ws.get("v2", m, dt))
    k_lo -= lo
    lens = np.subtract(hi - lo, k_lo, out=ws.get("v3", m, dt))
    k_lo >>= 2
    k_lo //= a
    np.negative(k_lo, out=k_lo)
    np.maximum(k_lo, a, out=k_lo)
    lens >>= 2
    lens //= a
    lens -= k_lo
    lens += 1
    np.maximum(lens, 0, out=lens)
    grp, starts = _expand(lens, "v4")
    n3 = len(grp)
    k_lo -= starts
    # grp holds indices of the pairs: no index is clipped
    k = k_lo.take(grp, out=ws.get("v5", n3, dt), mode="clip")
    k += ws.iota(n3, dt)
    a = a.take(grp, out=ws.get("v6", n3, dt), mode="clip")
    b = b.take(grp, out=ws.get("v7", n3, dt), mode="clip")
    Jd = np.multiply(a, k, out=ws.get("v8", n3, dt))
    Jd *= 4
    Jd += np.multiply(b, b, out=ws.get("v3", n3, dt))
    Jd -= lo
    if n3 and (int(Jd.min()) < 0 or int(Jd.max()) >= width):
        raise ScanCountError(f"D = {lo}..{hi}: a triple (b, a, k) of the "
                             "enumeration lies outside the block")
    J = ws.get("i2", n3, ip)
    np.copyto(J, Jd)
    # J is in 0..width-1 (checked above): no index is clipped
    s = S.take(J, out=ws.get("v9", n3, dt), mode="clip")
    keep = wanted.take(J, out=ws.get("m1", n3, np.bool_), mode="clip")
    test = ws.get("m2", n3, np.bool_)
    keep &= np.less_equal(b, s, out=test)
    a_min = np.add(s, 2, out=ws.get("v3", n3, dt))  # (s + 2 - b) // 2
    a_min -= b
    a_min >>= 1
    keep &= np.greater_equal(a, a_min, out=test)
    pair = np.not_equal(a, k, out=ws.get("m3", n3, np.bool_))
    pair &= keep
    # the kept triples, then the partners of those with a != k: src[p] is
    # the triple of form p, and at[t] where the form of a kept triple t goes
    firsts, partners = np.flatnonzero(keep), np.flatnonzero(pair)
    n1 = len(firsts)
    n = n1 + len(partners)
    src = np.concatenate((firsts, partners), out=ws.get("i1", n, ip))
    at = ws.get("i3", n3, ip)
    at[firsts] = ws.iota(n1, ip)
    # src holds triple indices: no index is clipped
    A, B, C, J, s_form = (ws.get(f"v{i}", n, dt) for i in range(5))
    for col, first, second in ((A, a, k), (C, k, a)):
        first.take(firsts, out=col[:n1], mode="clip")
        second.take(partners, out=col[n1:], mode="clip")
    for col, value in ((B, b), (J, Jd), (s_form, s)):
        value.take(src, out=col, mode="clip")
    # the partner of each form: the other one of its pair, or itself; the
    # partners are kept triples, so at holds their first forms
    inv = ws.get("i0", n, ip)
    np.copyto(inv[:n1], ws.iota(n1, ip))
    inv[at.take(partners, out=inv[n1:], mode="clip")] = ws.iota(n, ip)[n1:]
    s = s_form
    # tau(a, b, -|c|) = (|c|, b', .), b' = 2|c| * ((s + b) // 2|c|) - b,
    # with (s + b) // 2|c| = ((s + b) // 2) // |c|
    b2 = np.add(s, B, out=ws.get("v5", n, dt))
    b2 >>= 1
    b2 //= C
    b2 *= C
    b2 += b2
    b2 -= B
    in_range = np.greater_equal(b2, 1, out=ws.get("m0", n, np.bool_))
    in_range &= np.less_equal(b2, s, out=ws.get("m2", n, np.bool_))
    # a reduced form has |a|, |c| <= s (Cohen, GTM 138, 5.6.2), so every
    # digit of a key is below s_hi + 1
    top = s_hi + 1
    key = np.multiply(J, top, out=ws.get("v6", n, dt))
    key += B
    key *= top
    key += A
    image = np.multiply(J, top, out=ws.get("v7", n, dt))
    image += b2
    image *= top
    image += C
    bijective = in_range.all()
    if bijective:
        order = _stable_argsort(key, out=ws.get("i1", n, ip))
        hit = _stable_argsort(image, out=ws.get("i2", n, ip))
        # order and hit are permutations of 0..n-1: no index is clipped
        sorted_key = key.take(order, out=ws.get("v8", n, dt),
                             mode="clip")
        bijective = not np.not_equal(
            sorted_key, image.take(hit, out=ws.get("v9", n, dt),
                                mode="clip"),
            out=ws.get("m2", n, np.bool_)).any()
    if not bijective:
        _raise_rho_miss(lo, key, image, in_range, A, B, C, J)
    # P[i] is the index of tau(form i)
    P = ws.get("i3", n, ip)
    P[hit] = order
    # the forms of each D, from where its keys begin among the sorted keys
    first = sorted_key.searchsorted(np.arange(width, dtype=dt) * (top * top))
    most = max(int((first[1:] - first[:-1]).max(initial=1)),
               n - int(first[-1]))
    # L[i] = min over i, P(i), ..., P^(2^r - 1)(i) after r rounds.  A cycle
    # stays within one D, so once 2^r reaches the most forms of one D, L is
    # the least index of each cycle; then it is constant along tau
    L, gathered = _label_cycles(P, most, order, hit)
    # P is a permutation of 0..n-1: no index is clipped
    L.take(P, out=gathered, mode="clip")
    unsettled = np.not_equal(gathered, L, out=ws.get("m2", n, np.bool_))
    if unsettled.any():
        j = int(J[int(np.argmax(unsettled))])
        raise ScanCountError(f"D = {lo + j}: the labels "
                             "of the tau-cycles did not settle")
    own = np.equal(L, ws.iota(n, ip), out=ws.get("m1", n, np.bool_))
    roots = np.flatnonzero(own)
    # number the cycles 0, 1, ... by their least index; L holds the roots,
    # so no index is clipped and no entry of rank outside them is read
    rank = order
    rank[roots] = ws.iota(len(roots), ip)
    cycle = rank.take(L, out=gathered, mode="clip")
    J_own = J.take(roots)
    even = np.bincount(cycle, minlength=len(roots)) % 2 == 0
    h = np.bincount(J_own, minlength=width)
    h_narrow = (h + np.bincount(J_own[even], minlength=width)).tolist()
    h = h.tolist()
    # a wide class is self-inverse iff the partner of its least form, which
    # lies in the inverse class, lies in it; inv holds form indices
    self_inverse = L.take(inv.take(roots)) == roots
    torsion = np.bincount(J_own[self_inverse], minlength=width).tolist()
    out = {}
    for D in Ds.tolist():
        j = D - lo
        out[D] = (h[j], h_narrow[j],
                  _exact_log2(torsion[j], D, "self-inverse classes"))
    return out


def _label_cycles(P, most: int, spare, spare2):
    """(L, gathered): L[i] the least index of the cycle of i under the
    permutation P, by ceil(log2(most)) rounds of min-label pointer jumping,
    enough when no cycle is longer than ``most``; gathered is a free buffer
    of P's length.  Both are workspace slots (i4, i5); spare and spare2,
    two more free intp buffers of P's length, hold the powers of P."""
    n = len(P)
    L = _WS.get("i4", n, np.intp)
    np.copyto(L, _WS.iota(n, np.intp))
    gathered = _WS.get("i5", n, np.intp)
    Q, powers = P, (spare, spare2)
    rounds = (most - 1).bit_length()
    for r in range(rounds):
        # Q is P^(2^r), a permutation of 0..n-1: no index is clipped
        np.minimum(L, L.take(Q, out=gathered, mode="clip"), out=L)
        if r + 1 < rounds:
            Q = Q.take(Q, out=powers[r % 2], mode="clip")
    return L, gathered


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
_ODD_Q = _SPLIT_PRIMES[1:, None]

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
      For an odd q of the list that is the formula at an odd p, with 2^beta,
      whose (./q) is (2/q)^beta, in place of p, and w in place of p in
      epsilon.

    At q = p the symbol (p, Delta)_p is omega(w) at p = 2, and (-w/p) at an
    odd p, where beta = 1.  w = Delta/p is a sign, 2^beta and the other
    ramified primes, so (-w/p) is (-1/p) for Delta > 0, times (2/p) for an
    odd beta, times the symbols (r/p) of the other odd ramified r: the
    parity of p's column over the rows of the ramified primes, with the row
    of 2 counted for an odd beta.

    The places of the block are laid end to end, N of them, field f's from
    starts[f] on, ip the index of each within its field.  A pair of places
    of one field is a place v and the one d places on (d < C, the most
    places of a field); the ramified primes come in increasing order, so v
    holds the smaller prime.
    """
    table, off = _legendre_table()
    F, C, N = len(discs), int(t.max()), int(t.sum())
    p = np.fromiter(chain.from_iterable([d.ramified_primes for d in discs]),
                    np.int64, N)
    starts = np.cumsum(t) - t
    fp = np.repeat(np.arange(F), t)  # the field of each place
    ip = np.arange(N) - starts[fp]
    bit = np.left_shift(1, ip)
    odd, two = p > 2, p == 2
    eps_p = _eps(p)
    # Delta = 2^beta w at 2, for even Delta; per place
    odd_beta = D & 7 == 0
    w = D >> np.where(odd_beta, 3, 2)
    beta, eps_w = odd_beta[fp], _eps(w)[fp]
    eps_place = eps_p | two & eps_w  # epsilon(p), and epsilon(w) at 2
    # the rows of -1 and of the list at every place
    e = np.empty((1 + len(_SPLIT_PRIMES), N), dtype=bool)
    e[0] = eps_place
    e[1] = _omega(p)
    e[2:] = table[off[_ODD_Q] + np.where(two, (D & -D)[fp], p) % _ODD_Q] < 0
    e[2:] ^= _eps(_ODD_Q) & eps_place
    # which list primes split: D = 1 mod 8 for 2, (D/q) = 1 for an odd q
    split = np.empty((1 + len(_SPLIT_PRIMES), F), dtype=bool)
    split[0] = True
    split[1] = D & 7 == 1
    split[2:] = table[off[_ODD_Q] + D % _ODD_Q] == 1
    if cap < len(_SPLIT_PRIMES):
        split[1:] &= split[1:].cumsum(axis=0) <= cap
    # the pairs of places v and v + d: s[d - 1, v] is the symbol of the
    # prime at v + d at the place v, r[d - 1, v] that of v's prime at v + d
    d = np.arange(1, C)[:, None]
    at = np.arange(N) + d
    upper = np.concatenate((p, np.zeros(C, np.int64)))[at]
    eps_u, omega_u = _eps(upper), _omega(upper)
    pair = t[fp] - ip > d
    small = odd & (p < TABLE_BOUND)  # v's table holds the pair's symbol
    a = np.where(small, p, 3)  # a gather in range where unused
    small = pair & small
    s = table[off[a] + upper % a] < 0
    s &= small
    r = s ^ (small & eps_p & eps_u)
    at_two = pair & two
    s |= at_two & (eps_u & eps_w ^ beta & omega_u)
    r |= at_two & omega_u
    # the rows of the ramified primes, one per place: r in place, s moved
    # d places on; then the own symbols on the diagonal
    ram = (r * (bit << d)).sum(axis=0)
    ram += np.bincount(at.ravel(), (s * bit).ravel(), N + C)[:N].astype(
        np.int64)
    column = np.bitwise_xor.reduceat(ram * (odd | two & beta), starts)[fp]
    own = np.where(two, _omega(w)[fp],
                   column >> ip & 1 ^ (D > 0)[fp] & eps_p)
    ram |= own * bit
    masks = np.zeros((1 + len(_SPLIT_PRIMES) + C, F), dtype=np.int64)
    # the bits of each row of e, summed per field
    rows = np.arange(len(e))[:, None] * F + fp
    masks[:len(e)] = np.bincount(rows.ravel(), (e * bit).ravel(),
                                 len(e) * F).reshape(-1, F) * split
    masks[len(e) + ip, fp] = ram
    return masks, np.add.reduceat(p >= TABLE_BOUND, starts) > 1


def _f2_rank(masks):
    """The F2 rank of the vectors of each field: masks[:, f] holds field
    f's vectors as int bitmasks.  One round per bit b, from the highest
    down, eliminates it: once no vector has a bit above b, the largest
    vector, the pivot, has bit b if any does, and it is xored into every
    vector that has the bit, itself included.  The rank counts the pivots
    with their bit."""
    masks = masks.copy()
    width = int(masks.max(initial=0)).bit_length()
    pivots = np.empty((width, masks.shape[1]), dtype=masks.dtype)
    for b in reversed(range(width)):
        masks.max(axis=0, out=pivots[b])
        masks ^= (masks >= 1 << b) * pivots[b]
    # pivots[b] is below 2^(b + 1)
    return (pivots >> np.arange(width)[:, None]).sum(axis=0)
