"""Unit groups: fundamental unit by continued fractions, and units mod norms.

For a real field the fundamental unit is read off from the first repeated
state of the integer (P, Q) recurrence for the surd (P0 + sqrt(D))/2; all
arithmetic is exact.  The order-2 Tate group of units is determined by the
norm of the fundamental unit (real case) or is always of order 2 (imaginary
case, where every unit norm is +1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .quadfield import Discriminant, QuadNum


@dataclass(frozen=True)
class UnitData:
    eps: QuadNum | None
    eps_norm: int
    torsion_order: int
    h0_units_order: int


def _cf_automorphism(D: int) -> tuple[int, int, int, int, int, int]:
    """Matrix fixing the periodic surd, plus that surd's (P, Q)."""
    P, Q = D % 2, 2
    # M holds convergents [[p_{i-1}, p_{i-2}], [q_{i-1}, q_{i-2}]]
    m = (1, 0, 0, 1)
    s = isqrt(D)
    seen: dict[tuple[int, int], tuple[int, int, int, int, int]] = {}
    while True:
        state = (P, Q)
        if state in seen:
            idx, *mj = seen[state]
            a0, b0, c0, d0 = mj
            det = a0 * d0 - b0 * c0
            inv = (d0 * det, -b0 * det, -c0 * det, a0 * det)
            t = (inv[0] * m[0] + inv[1] * m[2],
                 inv[0] * m[1] + inv[1] * m[3],
                 inv[2] * m[0] + inv[3] * m[2],
                 inv[2] * m[1] + inv[3] * m[3])
            return (*t, P, Q)
        seen[state] = (len(seen), *m)
        assert Q > 0
        a = (P + s) // Q
        m = (m[0] * a + m[1], m[0], m[2] * a + m[3], m[2])
        P = a * Q - P
        Q = (D - P * P) // Q

    raise AssertionError("unreachable")


def fundamental_unit(disc: Discriminant) -> UnitData:
    D = disc.delta
    if D < 0:
        torsion = 6 if D == -3 else (4 if D == -4 else 2)
        return UnitData(eps=None, eps_norm=1, torsion_order=torsion,
                        h0_units_order=2)
    t11, t12, t21, t22, P, Q = _cf_automorphism(D)
    # unit: t21 * (P + sqrt(D))/Q + t22
    eps = QuadNum(2 * (t21 * P + t22 * Q), 2 * t21, Q, disc)
    assert eps.is_integral() and abs(eps.norm()) == 1
    candidates = [eps, -eps, eps.inverse(), -eps.inverse()]
    eps = next(e for e in candidates if e.compare_rational(1) > 0)
    return UnitData(eps=eps, eps_norm=int(eps.norm()), torsion_order=2,
                    h0_units_order=1 if eps.norm() == -1 else 2)
