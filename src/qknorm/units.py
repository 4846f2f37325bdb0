"""Unit groups: the fundamental unit, read off the principal rho-cycle, and
units mod norms.

The walk (``classgroup.rho_walk``) from the principal form (1, b, c) stops
at (-1, b, -c) after half the period if the fundamental unit has norm -1,
else back at (1, b, c), and the unit is read off its transform and checked
(eps*O_F = O_F) like any principal generator.  The order-2 Tate group of
units is determined by the norm of the fundamental unit (real case) or is
always of order 2 (imaginary case, where every unit norm is +1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .classgroup import (GeneratorCheckError, _checked_generator,
                         principal_form, reduce_indef_t, rho_walk)
from .ideals import FracIdeal
from .quadfield import Discriminant, QuadNum


@dataclass(frozen=True)
class UnitData:
    eps: QuadNum | None
    eps_norm: int
    torsion_order: int
    h0_units_order: int


def fundamental_unit(disc: Discriminant) -> UnitData:
    D = disc.delta
    if D < 0:
        torsion = 6 if D == -3 else (4 if D == -4 else 2)
        return UnitData(eps=None, eps_norm=1, torsion_order=torsion,
                        h0_units_order=2)
    g, m = reduce_indef_t(principal_form(D), D)
    g, m = rho_walk(g, m, isqrt(D))
    if abs(g[0]) != 1:
        raise GeneratorCheckError(
            f"fundamental_unit: D = {D}: the rho-walk stopped at {g}")
    eps = _checked_generator(FracIdeal.unit(disc), m, g, None,
                             "fundamental_unit")
    # +-eps^+-1 are (+-x +- y*sqrt(D))/2d; the one above 1 has x, y > 0, as
    # its conjugate is in (-1, 1): x/d = eps + eps', y*sqrt(D)/d = eps - eps'
    eps = QuadNum(abs(eps.x), abs(eps.y), eps.d, disc)
    return UnitData(eps=eps, eps_norm=g[0], torsion_order=2,
                    h0_units_order=1 if g[0] == -1 else 2)
