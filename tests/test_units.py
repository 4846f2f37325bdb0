import math

import pytest

from qknorm.quadfield import is_fundamental, make_discriminant
from qknorm.units import fundamental_unit

from oracle import KNOWN_EPS_NORMS, pell_min

_PELL_CAP = 4000


def _above_one(z) -> bool:
    """z > 1 under sqrt(D) > 0, in floats; the units checked here are at
    least (1 + sqrt(5))/2, far from 1."""
    return (z.x + z.y * math.sqrt(z.disc.delta)) / (2 * z.d) > 1


@pytest.mark.parametrize("delta,n", sorted(KNOWN_EPS_NORMS.items()))
def test_known_unit_norms(delta, n):
    assert fundamental_unit(make_discriminant(delta)).eps_norm == n


def test_imaginary_torsion():
    assert fundamental_unit(make_discriminant(-3)).torsion_order == 6
    assert fundamental_unit(make_discriminant(-4)).torsion_order == 4
    for d in (-7, -15, -23, -120):
        u = fundamental_unit(make_discriminant(d))
        assert u.torsion_order == 2 and u.eps is None
        assert u.h0_units_order == 2


def test_units_match_bounded_pell():
    for D in range(2, 1000):
        if not is_fundamental(D):
            continue
        u = fundamental_unit(make_discriminant(D))
        eps = u.eps
        assert eps is not None and eps.d == 1
        assert eps.norm() in (1, -1)
        assert _above_one(eps)
        got = pell_min(D, _PELL_CAP)
        if got is None:
            # fundamental solution is beyond the brute-force window
            assert eps.y > _PELL_CAP
        else:
            x, y, pm = got
            assert (eps.x, eps.y) == (x, y)
            assert int(4 * eps.norm()) == pm


def test_unit_is_minimal_power():
    # eps^k for k >= 2 is never the fundamental unit: its own expansion
    for D in (8, 12, 40, 229, 316):
        disc = make_discriminant(D)
        eps = fundamental_unit(disc).eps
        sq = eps * eps
        assert _above_one(sq)
        assert sq != eps


def test_tate_units_order():
    # N(eps) = -1 at delta = 5
    assert fundamental_unit(make_discriminant(5)).h0_units_order == 1
    assert fundamental_unit(make_discriminant(12)).h0_units_order == 2
    assert fundamental_unit(make_discriminant(-15)).h0_units_order == 2
    assert fundamental_unit(make_discriminant(136)).h0_units_order == 2
