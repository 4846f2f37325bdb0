"""Small readings of the package's value types that only the tests ask for.

Unlike ``oracle``, these use the package: they are conveniences, not
independent checks.
"""

from __future__ import annotations

from fractions import Fraction

from qknorm.classgroup import scan_counts
from qknorm.ideals import lattice_product, rational_prime_of
from qknorm.mv import genus_engine
from qknorm.quadfield import DiscMismatch, QuadNum, make_discriminant


class NotIntegral(ValueError):
    """Raised when an algebraic integer was required."""


def from_integral(x: int, y: int, disc) -> QuadNum:
    """The element (x + y*sqrt(delta))/2; must satisfy x = y*delta mod 2."""
    if (x - y * disc.delta) % 2 != 0:
        raise NotIntegral(f"({x}+{y}*sqrt({disc.delta}))/2 is not integral")
    return QuadNum(x, y, 1, disc)


def trace(z: QuadNum) -> Fraction:
    return Fraction(z.x, z.d)


def is_integral_element(z: QuadNum) -> bool:
    return z.d == 1 and (z.x - z.y * z.disc.delta) % 2 == 0


def is_unit_ideal(i) -> bool:
    return i.n == 1 and i.d == 1 and i.a == 1


def is_integral_ideal(i) -> bool:
    return i.d == 1


def contains(i, z: QuadNum) -> bool:
    """z in the fractional ideal i, by the two divisibility tests of
    ``FracIdeal._contains`` and no ideal product."""
    if z.disc.delta != i.disc.delta:
        raise DiscMismatch(
            f"discriminants {i.disc.delta} and {z.disc.delta} differ")
    return i._contains(z.x, z.y, z.d)


def workspace_nbytes(ws) -> int:
    """The bytes the buffers of a scan-count workspace hold."""
    return sum(buf.nbytes for bufs in (ws.bufs, ws.iotas)
               for buf in bufs.values())


def support_primes(z) -> list[int]:
    """The rational primes below the primes where the idele z has a
    component."""
    return sorted({rational_prime_of(p) for p in z.components})


def compose_forms(f1, f2, D: int):
    """Gauss composition of two forms with a > 0 at class level: the form
    of the product of their ideals, with the content dropped."""
    assert f1[0] > 0 and f2[0] > 0
    _, a, b = lattice_product(f1[0], f1[1], f2[0], f2[1], D)
    return (a, b, (b * b - D) // (4 * a))


def scan_row(delta: int) -> dict[str, str]:
    """The scan row of one fundamental discriminant: the genus engine on
    its counts, as a block of one."""
    disc = make_discriminant(delta)
    return genus_engine([disc], [scan_counts(disc)])[0]


def verdicts_pass(row: dict[str, str]) -> bool:
    """Whether the three verdict columns of a scan row read "true"."""
    return (row["verdict_69"] == row["verdict_67"] == row["verdict_68"]
            == "true")
