"""Exact arithmetic of quadratic fields: class groups, unit groups, local
norm data, the K-group of the norm functor, and the idele-level maps tying
them together."""

from .classgroup import ClassGroupData, class_group
from .ideals import FracIdeal, primes_above, principal_ideal
from .knorm import K0Elt, bass_sequence_report, k0_context, k0_group, \
    solve_norm_equation
from .local import genus_char_space, hilbert_symbol, is_global_norm
from .mv import IdeleFS, boundary, genus_engine, idele_norm
from .quadfield import Discriminant, QuadNum, make_discriminant
from .units import fundamental_unit

__all__ = [
    "ClassGroupData", "class_group", "FracIdeal",
    "primes_above", "principal_ideal", "K0Elt", "bass_sequence_report",
    "k0_context", "k0_group", "solve_norm_equation", "genus_char_space",
    "hilbert_symbol", "is_global_norm", "IdeleFS", "boundary",
    "genus_engine", "idele_norm", "Discriminant", "QuadNum",
    "make_discriminant", "fundamental_unit",
]

__version__ = "0.1.0"
