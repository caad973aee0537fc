"""Polarity and hyperpolarity checks for left-right translation actions."""

from .actions import (ActionSpec, PolarityReport, analyze, is_transitive,
                      polarity_check)
from .lie_algebras import LieAlgebra, build_classical, make_automorphism
from .numerics import ToleranceConfig
from .subalgebras import Subalgebra, diagonal_sigma, product

__all__ = [
    "ActionSpec", "PolarityReport", "analyze", "is_transitive",
    "polarity_check",
    "LieAlgebra", "build_classical", "make_automorphism",
    "ToleranceConfig", "Subalgebra", "diagonal_sigma", "product",
]
