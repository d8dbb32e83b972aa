"""Exact solver and verification suite for rank-one qq- and QQ-systems."""

from .scalar import Scalar, ZERO, ONE, I
from .poly import SparsePoly
from .series import (Series, RamificationMismatchError,
                     NonInvertibleSeriesError)
from .systems import (MasterData, ProblemSpec, CandidatePoint,
                      SpecValidationError, SizeCapExceededError,
                      residual_components, evaluate_residual,
                      jacobian_at_zero, symbolic_support)
from .infinite import InfiniteSolution, enumerate_infinite_solutions
from .lifting import (LiftedSolution, SingularJacobianError,
                      RamificationBoundExceededError, BranchExplosionError,
                      UndecidedConstraintsError, lift_newton, lift_ramified,
                      certify_residual_point)
from .lp import lp_solve
from .tropical import (TropicalSupport, TropicalPoint, PrevarietyResult,
                       hypersurface_contains, prevariety, exclusion_witness)
from .bethe import (BetheReport, bethe_report, nondegeneracy_check,
                    gaudin_residual, xxz_residual,
                    UndecidableQDistinctnessError, NondegeneracyError)

__version__ = "0.1.0"

__all__ = [
    "Scalar", "ZERO", "ONE", "I",
    "SparsePoly",
    "Series", "RamificationMismatchError", "NonInvertibleSeriesError",
    "MasterData", "ProblemSpec", "CandidatePoint",
    "SpecValidationError", "SizeCapExceededError",
    "residual_components", "evaluate_residual",
    "jacobian_at_zero", "symbolic_support",
    "InfiniteSolution", "enumerate_infinite_solutions",
    "LiftedSolution", "SingularJacobianError",
    "RamificationBoundExceededError", "BranchExplosionError",
    "UndecidedConstraintsError",
    "lift_newton", "lift_ramified", "certify_residual_point",
    "lp_solve",
    "TropicalSupport", "TropicalPoint", "PrevarietyResult",
    "hypersurface_contains", "prevariety", "exclusion_witness",
    "BetheReport", "bethe_report", "nondegeneracy_check",
    "gaudin_residual", "xxz_residual",
    "UndecidableQDistinctnessError", "NondegeneracyError",
    "__version__",
]


# the numeric oracle needs numpy (the "oracle" extra): its names load on
# first use and stay out of __all__, so importing the package never loads it
_ORACLE = ("NumericCheck", "numeric_check", "damped_newton")


def __getattr__(name):
    if name in _ORACLE:
        from . import numeric
        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
