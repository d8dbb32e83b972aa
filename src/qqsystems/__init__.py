"""Exact solver and verification suite for rank-one qq- and QQ-systems."""

from .scalar import Scalar, ZERO, ONE, I
from .poly import Poly, SparsePoly, poly_from_shifts, poly_dilate, wronskian
from .series import (Series, RamificationMismatchError,
                     NonInvertibleSeriesError)
from .systems import (MasterData, ProblemSpec, CandidatePoint,
                      SpecValidationError, SizeCapExceededError,
                      residual_components, evaluate_residual,
                      jacobian_at_zero, symbolic_support)
from .infinite import InfiniteSolution, enumerate_infinite_solutions
from .lifting import (LiftedSolution, SingularJacobianError,
                      RamificationBoundExceededError, lift_newton,
                      lift_ramified, certify_residual)
from .numeric import NumericCheck, numeric_check, damped_newton
from .lp import LPResult, lp_solve
from .tropical import (TropicalSupport, TropicalPoint, TropicalCell,
                       PrevarietyResult, hypersurface_contains, prevariety,
                       exclusion_witness)
from .bethe import (BetheReport, bethe_report, nondegeneracy_check,
                    gaudin_residual, xxz_residual,
                    UndecidableQDistinctnessError, NondegeneracyError)

__version__ = "0.1.0"

__all__ = [
    "Scalar", "ZERO", "ONE", "I",
    "Poly", "SparsePoly", "poly_from_shifts", "poly_dilate", "wronskian",
    "Series", "RamificationMismatchError", "NonInvertibleSeriesError",
    "MasterData", "ProblemSpec", "CandidatePoint",
    "SpecValidationError", "SizeCapExceededError",
    "residual_components", "evaluate_residual",
    "jacobian_at_zero", "symbolic_support",
    "InfiniteSolution", "enumerate_infinite_solutions",
    "LiftedSolution", "SingularJacobianError",
    "RamificationBoundExceededError", "lift_newton", "lift_ramified",
    "certify_residual",
    "NumericCheck", "numeric_check", "damped_newton",
    "LPResult", "lp_solve",
    "TropicalSupport", "TropicalPoint", "TropicalCell", "PrevarietyResult",
    "hypersurface_contains", "prevariety", "exclusion_witness",
    "BetheReport", "bethe_report", "nondegeneracy_check",
    "gaudin_residual", "xxz_residual",
    "UndecidableQDistinctnessError", "NondegeneracyError",
    "__version__",
]
