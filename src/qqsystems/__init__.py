"""Exact solver and verification suite for rank-one qq- and QQ-systems.

The modules are the API: import each name from the module that defines
it (qqsystems.systems, .lifting, .tropical, .bethe, ...).  The package
itself binds only the five names its callers import from it: the exact
scalars and jets a lift is made of (Scalar, Series, CandidatePoint), the
spec (ProblemSpec), and __version__.
"""

from .scalar import Scalar
from .series import Series
from .systems import CandidatePoint, ProblemSpec

__version__ = "0.1.0"

__all__ = ["CandidatePoint", "ProblemSpec", "Scalar", "Series", "__version__"]


# the numeric oracle needs numpy (the "oracle" extra): its names load on
# first use and stay out of __all__, so importing the package never loads it
_ORACLE = ("NumericCheck", "numeric_check", "damped_newton")


def __getattr__(name):
    if name in _ORACLE:
        from . import numeric
        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
