"""Floating-point cross-check of exact series solutions.

A damped Newton iteration solves the deformed system numerically at a
few small sample values of t, seeded by evaluating the truncated series
there.  Agreement between the numeric root and the series jet, and the
decay exponent of the mismatch as t shrinks, are independent of the
exact lifting code path and so catch algebraic mistakes.

This is the only module that uses numpy, which comes with the ``oracle``
extra (``pip install .[oracle]``); the exact pipeline never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .lifting import LiftedSolution
from .systems import ProblemSpec

DEFAULT_SAMPLES = (1e-2, 1e-3)
# relative step below which damped_newton accepts a root it cannot improve
NEWTON_RESOLUTION = 1e-9


def _np_from_shifts(shifts: Sequence[complex]) -> np.ndarray:
    """Coefficients (lowest first) of prod (z + a) over the given shifts."""
    p = np.array([1.0 + 0j])
    for a in shifts:
        p = np.convolve(p, np.array([a, 1.0 + 0j]))
    return p


def _np_derivative(p: np.ndarray) -> np.ndarray:
    if len(p) <= 1:
        return np.zeros(1, dtype=complex)
    return p[1:] * np.arange(1, len(p))


def _padded(p: np.ndarray, length: int) -> np.ndarray:
    return np.concatenate([p, np.zeros(length - len(p), dtype=complex)])


def residual_function(spec: ProblemSpec, t0: float
                      ) -> Callable[[np.ndarray], np.ndarray]:
    """F(v) with v = (x_1..x_m, y_1..y_n), matching the exact residual.

    This is a second, floating-point encoding of the residual, kept apart
    from systems.residual_components on purpose: the oracle is only an
    independent check of the exact path if it shares no code with it.
    """
    lam = np.array([complex(c) for c in spec.lam.coeffs])
    dim = spec.m + spec.n
    q = complex(spec.q) if spec.is_difference else None

    def f(v: np.ndarray) -> np.ndarray:
        xs, ys = v[:spec.m], v[spec.m:]
        if spec.is_difference:
            qm, qn = q ** spec.m, q ** spec.n
            a = np.convolve(_np_from_shifts(xs / q), _np_from_shifts(ys))
            b = np.convolve(_np_from_shifts(xs), _np_from_shifts(ys / q))
            res = qm * a - t0 * qn * b - (qm - t0 * qn) * lam
        else:
            qp = _np_from_shifts(xs)
            qmn = _np_from_shifts(ys)
            prod = np.convolve(qp, qmn)
            # a constant factor (m = 0 or n = 0) leaves its Wronskian term
            # one entry shorter than the other
            wr = (_padded(np.convolve(qp, _np_derivative(qmn)), len(prod))
                  - _padded(np.convolve(qmn, _np_derivative(qp)), len(prod)))
            res = prod + t0 * wr - lam
        # components k = 1..dim are the z^{dim-k} coefficients
        return np.array([res[dim - k] for k in range(1, dim + 1)])

    return f


def _numeric_jacobian(f: Callable[[np.ndarray], np.ndarray], v: np.ndarray,
                      h: float = 1e-7) -> np.ndarray:
    n = len(v)
    jac = np.zeros((n, n), dtype=complex)
    for j in range(n):
        dv = np.zeros(n, dtype=complex)
        dv[j] = h
        jac[:, j] = (f(v + dv) - f(v - dv)) / (2 * h)
    return jac


def damped_newton(f: Callable[[np.ndarray], np.ndarray], v0: np.ndarray,
                  tol: float = 1e-12, max_iter: int = 100
                  ) -> Optional[np.ndarray]:
    """Newton with backtracking on the residual norm; None on failure."""
    v = np.array(v0, dtype=complex)
    for _ in range(max_iter):
        r = f(v)
        nr = float(np.linalg.norm(r))
        if nr < tol:
            return v
        jac = _numeric_jacobian(f, v)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        # step size measures root accuracy directly and stays meaningful
        # when the residual floor (roundoff on large coefficients) sits
        # above the absolute residual tolerance
        step_norm = float(np.linalg.norm(step))
        scale = 1.0 + float(np.linalg.norm(v))
        if step_norm <= 1e-12 * scale:
            return v + step
        lam = 1.0
        improved = False
        for _ in range(40):
            cand = v + lam * step
            if float(np.linalg.norm(f(cand))) < nr:
                v = cand
                improved = True
                break
            lam *= 0.5
        if not improved:
            # stalled at the roundoff floor right next to the root
            return v if step_norm <= NEWTON_RESOLUTION * scale else None
    return None


@dataclass(frozen=True)
class NumericCheck:
    samples: Tuple[float, ...]
    mismatches: Tuple[float, ...]   # nan where Newton failed
    tolerances: Tuple[float, ...]
    decay_exponent: Optional[float]
    passed: bool


def numeric_check(ls: LiftedSolution, spec: ProblemSpec,
                  samples: Sequence[float] = DEFAULT_SAMPLES) -> NumericCheck:
    """Compare the jet against damped-Newton roots at small sample t values.

    Each sample t0 allows 10 * t0^((top+1)/N) between the root and the
    series evaluation, which assumes coefficients of size about 1.  Inside
    the jet's own disc, rho * s0 < 1/2 with s0 = t0^(1/N) and rho the
    largest |c_e|^(1/e) over s-exponents e >= 1, the allowance is the
    largest of that, the tail bound 20 (rho s0)^(top+1) and Newton's
    resolution NEWTON_RESOLUTION * (1 + |jet(t0)|).  Passes when every
    sample converges within its allowance, which `tolerances` reports.
    The decay exponent is the log-log slope of the mismatch, defined when
    at least two samples give nonzero mismatch.
    """
    order_exp = (ls.order + 1) / ls.n_ram
    jets = ls.point.x + ls.point.y
    rho = max((abs(complex(c)) ** (1.0 / e) for s in jets
               for e, c in enumerate(s.coeffs, s.offset)
               if e >= 1 and not c.is_zero), default=0.0)
    mismatches: List[float] = []
    tolerances: List[float] = []
    for t0 in samples:
        seed = np.array([s.eval_at(t0) for s in jets])
        f = residual_function(spec, t0)
        root = damped_newton(f, seed)
        tol = 10.0 * t0 ** order_exp
        ratio = rho * t0 ** (1.0 / ls.n_ram)
        if ratio < 0.5:
            tol = max(tol, 20.0 * ratio ** (ls.order + 1),
                      NEWTON_RESOLUTION * (1.0 + float(np.linalg.norm(seed))))
        tolerances.append(tol)
        mismatches.append(float("nan") if root is None
                          else float(np.max(np.abs(root - seed))))
    decay = decay_exponent(samples, mismatches)
    # a nan mismatch (Newton failed) fits no allowance
    return NumericCheck(samples=tuple(samples), mismatches=tuple(mismatches),
                        tolerances=tuple(tolerances), decay_exponent=decay,
                        passed=all(err <= tol for err, tol
                                   in zip(mismatches, tolerances)))


def decay_exponent(samples: Sequence[float], errors: Sequence[float]
                   ) -> Optional[float]:
    """Least-squares slope of log(error) against log(t)."""
    pts = [(math.log(t), math.log(e)) for t, e in zip(samples, errors)
           if e > 0 and not math.isnan(e)]
    if len(pts) < 2:
        return None
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope
