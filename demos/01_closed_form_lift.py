"""Lift both t = 0 solutions of the system for Lambda = (z+1)(z+2).

For m = n = 1 the deformed system is

    x + y        = 3            (coefficient of z)
    x*y + t(x-y) = 2            (constant coefficient)

so eliminating y gives the quadratic x^2 - (3+2t)x + 3t + 2 = 0, whose
two branches have closed-form series expansions.  This demo lifts both
bases with exact Newton/Hensel steps, certifies the residuals, and
checks the jets against the quadratic.
"""

from qqsystems.scalar import Scalar
from qqsystems.series import Series
from qqsystems.systems import MasterData, ProblemSpec
from qqsystems.infinite import enumerate_infinite_solutions
from qqsystems.lifting import lift_newton


def show(series, name):
    coeffs = " + ".join(f"({series.coeff(k)})t^{k}"
                        for k in range(series.top + 1))
    print(f"  {name}(t) = {coeffs}")


def main():
    spec = ProblemSpec(
        mode="qq",
        lam=MasterData(((Scalar(1), 1), (Scalar(2), 1))),
        m=1, n=1, K=4)

    bases = enumerate_infinite_solutions(spec)
    print(f"t = 0 solutions (root splits of Lambda): {len(bases)}")

    for base in bases:
        ls = lift_newton(base, spec)
        print(f"\nbase x0 = {base.x0[0]}, y0 = {base.y0[0]}"
              f"  [{base.tier}]")
        x, y = ls.point.x[0], ls.point.y[0]
        show(x, "x")
        show(y, "y")
        print(f"  residual valuation >= {ls.residual_valuation}"
              f"  (certified: {ls.certified()})")

        # independent check: the quadratic vanishes on the jet
        t = Series(1, [Scalar(0), Scalar(1)] + [Scalar(0)] * (spec.K - 1))
        lin = Series.const(Scalar(3), spec.K) + t * Scalar(2)
        const = t * Scalar(3) + Scalar(2)
        quad = x.widen(2 * spec.K) * x.widen(2 * spec.K) \
            - (lin * x).widen(2 * spec.K) + const.widen(2 * spec.K)
        ok = all(quad.coeff(k).is_zero for k in range(spec.K + 1))
        print(f"  x^2 - (3+2t)x + (3t+2) = O(t^{spec.K + 1}): {ok}")


if __name__ == "__main__":
    main()
