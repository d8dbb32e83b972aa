from qqsystems.poly import SparsePoly
from qqsystems.scalar import Scalar, ZERO, ONE


class TestSparsePoly:
    X = SparsePoly.variable(0, 2)
    T = SparsePoly.variable(1, 2)

    def test_generators_and_constant(self):
        assert self.X.terms == {(1, 0): ONE}
        assert SparsePoly.constant(Scalar(3), 2).terms == {(0, 0): Scalar(3)}
        assert SparsePoly.constant(ZERO, 2).terms == {}

    def test_product_expands_exactly(self):
        # (x + t)(x - t) = x^2 - t^2: the cross terms cancel and drop out
        p = (self.X + self.T) * (self.X - self.T)
        assert p.terms == {(2, 0): ONE, (0, 2): Scalar(-1)}

    def test_gaussian_coefficients_and_int_scaling(self):
        i_const = SparsePoly.constant(Scalar(0, 1), 2)
        p = (self.X * i_const) * (self.X * i_const) * 3
        assert p.terms == {(2, 0): Scalar(-3)}

    def test_cancellation_to_zero(self):
        assert (self.X - self.X).terms == {}
        assert (-(self.X * 2) + self.X + self.X).terms == {}
