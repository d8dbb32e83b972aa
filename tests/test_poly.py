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

    def test_scalar_and_int_operands_are_constants(self):
        i = Scalar(0, 1)
        assert (self.X + i).terms == {(1, 0): ONE, (0, 0): i}
        assert (2 + self.X).terms == {(1, 0): ONE, (0, 0): Scalar(2)}
        assert (self.X - 1).terms == {(1, 0): ONE, (0, 0): Scalar(-1)}
        assert (i - self.X).terms == {(1, 0): Scalar(-1), (0, 0): i}
        assert (self.T * i).terms == (i * self.T).terms == {(0, 1): i}
        assert (3 * self.T).terms == {(0, 1): Scalar(3)}
        assert (self.X + 1 - 1).terms == self.X.terms

    def test_zero_polynomial_keeps_its_variable_count(self):
        zero = self.X - self.X
        assert zero.terms == {} and zero.nvars == 2
        assert (zero + Scalar(5)).terms == {(0, 0): Scalar(5)}
        assert (1 - zero).terms == {(0, 0): ONE}
        assert (zero - 2).terms == {(0, 0): Scalar(-2)}
        assert (zero * Scalar(7)).terms == (3 * zero).terms == {}
        assert (zero * self.X).nvars == 2
