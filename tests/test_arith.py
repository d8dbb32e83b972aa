"""Property tests: the integer Scalar and Series against the Fraction-pair
reference in ``arith_reference.py``.

Both sides are built from the same random Gaussian rationals (mixed
denominators, zero leading terms, negative offsets, N in {1, 2, 3}); every
operation must give the same value, window, JSON and error type.  Real
jets, alone or beside a Gaussian one, take the real-row branches of
Series, so they are drawn on their own as well, and scalar.dot is held to
the reference on the same kinds of rows.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import arith_reference as ref
from qqsystems.scalar import Scalar, ONE, dot
from qqsystems.series import Series

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
reals = st.one_of(
    st.just((Fraction(0), Fraction(0))),
    st.tuples(rationals, st.just(Fraction(0))))
gaussians = st.one_of(reals, st.tuples(rationals, rationals))
# two real operands, or one real and one with a nonzero imaginary part
real_kinds = st.sampled_from([(reals, reals), (reals, gaussians),
                              (gaussians, reals)])


@st.composite
def jets(draw, n_ram=None, coeffs=gaussians):
    """(N, offset, coefficient pairs), often with zero leading terms."""
    n = draw(st.sampled_from([1, 2, 3])) if n_ram is None else n_ram
    zeros = draw(st.integers(0, 2))
    pairs = [(Fraction(0), Fraction(0))] * zeros
    pairs += draw(st.lists(coeffs, min_size=1, max_size=5))
    return n, draw(st.integers(-3, 3)), pairs


@st.composite
def jet_pairs(draw):
    a = draw(jets())
    return a, draw(jets(n_ram=a[0]))


def new_scalar(pair):
    return Scalar(*pair)


def ref_scalar(pair):
    return ref.Scalar(*pair)


def new_series(jet):
    n, off, pairs = jet
    return Series(n, [Scalar(*p) for p in pairs], off)


def ref_series(jet):
    n, off, pairs = jet
    return ref.Series(n, [ref.Scalar(*p) for p in pairs], off)


def value(x):
    """A comparable picture of a Scalar or Series from either side."""
    if isinstance(x, (Series, ref.Series)):
        return ("series", x.n_ram, x.offset, x.top,
                tuple(value(c) for c in x.coeffs), x.to_json())
    if isinstance(x, (Scalar, ref.Scalar)):
        # the last entry checks that the integer form is canonical, as
        # equality compares its integers
        return ("scalar", x.re, x.im, x.to_json(), str(x), x.sort_key(),
                hash(x), x.abs2(), complex(x), x.is_zero,
                x == type(x)(x.re, x.im))
    return x


def outcome(f, *args):
    try:
        return value(f(*args))
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        return type(exc)


def agree(f, new_args, ref_args):
    assert outcome(f, *new_args) == outcome(f, *ref_args)


@settings(deadline=None, max_examples=300)
@given(gaussians, gaussians, st.integers(-4, 4))
def test_scalar_operations(p, q, k):
    a, b = new_scalar(p), new_scalar(q)
    ra, rb = ref_scalar(p), ref_scalar(q)
    assert value(a) == value(ra)
    for f in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
              lambda x, y: x / y, lambda x, y: -x, lambda x, y: x == y,
              lambda x, y: x ** k, lambda x, y: x + k, lambda x, y: k - x,
              lambda x, y: x * k, lambda x, y: k / x, lambda x, y: x == k,
              lambda x, y: x == p[0], lambda x, y: x * p[0]):
        agree(f, (a, b), (ra, rb))


@settings(deadline=None, max_examples=300)
@given(jet_pairs(), gaussians, st.integers(-3, 3))
def test_series_arithmetic(pair, c, k):
    (ja, jb) = pair
    a, b = new_series(ja), new_series(jb)
    ra, rb = ref_series(ja), ref_series(jb)
    assert value(a) == value(ra)
    for f, args, rargs in (
            (lambda x, y: x + y, (a, b), (ra, rb)),
            (lambda x, y: x - y, (a, b), (ra, rb)),
            (lambda x, y: x * y, (a, b), (ra, rb)),
            (lambda x, y: x * y, (a, new_scalar(c)), (ra, ref_scalar(c))),
            (lambda x, y: x + y, (a, new_scalar(c)), (ra, ref_scalar(c))),
            (lambda x, y: y - x, (a, new_scalar(c)), (ra, ref_scalar(c))),
            (lambda x: x * k, (a,), (ra,)),
            (lambda x: k * x, (a,), (ra,)),
            (lambda x: x - k, (a,), (ra,)),
            (lambda x: -x, (a,), (ra,)),
            (lambda x: x.reciprocal(), (a,), (ra,))):
        agree(f, args, rargs)


@settings(deadline=None, max_examples=300)
@given(jet_pairs(), st.integers(-4, 6))
def test_series_windows(pair, e):
    (ja, jb) = pair
    a, b = new_series(ja), new_series(jb)
    ra, rb = ref_series(ja), ref_series(jb)
    for f, args, rargs in (
            (lambda x: x.shift(e), (a,), (ra,)),
            (lambda x: x.widen(e), (a,), (ra,)),
            (lambda x: x.coeff(e), (a,), (ra,)),
            (lambda x: x.valuation(), (a,), (ra,)),
            (lambda x: x.is_zero, (a,), (ra,)),
            (lambda x: x.lowest_term() and (x.lowest_term()[0],
                                            value(x.lowest_term()[1])),
             (a,), (ra,)),
            (lambda x, y: x.same_through(y, e), (a, b), (ra, rb)),
            (lambda x, y: x == y, (a, b), (ra, rb)),
            (lambda x: x.to_json(), (a,), (ra,)),
            (lambda x: x.eval_at(0.01), (a,), (ra,))):
        agree(f, args, rargs)


@st.composite
def real_row_pairs(draw):
    """Two jets of one N, at least one of them with a real row."""
    first, second = draw(real_kinds)
    a = draw(jets(coeffs=first))
    return a, draw(jets(n_ram=a[0], coeffs=second))


@settings(deadline=None, max_examples=300)
@given(real_row_pairs())
def test_series_real_rows(pair):
    (ja, jb) = pair
    a, b = new_series(ja), new_series(jb)
    ra, rb = ref_series(ja), ref_series(jb)
    for f in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: y - x,
              lambda x, y: x * y, lambda x, y: y * x,
              lambda x, y: x.reciprocal(), lambda x, y: y.reciprocal()):
        agree(f, (a, b), (ra, rb))


@settings(deadline=None, max_examples=300)
@given(real_kinds.flatmap(lambda kinds: st.tuples(
    st.lists(kinds[0], max_size=6), st.lists(kinds[1], max_size=6))))
def test_dot_real_rows(rows):
    xs, ys = rows
    assert value(dot(list(map(new_scalar, xs)), list(map(new_scalar, ys)))) \
        == value(ref.dot(list(map(ref_scalar, xs)), list(map(ref_scalar, ys))))


@settings(deadline=None, max_examples=100)
@given(jets())
def test_reciprocal_inverts(jet):
    a = new_series(jet)
    if a.is_zero:
        return
    inv = a.reciprocal()
    prod = a * inv
    assert prod.same_through(Series.const(ONE, prod.top, prod.n_ram),
                             prod.top)
