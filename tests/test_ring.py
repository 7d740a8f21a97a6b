"""Polynomial arithmetic, ring validation and derivatives."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from germlab import Polynomial, RingSpec, parse_polynomial

from germs import R2, R3, poly


def test_ring_validation():
    assert RingSpec(["x", "y_2", "Alpha"]).n == 3
    with pytest.raises(ValueError):
        RingSpec([])
    with pytest.raises(ValueError):
        RingSpec(["x", "x"])
    with pytest.raises(ValueError):
        RingSpec(["2x"])
    with pytest.raises(ValueError):
        RingSpec(["a-b"])


def test_zero_coefficients_never_stored():
    p = poly("x - x + y", R2)
    assert list(p.terms.values()) == [Fraction(1)]
    assert (p - p).is_zero()
    assert Polynomial(R2, {(1, 0): Fraction(0)}).is_zero()


def test_partial_derivative_examples():
    p = poly("x^2 + x*y", R2)
    assert p.derivative(0) == poly("2*x + y", R2)
    assert poly("x^2", R3).derivative(2).is_zero()
    assert poly("x^5", R2).derivative(0) == poly("5*x^4", R2)


def test_mixed_ring_arithmetic_rejected():
    with pytest.raises(ValueError):
        poly("x", R2) + poly("x", R3)


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
monos2 = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys2 = st.dictionaries(monos2, coeffs, max_size=5).map(lambda d: Polynomial(R2, d))


@given(polys2, polys2, polys2)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys2, polys2)
def test_subtraction_is_exact(p, q):
    assert (p + q) - q == p


@given(polys2)
def test_derivative_is_linear_and_leibniz(p):
    q = poly("x^2 + 3*y", R2)
    assert (p + q).derivative(0) == p.derivative(0) + q.derivative(0)
    assert (p * q).derivative(1) == p.derivative(1) * q + p * q.derivative(1)


@given(polys2)
def test_print_parse_round_trip(p):
    assert parse_polynomial(str(p), R2) == p
