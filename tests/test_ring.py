"""Polynomial arithmetic, ring validation and derivatives."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from germlab import ModuleElement, Polynomial, RingSpec, Submodule, parse_polynomial, standard_basis
from germlab.ring import restrict_to_hyperplane

from germs import R2, R3, R4, poly


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


def test_module_elements_validate_like_polynomials():
    one = (0, (0, 0))
    for bad in (0.1, "1/3"):
        with pytest.raises(TypeError):
            Polynomial(R2, {(0, 0): bad})
        with pytest.raises(TypeError):
            ModuleElement(R2, 1, {one: bad})
    for mono in ((1,), (1, 0, 0), (-1, 0)):
        with pytest.raises(ValueError):
            Polynomial(R2, {mono: 1})
        with pytest.raises(ValueError):
            ModuleElement(R2, 1, {(0, mono): 1})
    e = ModuleElement.unit_vector(R2, 2, 1)
    with pytest.raises(TypeError):
        e * 0.5
    assert e * Fraction(1, 2) == ModuleElement(R2, 2, {(1, (0, 0)): Fraction(1, 2)})
    assert 3 * e == ModuleElement(R2, 2, {(1, (0, 0)): 3})


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


monos3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys3 = st.dictionaries(monos3, coeffs, max_size=5).map(lambda d: Polynomial(R3, d))
linear3 = (
    st.lists(st.integers(-4, 4), min_size=3, max_size=3)
    .filter(any)
    .map(lambda cs: sum((c * Polynomial.variable(R3, i) for i, c in enumerate(cs)),
                        Polynomial.zero(R3)))
)


@given(polys3, linear3)
def test_restriction_agrees_modulo_the_linear_form(g, h):
    (image,) = restrict_to_hyperplane([g], h)
    j = max(i for i in range(R3.n) if h.derivative(i))  # the last variable h involves
    assert image.ring.variables == R3.variables[:j] + R3.variables[j + 1 :]
    lift = Polynomial(R3, {m[:j] + (0,) + m[j:]: c for m, c in image.terms.items()})
    assert standard_basis(Submodule.ideal(R3, [h])).contains(
        ModuleElement.from_polynomials([g - lift])
    )


def test_restriction_to_a_coordinate_hyperplane_drops_its_terms():
    g = poly("x^2 + y*w + z^3 - w^4", R4)
    (image,) = restrict_to_hyperplane([g], poly("-2*w", R4))
    assert image == poly("x^2 + z^3", RingSpec(["x", "y", "z"]))
    with pytest.raises(ValueError):
        restrict_to_hyperplane([g], poly("x + y^2", R4))
