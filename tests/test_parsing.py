"""Grammar conformance and error reporting of the expression parser."""

from fractions import Fraction

import pytest

from germlab import ParseError, parse_polynomial

from germs import R2, R3, poly


def test_basic_expressions():
    p = parse_polynomial("x^2+y^2+z^2", R3)
    assert len(p.terms) == 3
    assert all(c == 1 for c in p.terms.values())

    q = parse_polynomial("2/3*x*y - y^3", R2)
    assert q.terms[(1, 1)] == Fraction(2, 3)
    assert q.terms[(0, 3)] == Fraction(-1)


def test_whitespace_and_parentheses():
    assert parse_polynomial(" ( x + y ) * ( x - y ) ", R2) == poly("x^2 - y^2", R2)
    assert parse_polynomial("-(x+y)*z", R3) == poly("-x*z - y*z", R3)
    assert parse_polynomial("x^0", R2) == poly("1", R2)
    assert parse_polynomial("0", R2).is_zero()


def test_unary_minus_binds_to_factor():
    assert parse_polynomial("-x^2", R2) == -poly("x^2", R2)
    assert parse_polynomial("3 - -2", R2) == poly("5", R2)


def test_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable 'w'"):
        parse_polynomial("x + w", R3)


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError, match="implicit multiplication"):
        parse_polynomial("2x", R2)


def test_division_outside_rational_literal():
    for text in ("x/2", "(x+y)/3", "x^2/3"):
        with pytest.raises(ParseError, match="rational literal"):
            parse_polynomial(text, R2)
    assert parse_polynomial("2/4", R2) == poly("1/2", R2)


def test_malformed_exponent():
    with pytest.raises(ParseError, match="exponent"):
        parse_polynomial("x^-2", R2)
    with pytest.raises(ParseError, match="exponent"):
        parse_polynomial("x^y", R2)
    with pytest.raises(ParseError):
        parse_polynomial("x^(2)", R2)


def test_empty_input():
    with pytest.raises(ParseError, match="empty input"):
        parse_polynomial("", R2)
    with pytest.raises(ParseError, match="empty input"):
        parse_polynomial("   ", R2)


def test_zero_denominator():
    with pytest.raises(ParseError, match="denominator"):
        parse_polynomial("1/0", R2)


def test_error_positions():
    try:
        parse_polynomial("x + w", R3)
    except ParseError as err:
        assert (err.line, err.column) == (1, 5)
    try:
        parse_polynomial("x +\n q^2", R2)
    except ParseError as err:
        assert err.line == 2
        assert err.column == 2


def test_number_power_is_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("2^3", R2)


@pytest.mark.parametrize("text, column", [("x^²", 3), ("2*²", 3), ("x + ٣", 5), ("xé", 2)])
def test_only_ascii_digits_and_identifier_characters(text, column):
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse_polynomial(text, R2)
    assert (info.value.line, info.value.column) == (1, column)
