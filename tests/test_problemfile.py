"""Problem-file parsing: format, defaults, and positioned errors."""

import pytest

from germlab import ParseError, parse_problem_file

from germs import poly

SPHERE = """\
[ring]
variables = x, y, z, w
[variety]
g1 = x^2 + y^2 + z^2 + w^2
[function]
f = x
[options]
seed = 42
"""


def test_normative_example():
    problem = parse_problem_file(SPHERE)
    assert problem.ring.variables == ("x", "y", "z", "w")
    assert not problem.ambient
    assert len(problem.generators) == 1
    assert problem.function == poly("x", problem.ring)
    assert problem.seed == 42


def test_defaults_and_ambient():
    problem = parse_problem_file("[ring]\nvariables = x, y\n[variety]\nambient\n")
    assert problem.ambient
    assert problem.generators == ()
    assert problem.function is None
    assert problem.seed == 42


def test_generator_order_preserved():
    text = "[ring]\nvariables = x, y, z\n[variety]\na = x\nb = y\nc = z\n"
    problem = parse_problem_file(text)
    assert [str(g) for g in problem.generators] == ["x", "y", "z"]


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("[variety]\ng = x\n", "missing [ring]", 1),
        ("[ring]\nvariables = x\n", "missing [variety]", 1),
        ("[ring]\nvariables = x\n[ring]\nvariables = y\n", "duplicate section", 3),
        ("[ring]\nvariables = x, x\n[variety]\ng = x\n", "distinct", 2),
        ("[ring]\nvariables = x\n[variety]\n", "empty", 3),
        ("[ring]\n[variety]\ng = x\n", "needs a 'variables' entry", 1),
        ("[variety]\ng = x\n\n[ring]\n", "needs a 'variables' entry", 4),
        ("[ring]\nvariables = x\n[variety]\ng = x\n[function]\n", "needs an 'f' entry", 5),
        ("[ring]\nvariables = x\n[variety]\nambient\ng = x\n", "ambient", 5),
        ("[ring]\nvariables = x\n[variety]\ng = y\n", "unknown variable", 4),
        ("[ring]\nvariables = x\n[variety]\ng = x - x\n", "zero", 4),
        ("[ring]\nvariables = x\n[variety]\ng = x + 1\n", "vanish", 4),
        ("[ring]\nvariables = x\n[variety]\ng = x\n[options]\nseed = soon\n", "integer", 6),
        ("[ring]\nvariables = x\n[variety]\ng = x\n[options]\ncolor = red\n", "unknown option", 6),
        ("[junk]\n", "unknown section", 1),
        ("stray\n[ring]\n", "before the first section", 1),
        ("[ring]\nvariables = x\n[variety]\ng1 = x\ng1 = x^2\n", "duplicate generator", 5),
        ("[ring]\nvariables = x\n[variety]\ng = x\n[function]\ng = x\n", "expected 'f'", 6),
    ],
)
def test_errors_carry_position(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_problem_file(text)
    assert fragment in str(err.value)
    assert err.value.line == line


@pytest.mark.parametrize("value", ["\u0664_2", "\u0664\u0662", "4_2", "\uff14\uff12", "+42"])
def test_seed_takes_only_ascii_digits(value):
    text = f"[ring]\nvariables = x\n[variety]\ng = x\n[options]\nseed = {value}\n"
    with pytest.raises(ParseError) as err:
        parse_problem_file(text)
    assert f"seed must be an integer, got {value!r}" in str(err.value)
    assert (err.value.line, err.value.column) == (6, 8)


def test_negative_seed():
    text = "[ring]\nvariables = x\n[variety]\ng = x\n[options]\nseed = -7\n"
    assert parse_problem_file(text).seed == -7


def test_windows_line_endings():
    text = "[ring]\r\nvariables = x, y\r\n[variety]\r\ng1 = x*y\r\n"
    problem = parse_problem_file(text)
    assert [str(g) for g in problem.generators] == ["x*y"]


def test_expression_error_column_is_file_relative():
    text = "[ring]\nvariables = x, y\n[variety]\ngen =   x + q\n"
    with pytest.raises(ParseError) as err:
        parse_problem_file(text)
    assert err.value.line == 4
    # 'q' sits at column 13 of the raw line
    assert err.value.column == 13
