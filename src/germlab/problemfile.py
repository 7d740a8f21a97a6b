"""Sectioned plain-text problem files describing a germ computation.

    [ring]
    variables = x, y, z, w
    [variety]
    g1 = x^2 + y^2 + z^2 + w^2
    [function]
    f = x
    [options]
    seed = 42

The variety section may instead contain the single token `ambient` for
X = C^n.  Sections must be unique, [ring] and [variety] are required, and
every expression must parse in the declared ring.  All reported errors
carry the 1-based line and column in the original file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .parsing import parse_polynomial
from .ring import Polynomial, RingSpec

_SECTIONS = ("ring", "variety", "function", "options")
DEFAULT_SEED = 42

# An integer option, in ASCII digits: int() alone also takes other Unicode
# digits and underscores.
INTEGER = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem file: ring, variety generators, optional function."""

    ring: RingSpec
    generators: tuple[Polynomial, ...]
    ambient: bool
    function: Polynomial | None
    seed: int


def _split_entry(line: str, line_no: int) -> tuple[str, str, int]:
    """Split `key = value`, returning the 1-based column where value starts."""
    eq = line.find("=")
    if eq < 0:
        raise ParseError("expected 'key = value'", line_no, 1)
    key = line[:eq].strip()
    if not key:
        raise ParseError("missing key before '='", line_no, 1)
    rest = line[eq + 1 :]
    stripped = rest.lstrip()
    if not stripped.rstrip():
        raise ParseError(f"missing value for {key!r}", line_no, eq + 2)
    value_col = eq + 2 + (len(rest) - len(stripped))
    return key, stripped.rstrip(), value_col


def _parse_expression(text: str, ring: RingSpec, line_no: int, col: int) -> Polynomial:
    try:
        return parse_polynomial(text, ring)
    except ParseError as err:
        # Expressions are single-line; shift the column into the file.
        raise ParseError(str(err), line_no, col + err.column - 1) from None


def parse_problem_file(text: str) -> ProblemFile:
    """Parse a problem file; raise ParseError with line/column on bad input."""
    sections: dict[str, list[tuple[int, str]]] = {}
    headers: dict[str, int] = {}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", line_no, 1)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", line_no, 1)
            sections[name] = []
            headers[name] = line_no
            current = name
            continue
        if current is None:
            raise ParseError("content before the first section header", line_no, 1)
        sections[current].append((line_no, raw))
    if "ring" not in sections:
        raise ParseError("missing [ring] section", 1, 1)
    if "variety" not in sections:
        raise ParseError("missing [variety] section", 1, 1)

    ring = _parse_ring_section(sections["ring"], headers["ring"])
    generators, ambient = _parse_variety_section(sections["variety"], headers["variety"], ring)
    function = _parse_function_section(sections.get("function"), headers.get("function"), ring)
    seed = _parse_options_section(sections.get("options"))
    return ProblemFile(ring, tuple(generators), ambient, function, seed)


def _parse_ring_section(entries, header: int) -> RingSpec:
    variables = None
    for line_no, raw in entries:
        key, value, col = _split_entry(raw, line_no)
        if key != "variables":
            raise ParseError(f"unknown ring key {key!r}", line_no, 1)
        if variables is not None:
            raise ParseError("duplicate 'variables' entry", line_no, 1)
        names = [part.strip() for part in value.split(",")]
        try:
            variables = RingSpec(names)
        except ValueError as err:
            raise ParseError(str(err), line_no, col) from None
    if variables is None:
        raise ParseError("the [ring] section needs a 'variables' entry", header, 1)
    return variables


def _parse_variety_section(entries, header: int, ring: RingSpec):
    if not entries:
        raise ParseError("the [variety] section is empty", header, 1)
    first_no, first_raw = entries[0]
    if first_raw.strip() == "ambient":
        if len(entries) > 1:
            extra_no = entries[1][0]
            raise ParseError("'ambient' excludes other variety entries", extra_no, 1)
        return [], True
    generators = []
    seen_keys = set()
    for line_no, raw in entries:
        key, value, col = _split_entry(raw, line_no)
        if key in seen_keys:
            raise ParseError(f"duplicate generator key {key!r}", line_no, 1)
        seen_keys.add(key)
        poly = _parse_expression(value, ring, line_no, col)
        if poly.is_zero():
            raise ParseError(f"generator {key!r} is zero", line_no, col)
        if poly.constant_term():
            raise ParseError(f"generator {key!r} does not vanish at the origin", line_no, col)
        generators.append(poly)
    return generators, False


def _parse_function_section(entries, header: int | None, ring: RingSpec) -> Polynomial | None:
    if entries is None:
        return None
    function = None
    for line_no, raw in entries:
        key, value, col = _split_entry(raw, line_no)
        if key != "f":
            raise ParseError(f"unknown function key {key!r} (expected 'f')", line_no, 1)
        if function is not None:
            raise ParseError("duplicate 'f' entry", line_no, 1)
        function = _parse_expression(value, ring, line_no, col)
        if function.is_zero():
            raise ParseError("the function is zero", line_no, col)
        if function.constant_term():
            raise ParseError("the function does not vanish at the origin", line_no, col)
    if function is None:
        raise ParseError("the [function] section needs an 'f' entry", header, 1)
    return function


def _parse_options_section(entries) -> int:
    if entries is None:
        return DEFAULT_SEED
    seed = DEFAULT_SEED
    seen = set()
    for line_no, raw in entries:
        key, value, col = _split_entry(raw, line_no)
        if key in seen:
            raise ParseError(f"duplicate option {key!r}", line_no, 1)
        seen.add(key)
        if key == "seed":
            if not INTEGER.fullmatch(value):
                raise ParseError(f"seed must be an integer, got {value!r}", line_no, col)
            seed = int(value)
        else:
            raise ParseError(f"unknown option {key!r}", line_no, 1)
    return seed
