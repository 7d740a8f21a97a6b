"""Exact sparse multivariate polynomial arithmetic over the rationals.

A monomial is a dense exponent tuple with one non-negative entry per ring
variable.  A polynomial is a dict mapping monomials to nonzero Fraction
coefficients; the zero polynomial is the empty dict.  All arithmetic is
exact, so two polynomials are equal iff their dicts are equal.

Polynomials stand in for germs of holomorphic functions at the origin:
every quantity computed downstream (colengths, dimensions) only depends on
the local ring they generate.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping

Monomial = tuple[int, ...]

_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Quotient a/b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


class RingSpec:
    """Ordered variable list of a local polynomial ring over Q.

    The coefficient field is always the rationals (characteristic 0); the
    ring is read as the localization at the origin, so units are exactly
    the elements with nonzero constant term.
    """

    __slots__ = ("variables",)

    def __init__(self, variables: Iterable[str]):
        names = tuple(variables)
        if not names:
            raise ValueError("a ring needs at least one variable")
        for name in names:
            if not _IDENTIFIER.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.variables = names

    @property
    def n(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def zero_monomial(self) -> Monomial:
        return (0,) * len(self.variables)

    def __eq__(self, other) -> bool:
        return isinstance(other, RingSpec) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"RingSpec({', '.join(self.variables)})"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be rational, got {type(value).__name__}")


class Polynomial:
    """A polynomial with exact rational coefficients in a fixed ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: Mapping[Monomial, Fraction] | None = None):
        self.ring = ring
        clean: dict[Monomial, Fraction] = {}
        if terms:
            n = ring.n
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != n or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono!r} for {ring!r}")
                coeff = _as_fraction(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: RingSpec) -> Polynomial:
        return cls(ring)

    @classmethod
    def constant(cls, ring: RingSpec, value) -> Polynomial:
        return cls(ring, {ring.zero_monomial(): _as_fraction(value)})

    @classmethod
    def variable(cls, ring: RingSpec, index: int) -> Polynomial:
        mono = [0] * ring.n
        mono[index] = 1
        return cls(ring, {tuple(mono): Fraction(1)})

    @classmethod
    def term(cls, ring: RingSpec, mono: Monomial, coeff) -> Polynomial:
        return cls(ring, {tuple(mono): _as_fraction(coeff)})

    @classmethod
    def _raw(cls, ring: RingSpec, terms: dict[Monomial, Fraction]) -> Polynomial:
        """Wrap an already-normalized term dict without copying."""
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get(self.ring.zero_monomial(), Fraction(0))

    def degree(self) -> int:
        """Total degree (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def monomials(self) -> list[Monomial]:
        return list(self.terms)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        return Polynomial.constant(self.ring, other)

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            val = out.get(mono, 0) + coeff
            if val:
                out[mono] = val
            else:
                out.pop(mono, None)
        return Polynomial._raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> Polynomial:
        return (-self) + other

    def __mul__(self, other) -> Polynomial:
        if not isinstance(other, Polynomial):
            coeff = _as_fraction(other)
            if not coeff:
                return Polynomial.zero(self.ring)
            return Polynomial._raw(self.ring, {m: c * coeff for m, c in self.terms.items()})
        if other.ring != self.ring:
            raise ValueError("mixed rings")
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                key = mono_mul(ma, mb)
                val = out.get(key, 0) + ca * cb
                if val:
                    out[key] = val
                else:
                    del out[key]
        return Polynomial._raw(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.ring, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self, index: int) -> Polynomial:
        """Exact formal partial derivative with respect to variable `index`."""
        if not 0 <= index < self.ring.n:
            raise IndexError(f"variable index {index} out of range")
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e:
                lowered = list(mono)
                lowered[index] = e - 1
                out[tuple(lowered)] = coeff * e
        return Polynomial._raw(self.ring, out)

    # -- identity -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{format_polynomial(self)}>"


def gradient(p: Polynomial) -> list[Polynomial]:
    """All first partial derivatives of p, in variable order."""
    return [p.derivative(i) for i in range(p.ring.n)]


def restrict_to_hyperplane(polys: Iterable[Polynomial], h: Polynomial) -> tuple[Polynomial, ...]:
    """Images of polys on the hyperplane {h = 0} of a linear form h.

    The last variable x_j with a nonzero coefficient c_j in h is eliminated
    by x_j = -sum_{i != j} (c_i/c_j) x_i, so the images live in the ring
    with x_j removed from the variable list, and each image, read back in
    the original ring, is congruent to its polynomial modulo (h).
    """
    ring = h.ring
    if h.constant_term() or h.degree() != 1:
        raise ValueError(f"not a linear form: {h}")
    j = max(mono.index(1) for mono in h.terms)
    c_j = next(c for mono, c in h.terms.items() if mono[j])
    sub_ring = RingSpec(ring.variables[:j] + ring.variables[j + 1 :])

    def drop(mono: Monomial) -> Monomial:
        return mono[:j] + mono[j + 1 :]

    x_j = Polynomial._raw(
        sub_ring, {drop(mono): -c / c_j for mono, c in h.terms.items() if not mono[j]}
    )
    powers = [Polynomial.constant(sub_ring, 1)]
    images = []
    for p in polys:
        if p.ring != ring:
            raise ValueError("mixed rings")
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in p.terms.items():
            e = mono[j]
            while len(powers) <= e:
                powers.append(powers[-1] * x_j)
            rest = drop(mono)
            for m, c in powers[e].terms.items():
                key = mono_mul(rest, m)
                out[key] = out.get(key, 0) + coeff * c
        images.append(Polynomial(sub_ring, out))
    return tuple(images)


def negdegrevlex_key(mono: Monomial):
    """Sort key realizing the local degree order: larger key = larger monomial.

    A monomial beats another iff it has smaller total degree, or equal
    degree and the rightmost entry where the exponents differ is smaller.
    In particular 1 beats every variable, as a local order requires.
    """
    return (-sum(mono),) + tuple(-e for e in reversed(mono))


def _format_monomial(ring: RingSpec, mono: Monomial) -> str:
    parts = []
    for name, e in zip(ring.variables, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    """Render p so that parsing the result gives back p exactly."""
    if not p.terms:
        return "0"
    pieces = []
    for mono in sorted(p.terms, key=negdegrevlex_key, reverse=True):
        coeff = p.terms[mono]
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        body = _format_monomial(p.ring, mono)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text
