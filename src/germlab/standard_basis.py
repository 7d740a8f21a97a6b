"""Weak normal forms and standard bases over local orderings.

Elements of a free module O^m are stored as dicts mapping (component,
monomial) pairs to nonzero Fraction coefficients.  Division is Mora's
variant: a reduction may recruit an earlier partial remainder as a new
reducer when every divisor of the lead term has larger ecart, which is
exactly what makes the loop terminate for local orders.  The price is that
the quotient identity holds only up to a unit u with u(0) != 0:

    u * f  =  sum_i q_i * g_i  +  remainder.

The reduction loop tracks nothing but the remainder.  `mora_normal_form`
reads u and the q_i off one normal form in a graph module, where they are
components of the remainder itself, so callers can re-check the identity
exactly.

Colength and Krull dimension are read off the lead-term module of a
standard basis: the monomials (with component) outside it form a vector
space basis of the quotient.

The kernel has two settings.  `standard_basis(module, block=...)` picks
the module order (`orders.term_key`): term-over-position by default,
block-eliminating for syzygies.  `step_cap(limit)` bounds the reduction
steps of every standard-basis run and normal form started inside it; the
cap is held in a context variable, so leaving the scope restores the
previous one.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import ReductionLimitExceeded
from .orders import term_key
from .ring import (
    Monomial,
    Polynomial,
    RingSpec,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_MAX_STEPS = 1_000_000

_ONE = Fraction(1)

_STEP_CAP: ContextVar[int] = ContextVar("step_cap", default=DEFAULT_MAX_STEPS)


@contextmanager
def step_cap(limit: int):
    """Cap the reduction steps of each standard-basis run or normal form
    started inside the `with` block; the previous cap returns on exit."""
    token = _STEP_CAP.set(limit)
    try:
        yield
    finally:
        _STEP_CAP.reset(token)


class _InfiniteColength:
    """Singleton marker for an infinite vector-space dimension."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _InfiniteColength()


def is_finite(value) -> bool:
    """True for an int colength, False for the INFINITE marker."""
    return value is not INFINITE


Term = tuple[int, Monomial]
Vec = dict[Term, Fraction]


class ModuleElement:
    """An element of a free module O^m with exact rational coefficients."""

    __slots__ = ("ring", "rank", "terms")

    def __init__(self, ring: RingSpec, rank: int, terms: Vec | None = None):
        if rank < 1:
            raise ValueError("module rank must be at least 1")
        self.ring = ring
        self.rank = rank
        clean: Vec = {}
        if terms:
            for (comp, mono), coeff in terms.items():
                if not 0 <= comp < rank:
                    raise ValueError(f"component {comp} out of range for rank {rank}")
                if coeff:
                    clean[(comp, tuple(mono))] = Fraction(coeff)
        self.terms = clean

    @classmethod
    def _raw(cls, ring: RingSpec, rank: int, terms: Vec) -> ModuleElement:
        el = object.__new__(cls)
        el.ring = ring
        el.rank = rank
        el.terms = terms
        return el

    @classmethod
    def from_polynomials(cls, polys: Sequence[Polynomial]) -> ModuleElement:
        if not polys:
            raise ValueError("need at least one component")
        ring = polys[0].ring
        terms: Vec = {}
        for comp, p in enumerate(polys):
            if p.ring != ring:
                raise ValueError("mixed rings")
            for mono, coeff in p.terms.items():
                terms[(comp, mono)] = coeff
        return cls._raw(ring, len(polys), terms)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> ModuleElement:
        return cls.from_polynomials([p])

    @classmethod
    def unit_vector(cls, ring: RingSpec, rank: int, component: int) -> ModuleElement:
        zero = ring.zero_monomial()
        return cls(ring, rank, {(component, zero): _ONE})

    @classmethod
    def zero(cls, ring: RingSpec, rank: int) -> ModuleElement:
        return cls(ring, rank)

    def component(self, index: int) -> Polynomial:
        out = {m: c for (comp, m), c in self.terms.items() if comp == index}
        return Polynomial._raw(self.ring, out)

    @property
    def components(self) -> tuple[Polynomial, ...]:
        split: list[dict] = [dict() for _ in range(self.rank)]
        for (comp, mono), coeff in self.terms.items():
            split[comp][mono] = coeff
        return tuple(Polynomial._raw(self.ring, d) for d in split)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: ModuleElement) -> ModuleElement:
        self._check(other)
        out = dict(self.terms)
        _vec_axpy(out, other.terms, self.ring.zero_monomial(), _ONE)
        return ModuleElement._raw(self.ring, self.rank, out)

    def __sub__(self, other: ModuleElement) -> ModuleElement:
        return self + (-other)

    def __neg__(self) -> ModuleElement:
        return ModuleElement._raw(
            self.ring, self.rank, {k: -c for k, c in self.terms.items()}
        )

    def __mul__(self, scalar) -> ModuleElement:
        """Multiply by a Polynomial or a rational scalar."""
        if isinstance(scalar, Polynomial):
            if scalar.ring != self.ring:
                raise ValueError("mixed rings")
            out: Vec = {}
            for smono, scoeff in scalar.terms.items():
                _vec_axpy(out, self.terms, smono, scoeff)
            return ModuleElement._raw(self.ring, self.rank, out)
        factor = Fraction(scalar)
        if not factor:
            return ModuleElement.zero(self.ring, self.rank)
        return ModuleElement._raw(
            self.ring, self.rank, {k: c * factor for k, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def _check(self, other: ModuleElement):
        if self.ring != other.ring or self.rank != other.rank:
            raise ValueError("module elements live in different modules")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleElement)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.rank, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self) -> str:
        return f"<{self}>"


class Submodule:
    """A finitely generated submodule of O^m given by a generator list."""

    __slots__ = ("ring", "rank", "generators")

    def __init__(self, ring: RingSpec, rank: int, generators: Iterable[ModuleElement] = ()):
        self.ring = ring
        self.rank = rank
        gens = []
        for g in generators:
            if g.ring != ring or g.rank != rank:
                raise ValueError("generator does not live in the ambient module")
            if g.terms:
                gens.append(g)
        self.generators = tuple(gens)

    @classmethod
    def ideal(cls, ring: RingSpec, polys: Iterable[Polynomial]) -> Submodule:
        return cls(
            ring, 1, [ModuleElement.from_polynomial(p) for p in polys if not p.is_zero()]
        )

    @classmethod
    def zero(cls, ring: RingSpec, rank: int) -> Submodule:
        return cls(ring, rank)

    @classmethod
    def full(cls, ring: RingSpec, rank: int) -> Submodule:
        return cls(ring, rank, [ModuleElement.unit_vector(ring, rank, i) for i in range(rank)])

    def is_zero(self) -> bool:
        return not self.generators

    def polynomials(self) -> tuple[Polynomial, ...]:
        if self.rank != 1:
            raise ValueError("polynomials() is only defined for ideals")
        return tuple(g.component(0) for g in self.generators)

    def __repr__(self) -> str:
        return f"Submodule(rank={self.rank}, generators={len(self.generators)})"


class _Budget:
    """Reduction-step counter of one run, capped by the current `step_cap`.

    `where` names the run in the error, e.g. "in a standard basis of rank
    2 with 7 generators".
    """

    __slots__ = ("remaining", "total", "where")

    def __init__(self, where: str):
        self.remaining = self.total = _STEP_CAP.get()
        self.where = where

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise ReductionLimitExceeded(
                f"aborted after {self.total} reduction steps {self.where}; "
                "raise the step cap if the input is legitimately this large"
            )


class _Entry:
    """A reducer: a basis/generator element or a recruited remainder,
    stored content-normalized (coprime integer coefficients)."""

    __slots__ = ("vec", "lt", "lc", "ecart")

    def __init__(self, vec, lt, lc, ecart):
        self.vec = vec
        self.lt = lt
        self.lc = lc
        self.ecart = ecart


def _vec_axpy(target: Vec, source: Vec, shift: Monomial, factor: Fraction,
              bound: int | None = None):
    """target += factor * x^shift * source, in place.

    With `bound`, every product term of total degree >= bound is discarded.
    Discarded terms lie in m^bound, so this is exact arithmetic on
    representatives modulo m^bound.
    """
    room = None if bound is None else bound - sum(shift)
    for (comp, mono), coeff in source.items():
        if room is not None and sum(mono) >= room:
            continue
        key = (comp, mono_mul(mono, shift))
        val = target.get(key, 0) + factor * coeff
        if val:
            target[key] = val
        else:
            del target[key]


def _lead_and_maxdeg(vec: Vec, keyf):
    best_term = None
    best_key = None
    maxdeg = 0
    for term in vec:
        k = keyf(term)
        if best_key is None or k > best_key:
            best_key, best_term = k, term
        d = sum(term[1])
        if d > maxdeg:
            maxdeg = d
    return best_term, maxdeg


def _content(vec: Vec) -> Fraction:
    """Positive rational c such that vec/c has coprime integer coefficients."""
    num_gcd = 0
    den_lcm = 1
    for coeff in vec.values():
        num_gcd = gcd(num_gcd, coeff.numerator)
        den_lcm = den_lcm // gcd(den_lcm, coeff.denominator) * coeff.denominator
    return Fraction(num_gcd, den_lcm)


def _normalize(vec: Vec):
    """Divide a nonzero vec by its content in place.

    Keeping every working remainder primitive is what prevents the
    geometric coefficient swell of naive rational division chains (the
    primitive-remainder-sequence idea).  No scalar is carried: a weak
    normal form is only defined up to a unit, and the certificate of
    `mora_normal_form` is part of the vector being scaled.
    """
    c = _content(vec)
    if c != 1:
        inv = 1 / c
        for key in vec:
            vec[key] *= inv


def _make_entry(vec: Vec, keyf) -> _Entry:
    vec = dict(vec)
    _normalize(vec)
    lt, maxdeg = _lead_and_maxdeg(vec, keyf)
    return _Entry(vec, lt, vec[lt], maxdeg - sum(lt[1]))


def _mora_nf(f_vec: Vec, entries: list[_Entry], keyf, budget: _Budget,
             bound: int | None = None) -> Vec:
    """Mora weak normal form of f_vec against `entries`.

    The remainder is content-normalized, which is harmless since a weak
    normal form is only defined up to units anyway.  `bound` works modulo
    m^bound as in _vec_axpy.
    """
    h: Vec = dict(f_vec)
    reducers = list(entries)
    while h:
        _normalize(h)
        lt_h, maxdeg_h = _lead_and_maxdeg(h, keyf)
        comp_h, mono_h = lt_h
        chosen = None
        for e in reducers:
            if e.lt[0] == comp_h and mono_divides(e.lt[1], mono_h):
                if chosen is None or e.ecart < chosen.ecart:
                    chosen = e
        if chosen is None:
            break
        budget.spend()
        ecart_h = maxdeg_h - sum(mono_h)
        if chosen.ecart > ecart_h:
            # Recruit the current remainder; the lead of h strictly
            # decreases from here on.
            reducers.append(_Entry(dict(h), lt_h, h[lt_h], ecart_h))
        shift = mono_div(mono_h, chosen.lt[1])
        _vec_axpy(h, chosen.vec, shift, -h[lt_h] / chosen.lc, bound)
    return h


class MoraCertificate:
    """Unit and quotients witnessing a weak normal form.

    For input f, generators g_1..g_s and remainder r the certificate
    satisfies unit*f = sum_i quotients[i]*g_i + r with unit(0) != 0.
    """

    __slots__ = ("unit", "quotients")

    def __init__(self, unit: Polynomial, quotients: tuple[Polynomial, ...]):
        self.unit = unit
        self.quotients = quotients

    def verify(self, f: ModuleElement, gens: Sequence[ModuleElement], remainder: ModuleElement) -> bool:
        if not self.unit.constant_term():
            return False
        acc = f * self.unit - remainder
        for q, g in zip(self.quotients, gens):
            acc = acc - g * q
        return acc.is_zero()

    def __repr__(self) -> str:
        return f"MoraCertificate(unit={self.unit!r})"


def mora_normal_form(
    f: ModuleElement, gens: Sequence[ModuleElement]
) -> tuple[ModuleElement, MoraCertificate]:
    """Weak normal form of f against gens, with its unit certificate.

    No lead term of the remainder is divisible by a lead term of gens in
    the matching component (term-over-position order).

    The certificate is read off one normal form in the graph module
    O^(rank+1+s), s = len(gens): f becomes F = (f | 1 | 0) and each
    nonzero g_i becomes G_i = (g_i | 0 | e_i), under `term_key(rank)`,
    which eliminates the first block and orders it term-over-position.
    Every working vector is an O-combination u*F - sum_i q_i*G_i, that is
    (u*f - sum_i q_i*g_i | u | -q).  While the first block is nonzero it
    holds the lead, so each step reduces it against gens (the ecart counts
    the whole vector), and the loop stops there when no lead of gens
    divides it.  Once the block is zero the lead is a tag term, which no
    reducer lead matches (every reducer has its lead in the first block),
    so the loop stops as well.  Either way it ends at (r | u | -q) with
    u*f = sum_i q_i*g_i + r.

    u(0) != 0: u starts at 1 and the G_i have no u-part, so only recruits
    change u.  A recruit is a snapshot of the working vector when its
    lead was L; it reduces only a later lead L', which is strictly
    smaller than L (each step cancels the lead) and divisible by it, so
    it is used times the monomial L'/L of positive degree and leaves u(0)
    unchanged.  Content normalization only rescales u(0).
    """
    ring, rank, s = f.ring, f.rank, len(gens)
    for g in gens:
        if g.ring != ring or g.rank != rank:
            raise ValueError("generators live in different modules")
    zero = ring.zero_monomial()
    keyf = term_key(rank)
    entries = [
        _make_entry({**g.terms, (rank + 1 + i, zero): _ONE}, keyf)
        for i, g in enumerate(gens) if g.terms
    ]
    budget = _Budget(f"in a normal form of rank {rank} against {s} generators")
    graph = _mora_nf({**f.terms, (rank, zero): _ONE}, entries, keyf, budget)
    comps = ModuleElement._raw(ring, rank + 1 + s, graph).components
    certificate = MoraCertificate(comps[rank], tuple(-q for q in comps[rank + 1:]))
    return ModuleElement.from_polynomials(comps[:rank]), certificate


class StandardBasis:
    """A standard basis of a submodule under a fixed module order.

    `key` is the order's term key (`orders.term_key`).  Every input
    generator reduces to zero against `elements`, and the S-element of
    every critical pair of `elements` does as well.  A basis computed
    with `truncated_at=D` is one of module + m^D * O^rank and refuses
    membership queries.
    """

    __slots__ = ("ambient", "key", "elements", "lead_terms", "truncated_at", "_entries")

    def __init__(self, ambient, key, elements, lead_terms, truncated_at=None):
        self.ambient = ambient
        self.key = key
        self.elements = tuple(elements)
        self.lead_terms = tuple(lead_terms)
        self.truncated_at = truncated_at
        self._entries = None

    def _reducer_entries(self) -> list[_Entry]:
        if self._entries is None:
            self._entries = [_make_entry(e.terms, self.key) for e in self.elements]
        return self._entries

    def normal_form(self, f: ModuleElement) -> ModuleElement:
        """Weak normal form of f against the basis (no certificate)."""
        if self.truncated_at is not None:
            raise ValueError("membership needs an untruncated standard basis")
        if f.ring != self.ambient.ring or f.rank != self.ambient.rank:
            raise ValueError("element does not live in the ambient module")
        entries = self._reducer_entries()
        budget = _Budget(
            f"in a normal form of rank {f.rank} against a standard basis of "
            f"{len(entries)} elements"
        )
        return ModuleElement._raw(f.ring, f.rank, _mora_nf(f.terms, entries, self.key, budget))

    def contains(self, f: ModuleElement) -> bool:
        return self.normal_form(f).is_zero()

    def __repr__(self) -> str:
        return f"StandardBasis(rank={self.ambient.rank}, size={len(self.elements)})"


def standard_basis(
    module: Submodule, *, block: int = 0, truncate_degree: int | None = None
) -> StandardBasis:
    """Compute a standard basis of `module` by Mora's algorithm.

    The module order is `orders.term_key(block)`: term-over-position for
    `block=0`, otherwise block-eliminating with components 0 .. block-1
    as the leading block.

    Critical pairs are processed smallest lcm-degree first; reducers are
    chosen by minimal ecart with ties broken by list position.  The result
    is minimal: no lead term divides another, and every element is a
    primitive integer vector with positive lead coefficient.

    With `truncate_degree=D` all terms of degree >= D are discarded, i.e.
    the module M is replaced by M + m^D * O^rank.  That is only useful
    for colength counting (see local_colength); such bases refuse
    membership queries.  A truncated run with `block=0` also lowers its
    bound at Mora's highest corner: after each new lead term it reads the
    staircase of the lead module plus m^bound, and when that staircase
    tops out at a degree t with t + 2 <= bound, the rest of the run works
    modulo m^(t+1).  This is sound: every monomial of degree t+1 is then
    a lead term, and the order ranks terms by degree, so m^(t+1) lies in
    M + m^bound + m^(t+2) = M + m * m^(t+1), and Nakayama gives m^(t+1)
    inside M, hence M + m^bound = M + m^(t+1).  A block order can put
    trailing terms of lower degree behind a lead, so block runs keep
    their bound.  `truncated_at` records the bound the run ended at.
    Exact runs (`truncate_degree=None`) keep every term.
    """
    ring = module.ring
    keyf = term_key(block)
    where = (
        f"in a standard basis of rank {module.rank} with {len(module.generators)} generators"
    )
    if truncate_degree is not None:
        where += f", truncated at degree {truncate_degree}"
    budget = _Budget(where)
    bound = truncate_degree
    corner = _Corner(module.rank, ring.n) if bound is not None and block == 0 else None

    basis: list[_Entry] = []
    pairs: list[tuple[int, int, int]] = []

    def push(vec: Vec):
        nonlocal bound
        # store primitive integer vectors with positive lead coefficient
        _normalize(vec)
        lt, maxdeg = _lead_and_maxdeg(vec, keyf)
        if vec[lt] < 0:
            vec = {k: -c for k, c in vec.items()}
        idx = len(basis)
        basis.append(_Entry(vec, lt, vec[lt], maxdeg - sum(lt[1])))
        for other in range(idx):
            o_lt = basis[other].lt
            if o_lt[0] == lt[0]:
                lcm = mono_lcm(o_lt[1], lt[1])
                heapq.heappush(pairs, (sum(lcm), other, idx))
        if corner is not None:
            top = corner.add(lt, bound)
            if top is not None and top + 2 <= bound:
                bound = top + 1

    for g in module.generators:
        vec = {k: c for k, c in g.terms.items() if bound is None or sum(k[1]) < bound}
        if vec:
            push(vec)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        gi, gj = basis[i], basis[j]
        lcm = mono_lcm(gi.lt[1], gj.lt[1])
        s_vec: Vec = {}
        _vec_axpy(s_vec, gi.vec, mono_div(lcm, gi.lt[1]), gj.lc, bound)
        _vec_axpy(s_vec, gj.vec, mono_div(lcm, gj.lt[1]), -gi.lc, bound)
        if not s_vec:
            continue
        rem = _mora_nf(s_vec, basis, keyf, budget, bound)
        if rem:
            push(rem)

    # Minimalize: keep only elements whose lead term is not divisible by the
    # lead term of another kept element.  Processing by ascending lead degree
    # guarantees divisors are seen first.
    ordering = sorted(range(len(basis)), key=lambda t: keyf(basis[t].lt), reverse=True)
    kept: list[int] = []
    for t in ordering:
        lt = basis[t].lt
        if not any(
            basis[s].lt[0] == lt[0] and mono_divides(basis[s].lt[1], lt[1]) for s in kept
        ):
            kept.append(t)

    elements = [ModuleElement._raw(ring, module.rank, basis[t].vec) for t in kept]
    lead_terms = [basis[t].lt for t in kept]
    return StandardBasis(module, keyf, elements, lead_terms, truncated_at=bound)


def colength(basis: StandardBasis):
    """Number of monomials (with component) outside the lead-term module.

    Returns INFINITE iff some component misses a pure power of some
    variable among its lead terms, which is exactly when the quotient has
    infinite vector-space dimension.
    """
    n = basis.ambient.ring.n
    by_component: list[list[Monomial]] = [[] for _ in range(basis.ambient.rank)]
    for comp, mono in basis.lead_terms:
        by_component[comp].append(mono)
    total = 0
    for leads in by_component:
        if _missing_pure_powers(leads, n):
            return INFINITE
        total += sum(1 for _ in _standard_monomials(leads, n))
    return total


def _missing_pure_powers(leads: list[Monomial], n: int) -> set[int]:
    """Indices of the variables with no pure power among `leads`."""
    missing = set(range(n))
    for mono in leads:
        support = [i for i, e in enumerate(mono) if e]
        if len(support) <= 1:
            missing.difference_update(support or range(n))
    return missing


def _standard_monomials(leads: list[Monomial], n: int, cap: int | None = None):
    """Yield the degree of every monomial outside the leads, of degree
    below `cap` when one is given.

    The walk starts at 1 and reaches each monomial a from a - e_j, where j
    is the last nonzero index of a; since the staircase is closed under
    division, that finds all of it while testing at most n candidates per
    monomial yielded.  Without `cap` it ends only when the leads contain a
    pure power of every variable.
    """
    one = (0,) * n
    if cap == 0 or any(not any(l) for l in leads):
        return
    stack = [(one, 0, 0)]
    while stack:
        mono, last, deg = stack.pop()
        yield deg
        if cap is not None and deg + 1 >= cap:
            continue
        for j in range(last, n):
            cand = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
            if not any(mono_divides(l, cand) for l in leads):
                stack.append((cand, j, deg + 1))


class _Corner:
    """Top degree of the staircase of a growing lead module plus m^cap.

    This is the highest-corner certificate of a truncated run modulo
    m^cap: once every component's staircase tops out at a degree t with
    t + 2 <= cap, every monomial of degree t+1 is a lead term, so m^(t+1)
    lies in M + m^(t+2) and hence, by Nakayama, in M.  A component's
    staircase is walked after each new lead of that component, once its
    leads hold a pure power of every variable; before that it reaches
    degree cap - 1, and no corner exists.
    """

    __slots__ = ("n", "leads", "tops")

    def __init__(self, rank: int, n: int):
        self.n = n
        self.leads: list[list[Monomial]] = [[] for _ in range(rank)]
        self.tops: list[int | None] = [None] * rank

    def add(self, term: Term, cap: int) -> int | None:
        """Record a new lead term; return the top degree of the staircase
        below `cap`, the run's current bound, or None while some
        component still lacks a pure power."""
        comp, mono = term
        leads = self.leads[comp]
        leads.append(mono)
        if self.tops[comp] is None and _missing_pure_powers(leads, self.n):
            return None
        self.tops[comp] = max(_standard_monomials(leads, self.n, cap), default=0)
        if None in self.tops:
            return None
        return max(self.tops)


_TRUNCATION_LADDER = (2, 3, 4, 6, 8, 12, 16, 20, 24, 28)


def local_colength(module: Submodule):
    """Colength of a submodule, computed with certified degree truncation.

    Standard bases are computed modulo m^D for D = 2, 3, 4, 6, 8, 12, ...,
    28.  A rung is certified when its run ended below D, i.e. when the
    highest corner appeared (see standard_basis and _Corner): the
    staircase topped out at a degree d with d + 2 <= D, so m^(d+1) lies
    in M + m^(d+2) and hence, by Nakayama, in the module M itself, and
    the count is exact.  A colength whose staircase tops out at degree d
    is therefore certified at the first rung D >= d + 2: the ideal
    (x, y^2) at D = 3, a unit module at D = 2.  The low rungs are cheap,
    and most colengths in practice are small.  If no truncation level
    certifies (in particular whenever the colength is infinite), the
    exact untruncated computation decides.
    """
    for degree in _TRUNCATION_LADDER:
        basis = standard_basis(module, truncate_degree=degree)
        if basis.truncated_at < degree:
            return colength(basis)
    return colength(standard_basis(module))


def krull_dimension(basis: StandardBasis) -> int:
    """Dimension of the quotient by the lead-term ideal (ideals only).

    Equals the size of a largest variable subset S such that no lead
    monomial involves only variables from S.  Returns -1 for the unit
    ideal, whose quotient is the zero ring.
    """
    if basis.ambient.rank != 1:
        raise ValueError("Krull dimension is defined for ideals only")
    n = basis.ambient.ring.n
    supports = [frozenset(i for i, e in enumerate(mono) if e) for _, mono in basis.lead_terms]
    if any(not s for s in supports):
        return -1
    best = -1
    for mask in range(1 << n):
        subset = frozenset(i for i in range(n) if mask & (1 << i))
        if len(subset) <= best:
            continue
        if not any(s <= subset for s in supports):
            best = len(subset)
    return best
