"""Weak normal forms and standard bases over local orderings.

Elements of a free module O^m are stored as dicts mapping (component,
monomial) pairs to nonzero Fraction coefficients.  The kernel inside is
fraction-free: `_primitive` scales each input to the primitive integer
vector on its ray, the reduction loop works with Python ints only, and
`_rational` gives the elements of a standard basis their Fraction
coefficients back at the `ModuleElement` boundary.  Each reduction step
scales the working vector by a positive integer and then divides it by
the gcd of its coefficients, so it is always the primitive vector on the
ray of the rational remainder: coefficients never grow beyond what that
vector needs (the primitive-remainder idea), and signs are those of
rational arithmetic.

Monomials are ordered by negative-degree reverse-lexicographic order
(`ring.negdegrevlex_key`), a local order: 1 beats every variable.  The
module order with parameter `block` extends it to terms (c, a) of O^rank.
With block = 0 it is term-over-position: compare the monomials, then
prefer the smaller component.  With block > 0 every term in components
0 .. block-1 beats every term in the later ones, and within each block
the order is term-over-position; this block order is what makes
submodule pullbacks work.  The tests specify it as a tuple key
(`term_key` in `tests/_oracle.py`) and check the packing below against
it on random terms.

Inside the kernel a term (c, a) of O^rank over n variables is also one
int (`_Packing`, after the packed exponent vectors of Bachmann and
Schoenemann, "Monomial representations for Groebner bases computations",
ISSAC 1998).  From the low bits up it holds fixed-width fields

    rank-1-c | c | a_1 | ... | a_n | |a| | flag

with flag = 1 when 0 < block <= c.  Integer comparison reads the fields
from the top: a trailing-block term, a larger degree, then (degrees
equal) a larger exponent of a later variable, then a larger component
each make the int larger, and each makes the term smaller in the
module order.  So a smaller int is a larger term: the lead
term of a vector is `min(vec)`, and with no flags its largest degree is
`max(vec) >> deg_shift`.  Multiplying a term by x^alpha adds the packed
alpha (exponent and degree fields only); dividing it by a lead of the
same component is one subtraction.  The top bit of every field is a
guard that stays 0, so with G the sum of the guards, lt_g divides lt_h
in the same component iff ((lt_h | G) - lt_g) & G == G: each field
subtracts without borrowing from the next and keeps its guard exactly
when lt_h's field is at least lt_g's, and the two component fields are
both at least each other's only when the components agree.  A field
holds values below DEGREE_LIMIT = 2^31; every exponent is at most the
degree, so the degree is checked where it is computed anyway (when a
term is packed and at each normal-form step) and a term at the limit
raises DegreeLimitExceeded instead of wrapping into the next field.

Division is Mora's variant: a reduction may recruit an earlier partial
remainder as a new reducer when every divisor of the lead term has larger
ecart, which is exactly what makes the loop terminate for local orders.
The remainder r of f against generators g_i of M then satisfies
u * f = sum_i q_i * g_i + r only for some unit u with u(0) != 0.  The
reduction loop tracks nothing but r, and r = 0 still decides membership:
it means u * f lies in M, and u is invertible in the local ring, so f
lies in M.

Colength and Krull dimension are read off the lead-term module of a
standard basis: the monomials (with component) outside it form a vector
space basis of the quotient.

The kernel has two settings.  `standard_basis(module, block=...)` picks
the module order: term-over-position by default, block-eliminating for
submodule pullbacks.  `step_cap(limit)` bounds the reduction steps of
every standard-basis run and membership test started inside it; the cap
is held in a context variable, so leaving the scope restores the
previous one.  A run can also start from a finished basis
(`extending=`), the way local_colength counts a sum from the basis of
one summand.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm
from operator import lshift
from typing import Iterable, Sequence

from .errors import DegreeLimitExceeded, ReductionLimitExceeded
from .ring import Monomial, Polynomial, RingSpec, _as_fraction, _as_monomial

DEFAULT_MAX_STEPS = 1_000_000

_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_GUARD = 1 << (_FIELD_BITS - 1)
DEGREE_LIMIT = _GUARD

_ONE = Fraction(1)

_STEP_CAP: ContextVar[int] = ContextVar("step_cap", default=DEFAULT_MAX_STEPS)


@contextmanager
def step_cap(limit: int):
    """Cap the reduction steps of each standard-basis run or membership
    test started inside the `with` block; the previous cap returns on exit."""
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
IntVec = dict[int, int]


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
                mono = _as_monomial(ring, mono)
                coeff = _as_fraction(coeff)
                if coeff:
                    clean[(comp, mono)] = coeff
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
        return ModuleElement.from_polynomials(
            [a + b for a, b in zip(self.components, other.components)]
        )

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
            return ModuleElement.from_polynomials([c * scalar for c in self.components])
        factor = _as_fraction(scalar)
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


def _degree_limit(degree: int) -> DegreeLimitExceeded:
    return DegreeLimitExceeded(
        f"a term of degree {degree} reaches the kernel's degree limit {DEGREE_LIMIT}"
    )


class _Packing:
    """The packed terms of one run: each term (c, a) of O^rank over n
    variables as one int, laid out as the module docstring describes.
    """

    __slots__ = ("shifts", "units", "deg_shift", "low", "guards", "blocked", "_heads")

    def __init__(self, n: int, rank: int, block: int):
        if rank > DEGREE_LIMIT:
            raise DegreeLimitExceeded(f"a module of rank {rank} exceeds the kernel's limit")
        self.shifts = tuple(_FIELD_BITS * (2 + i) for i in range(n))
        self.deg_shift = _FIELD_BITS * (n + 2)
        flag = 1 << (self.deg_shift + _FIELD_BITS)
        self.low = flag - 1
        self.guards = sum(_GUARD << (_FIELD_BITS * k) for k in range(n + 4))
        self.blocked = block > 0
        # x_i packed: its exponent field and the degree field both 1
        self.units = tuple((1 << s) | (1 << self.deg_shift) for s in self.shifts)
        self._heads = tuple(
            (rank - 1 - c) | (c << _FIELD_BITS) | (flag if 0 < block <= c else 0)
            for c in range(rank)
        )

    def pack(self, comp: int, mono: Monomial) -> int:
        deg = sum(mono)
        if deg >= DEGREE_LIMIT:
            raise _degree_limit(deg)
        return self._heads[comp] | deg << self.deg_shift | sum(map(lshift, mono, self.shifts))

    def unpack(self, packed: int) -> Term:
        return (packed >> _FIELD_BITS) & _FIELD_MASK, tuple(
            (packed >> s) & _FIELD_MASK for s in self.shifts
        )

    def degree(self, packed: int) -> int:
        return (packed >> self.deg_shift) & _FIELD_MASK

    def max_degree(self, vec: IntVec) -> int:
        """The largest degree of a term of vec, checked against the limit:
        a field that reached its guard bit reads as at least the limit."""
        if self.blocked:
            top = max(map(self.low.__and__, vec)) >> self.deg_shift
        else:
            top = max(vec) >> self.deg_shift
        if top >= DEGREE_LIMIT:
            raise _degree_limit(top)
        return top


class _Entry:
    """A reducer: a basis/generator element or a recruited remainder,
    stored as a primitive integer vector on packed terms."""

    __slots__ = ("vec", "lt", "lc", "ecart")

    def __init__(self, vec, lt, lc, ecart):
        self.vec = vec
        self.lt = lt
        self.lc = lc
        self.ecart = ecart


def _vec_axpy(target: IntVec, source: IntVec, shift: int, factor: int,
              cut: int | None, low: int):
    """target += factor * x^shift * source, in place, on packed terms:
    `shift` is a packed monomial, and adding it multiplies a term by it.

    With `cut` = bound << deg_shift, every product term of degree >= bound
    is discarded: with no block flag that is exactly a term >= cut, and
    `low` masks the flag off the terms that pass that first compare.
    Discarded terms lie in m^bound, so this is exact arithmetic on
    representatives modulo m^bound.
    """
    for term, coeff in source.items():
        key = term + shift
        if cut is not None and key >= cut and key & low >= cut:
            continue
        val = target.get(key, 0) + factor * coeff
        if val:
            target[key] = val
        else:
            del target[key]


def _normalize(vec: IntVec):
    """Divide an integer vec by the gcd of its coefficients in place.

    Keeping every working remainder primitive is what prevents the
    geometric coefficient swell of naive division chains (the
    primitive-remainder-sequence idea).  The gcd is positive, so the
    vector stays on its ray.  No scalar is carried.  Recruits make the
    loop terminate, and with them the remainder r satisfies u*f =
    sum_i q_i*g_i + r only for some unknown unit u, so r is defined only
    up to a unit anyway.  A zero r means u*f lies in M, and in the local
    ring that means f lies in M.
    """
    g = gcd(*vec.values())
    if g != 1:
        for key in vec:
            vec[key] //= g


def _primitive(terms: Vec, packing: _Packing) -> IntVec:
    """The primitive integer vector on the ray of a rational vector, on
    packed terms: times the lcm of the denominators, then divided by the
    gcd."""
    den = lcm(*(c.denominator for c in terms.values()))
    vec = {
        packing.pack(comp, mono): c.numerator * (den // c.denominator)
        for (comp, mono), c in terms.items()
    }
    _normalize(vec)
    return vec


def _rational(vec: IntVec, packing: _Packing) -> Vec:
    """An integer vector back on (component, monomial) terms with the
    Fraction coefficients of a ModuleElement."""
    return {packing.unpack(t): Fraction(c) for t, c in vec.items()}


def _mora_nf(f_vec: IntVec, entries: list[_Entry], packing: _Packing, budget: _Budget,
             cut: int | None = None) -> IntVec:
    """Mora weak normal form of the integer vector f_vec against `entries`.

    A step with a = lc(h) and b = lc(chosen) sets h to (b/d)*h -
    (a/d)*x^alpha*chosen with d = +-gcd(a, b) signed so that b/d > 0: a
    positive multiple of the rational step h - (a/b)*x^alpha*chosen, so
    after `_normalize` it is the same primitive vector.  The remainder is
    primitive, which is harmless since a weak normal form is only defined
    up to units anyway.  `cut` works modulo m^bound as in _vec_axpy.
    """
    h: IntVec = dict(f_vec)
    reducers = list(entries)
    guards = packing.guards
    while h:
        _normalize(h)
        lt_h = min(h)
        ecart_h = packing.max_degree(h) - packing.degree(lt_h)
        probe = lt_h | guards
        chosen = None
        for e in reducers:
            if (probe - e.lt) & guards == guards and (chosen is None or e.ecart < chosen.ecart):
                chosen = e
        if chosen is None:
            break
        budget.spend()
        a, b = h[lt_h], chosen.lc
        if chosen.ecart > ecart_h:
            # Recruit the current remainder; the lead of h strictly
            # decreases from here on.
            reducers.append(_Entry(dict(h), lt_h, a, ecart_h))
        d = gcd(a, b) if b > 0 else -gcd(a, b)
        scale = b // d
        if scale != 1:
            for key in h:
                h[key] *= scale
        _vec_axpy(h, chosen.vec, lt_h - chosen.lt, -(a // d), cut, packing.low)
    return h


class StandardBasis:
    """A standard basis of a submodule under a fixed module order.

    `packing` is the `_Packing` of the run that computed the basis; it
    also packs the elements tested by `contains`.  Every input generator
    reduces to zero against `elements`, and the S-element of every
    critical pair of `elements` does as well.  A
    basis computed with `truncated_at=D` is one of module + m^D * O^rank
    and refuses membership queries.  Membership tests reduce against
    `entries`, the integer reducers of the run that computed the basis.
    """

    __slots__ = ("ambient", "packing", "elements", "lead_terms", "truncated_at", "_entries")

    def __init__(self, ambient, packing, elements, lead_terms, truncated_at=None, entries=()):
        self.ambient = ambient
        self.packing = packing
        self.elements = tuple(elements)
        self.lead_terms = tuple(lead_terms)
        self.truncated_at = truncated_at
        self._entries = list(entries)

    def contains(self, f: ModuleElement) -> bool:
        """Whether f lies in the module: its weak normal form against the
        basis is zero (see the module docstring)."""
        if self.truncated_at is not None:
            raise ValueError("membership needs an untruncated standard basis")
        if f.ring != self.ambient.ring or f.rank != self.ambient.rank:
            raise ValueError("element does not live in the ambient module")
        budget = _Budget(
            f"in a normal form of rank {f.rank} against a standard basis of "
            f"{len(self._entries)} elements"
        )
        packing = self.packing
        return not _mora_nf(_primitive(f.terms, packing), self._entries, packing, budget)

    def __repr__(self) -> str:
        return f"StandardBasis(rank={self.ambient.rank}, size={len(self.elements)})"


def standard_basis(
    module: Submodule,
    *,
    block: int = 0,
    truncate_degree: int | None = None,
    extending: StandardBasis | None = None,
) -> StandardBasis:
    """Compute a standard basis of `module` by Mora's algorithm.

    The module order (see the module docstring) is term-over-position for
    `block=0`, otherwise block-eliminating with components 0 .. block-1
    as the leading block.

    Critical pairs are processed smallest lcm-degree first; reducers are
    chosen by minimal ecart with ties broken by list position.  The result
    is minimal: no lead term divides another, and every element is a
    primitive integer vector with positive lead coefficient.

    Not every critical pair is formed.  When a new lead t arrives, the
    update of Gebauer and Moeller ("On an installation of Buchberger's
    algorithm", J. Symb. Comput. 6, 1988) drops:
    - criterion B: a queued pair (i, j) such that t divides lcm(i, j)
      while lcm(i, t) and lcm(j, t) both differ from it (lazily: the
      pair leaves `live`, and the heap skips it when popped);
    - criteria M and F: a new pair (i, t) whose lcm is a proper multiple
      of another new pair's lcm; of new pairs with one lcm, one is kept;
    - the product criterion, for ideals only: every new pair whose lcm
      is that of a new pair with coprime leads;
    - in a truncated run with block = 0, every pair whose lcm has degree
      at or past the bound.
    Divisibility is tested on packed terms, as in _mora_nf.

    Why this is sound.  Let sigma_ij be the syzygy of the lead terms that
    the pair (i, j) stands for.  G is a standard basis as soon as, for a
    set of pairs whose sigma_ij generate all syzygies of the lead terms,
    each S-element s_ij has a representation sum_k a_k g_k in which every
    a_k g_k leads below lcm(i, j).  A weak normal form that ends at 0
    gives one: u s_ij = sum_k q_k g_k for a unit u, with no q_k g_k
    leading above s_ij.  This criterion holds for every monomial module
    order, local ones included (Greuel and Pfister, "A Singular
    Introduction to Commutative Algebra", ch. 2).
    - Criterion B: sigma_ij is a combination of sigma_it and sigma_jt
      with monomial factors, and their lcms properly divide lcm(i, j).
    - Criteria M and F: a dropped sigma_it is such a combination of a
      new sigma_jt and the old sigma_ij, whose lcms divide lcm(i, t).
      Gebauer and Moeller show that the pairs left by B, M and F still
      generate; the argument is about monomials only, so any order
      will do.
    - Product criterion: for coprime leads of two ideal elements f and
      g, s = lt(g) f - lt(f) g = tail(f) g - tail(g) f is itself such a
      representation, since lt(tail(f)) lt(g) and lt(tail(g)) lt(f) lie
      below lt(f) lt(g), the lcm, under any monomial order.  Only in
      rank 1 can two elements be multiplied, hence ideals only.
    - Modulo m^bound: a truncated run is a run for M + m^bound with the
      monomials of degree bound as implicit elements, and every identity
      above holds for representatives modulo m^bound.
    - Past the bound (block = 0): a lead has the least degree in its
      element, so when lcm(i, j) has degree at least the bound, so has
      every term of (lcm/lt_i) g_i and (lcm/lt_j) g_j.  Then s_ij lies
      in m^bound, and the implicit monomials represent it.  The bound
      only falls, and pairs pop by lcm degree, so the loop ends at the
      first pair past the bound.

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

    With `extending=B`, a `block=0` basis of a module M exact or truncated
    at a degree >= truncate_degree, the run computes a basis of M +
    module: B's elements, cut at the bound, are a standard basis of M +
    m^bound modulo m^bound, so the run starts from them and forms no
    pair among them (Singular's `std(I, J)` extends a basis the same
    way).  Each generator of `module` is reduced against the basis before
    it is pushed, so a generator that lies in M costs one normal form and
    no pair.  Such a run keeps its bound, and its `truncated_at` is that
    bound.
    """
    ring, rank = module.ring, module.rank
    packing = _Packing(ring.n, rank, block)
    where = f"in a standard basis of rank {rank} with {len(module.generators)} generators"
    if truncate_degree is not None:
        where += f", truncated at degree {truncate_degree}"
    if extending is not None:
        where += f", extending a basis of {len(extending.elements)} elements"
    budget = _Budget(where)
    bound = truncate_degree
    cut = None if bound is None else bound << packing.deg_shift
    corner = None
    if extending is not None:
        start = extending.truncated_at
        if (block or extending.packing.blocked or extending.ambient.ring != ring
                or extending.ambient.rank != rank
                or start is not None and (bound is None or bound > start)):
            raise ValueError("can only extend a basis of the same module order and bound")
    elif bound is not None and block == 0:
        corner = _Corner(packing, rank)

    basis: list[_Entry] = []
    lead_terms: list[Term] = []
    pairs: list[tuple[int, int, int]] = []  # heap of (lcm degree, i, j)
    live: dict[tuple[int, int], int] = {}  # queued pairs not deleted, to packed lcm
    guards = packing.guards
    bounded = bound is not None and block == 0  # no pair past the bound
    product_criterion = rank == 1

    def push(vec: IntVec, new_pairs: bool = True):
        nonlocal bound, cut
        # store primitive integer vectors with positive lead coefficient
        lt = min(vec)
        if vec[lt] < 0:
            vec = {k: -c for k, c in vec.items()}
        idx = len(basis)
        basis.append(_Entry(vec, lt, vec[lt], packing.max_degree(vec) - packing.degree(lt)))
        comp, mono = term = packing.unpack(lt)
        if corner is not None:
            top = corner.add(term, lt, bound)
            if top is not None and top + 2 <= bound:
                bound = top + 1
                cut = bound << packing.deg_shift
        if new_pairs:
            lcms = {}  # index -> packed lcm of the new pairs
            for other, (o_comp, o_mono) in enumerate(lead_terms):
                if o_comp == comp:
                    mono_lcm = tuple(map(max, o_mono, mono))
                    if not bounded or sum(mono_lcm) < bound:
                        lcms[other] = packing.pack(comp, mono_lcm)
            # criterion B; an lcm(i, lt) past the bound is missing from lcms, and
            # then lcm(i, j) is past the bound too
            dead = [key for key, l in live.items()
                    if ((l | guards) - lt) & guards == guards
                    and lcms.get(key[0]) != l and lcms.get(key[1]) != l]
            for key in dead:
                del live[key]
            # criteria M and F and the product criterion; ascending packed lcms
            # put every divisor before its multiples
            groups: dict[int, int | None] = {}  # kept lcm -> its pair, None if coprime
            for l, other in sorted(zip(lcms.values(), lcms)):
                # for rank 1 a packed product is a sum, and lcm = product iff coprime
                coprime = product_criterion and l == lt + basis[other].lt
                if l in groups:
                    if coprime:
                        groups[l] = None
                    continue
                probe = l | guards
                for k in groups:
                    if (probe - k) & guards == guards:
                        break
                else:
                    groups[l] = None if coprime else other
            for l, other in groups.items():
                if other is not None:
                    heapq.heappush(pairs, (packing.degree(l), other, idx))
                    live[other, idx] = l
        lead_terms.append(term)

    if extending is not None:
        for e in extending._entries:
            vec = {t: c for t, c in e.vec.items() if cut is None or t < cut}
            if vec:  # the lead has the least degree, so it survives the cut
                _normalize(vec)
                # the seeds are a standard basis: their pairs reduce to 0
                push(vec, new_pairs=False)

    # an extension reduces its generators before pushing them, like S-elements
    inputs: list[IntVec] = []
    for g in module.generators:
        vec = {k: c for k, c in g.terms.items() if bound is None or sum(k[1]) < bound}
        if vec:
            vec = _primitive(vec, packing)
            if extending is None:
                push(vec)
            else:
                inputs.append(vec)

    while inputs or pairs:
        if inputs:
            vec = inputs.pop(0)
        else:
            deg, i, j = heapq.heappop(pairs)
            lcm_term = live.pop((i, j), None)
            if lcm_term is None:  # deleted by criterion B
                continue
            if bounded and deg >= bound:  # so is every pair left
                break
            gi, gj = basis[i], basis[j]
            vec = {}
            _vec_axpy(vec, gi.vec, lcm_term - gi.lt, gj.lc, cut, packing.low)
            _vec_axpy(vec, gj.vec, lcm_term - gj.lt, -gi.lc, cut, packing.low)
            if not vec:
                continue
        rem = _mora_nf(vec, basis, packing, budget, cut)
        if rem:
            push(rem)

    # Minimalize: keep only elements whose lead term is not divisible by the
    # lead term of another kept element.  Processing by ascending lead degree
    # (ascending packed leads) guarantees divisors are seen first.
    kept: list[int] = []
    for lt, t in sorted((e.lt, t) for t, e in enumerate(basis)):
        probe = lt | guards
        if not any((probe - basis[s].lt) & guards == guards for s in kept):
            kept.append(t)

    return StandardBasis(
        module,
        packing,
        [ModuleElement._raw(ring, rank, _rational(basis[t].vec, packing)) for t in kept],
        [lead_terms[t] for t in kept],
        truncated_at=bound,
        entries=[basis[t] for t in kept],
    )


def colength(basis: StandardBasis):
    """Number of monomials (with component) outside the lead-term module:
    the colength of the module that `basis` is a basis of.

    For a truncated basis that module is M + m^D * O^rank with D =
    `truncated_at`, so only the monomials of degree below D count.
    Otherwise the result is INFINITE iff some component misses a pure
    power of some variable among its lead terms, which is exactly when
    the quotient has infinite vector-space dimension.
    """
    stairs = _staircases(basis)
    return INFINITE if stairs is None else sum(1 for stair in stairs for _ in stair)


def _staircases(basis: StandardBasis):
    """For each component, the degrees of its standard monomials as
    `_standard_monomials` yields them, capped at `truncated_at`; None when
    an untruncated basis has an infinite staircase."""
    n, rank, cap = basis.ambient.ring.n, basis.ambient.rank, basis.truncated_at
    packing = _Packing(n, rank, 0)
    by_component: list[list[Monomial]] = [[] for _ in range(rank)]
    for comp, mono in basis.lead_terms:
        by_component[comp].append(mono)
    if cap is None and any(_missing_pure_powers(leads, n) for leads in by_component):
        return None
    return [
        _standard_monomials([packing.pack(comp, mono) for mono in leads], comp, packing, cap)
        for comp, leads in enumerate(by_component)
    ]


def _missing_pure_powers(leads: list[Monomial], n: int) -> set[int]:
    """Indices of the variables with no pure power among `leads`."""
    missing = set(range(n))
    for mono in leads:
        support = [i for i, e in enumerate(mono) if e]
        if len(support) <= 1:
            missing.difference_update(support or range(n))
    return missing


def _standard_monomials(leads: list[int], comp: int, packing: _Packing,
                        cap: int | None = None):
    """Yield the degree of every monomial of component `comp` outside the
    packed leads of that component (under a `block=0` packing), of degree
    below `cap` when one is given.

    The walk starts at 1 and reaches each monomial a from a - e_j, where j
    is the last nonzero index of a, by adding the packed x_j; since the
    staircase is closed under division, that finds all of it while testing
    at most n candidates per monomial yielded.  A candidate a + e_j is
    tested only against the leads that involve x_j: a lead without x_j
    that divided it would divide the standard monomial a.  Without `cap`
    it ends only when the leads contain a pure power of every variable,
    and a staircase that reaches the degree limit raises instead of
    wrapping.
    """
    one = packing.pack(comp, (0,) * len(packing.units))
    if cap == 0 or one in leads:
        return
    guards, units = packing.guards, packing.units
    involving = [[l for l in leads if (l >> s) & _FIELD_MASK] for s in packing.shifts]
    top = DEGREE_LIMIT if cap is None else cap
    stack = [(one, 0, 0)]
    while stack:
        mono, last, deg = stack.pop()
        yield deg
        if deg + 1 >= top:
            if cap is None:
                raise DegreeLimitExceeded(f"a staircase reaches the degree limit {DEGREE_LIMIT}")
            continue
        for j in range(last, len(units)):
            cand = mono + units[j]
            probe = cand | guards
            if not any((probe - l) & guards == guards for l in involving[j]):
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

    __slots__ = ("packing", "leads", "missing", "tops")

    def __init__(self, packing: _Packing, rank: int):
        n = len(packing.units)
        self.packing = packing
        self.leads: list[list[int]] = [[] for _ in range(rank)]
        self.missing: list[set[int]] = [set(range(n)) for _ in range(rank)]
        self.tops: list[int | None] = [None] * rank

    def add(self, term: Term, packed: int, cap: int) -> int | None:
        """Record a new lead term, given also packed; return the top degree
        of the staircase below `cap`, the run's current bound, or None
        while some component still lacks a pure power."""
        comp, mono = term
        leads = self.leads[comp]
        leads.append(packed)
        missing = self.missing[comp]
        missing &= _missing_pure_powers([mono], len(mono))
        if missing:
            return None
        self.tops[comp] = max(_standard_monomials(leads, comp, self.packing, cap), default=0)
        if None in self.tops:
            return None
        return max(self.tops)


_TRUNCATION_LADDER = (2, 3, 4, 6, 8, 12, 16, 20, 24, 28)


def _axis_floor(module: Submodule) -> int | None:
    """The first truncation degree that can certify the colength of
    `module` (see local_colength), or None when some axis of some
    component holds no generator term, so the colength is infinite."""
    orders: dict[tuple[int, int], int] = {}
    for g in module.generators:
        for comp, mono in g.terms:
            support = [i for i, e in enumerate(mono) if e]
            if len(support) <= 1:
                e = sum(mono)
                for i in support or range(len(mono)):
                    orders[comp, i] = min(e, orders.get((comp, i), e))
    if len(orders) < module.rank * module.ring.n:
        return None
    return max(orders.values()) + 1


def local_colength(module: Submodule, *summands: Submodule):
    """Colength of a submodule, computed with certified degree truncation;
    given summands N_1, ..., N_s, the tuple of the colengths of M, M + N_1,
    ..., M + N_s, with one ladder for all of them.

    Standard bases are computed modulo m^D for the rungs D = 2, 3, 4, 6,
    8, 12, ..., 28 from a floor on.  A rung is certified when its run
    ended below D, i.e. when the highest corner appeared (see
    standard_basis and _Corner): the staircase topped out at a degree d
    with d + 2 <= D, so m^(d+1) lies in M + m^(d+2) and hence, by
    Nakayama, in the module M itself, and the count is exact.  A colength
    whose staircase tops out at degree d is therefore certified at the
    first rung D >= d + 2: the ideal (x, y^2) at D = 3, a unit module at
    D = 2.  The low rungs are cheap, and most colengths in practice are
    small.  If no rung certifies, the exact untruncated computation
    decides.

    The floor is read off the generators.  Let a be the least e such that
    some generator has a term x_i^e in component c (e = 0 for a constant
    term).  Set every variable but x_i to 0: each element of M then has
    order at least a in component c, and a lead term x_i^e * e_c survives
    that restriction, so x_i^e * e_c is standard for every e < a.  The
    staircase tops out at degree a - 1 or above, and no rung D <= a can
    certify.  The ladder therefore starts at the floor max(a) + 1 over all
    (i, c), and goes straight to the exact run when the floor is above
    28; every value is the one the full ladder would certify.  When
    component c has no pure power of x_i at all, its whole x_i-axis is
    standard, and the colength is INFINITE without any run.  That covers
    a component that no generator touches, and a singular locus that
    contains a coordinate axis.

    The sums climb no ladder of their own.  Once M's colength is
    certified, m^b lies in M for the bound b its certified rung ended at
    (see _Corner).  After an exact run, b = t + 1 for the top degree t of
    its staircase: every monomial of degree t + 1 is then a lead term,
    and Nakayama applies as above.  Hence m^b ⊆ M ⊆ M + N, so M + N =
    M + N + m^b, and one run of M + N modulo m^b counts its colength
    exactly.  That run extends M's certified basis (see standard_basis)
    instead of starting over.  Its count needs no certificate of its
    own, and the corner could not give one: the staircase of M + N may
    top out at b - 1.  When M's colength is INFINITE there is no such b,
    and each sum climbs its own ladder.
    """
    floor = _axis_floor(module)
    rungs = [] if floor is None else [d for d in _TRUNCATION_LADDER if d >= floor] + [None]
    values, certified = [], None
    for part in (module, *summands):
        basis = None
        for degree in rungs:  # None is the exact run
            basis = standard_basis(part, truncate_degree=degree, extending=certified)
            if certified is not None or degree is None or basis.truncated_at < degree:
                break
        values.append(INFINITE if basis is None else colength(basis))
        if certified is None:  # part is the module itself
            if not summands:
                return values[0]
            if values[0] is INFINITE:
                sums = [Submodule(module.ring, module.rank, module.generators + N.generators)
                        for N in summands]
                return (INFINITE, *map(local_colength, sums))
            certified, rungs = basis, [_certified_bound(basis)]
    return tuple(values)


def _certified_bound(basis: StandardBasis) -> int:
    """A degree b with m^b inside the module of a basis that certified
    its finite colength (see local_colength): the bound its rung ended
    at, or after an exact run one more than its staircase top."""
    if basis.truncated_at is not None:
        return basis.truncated_at
    return 1 + max((d for stair in _staircases(basis) for d in stair), default=0)


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
