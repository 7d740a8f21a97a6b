"""Vector fields tangent to a variety germ and the Bruce-Roberts numbers.

For a germ (X,0) with ideal generated by f_1..f_k, the module of tangent
(logarithmic) vector fields is

    Theta_X = {xi : df_r(xi) lies in the ideal, for every r},

computed one generator at a time: the fields satisfying the condition for
f_r are the pullback of the ideal along the row (df_r/dx_1, ..., df_r/dx_n),
i.e. the first n coordinates of the syzygies of

    (df_r/dx_1, ..., df_r/dx_n, f_1, ..., f_k),

and Theta_X is the intersection of those pullbacks over r.  The
generators are then minimised with one more syzygy computation (see
_minimise): over the local ring O, a generator g_i is redundant exactly
when some relation sum_j a_j g_j = 0 has a unit a_i, so only the constant
parts a(0) of the relations matter.  By Nakayama's lemma an irredundant
generating set is minimal, so the number of generators kept is the
minimal number of generators of Theta_X, whatever the input order.

The three Bruce-Roberts-type numbers are colengths of df(Theta_X),
optionally enlarged by the ideal of X or by the function itself.
"""

from __future__ import annotations

from functools import cached_property

from .errors import PreconditionViolation
from .module_ops import intersect, module_sum, submodule_pullback, syzygies
from .ring import Polynomial, RingSpec, gradient
from .standard_basis import (
    ModuleElement,
    StandardBasis,
    Submodule,
    krull_dimension,
    local_colength,
    standard_basis,
)


class VarietyGerm:
    """A variety germ at the origin, given by polynomial ideal generators.

    The full ambient space C^n is encoded by an explicit flag (empty
    generator lists are otherwise invalid), so the tangent module of the
    smooth total space stays representable.
    """

    def __init__(self, ring: RingSpec, generators=(), *, _ambient: bool = False):
        gens = tuple(generators)
        if _ambient:
            if gens:
                raise ValueError("the ambient germ takes no generators")
        else:
            if not gens:
                raise ValueError("a proper variety needs at least one generator")
            for g in gens:
                if not isinstance(g, Polynomial) or g.ring != ring:
                    raise ValueError("generators must be polynomials in the given ring")
                if g.is_zero():
                    raise ValueError("zero generators are not allowed")
                if g.constant_term():
                    raise ValueError("generators must vanish at the origin")
        self.ring = ring
        self.generators = gens
        self._ambient = _ambient

    @classmethod
    def ambient(cls, ring: RingSpec) -> VarietyGerm:
        """The germ of the whole ambient space C^n."""
        return cls(ring, (), _ambient=True)

    @property
    def is_ambient(self) -> bool:
        return self._ambient

    @property
    def k(self) -> int:
        return len(self.generators)

    @cached_property
    def ideal(self) -> Submodule:
        return Submodule.ideal(self.ring, self.generators)

    @cached_property
    def ideal_basis(self) -> StandardBasis:
        return standard_basis(self.ideal)

    @cached_property
    def dimension(self) -> int:
        if self._ambient:
            return self.ring.n
        return krull_dimension(self.ideal_basis)

    @cached_property
    def tangent_module(self) -> Submodule:
        """Theta_X: the module of ambient vector fields tangent to (X,0)."""
        return _compute_theta(self)

    def __repr__(self) -> str:
        if self._ambient:
            return f"VarietyGerm.ambient({self.ring!r})"
        return f"VarietyGerm({self.ring!r}, {len(self.generators)} generators)"


def _minimise(gens: list[ModuleElement]) -> list[ModuleElement]:
    """Drop, in order, every generator that lies in the span of the others.

    Let V in Q^s be spanned by the constant parts a(0) of the syzygies a
    of g_1..g_s.  Walking i = 1..s with D the generators dropped so far,
    g_i lies in the span of the remaining ones iff some syzygy of the
    remaining generators has a unit at i, i.e. iff some v in

        W = {v in V : v_d = 0 for every d in D}

    has v_i != 0.  Syzygies of the remaining generators are syzygies of
    all of them, so their constant parts lie in W.  Conversely, every
    dropped g_d lies in the span of the remaining generators, and its
    coefficient a_d in a syzygy a with a(0) in W lies in m; substituting
    for g_d gives a syzygy of the remaining generators that differs from
    a only by coefficients in m, so it has the same constant part.  W is
    kept as a row basis: dropping g_i eliminates column i with a row that
    is nonzero there and discards that row.  This keeps exactly the
    generators that testing each one for membership in the span of the
    others, in the same order, would keep, from a single syzygy
    computation instead of one standard basis per generator.
    """
    zero = gens[0].ring.zero_monomial()
    rows = []
    for rel in syzygies(gens).generators:
        row = {c: coeff for (c, mono), coeff in rel.terms.items() if mono == zero}
        if row:
            rows.append(row)
    kept = []
    remaining = len(gens)
    for i, g in enumerate(gens):
        at = next((t for t, row in enumerate(rows) if i in row), None)
        if at is None or remaining == 1:  # never drop the last generator
            kept.append(g)
            continue
        remaining -= 1
        pivot = rows.pop(at)
        for row in rows:
            if i in row:
                factor = row[i] / pivot[i]
                for c, coeff in pivot.items():
                    val = row.get(c, 0) - factor * coeff
                    if val:
                        row[c] = val
                    else:
                        del row[c]
    return kept


def _unminimised_theta(X: VarietyGerm) -> list[ModuleElement]:
    """Generators of Theta_X for a proper germ, before minimisation."""
    result: Submodule | None = None
    for f_r in X.generators:
        row = [ModuleElement.from_polynomial(f_r.derivative(i)) for i in range(X.ring.n)]
        tangent_r = submodule_pullback(row, X.ideal)
        result = tangent_r if result is None else intersect(result, tangent_r)
    return list(dict.fromkeys(result.generators))


def _compute_theta(X: VarietyGerm) -> Submodule:
    n = X.ring.n
    if X.is_ambient:
        return Submodule.full(X.ring, n)
    return Submodule(X.ring, n, _minimise(_unminimised_theta(X)))


def df_theta(f: Polynomial, theta: Submodule) -> Submodule:
    """The ideal df(Theta_X) generated by applying df to each field of theta."""
    if f.constant_term():
        raise PreconditionViolation("the function must vanish at the origin")
    ring = f.ring
    grads = gradient(f)
    images = []
    for xi in theta.generators:
        value = Polynomial.zero(ring)
        for i, comp in enumerate(xi.components):
            if comp and grads[i]:
                value = value + comp * grads[i]
        images.append(value)
    return Submodule.ideal(ring, images)


def mu_BR(f: Polynomial, X: VarietyGerm):
    """The Bruce-Roberts number: colength of df(Theta_X).

    INFINITE signals that f is not finitely determined with respect to the
    coordinate changes preserving X.
    """
    image = df_theta(f, X.tangent_module)
    return local_colength(image)


def mu_BR_rel(f: Polynomial, X: VarietyGerm):
    """The relative Bruce-Roberts number: colength of df(Theta_X) + I(X,0)."""
    image = df_theta(f, X.tangent_module)
    return local_colength(module_sum(image, X.ideal))


def tau_BR(f: Polynomial, X: VarietyGerm):
    """The Bruce-Roberts Tjurina number: colength of df(Theta_X) + (f)."""
    image = df_theta(f, X.tangent_module)
    enlarged = module_sum(image, Submodule.ideal(f.ring, [f]))
    return local_colength(enlarged)
