"""Vector fields tangent to a variety germ and the Bruce-Roberts numbers.

For a germ (X,0) with ideal generated by f_1..f_k, the module of tangent
(logarithmic) vector fields is

    Theta_X = {xi : df_r(xi) lies in the ideal, for every r},

and Theta_X^T, the trivial fields, is the submodule spanned by the
C(n, k+1) Cramer fields (on k+1 columns, the signed k-minors of the
Jacobian on the other k; each sends every f_r to a determinant with a
repeated row, so to 0) and the fields f_j * d/dx_i.  For an ICIS,
Theta_X / Theta_X^T has length tau(X).

Two routes compute Theta_X, chosen by k:

* k = 1, and every germ the other route does not certify: one pullback
  per generator, of the ideal along the row (df_r/dx_1, ..., df_r/dx_n),

      {xi in O^n : sum_i xi_i * df_r/dx_i lies in (f_1, ..., f_k)},

  read off one block-order graph module (`module_ops.submodule_pullback`),
  and Theta_X is the intersection of those pullbacks over r.  For k = 1
  that is one pullback and no `intersect`: on the 72 Brieskorn-Pham germs
  of the seed-1 `hypersurface_reports` pool it took 0.4-0.6 ms, against
  1.0-17 ms for the certificate below (rungs up to 12, tau up to 120;
  2-core Xeon, Python 3.11.7).
* k >= 2, when the generators admit weights (see _weights): the
  candidate C = Theta_X^T + <E_w>, with one weighted Euler field
  E_w = sum_i w_i x_i d/dx_i per basis vector of the weights.  E_w sends
  f_j to d_j * f_j, so C lies in Theta_X, and no block order is needed.
  When X is an ICIS (dimension n - k and finite tau, both cached on the
  germ), C is accepted once, at some degree D,

      colength(Theta_X^T + m^D O^n) - colength(C + m^D O^n) = tau(X),

  from a truncated run and one run that extends its basis.  Why that
  suffices: the difference is the length of (C + m^D) / (Theta_X^T + m^D),
  a quotient of C / Theta_X^T, and C / Theta_X^T lies in
  Theta_X / Theta_X^T, of length tau.  So equality forces
  length(C / Theta_X^T) = tau, hence C = Theta_X.  On the seed-1
  `theta_ci` pool every certificate closed at its first rung, D = 4, and
  Theta_X took 5.0 ms per request against 22 ms for the pullbacks, their
  `intersect` and the minimisation syzygy (traced, same host).

VarietyGerm.tangent_module returns the generators of either route as
they come, not minimised: the Bruce-Roberts numbers need only the module.
`germlab theta` prints them minimised with one syzygy computation (see
_minimise): over the local ring O, a generator g_i is redundant exactly
when some relation sum_j a_j g_j = 0 has a unit a_i, so only the
constant parts a(0) of the relations matter.  By Nakayama's lemma an
irredundant generating set is minimal, so the number of generators kept
is the minimal number of generators of Theta_X, whatever the route or
the input order.

The three Bruce-Roberts numbers of a function f on X are colengths of
the one ideal D = df(Theta_X): alone, plus the ideal of X, or plus (f).
VarietyGerm.bruce_roberts builds D once and returns all three from one
truncation ladder per pair (X, f): only D climbs it, and D + I(X) and
D + (f) each take one run that extends D's certified basis (see
standard_basis.local_colength).
Like Theta_X, the Tjurina colength and the generic slice of each seed
depend on X alone and are cached on the germ.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm
from typing import NamedTuple

from .errors import PreconditionViolation
from .module_ops import _determinant, intersect, submodule_pullback, syzygies
from .ring import Polynomial, RingSpec, gradient
from .standard_basis import (
    ModuleElement,
    StandardBasis,
    Submodule,
    colength,
    is_finite,
    krull_dimension,
    local_colength,
    standard_basis,
)

# truncation degrees tried by _certified_theta before it gives up
_CERTIFICATE_RUNGS = (2, 3, 4, 6, 8, 12)


class BruceRoberts(NamedTuple):
    """The colengths of df(Theta_X), df(Theta_X) + I(X,0) and df(Theta_X) + (f),
    each an int or INFINITE."""

    mu_br: object
    mu_br_rel: object
    tau_br: object


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
        # invariants.generic_slice's (p, mu) for each seed drawn on this germ
        self.generic_slices: dict[int, tuple[Polynomial, int]] = {}

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
        """Theta_X: the module of ambient vector fields tangent to (X,0),
        by a generating set that need not be minimal (see _minimise).

        For k >= 2 it is Theta_X^T + <E_w> when that certifies (see
        _certified_theta), and otherwise the intersection of the pullbacks.
        """
        ring, n = self.ring, self.ring.n
        if self._ambient:
            return Submodule.full(ring, n)
        gens = _certified_theta(self) if self.k >= 2 else None
        return Submodule(ring, n, gens or _pullback_theta(self))

    @cached_property
    def tjurina_colength(self):
        """Colength in O^k of the n Jacobian columns and the k^2 products
        f_j * e_l; INFINITE when X has a non-isolated singular locus."""
        if self._ambient:
            raise PreconditionViolation("the ambient germ has no Tjurina number")
        ring, gens, k = self.ring, self.generators, self.k
        columns = [
            ModuleElement.from_polynomials([g.derivative(i) for g in gens])
            for i in range(ring.n)
        ]
        trivial = [ModuleElement.unit_vector(ring, k, l) * g for g in gens for l in range(k)]
        return local_colength(Submodule(ring, k, columns + trivial))

    def bruce_roberts(self, f: Polynomial) -> BruceRoberts:
        """The Bruce-Roberts numbers of f on X, from one df(Theta_X) and one
        truncation ladder: D = df(Theta_X) climbs it, and D + I(X) and
        D + (f) are each one run at D's certified bound, extending D's basis.

        A number is INFINITE when f is not finitely determined with respect
        to the coordinate changes preserving X; when mu_br is, the two sums
        climb their own ladders.
        """
        image = df_theta(f, self.tangent_module)
        return BruceRoberts(*local_colength(image, self.ideal, Submodule.ideal(f.ring, [f])))

    def __repr__(self) -> str:
        if self._ambient:
            return f"VarietyGerm.ambient({self.ring!r})"
        return f"VarietyGerm({self.ring!r}, {len(self.generators)} generators)"


def _row_reduce(rows: list[dict], columns) -> dict:
    """Gauss-Jordan elimination over Q on sparse rows {column: value}.

    Walks `columns` in order and returns {pivot column: row}, each row with
    1 at its own pivot and 0 at every other pivot column.  A column is a
    pivot exactly when it is not in the span of the columns before it, so
    the pivots do not depend on the order of the rows.  Consumes `rows`.
    """
    pivots: dict = {}
    for c in columns:
        at = next((t for t, row in enumerate(rows) if c in row), None)
        if at is None:
            continue
        pivot = rows.pop(at)
        scale = Fraction(pivot[c])
        pivot = {col: v / scale for col, v in pivot.items()}
        for row in (*rows, *pivots.values()):
            factor = row.get(c)
            if factor:
                for col, v in pivot.items():
                    val = row.get(col, 0) - factor * v
                    if val:
                        row[col] = val
                    else:
                        del row[col]
        pivots[c] = pivot
    return pivots


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
    a only by coefficients in m, so it has the same constant part.  So
    g_i is dropped exactly when column i of V's rows is a pivot of their
    row reduction in column order (_row_reduce).  This keeps exactly the
    generators that testing each one for membership in the span of the
    others, in the same order, would keep, from a single syzygy
    computation instead of one standard basis per generator.  When every
    column is a pivot, the generators are all zero, and the last is kept.
    """
    zero = gens[0].ring.zero_monomial()
    rows = []
    for rel in syzygies(gens).generators:
        row = {c: coeff for (c, mono), coeff in rel.terms.items() if mono == zero}
        if row:
            rows.append(row)
    dropped = _row_reduce(rows, range(len(gens)))
    return [g for i, g in enumerate(gens) if i not in dropped] or gens[-1:]


def _weights(gens: tuple[Polynomial, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A basis (w, d) of the rational solutions of: every monomial a of
    g_j has weighted degree sum_i w_i * a_i = d_j, each scaled to a
    primitive integer vector; empty when the generators admit no weights.

    Then E_w = sum_i w_i * x_i * d/dx_i sends g_j to d_j * g_j.  No sign
    condition is needed, and w is never 0: w = 0 forces every d_j = 0.
    """
    n, k = gens[0].ring.n, len(gens)
    rows = [{**{i: e for i, e in enumerate(mono) if e}, n + j: -1}
            for j, g in enumerate(gens) for mono in g.terms]
    pivots = _row_reduce(rows, range(n + k))
    basis = []
    for free in range(n + k):
        if free in pivots:
            continue
        v = [Fraction(0)] * (n + k)
        v[free] = Fraction(1)
        for p, row in pivots.items():
            v[p] = -row.get(free, 0)
        scale = lcm(*(x.denominator for x in v))
        ints = [int(x * scale) for x in v]
        content = gcd(*ints)
        ints = [x // content for x in ints]
        basis.append((tuple(ints[:n]), tuple(ints[n:])))
    return basis


def _trivial_fields(X: VarietyGerm) -> list[ModuleElement]:
    """Generators of Theta_X^T: the Cramer fields, whose components on k+1
    columns are the signed k-minors of the Jacobian on the other k, then
    the fields g_j * d/dx_i.  Some Cramer fields may be 0."""
    ring, n, k = X.ring, X.ring.n, X.k
    jacobian = [[g.derivative(i) for i in range(n)] for g in X.generators]
    minors = {
        cols: _determinant([[row[c] for c in cols] for row in jacobian], ring)
        for cols in combinations(range(n), k)
    }
    zero = Polynomial.zero(ring)
    fields = []
    for support in combinations(range(n), k + 1):
        comps = [zero] * n
        for t, i in enumerate(support):
            minor = minors[support[:t] + support[t + 1:]]
            comps[i] = -minor if t % 2 else minor
        fields.append(ModuleElement.from_polynomials(comps))
    fields += [ModuleElement.unit_vector(ring, n, i) * g for g in X.generators for i in range(n)]
    return fields


def _certified_theta(X: VarietyGerm) -> list[ModuleElement] | None:
    """Generators of Theta_X^T + <E_w> (see _weights) once the colength
    difference at some rung certifies that they span Theta_X (see the
    module docstring); None when X has no weights, is not an ICIS, or no
    rung certifies."""
    weights = _weights(X.generators)
    if not weights or X.dimension != X.ring.n - X.k or not is_finite(X.tjurina_colength):
        return None
    ring, n = X.ring, X.ring.n
    trivial = Submodule(ring, n, _trivial_fields(X))
    variables = [Polynomial.variable(ring, i) for i in range(n)]
    euler = [ModuleElement.from_polynomials([x * w_i for x, w_i in zip(variables, w)])
             for w, _ in weights]
    extra = Submodule(ring, n, euler)
    # modulo m^D the fields x^a * E_w with |a| <= D - 2 span <E_w>, so no
    # rung with fewer of them than tau can certify
    tau = X.tjurina_colength
    for degree in _CERTIFICATE_RUNGS:
        if len(euler) * comb(n + degree - 2, n) < tau:
            continue
        base = standard_basis(trivial, truncate_degree=degree)
        full = standard_basis(extra, truncate_degree=base.truncated_at, extending=base)
        if colength(base) - colength(full) == tau:
            return list(dict.fromkeys(trivial.generators + extra.generators))
    return None


def _pullback_theta(X: VarietyGerm) -> list[ModuleElement]:
    """Generators of Theta_X for a proper germ: the pullback of the ideal
    along each row of the Jacobian, intersected over the rows."""
    result: Submodule | None = None
    for f_r in X.generators:
        row = [ModuleElement.from_polynomial(f_r.derivative(i)) for i in range(X.ring.n)]
        tangent_r = submodule_pullback(row, X.ideal)
        result = tangent_r if result is None else intersect(result, tangent_r)
    return list(dict.fromkeys(result.generators))


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

