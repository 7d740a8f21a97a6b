"""Milnor and Tjurina numbers of ICIS germs and the derived invariants.

The Milnor number of a complete intersection chain f_1..f_k is computed by
the classical recursive colength formula of Le and Greuel,

    mu_j + mu_{j-1} = dim O / ( (f_1..f_{j-1}) + minors_j(f_1..f_j) ),

and the Tjurina number as the module colength of the Jacobian columns
together with I*O^k inside O^k.

On top of these, the GSV-index, local Euler obstruction, Euler
obstruction of a function, Brasselet number and d-th polar multiplicity
are obtained by solving the identities that tie them to mu of the germ,
of its f-slice and of a generic linear slice; the identities are heavily
overdetermined, and every equation not used in the solution is re-checked
exactly and reported.  The absolute Bruce-Roberts formula needs two
corrections for J = J(f) and the ideal I of X: c1 = dim O/(J + I), and
c2 = dim (I cap J)/(I*J), read off one pullback of J along the
generators of I (see _intersection_over_product).

A chain (g_1..g_k, p) that ends in a linear form p, such as the slice by
the generic linear form or by a linear f, is computed in one variable
less: the last variable with a nonzero coefficient in p is eliminated,
and X cap {p = 0} is isomorphic to the germ of the restricted generators
in C^(n-1).  Being an ICIS and the Milnor number belong to the germ, not
to a chain that cuts it out, so once the chain (g_1..g_k) is verified, an
admissible restricted chain gives the value of the full chain in C^n.  A
restricted generator that vanishes, or a restricted chain that is not
admissible, falls back to the full chain, so every accepted or rejected
draw and every error is that of the full chain.  A nonlinear f keeps the
full chain.

Being an ICIS is read off colengths that are computed anyway.  With I_j
the ideal of f_1..f_j and J_j the j x j minors of their Jacobian,
I_(j-1) + J_j lies in I_j + J_j, so a finite chain colength at step j
shows that f_1..f_j has an isolated singular locus.  Conversely, once
f_1..f_(j-1) and f_1..f_j are ICIS, the step colength is finite: a curve
of critical points of f_j on the germ of f_1..f_(j-1) would lie in the
germ of f_1..f_j and be singular there.  So the chain checks only the
dimension of each truncation, and an infinite step colength names a
non-isolated singular locus.  tau does the same for X of the right
dimension, because supp T^1_X = Sing X (Looijenga, Isolated Singular
Points on Complete Intersections, 1984).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .derlog import VarietyGerm
from .errors import (
    GenericityExhausted,
    ICISViolation,
    InfiniteColength,
    PreconditionViolation,
)
from .module_ops import jacobian_minors, module_sum, submodule_pullback
from .ring import Polynomial, RingSpec, gradient, restrict_to_hyperplane
from .standard_basis import ModuleElement, Submodule, is_finite, local_colength

GENERIC_COEFF_BOUND = 100
GENERIC_MAX_ATTEMPTS = 32
NON_ISOLATED = "non-isolated singular locus"


def _validate_germ_functions(fs) -> RingSpec:
    if not fs:
        raise PreconditionViolation("need at least one function")
    ring = fs[0].ring
    for f in fs:
        if f.ring != ring:
            raise PreconditionViolation("mixed rings")
        if f.is_zero():
            raise PreconditionViolation("zero function is not allowed here")
        if f.constant_term():
            raise PreconditionViolation("functions must vanish at the origin")
    return ring


def _dimension_reason(X: VarietyGerm) -> str | None:
    """Why X is not of dimension n - k, or None if it is."""
    n, k = X.ring.n, X.k
    if k > n:
        return f"{k} generators in {n} variables"
    if X.dimension != n - k:
        return f"dimension {X.dimension}, expected {n - k}"
    return None


def milnor_hypersurface(f: Polynomial):
    """Colength of the Jacobian ideal; INFINITE for a non-isolated singularity."""
    _validate_germ_functions([f])
    return local_colength(Submodule.ideal(f.ring, gradient(f)))


def milnor_icis(fs) -> int:
    """Milnor number of the ICIS cut out by the chain f_1..f_k.

    Every truncation of the chain must itself be an ICIS; the first one
    that is not raises ICISViolation with its index, naming a wrong
    dimension or a non-isolated singular locus.  A chain that ends in a
    linear form is computed on its hyperplane, in one variable less,
    with the same value and the same errors (see the module docstring).
    """
    fs = tuple(fs)
    if len(fs) > 1:
        return _slice_milnor(fs[:-1], fs[-1])
    return _milnor_chain(fs)


@lru_cache(maxsize=None)
def _milnor_chain(fs: tuple[Polynomial, ...]) -> int:
    """mu_k = colength(I_(k-1) + J_k) - mu_(k-1), the shorter chain first.

    Errors come in a fixed order: for each truncation j in turn its
    dimension, then its isolatedness, read off the step colength (see
    the module docstring).
    """
    ring = _validate_germ_functions(fs)
    k = len(fs)
    previous = _milnor_chain(fs[:-1]) if k > 1 else 0
    reason = _dimension_reason(VarietyGerm(ring, fs))
    if reason is not None:
        raise ICISViolation(reason, index=k)
    ideal = module_sum(Submodule.ideal(ring, fs[:-1]), jacobian_minors(fs, k))
    value = local_colength(ideal)
    if not is_finite(value):
        raise ICISViolation(NON_ISOLATED, index=k)
    return value - previous


def _slice_milnor(gens: tuple[Polynomial, ...], h: Polynomial) -> int:
    """The chain gens + (h,), on {h = 0} in one variable less for a linear h.

    The chain of gens is verified first, outside the fallback, because its
    error is the full chain's first; a zero restriction or a restricted
    chain that is not admissible falls back to the full chain, so every
    error is the one it raises.
    """
    ring = _validate_germ_functions(gens + (h,))
    if ring.n > 1 and h.degree() == 1:
        _milnor_chain(gens)
        restricted = restrict_to_hyperplane(gens, h)
        if all(restricted):
            try:
                return _milnor_chain(restricted)
            except ICISViolation:
                pass
    return _milnor_chain(gens + (h,))


def tjurina_icis(X: VarietyGerm) -> int:
    """Tjurina number of an ICIS: base dimension of a semiuniversal deformation.

    It is X.tjurina_colength, the colength in O^k of the module spanned by
    the n Jacobian columns and the k^2 products f_j * e_l, cached on the
    germ; the ambient germ has none.  Once X has the right dimension, the
    colength is finite exactly when X is isolated (supp T^1_X = Sing X),
    so an infinite one names a non-isolated singular locus.
    """
    reason = _dimension_reason(X)
    if reason is not None:
        raise ICISViolation(reason)
    value = X.tjurina_colength
    if not is_finite(value):
        raise ICISViolation(NON_ISOLATED)
    return value


def generic_slice(X: VarietyGerm, seed: int) -> tuple[Polynomial, int]:
    """A seeded random linear form p whose slice of X is an ICIS, and its mu.

    Coefficients are drawn uniformly from [-100, 100]; a draw is accepted
    iff the chain (g_1..g_k, p) is admissible, and its Milnor number is
    returned with p.  It is computed on {p = 0} in n - 1 variables, by
    eliminating the last variable that p involves, and on the full chain
    only when the restricted chain is not admissible; both decide the
    same draws (see the module docstring).  The same seed always yields
    the same form, so the result is cached per seed on the germ.
    """
    if X.is_ambient or X.dimension < 1:
        raise PreconditionViolation("generic slicing needs a variety of dimension >= 1")
    if seed not in X.generic_slices:
        X.generic_slices[seed] = _draw_generic_slice(X, seed)
    return X.generic_slices[seed]


def _draw_generic_slice(X: VarietyGerm, seed: int) -> tuple[Polynomial, int]:
    ring = X.ring
    rng = random.Random(seed)
    for _ in range(GENERIC_MAX_ATTEMPTS):
        coeffs = [rng.randint(-GENERIC_COEFF_BOUND, GENERIC_COEFF_BOUND) for _ in range(ring.n)]
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                mono = [0] * ring.n
                mono[i] = 1
                terms[tuple(mono)] = Fraction(c)
        if not terms:
            continue
        p = Polynomial(ring, terms)
        try:
            mu = milnor_icis(X.generators + (p,))
        except ICISViolation:
            continue
        return p, mu
    raise GenericityExhausted(
        f"no admissible linear form found in {GENERIC_MAX_ATTEMPTS} attempts"
    )


def _intersection_over_product(ideal: Submodule, jacobian: Submodule):
    """c2 = dim (I cap J)/(I*J) for the ideal I = (g_1..g_k) of an ICIS
    and J = J(f) with finite mu_f.

    The map a -> sum a_i * g_i takes O^k onto I with kernel Syz(g), so it
    takes K = {a : sum a_i * g_i in J}, the pullback of J, onto I cap J,
    and the preimage of I*J is L = J*O^k + Syz(g).  X is an ICIS, so g is
    a regular sequence and Syz(g) is spanned by the Koszul relations
    g_j * e_i - g_i * e_j (Bruns-Herzog, Cohen-Macaulay Rings, 1.6).
    Hence (I cap J)/(I*J) is K/L, and since L lies in K, its dimension is
    colength(L) - colength(K), both counted from L's one ladder.
    O^k/L = I/IJ is finite because O/J is.
    """
    ring, gens, k = ideal.ring, ideal.polynomials(), len(ideal.generators)
    e = [ModuleElement.unit_vector(ring, k, i) for i in range(k)]
    koszul = [e[i] * gj - e[j] * gi for (i, gi), (j, gj) in combinations(enumerate(gens), 2)]
    L = Submodule(ring, k, [ei * p for ei in e for p in jacobian.polynomials()] + koszul)
    outer, inner = local_colength(L, submodule_pullback(ideal.generators, jacobian))
    return outer - inner


@dataclass(frozen=True)
class IdentityCheck:
    """An exactly evaluated identity with both sides recorded."""

    name: str
    lhs: object
    rhs: object

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class InvariantReport:
    """All invariants of a pair (X, f) plus the exact identity checks.

    mu_f, c1 and c2 are None when f has a non-isolated singularity as an
    ambient germ, in which case the absolute identities are skipped.
    """

    n: int
    k: int
    d: int
    seed: int
    mu_X: int
    tau_X: int
    mu_X_f: int
    mu_X_p: int
    mu_br: int
    mu_br_rel: int
    tau_br: int
    gsv: int
    polar_md: int
    eu_X: int
    eu_fX: int
    brasselet: int
    mu_f: int | None = None
    c1: int | None = None
    c2: int | None = None
    checks: tuple[IdentityCheck, ...] = field(default_factory=tuple)

    @property
    def consistent(self) -> bool:
        return all(check.passed for check in self.checks)


def derived_invariants(X: VarietyGerm, f: Polynomial, seed: int = 42) -> InvariantReport:
    """Compute every invariant of the pair (X, f) and check all identities.

    Requires an ICIS X of dimension at least 3 and an ICIS slice
    X intersect f^-1(0).  The GSV-index, polar multiplicity, both Euler
    obstructions and the Brasselet number are solved from a designated
    minimal set of the connecting identities; all remaining identities are
    then verified exactly and recorded, never averaged.
    """
    if X.is_ambient:
        raise PreconditionViolation("derived invariants need a proper variety")
    ring = X.ring
    tau_X = tjurina_icis(X)
    d = X.dimension
    k = X.k
    if d < 3:
        raise PreconditionViolation(f"dimension {d} < 3")
    _validate_germ_functions([f])
    if f.ring != ring:
        raise PreconditionViolation("mixed rings")

    mu_X = milnor_icis(X.generators)
    try:
        mu_X_f = milnor_icis(X.generators + (f,))
    except ICISViolation as err:
        raise PreconditionViolation(f"the slice by f is not an ICIS ({err.reason})") from err
    _, mu_X_p = generic_slice(X, seed)

    mu_br, mu_br_rel, tau_br = X.bruce_roberts(f)
    for name, value in (("mu_br", mu_br), ("mu_br_rel", mu_br_rel), ("tau_br", tau_br)):
        if not is_finite(value):
            raise InfiniteColength(f"{name} is infinite for this pair")

    mu_f_value = milnor_hypersurface(f)
    mu_f = mu_f_value if is_finite(mu_f_value) else None
    c1 = c2 = None
    if mu_f is not None:
        jacobian = Submodule.ideal(ring, gradient(f))
        c1_value = local_colength(module_sum(jacobian, X.ideal))
        c2_value = _intersection_over_product(X.ideal, jacobian)
        if not is_finite(c1_value) or not is_finite(c2_value):
            raise InfiniteColength("correction terms are infinite despite finite mu_f")
        c1, c2 = c1_value, c2_value

    sign_d = (-1) ** d
    sign_d1 = (-1) ** (d - 1)
    gsv = mu_X + mu_X_f
    polar_md = mu_X + mu_X_p
    eu_X = 1 + sign_d1 * mu_X_p
    eu_fX = sign_d * (mu_X_f - mu_X_p)
    brasselet = 1 + sign_d1 * mu_X_f

    checks: list[IdentityCheck] = []
    checks.append(IdentityCheck("relative_formula", mu_br_rel, mu_X_f + mu_X - tau_X))
    relative_expressions = {
        "relative_gsv": gsv - tau_X,
        "relative_polar_euler": mu_X_f + polar_md + sign_d * (eu_X - 1) - tau_X,
        "relative_slice_euler": mu_X + mu_X_p + sign_d * eu_fX - tau_X,
        "relative_polar_obstruction": polar_md + sign_d * eu_fX - tau_X,
        "relative_brasselet": mu_X + sign_d1 * (brasselet - 1) - tau_X,
    }
    for name, value in relative_expressions.items():
        checks.append(IdentityCheck(name, mu_br_rel, value))
    if mu_f is not None:
        correction = mu_f - c1 + c2
        checks.append(
            IdentityCheck(
                "absolute_formula", mu_br, mu_f + mu_X_f + mu_X - tau_X - c1 + c2
            )
        )
        for name, value in relative_expressions.items():
            checks.append(
                IdentityCheck(name.replace("relative", "absolute"), mu_br, value + correction)
            )
        if k == 1:
            checks.append(IdentityCheck("hypersurface_corrections_cancel", c1, c2))
    checks.append(IdentityCheck("euler_obstruction_difference", brasselet, eu_X - eu_fX))

    return InvariantReport(
        n=ring.n,
        k=k,
        d=d,
        seed=seed,
        mu_X=mu_X,
        tau_X=tau_X,
        mu_X_f=mu_X_f,
        mu_X_p=mu_X_p,
        mu_br=mu_br,
        mu_br_rel=mu_br_rel,
        tau_br=tau_br,
        gsv=gsv,
        polar_md=polar_md,
        eu_X=eu_X,
        eu_fX=eu_fX,
        brasselet=brasselet,
        mu_f=mu_f,
        c1=c1,
        c2=c2,
        checks=tuple(checks),
    )
