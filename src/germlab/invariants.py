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
exactly and reported.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from math import gcd, lcm

from .derlog import VarietyGerm, df_theta
from .errors import (
    GenericityExhausted,
    ICISViolation,
    InfiniteColength,
    PreconditionViolation,
)
from .module_ops import (
    intersect,
    jacobian_minors,
    module_sum,
    product,
    subquotient_dimension,
)
from .ring import Polynomial, RingSpec, gradient, restrict_to_hyperplane
from .standard_basis import (
    ModuleElement,
    Submodule,
    is_finite,
    krull_dimension,
    local_colength,
    standard_basis,
)

GENERIC_COEFF_BOUND = 100
GENERIC_MAX_ATTEMPTS = 32


@dataclass(frozen=True)
class IcisResult:
    """Outcome of an ICIS verification: ok with the dimension, or a reason."""

    ok: bool
    dim: int | None = None
    reason: str | None = None


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


def verify_icis(ring: RingSpec, gens) -> IcisResult:
    """Check that gens define an ICIS: right dimension, singular at most 0."""
    return _verify_icis_cached(ring, tuple(gens))


@lru_cache(maxsize=None)
def _verify_icis_cached(ring: RingSpec, gens: tuple[Polynomial, ...]) -> IcisResult:
    _validate_germ_functions(gens)
    k = len(gens)
    n = ring.n
    expected = n - k
    if expected < 0:
        return IcisResult(False, reason=f"{k} generators in {n} variables")
    ideal = Submodule.ideal(ring, gens)
    basis = standard_basis(ideal)
    dim = krull_dimension(basis)
    if dim != expected:
        return IcisResult(False, reason=f"dimension {dim}, expected {expected}")
    total = module_sum(ideal, jacobian_minors(gens, k))
    if not is_finite(local_colength(total)):
        return IcisResult(False, reason="non-isolated singular locus")
    return IcisResult(True, dim=expected)


def milnor_hypersurface(f: Polynomial):
    """Colength of the Jacobian ideal; INFINITE for a non-isolated singularity."""
    _validate_germ_functions([f])
    return local_colength(Submodule.ideal(f.ring, gradient(f)))


def milnor_icis(fs) -> int:
    """Milnor number of the ICIS cut out by the chain f_1..f_k.

    Every truncation of the chain must itself be an ICIS (ICISViolation
    otherwise); an infinite intermediate colength signals a non-generic
    ordering of the chain and raises InfiniteColength.  A chain that ends
    in a linear form is computed on its hyperplane, in one variable less,
    with the same value and the same errors (see the module docstring).
    """
    fs = tuple(fs)
    if len(fs) > 1:
        return _slice_milnor(fs[:-1], fs[-1])
    return _milnor_chain(fs)


@lru_cache(maxsize=None)
def _milnor_chain(fs: tuple[Polynomial, ...]) -> int:
    ring = _validate_germ_functions(fs)
    for j in range(1, len(fs) + 1):
        result = verify_icis(ring, fs[:j])
        if not result.ok:
            raise ICISViolation(result.reason, index=j)
    mu = 0
    for j in range(1, len(fs) + 1):
        ideal = module_sum(
            Submodule.ideal(ring, fs[: j - 1]), jacobian_minors(fs[:j], j)
        )
        value = local_colength(ideal)
        if not is_finite(value):
            raise InfiniteColength(
                f"infinite colength at chain step {j}; reorder the generators"
            )
        mu = value - mu
    return mu


def _slice_milnor(gens: tuple[Polynomial, ...], h: Polynomial) -> int:
    """The chain gens + (h,), on {h = 0} in one variable less for a linear h.

    The chain of gens is verified first, because the full chain requires
    it; a zero restriction or a restricted chain that is not admissible
    falls back to the full chain, so every error is the one it raises.
    """
    ring = _validate_germ_functions(gens + (h,))
    if ring.n > 1 and h.degree() == 1:
        try:
            _milnor_chain(gens)
            restricted = restrict_to_hyperplane(gens, h)
            if all(restricted):
                return _milnor_chain(restricted)
        except (ICISViolation, InfiniteColength):
            pass
    return _milnor_chain(gens + (h,))


def tjurina_icis(X: VarietyGerm) -> int:
    """Tjurina number of an ICIS: base dimension of a semiuniversal deformation.

    Computed as the colength in O^k of the module spanned by the n Jacobian
    columns and the k^2 products f_j * e_l.
    """
    if X.is_ambient:
        raise PreconditionViolation("the ambient germ has no Tjurina number")
    return _tjurina_cached(X.ring, X.generators)


@lru_cache(maxsize=None)
def _tjurina_cached(ring: RingSpec, gens: tuple[Polynomial, ...]) -> int:
    result = verify_icis(ring, gens)
    if not result.ok:
        raise ICISViolation(result.reason)
    k = len(gens)
    n = ring.n
    columns = [
        ModuleElement.from_polynomials([g.derivative(i) for g in gens])
        for i in range(n)
    ]
    trivial = [
        ModuleElement.unit_vector(ring, k, l) * g for g in gens for l in range(k)
    ]
    module = Submodule(ring, k, columns + trivial)
    value = local_colength(module)
    if not is_finite(value):
        raise InfiniteColength("Tjurina module has infinite colength")
    return value


def generic_linear_form(X: VarietyGerm, seed: int) -> Polynomial:
    """A seeded random linear form p whose slice of X is an ICIS.

    Coefficients are drawn uniformly from [-100, 100]; a draw is accepted
    iff I(X,0) + (p) verifies as an ICIS with finite slice Milnor number.
    The slice Milnor number is computed on {p = 0} in n - 1 variables, by
    eliminating the last variable that p involves, and on the full chain
    (g_1..g_k, p) only when the restricted chain is not admissible; both
    decide the same draws (see the module docstring).  The same seed
    always yields the same form.
    """
    p, _ = _generic_slice(X, seed)
    return p


def _generic_slice(X: VarietyGerm, seed: int) -> tuple[Polynomial, int]:
    if X.is_ambient or X.dimension < 1:
        raise PreconditionViolation("generic slicing needs a variety of dimension >= 1")
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
        except (ICISViolation, InfiniteColength):
            continue
        return p, mu
    raise GenericityExhausted(
        f"no admissible linear form found in {GENERIC_MAX_ATTEMPTS} attempts"
    )


def detect_quasihomogeneous(f: Polynomial | None, X: VarietyGerm):
    """Positive rational weights making f and every generator of X
    weighted-homogeneous, or None.

    The constraints say that within each polynomial all exponent vectors
    have equal weighted degree; the candidate weights form the kernel of
    the exponent-difference matrix, and a positive point is searched by a
    bounded sweep of rational combinations of the kernel basis.  Weights
    are returned as coprime positive integers.
    """
    ring = X.ring
    polys = [] if X.is_ambient else list(X.generators)
    if f is not None and not f.is_zero():
        if f.ring != ring:
            raise ValueError("mixed rings")
        polys.append(f)
    n = ring.n
    rows: list[tuple[Fraction, ...]] = []
    for p in polys:
        monos = sorted(p.terms)
        base = monos[0]
        for mono in monos[1:]:
            rows.append(tuple(Fraction(a - b) for a, b in zip(mono, base)))
    kernel = _nullspace(rows, n)
    if not kernel:
        return None
    t = len(kernel)
    for bound in range(1, 13):
        if (2 * bound + 1) ** t > 3_000_000:
            break
        for lam in iter_product(range(-bound, bound + 1), repeat=t):
            if max(abs(v) for v in lam) != bound:
                continue
            weights = [
                sum(l * kernel[j][i] for j, l in enumerate(lam)) for i in range(n)
            ]
            if all(w > 0 for w in weights):
                return _normalize_weights(weights)
    return None


def _nullspace(rows: list[tuple[Fraction, ...]], n: int) -> list[list[Fraction]]:
    """Basis of the solution space of rows * w = 0, by exact elimination."""
    matrix = [list(row) for row in rows]
    pivots: list[int] = []
    row_idx = 0
    for col in range(n):
        pivot = None
        for r in range(row_idx, len(matrix)):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[row_idx], matrix[pivot] = matrix[pivot], matrix[row_idx]
        inv = 1 / matrix[row_idx][col]
        matrix[row_idx] = [v * inv for v in matrix[row_idx]]
        for r in range(len(matrix)):
            if r != row_idx and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row_idx])]
        pivots.append(col)
        row_idx += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -matrix[r][fc]
        basis.append(vec)
    return basis


def _normalize_weights(weights: list[Fraction]) -> tuple[int, ...]:
    denom = lcm(*(w.denominator for w in weights))
    ints = [int(w * denom) for w in weights]
    return tuple(v // gcd(*ints) for v in ints)


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
    result = verify_icis(ring, X.generators)
    if not result.ok:
        raise ICISViolation(result.reason)
    d = result.dim
    k = X.k
    if d < 3:
        raise PreconditionViolation(f"dimension {d} < 3")
    _validate_germ_functions([f])
    if f.ring != ring:
        raise PreconditionViolation("mixed rings")

    mu_X = milnor_icis(X.generators)
    tau_X = tjurina_icis(X)
    try:
        mu_X_f = milnor_icis(X.generators + (f,))
    except ICISViolation as err:
        raise PreconditionViolation(f"the slice by f is not an ICIS ({err.reason})") from err
    _, mu_X_p = _generic_slice(X, seed)

    image = df_theta(f, X.tangent_module)
    mu_br = local_colength(image)
    mu_br_rel = local_colength(module_sum(image, X.ideal))
    tau_br = local_colength(module_sum(image, Submodule.ideal(ring, [f])))
    for name, value in (("mu_br", mu_br), ("mu_br_rel", mu_br_rel), ("tau_br", tau_br)):
        if not is_finite(value):
            raise InfiniteColength(f"{name} is infinite for this pair")

    mu_f_value = milnor_hypersurface(f)
    mu_f = mu_f_value if is_finite(mu_f_value) else None
    c1 = c2 = None
    if mu_f is not None:
        jacobian = Submodule.ideal(ring, gradient(f))
        c1_value = local_colength(module_sum(jacobian, X.ideal))
        c2_value = subquotient_dimension(
            intersect(X.ideal, jacobian), product(X.ideal, jacobian)
        )
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
