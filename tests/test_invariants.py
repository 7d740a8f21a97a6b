"""Milnor/Tjurina chains, the reference ICIS check, slices, weights, the
correction terms c1 and c2 and the derived-invariant reports."""

import random
from dataclasses import dataclass

import pytest

import germlab.derlog as derlog
import germlab.invariants as inv
from germlab import (
    INFINITE,
    GenericityExhausted,
    GermlabError,
    ICISViolation,
    Polynomial,
    PreconditionViolation,
    ReductionLimitExceeded,
    RingSpec,
    Submodule,
    VarietyGerm,
    derived_invariants,
    generic_slice,
    gradient,
    intersect,
    is_finite,
    jacobian_minors,
    local_colength,
    milnor_hypersurface,
    milnor_icis,
    module_sum,
    step_cap,
    tjurina_icis,
)
from germlab.invariants import (
    NON_ISOLATED,
    _dimension_reason,
    _milnor_chain,
    _validate_germ_functions,
)
from germlab.ring import restrict_to_hyperplane

import _oracle as oracle
import germs
from germs import (
    AXIS3,
    BRIESKORN3,
    CONE3,
    CROSS,
    CURVE_K2,
    D3_PAIRS,
    LOW_DIM_PAIRS,
    NONQH,
    PENCIL5,
    QUADRIC4,
    R1,
    R2,
    R3,
    R4,
    SUSPENSION4,
    germ,
    poly,
    report,
)


def as_vec(p):
    return {(0, m): c for m, c in p.terms.items()}


# -------------------------------------------------------------- hypersurfaces


def test_milnor_hypersurface_examples():
    assert milnor_hypersurface(poly("x^2 + y^2", R2)) == 1
    assert milnor_hypersurface(poly("x^3 + y^2", R2)) == 2
    assert milnor_hypersurface(poly("x^6", R1)) == 5
    assert milnor_hypersurface(poly("x^2*y", R2)) is INFINITE


def test_milnor_hypersurface_preconditions():
    with pytest.raises(PreconditionViolation):
        milnor_hypersurface(poly("0", R2))
    with pytest.raises(PreconditionViolation):
        milnor_hypersurface(poly("1 + x", R2))


# ----------------------------------------------------------------- verify


@dataclass(frozen=True)
class IcisResult:
    """Outcome of an ICIS verification: ok with the dimension, or a reason."""

    ok: bool
    dim: int | None = None
    reason: str | None = None


def verify_icis(ring: RingSpec, gens) -> IcisResult:
    """Check that gens define an ICIS: right dimension, singular at most 0.

    An independent route to the errors of the pipeline, which reads
    isolatedness off its own colengths (see the germlab.invariants
    docstring): the dimension, then the colength of I + J_k.
    """
    gens = tuple(gens)
    _validate_germ_functions(gens)
    X = VarietyGerm(ring, gens)
    reason = _dimension_reason(X)
    if reason is not None:
        return IcisResult(False, reason=reason)
    total = module_sum(X.ideal, jacobian_minors(gens, X.k))
    if not is_finite(local_colength(total)):
        return IcisResult(False, reason=NON_ISOLATED)
    return IcisResult(True, dim=X.dimension)


def test_verify_icis_examples():
    ok = verify_icis(R3, (poly("x^2+y^2+z^2", R3),))
    assert ok.ok and ok.dim == 2
    bad = verify_icis(R3, (poly("x*y", R3), poly("x*z", R3)))
    assert not bad.ok and bad.reason == "dimension 2, expected 1"
    fat = verify_icis(R2, (poly("x^2", R2),))
    assert not fat.ok and "non-isolated" in fat.reason
    smooth = verify_icis(R2, (poly("x", R2),))
    assert smooth.ok and smooth.dim == 1


# ------------------------------------------------------------------ chains


def test_milnor_icis_base_case():
    assert milnor_icis([poly("x^2+y^2+z^2", R3)]) == 1


def test_milnor_icis_curve():
    assert milnor_icis([poly("x^2+y^2+z^2", R3), poly("x*y", R3)]) == 5


def test_milnor_icis_chain_violation():
    with pytest.raises(ICISViolation):
        milnor_icis([poly("x*y", R3), poly("x*z", R3)])


def test_chain_errors_come_truncation_by_truncation():
    # the first truncation is singular along the y-axis and the second has
    # the wrong dimension: the first truncation's error wins
    chain = [poly("x^2*y + z^2 + w^2", R4), poly("x^2*y*z + z^3 + z*w^2", R4)]
    with pytest.raises(ICISViolation, match="non-isolated") as info:
        milnor_icis(chain)
    assert info.value.index == 1
    assert verify_icis(R4, chain).reason == "dimension 3, expected 2"


def test_admissible_icis_in_a_non_admissible_order():
    # X is an ICIS curve, but its first generator alone is not isolated; an
    # infinite chain colength never follows two verified truncations (a
    # critical curve of f_j on X_(j-1) would be a singular curve of X_j), so
    # the truncation is what the error names
    quadric, cross = poly("x^2 + y^2 + z^2", R3), poly("x*y", R3)
    assert milnor_icis([quadric, cross]) == 5
    with pytest.raises(ICISViolation, match="non-isolated") as info:
        milnor_icis([cross, quadric])
    assert info.value.index == 1


def _first_violation(fs):
    """(reason, index) of verify_icis on the first truncation that is not an ICIS."""
    for j in range(1, len(fs) + 1):
        result = verify_icis(fs[0].ring, fs[:j])
        if not result.ok:
            return result.reason, j
    return None


def _violation(compute):
    try:
        compute()
    except ICISViolation as err:
        return err.reason, err.index
    return None


def _random_generator(rng, ring, linear):
    """A sparse generator: one or two coordinate terms if linear, else one to
    three terms of degree 2 or 3, seven times in ten plus some pure powers."""
    n = ring.n
    terms = {}
    for _ in range(rng.randint(1, 2) if linear else rng.randint(1, 3)):
        mono = [0] * n
        for _ in range(1 if linear else rng.randint(2, 3)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = rng.choice((-2, -1, 1, 2, 3))
    if not linear and rng.random() < 0.7:
        for i in rng.sample(range(n), rng.randint(1, n)):
            mono = [0] * n
            mono[i] = rng.randint(2, 4)
            terms[tuple(mono)] = terms.get(tuple(mono), 0) + rng.choice((1, 2, -3))
    g = Polynomial(ring, terms)
    return g if not g.is_zero() else _random_generator(rng, ring, linear)


def _random_chain(rng):
    """One or two generators in two to four variables; 40 % end in a linear form."""
    ring = rng.choice((R2, R3, R3, R4))
    k = rng.randint(1, 2)
    linear = k == 2 and rng.random() < 0.4
    return tuple(_random_generator(rng, ring, linear and j == k - 1) for j in range(k))


NON_ICIS_CHAINS = [
    (poly("x*y", R3), poly("x*z", R3)),
    (poly("x*y", R3), poly("x^2 + y^2 + z^2", R3)),
    (poly("x^2", R2),),
    (poly("x^2*y + z^2 + w^2", R4), poly("x^2*y*z + z^3 + z*w^2", R4)),
    (poly("x^2 + y^2 + z^2 + w^2", R4), poly("x^2 + y^2 + z^2 + 2*w^2", R4)),
    (poly("x*y + z^2 + w^2", R4), poly("x", R4)),
    QUADRIC4.generators * 2,
    restrict_to_hyperplane((poly("x^2 + y*w + z^2", R4), poly("y^2 + z^2 + w^2", R4)),
                           poly("w", R4)),
]


def test_pipeline_errors_match_verify_icis():
    # milnor_icis and tjurina_icis name a non-isolated singular locus from
    # their own colength; verify_icis decides it from I + J_k, on the first
    # failing truncation for the chain and on the whole chain for tau.  A
    # chain on which some route reaches the step cap is not compared.
    rng = random.Random(22)
    chains = [(True, fs) for fs in NON_ICIS_CHAINS]
    chains += [(False, _random_chain(rng)) for _ in range(60)]
    reasons = []
    for known_bad, fs in chains:
        X = VarietyGerm(fs[0].ring, fs)
        try:
            with step_cap(2000):
                first = _first_violation(fs)
                whole = verify_icis(X.ring, fs)
                milnor = _violation(lambda: milnor_icis(fs))
                tjurina = _violation(lambda: tjurina_icis(X))
        except ReductionLimitExceeded:
            assert not known_bad, fs
            continue
        assert milnor == first, fs
        assert tjurina == (None if whole.ok else (whole.reason, None)), fs
        assert first or not known_bad, fs
        reasons.append(first[0] if first else "ICIS")
    assert len(reasons) >= 60
    assert reasons.count("ICIS") >= 10
    assert reasons.count("non-isolated singular locus") >= 10


def test_milnor_icis_zero_dimensional():
    assert milnor_icis([poly("x", R2), poly("y", R2)]) == 0
    assert milnor_icis([poly("x*y", R2), poly("x + y", R2)]) == 1


def test_combined_chain_ideal_against_oracle():
    # the second chain step for (x^2+y^2+z^2, x*y)
    h, g = poly("x^2+y^2+z^2", R3), poly("x*y", R3)
    gens = [h, h.derivative(0) * g.derivative(1) - h.derivative(1) * g.derivative(0),
            h.derivative(0) * g.derivative(2) - h.derivative(2) * g.derivative(0),
            h.derivative(1) * g.derivative(2) - h.derivative(2) * g.derivative(1)]
    assert oracle.truncated_colength(3, 1, [as_vec(p) for p in gens]) == 6


def test_order_independence_when_both_orders_admissible():
    pairs = [
        (R3, "x^2+y^2+z^2", "x^2+2*y^2+3*z^2", 5),
        (R4, "x^2+y^2+z^2+w^2", "x^2+2*y^2+3*z^2+4*w^2", 7),
        (R3, "x^2+y^2+z^2", "x^3+y^3+z^3", 13),
        (R3, "x^2+y^3+z^3", "x^3+y^2+z^2", 7),
    ]
    for ring, e1, e2, expected in pairs:
        f1, f2 = poly(e1, ring), poly(e2, ring)
        assert milnor_icis([f1, f2]) == expected
        assert milnor_icis([f2, f1]) == expected


# ----------------------------------------------------------------- tjurina


def test_tjurina_examples():
    assert tjurina_icis(QUADRIC4) == 1
    assert tjurina_icis(BRIESKORN3) == 2
    assert tjurina_icis(NONQH) == 11


def test_tjurina_module_against_oracle():
    # rank-2 module colength for the curve (x^2+y^2+z^2, x*y)
    gens = CURVE_K2.generators
    columns = [
        {(j, m): c for j, g in enumerate(gens) for m, c in g.derivative(i).terms.items()}
        for i in range(3)
    ]
    trivial = [
        {(l, m): c for m, c in g.terms.items()} for g in gens for l in range(2)
    ]
    expected = oracle.truncated_colength(3, 2, columns + trivial)
    assert tjurina_icis(CURVE_K2) == expected == 5


def test_tjurina_requires_icis():
    with pytest.raises(ICISViolation):
        tjurina_icis(germ(R3, "x*y", "x*z"))
    with pytest.raises(PreconditionViolation):
        tjurina_icis(VarietyGerm.ambient(R3))


def test_tjurina_is_cached_per_germ(monkeypatch):
    # tau lives on the germ: one colength per germ, none on a repeat call,
    # and a second germ with equal generators computes its own
    calls = []

    def counted(module):
        calls.append(module)
        return local_colength(module)

    monkeypatch.setattr(derlog, "local_colength", counted)
    g = "x^2 + y^3 + z^7 + x*y*z^2"
    first, second = germ(R3, g), germ(R3, g)
    assert first.generators == second.generators
    assert tjurina_icis(first) == tjurina_icis(first)
    assert len(calls) == 1
    assert tjurina_icis(second) == tjurina_icis(first)
    assert len(calls) == 2


# ----------------------------------------------------------- generic slices


def test_generic_slice_is_deterministic():
    p1, mu1 = generic_slice(QUADRIC4, 42)
    p2, mu2 = generic_slice(QUADRIC4, 42)
    assert (p1, mu1) == (p2, mu2)
    assert p1.degree() == 1


def test_generic_slice_is_cached_per_seed_on_the_germ(monkeypatch):
    # a warm call draws nothing; another seed, or another germ with equal
    # generators, draws its own, and the same seed gives the same form
    calls = []

    def counted(fs):
        calls.append(fs)
        return milnor_icis(fs)

    monkeypatch.setattr(inv, "milnor_icis", counted)
    g = "x^2 + y^2 + z^2 + w^3 + x*y*z"
    first, second = germ(R4, g), germ(R4, g)
    drawn = generic_slice(first, 42)
    assert calls
    calls.clear()
    assert generic_slice(first, 42) == drawn
    assert calls == []
    assert generic_slice(second, 42) == drawn
    assert calls
    calls.clear()
    generic_slice(first, 7)
    assert calls


def test_generic_slice_accepts_valid_slice():
    p, mu = generic_slice(QUADRIC4, 42)
    assert mu == 1
    result = verify_icis(R4, QUADRIC4.generators + (p,))
    assert result.ok


def test_generic_slice_value_stable_across_seeds():
    _, mu_a = generic_slice(BRIESKORN3, 42)
    _, mu_b = generic_slice(BRIESKORN3, 7)
    assert mu_a == mu_b == 1


def test_generic_slice_needs_positive_dimension():
    point = germ(R2, "x", "y")
    with pytest.raises(PreconditionViolation):
        generic_slice(point, 42)


def test_generic_slice_of_curve_is_zero_dimensional():
    p, mu = generic_slice(CURVE_K2, 42)
    assert p.degree() == 1
    assert mu >= 0


def test_genericity_exhausted_on_fat_point():
    # every slice of the non-reduced germ V(x^2) fails the chain check
    with pytest.raises(GenericityExhausted):
        generic_slice(germ(R2, "x^2"), 1)


def test_slice_milnor_matches_direct_substitution():
    # the chain value for X cap p^-1(0) must equal the Milnor number of the
    # germ obtained by eliminating w = -(x + 2y + 3z)/5 into three variables
    h4 = poly("x^3 + y^7 + x*y^5 + z^2 + w^2", R4)
    p4 = poly("x + 2*y + 3*z + 5*w", R4)
    (h3,) = restrict_to_hyperplane([h4], p4)
    assert h3.ring == R3
    assert milnor_icis([h4, p4]) == _milnor_chain((h4, p4)) == milnor_hypersurface(h3) == 2


def _linear(ring, coeffs):
    return sum(
        (c * Polynomial.variable(ring, i) for i, c in enumerate(coeffs) if c),
        Polynomial.zero(ring),
    )


def _slice_forms(ring, seed):
    """Each coordinate, seeded forms with zero coefficients, and a zero last one."""
    rng = random.Random(seed)
    n = ring.n
    forms = [[int(i == j) for i in range(n)] for j in range(n)]
    forms += [[rng.choice((-3, -1, 0, 2, 5)) for _ in range(n)] for _ in range(3)]
    forms.append([rng.randint(1, 4) for _ in range(n - 1)] + [0])
    return [_linear(ring, c) for c in forms if any(c)]


def _outcome(compute):
    try:
        return compute()
    except GermlabError as err:
        return type(err), str(err)


CORPUS = [
    (name, X) for name, X in vars(germs).items()
    if isinstance(X, VarietyGerm) and not X.is_ambient
]


@pytest.mark.parametrize("name, X", CORPUS, ids=[name for name, _ in CORPUS])
def test_slice_milnor_matches_full_chain_on_corpus(name, X):
    # milnor_icis restricts a chain that ends in a linear form; the full
    # chain in all n variables is the reference
    gens = X.generators
    own = _outcome(lambda: _milnor_chain(gens))
    for h in _slice_forms(X.ring, seed=len(name)):
        full = _outcome(lambda: _milnor_chain(gens + (h,)))
        assert _outcome(lambda: milnor_icis(gens + (h,))) == full, (name, h)
        restricted = restrict_to_hyperplane(gens, h)
        direct = _outcome(lambda: _milnor_chain(restricted)) if all(restricted) else None
        if isinstance(own, int) and isinstance(direct, int):
            # X cap {h = 0} is the restricted germ: same Milnor number
            assert direct == full, (name, h)


def test_slice_milnor_falls_back_when_restricted_chain_is_not_admissible():
    # on w = 0 the first generator restricts to x^2 + z^2, singular along the
    # y-axis, while X cap {w = 0} itself is an ICIS curve
    gens = (poly("x^2 + y*w + z^2", R4), poly("y^2 + z^2 + w^2", R4))
    w = poly("w", R4)
    with pytest.raises(ICISViolation, match="non-isolated"):
        _milnor_chain(restrict_to_hyperplane(gens, w))
    assert milnor_icis(gens + (w,)) == _milnor_chain(gens + (w,)) == 5


def test_linear_slice_is_computed_in_one_variable_less():
    # the restricted chain needs far fewer reduction steps than the full one:
    # at most 1 per run against 57 in the full chain's largest run
    chain = (poly("x^3 + y^3 + z^4 + w^5", R4), poly("x + y - z - w", R4))
    with step_cap(20):
        assert milnor_icis(chain) == 12
        with pytest.raises(ReductionLimitExceeded):
            _milnor_chain(chain)


def test_slice_route_keeps_the_validation_errors():
    g = poly("x^2 + y^2 + z^2 + w^2", R4)
    for chain in ((g, poly("x", R3)), (g, poly("0", R4)), (g, poly("x + 1", R4))):
        expected = _outcome(lambda: _milnor_chain(chain))
        assert expected[0] is PreconditionViolation
        assert _outcome(lambda: milnor_icis(chain)) == expected


HYPERSURFACES = [(name, X) for name, X in CORPUS if X.k == 1]


@pytest.mark.parametrize("name, X", HYPERSURFACES, ids=[name for name, _ in HYPERSURFACES])
def test_restricted_hypersurface_milnor_matches_oracle(name, X):
    (g,) = X.generators
    for h in _slice_forms(X.ring, seed=len(name)):
        (image,) = restrict_to_hyperplane([g], h)
        if image.is_zero() or not is_finite(mu := milnor_hypersurface(image)):
            continue
        jacobian = [as_vec(d) for d in gradient(image)]
        assert mu == oracle.truncated_colength(image.ring.n, 1, jacobian), (name, h)


def test_tau_at_most_mu_for_hypersurfaces():
    from germlab import Submodule, colength, gradient, standard_basis

    for expr in ("x^3+y^2+z^2", "x^3+x*y^3+z^2", "x^3+y^5+z^2"):
        f = poly(expr, R3)
        mu = milnor_hypersurface(f)
        tau = tjurina_icis(germ(R3, expr))
        assert tau <= mu
        assert tau == colength(
            standard_basis(Submodule.ideal(R3, gradient(f) + [f]))
        )


# ------------------------------------------------------------------- weights


def test_weights_for_homogeneous_pair():
    assert oracle.detect_quasihomogeneous(poly("x", R4), QUADRIC4) == (1, 1, 1, 1)


def test_weights_two_monomial_system():
    ambient = VarietyGerm.ambient(R2)
    assert oracle.detect_quasihomogeneous(poly("x^3 + y^2", R2), ambient) == (2, 3)


def test_weights_infeasible_system():
    ambient = VarietyGerm.ambient(R2)
    assert oracle.detect_quasihomogeneous(poly("x^3 + y^7 + x*y^5", R2), ambient) is None


def test_weights_brieskorn():
    assert oracle.detect_quasihomogeneous(poly("x", R4), BRIESKORN3) == (3, 3, 3, 2)


def test_weights_cover_variety_and_function_together():
    assert oracle.detect_quasihomogeneous(poly("x + y", R2), CROSS) == (1, 1)
    # the cusp forces (3,2); x + y forces equal weights
    cusp = germ(R2, "x^2 + y^3")
    assert oracle.detect_quasihomogeneous(poly("x + y", R2), cusp) is None
    assert oracle.detect_quasihomogeneous(None, cusp) == (3, 2)


# ------------------------------------------------------------ corrections

# k = 2 pairs with finite mu_f, and their (c1, c2)
K2_CORRECTIONS = [
    (CURVE_K2, poly("x^2 + 2*y^2 + 3*z^2 + x*z", R3), (1, 2)),
    (CURVE_K2, poly("x^3 + y^2 + z^2", R3), (2, 4)),
    (AXIS3, poly("x^2 + y^2 + z^2", R3), (1, 2)),
]


def corrections(generators, f):
    """(c1, c2) of the ideal of `generators` and J(f), as the pipeline counts them."""
    ideal, jacobian = Submodule.ideal(f.ring, generators), Submodule.ideal(f.ring, gradient(f))
    c1 = local_colength(module_sum(jacobian, ideal))
    return c1, inv._intersection_over_product(ideal, jacobian)


def test_c2_matches_truncation_oracle():
    # I = (h), J = J(h) for the cusp h: I lies in J, so c2 = dim I/hJ = mu(h)
    h = poly("x^2 + y^3", R2)
    I, J = Submodule.ideal(R2, [h]), Submodule.ideal(R2, gradient(h))
    expected = oracle.truncated_subquotient(
        2, 1,
        [dict(g.terms) for g in intersect(I, J).generators],
        [{(0, m): c for m, c in (h * p).terms.items()} for p in gradient(h)],
    )
    assert corrections([h], h)[1] == expected == 2


def test_c2_is_twice_c1_for_two_generators():
    # c2 = dim Tor_1(O/I, O/J), the middle Koszul homology of (g_1, g_2) on
    # the Artinian Gorenstein O/J: h_0 = c1, h_2 = dim Ann(I) = c1 by
    # duality, and h_0 - h_1 + h_2 = 0, so c2 = 2 * c1
    rep = report("pencil5_quadric")
    assert (rep.k, rep.c1, rep.c2) == (2, 1, 2)
    for X, f, expected in K2_CORRECTIONS:
        c1, c2 = corrections(X.generators, f)
        assert (c1, c2) == expected and c2 == 2 * c1, (X, f)


def test_c2_is_invariant_under_reversing_the_generators():
    # every corpus pair has finite mu_f
    pairs = [(X, f) for _, X, f in D3_PAIRS + LOW_DIM_PAIRS] + [
        (X, f) for X, f, _ in K2_CORRECTIONS
    ]
    for X, f in pairs:
        if X.k > 1:
            assert corrections(X.generators[::-1], f) == corrections(X.generators, f), (X, f)


# ---------------------------------------------------------------- reports


def test_report_sphere_example():
    rep = report("sphere_x")
    assert (rep.mu_X, rep.tau_X, rep.mu_X_f, rep.mu_X_p) == (1, 1, 1, 1)
    assert (rep.gsv, rep.polar_md, rep.eu_X, rep.eu_fX, rep.brasselet) == (2, 2, 2, 0, 2)
    assert (rep.mu_f, rep.c1, rep.c2) == (0, 0, 0)
    assert rep.consistent


def test_report_brieskorn_example():
    rep = report("brieskorn3_x")
    assert (rep.mu_X, rep.tau_X, rep.mu_X_f, rep.mu_X_p) == (2, 2, 2, 1)
    assert (rep.gsv, rep.polar_md, rep.eu_X, rep.eu_fX, rep.brasselet) == (4, 3, 2, -1, 3)
    assert rep.consistent


def test_report_nontrivial_corrections():
    rep = report("sphere_quadric")
    assert (rep.mu_f, rep.c1, rep.c2) == (1, 1, 1)
    assert rep.mu_X_f == 7
    assert rep.mu_br == 8
    assert rep.consistent


def test_report_codimension_two_pencil():
    rep = report("pencil5_x")
    assert (rep.n, rep.k, rep.d) == (5, 2, 3)
    assert (rep.mu_X, rep.tau_X, rep.mu_X_f, rep.mu_X_p) == (9, 9, 7, 7)
    assert (rep.gsv, rep.polar_md, rep.eu_X, rep.eu_fX, rep.brasselet) == (16, 16, 8, 0, 8)
    assert rep.mu_br == rep.mu_br_rel == 7
    assert rep.consistent


def test_report_with_distinct_milnor_and_tjurina():
    # suspension of a non-quasihomogeneous curve: the tau correction is visible
    rep = report("suspension_z")
    assert (rep.mu_X, rep.tau_X) == (12, 11)
    assert (rep.mu_X_f, rep.mu_X_p) == (12, 2)
    assert rep.mu_br == rep.mu_br_rel == 13  # = 12 + 12 - 11
    assert rep.tau_br == 11
    assert (rep.gsv, rep.polar_md, rep.eu_X, rep.eu_fX, rep.brasselet) == (24, 14, 3, -10, 13)
    assert rep.consistent
    assert oracle.detect_quasihomogeneous(poly("z", R4), SUSPENSION4) is None


def test_report_value_signs():
    from germs import D3_PAIRS

    for name, _, _ in D3_PAIRS:
        rep = report(name)
        for attr in ("mu_X", "tau_X", "mu_X_f", "mu_X_p", "mu_br", "mu_br_rel",
                     "tau_br", "gsv", "polar_md"):
            assert isinstance(getattr(rep, attr), int)
            assert getattr(rep, attr) >= 0
        for attr in ("eu_X", "eu_fX", "brasselet"):
            assert isinstance(getattr(rep, attr), int)


def test_generic_form_slicing_itself_gives_zero_obstruction():
    p, _ = generic_slice(QUADRIC4, 42)
    rep = derived_invariants(QUADRIC4, p, seed=42)
    assert rep.eu_fX == 0
    assert rep.consistent


def test_report_requires_dimension_three():
    with pytest.raises(PreconditionViolation, match="dimension 2 < 3"):
        derived_invariants(CONE3, poly("x", R3), seed=1)


def test_report_rejects_non_icis_slice():
    # f inside the ideal slices X into itself
    with pytest.raises(PreconditionViolation, match="slice"):
        derived_invariants(QUADRIC4, QUADRIC4.generators[0], seed=1)


def test_report_rejects_non_icis_linear_slice_with_the_full_chain_error():
    # on x = 0 the A1 germ xy + z^2 + w^2 restricts to z^2 + w^2, singular
    # along the y-axis: the error names the slice, as the full chain does
    X = germ(R4, "x*y + z^2 + w^2")
    with pytest.raises(PreconditionViolation) as err:
        derived_invariants(X, poly("x", R4), seed=1)
    assert str(err.value) == "the slice by f is not an ICIS (non-isolated singular locus)"


def test_report_rejects_ambient():
    with pytest.raises(PreconditionViolation):
        derived_invariants(VarietyGerm.ambient(R4), poly("x", R4), seed=1)


def test_quasihomogeneous_pairs_have_equal_br_numbers():
    cases = [
        (QUADRIC4, poly("x", R4)),
        (BRIESKORN3, poly("x", R4)),
        (CROSS, poly("x + y", R2)),
    ]
    for X, f in cases:
        assert oracle.detect_quasihomogeneous(f, X) is not None
        mu_br, _, tau_br = X.bruce_roberts(f)
        assert mu_br == tau_br
