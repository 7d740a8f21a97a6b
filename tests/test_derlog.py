"""Tangent modules and the three Bruce-Roberts-type numbers."""

import pytest

from germlab import (
    INFINITE,
    ModuleElement,
    Polynomial,
    PreconditionViolation,
    Submodule,
    VarietyGerm,
    df_theta,
    gradient,
    is_finite,
    local_colength,
    module_sum,
    standard_basis,
)

from germlab.derlog import _minimise, _unminimised_theta

import _oracle as oracle
import germs
from germs import (
    AXIS3,
    CONE3,
    CROSS,
    CURVE_K2,
    LINE,
    NONQH,
    PENCIL5,
    QUADRIC4,
    R2,
    R3,
    R4,
    R5,
    germ,
    poly,
)


def vec(ring, *exprs):
    return ModuleElement.from_polynomials([poly(e, ring) for e in exprs])


def theta_basis(X):
    return standard_basis(X.tangent_module)


def modules_equal(A, B):
    sa, sb = standard_basis(A), standard_basis(B)
    return all(sb.contains(g) for g in A.generators) and all(
        sa.contains(g) for g in B.generators
    )


ALL_GERMS = [LINE, CROSS, NONQH, CONE3, AXIS3, CURVE_K2, QUADRIC4]


def test_variety_germ_validation():
    with pytest.raises(ValueError):
        VarietyGerm(R2, [])
    with pytest.raises(ValueError):
        VarietyGerm(R2, [poly("0", R2)])
    with pytest.raises(ValueError):
        VarietyGerm(R2, [poly("x + 1", R2)])
    ambient = VarietyGerm.ambient(R2)
    assert ambient.is_ambient and ambient.dimension == 2


def test_theta_of_coordinate_hyperplane():
    expected = Submodule(R2, 2, [vec(R2, "x", "0"), vec(R2, "0", "1")])
    assert modules_equal(LINE.tangent_module, expected)


def test_theta_of_normal_crossing():
    expected = Submodule(R2, 2, [vec(R2, "x", "0"), vec(R2, "0", "y")])
    assert modules_equal(CROSS.tangent_module, expected)


def test_theta_of_axis_in_three_space():
    expected = Submodule(
        R3,
        3,
        [
            vec(R3, "x", "0", "0"),
            vec(R3, "y", "0", "0"),
            vec(R3, "0", "x", "0"),
            vec(R3, "0", "y", "0"),
            vec(R3, "0", "0", "1"),
        ],
    )
    assert modules_equal(AXIS3.tangent_module, expected)


def test_theta_of_quadric_contains_euler_and_rotations():
    basis = theta_basis(QUADRIC4)
    assert basis.contains(vec(R4, "x", "y", "z", "w"))
    for i in range(4):
        for j in range(i + 1, 4):
            comps = ["0"] * 4
            comps[i] = "-" + R4.variables[j]
            comps[j] = R4.variables[i]
            assert basis.contains(vec(R4, *comps))


def test_theta_completeness_against_kernel_oracle():
    for X, degree in ((CROSS, 3), (QUADRIC4, 2), (CONE3, 2), (AXIS3, 3), (CURVE_K2, 3)):
        basis = theta_basis(X)
        ideal_basis = X.ideal_basis
        fields = oracle.truncated_tangent_fields(
            X.ring.n, [g.terms for g in X.generators], degree
        )
        assert fields
        for raw in fields:
            xi = ModuleElement(X.ring, X.ring.n, raw)
            # the oracle stabilized: each candidate is genuinely tangent
            for g in X.generators:
                value = Polynomial.zero(X.ring)
                for i, comp in enumerate(xi.components):
                    value = value + comp * g.derivative(i)
                assert ideal_basis.contains(ModuleElement.from_polynomial(value))
            assert basis.contains(xi)


def test_tangency_invariant_everywhere():
    for X in ALL_GERMS:
        ideal_basis = X.ideal_basis
        for xi in X.tangent_module.generators:
            comps = xi.components
            for g in X.generators:
                value = Polynomial.zero(X.ring)
                for i in range(X.ring.n):
                    value = value + comps[i] * g.derivative(i)
                assert ideal_basis.contains(ModuleElement.from_polynomial(value))


def test_trivial_fields_are_members():
    for X in ALL_GERMS:
        basis = theta_basis(X)
        for g in X.generators:
            for i in range(X.ring.n):
                assert basis.contains(ModuleElement.unit_vector(X.ring, X.ring.n, i) * g)


def test_euler_field_for_quasihomogeneous_germs():
    # weights (1,1,1,1) for the quadric; (3,3,3,2) for x^2+y^2+z^2+w^3
    from germs import BRIESKORN3

    assert theta_basis(QUADRIC4).contains(vec(R4, "x", "y", "z", "w"))
    assert theta_basis(BRIESKORN3).contains(vec(R4, "3*x", "3*y", "3*z", "2*w"))


def test_koszul_fields_for_hypersurfaces():
    for X in (CONE3, NONQH, QUADRIC4):
        basis = theta_basis(X)
        h = X.generators[0]
        grads = gradient(h)
        n = X.ring.n
        for i in range(n):
            for j in range(i + 1, n):
                comps = [Polynomial.zero(X.ring)] * n
                comps[i] = grads[j]
                comps[j] = -grads[i]
                assert basis.contains(ModuleElement.from_polynomials(comps))
            assert basis.contains(ModuleElement.unit_vector(X.ring, n, i) * h)


def test_theta_of_c4_pencil_has_thirteen_generators_in_either_order():
    # minimisation drops generators here (21 -> 13); an irredundant generating
    # set over a local ring is minimal (Nakayama), so the count is mu(Theta_X)
    a, b = "x^2 + y^2 + z^2 + w^2", "x^2 + 2*y^2 + 3*z^2 + 4*w^2"
    for exprs in ((a, b), (b, a)):
        assert len(germ(R4, *exprs).tangent_module.generators) == 13


def greedy_minimise(gens):
    """Reference: drop, in order, each generator in the span of the others."""
    kept = list(gens)
    i = 0
    while i < len(kept) and len(kept) > 1:
        others = kept[:i] + kept[i + 1 :]
        if standard_basis(Submodule(kept[i].ring, kept[i].rank, others)).contains(kept[i]):
            kept.pop(i)
        else:
            i += 1
    return kept


def test_minimisation_matches_membership_greedy():
    a, b = "x^2 + y^2 + z^2 + w^2", "x^2 + 2*y^2 + 3*z^2 + 4*w^2"
    varieties = [X for X in vars(germs).values() if isinstance(X, VarietyGerm)]
    varieties += [germ(R4, a, b), germ(R4, b, a)]
    for X in varieties:
        gens = _unminimised_theta(X)
        for order in (gens, gens[::-1]):
            assert _minimise(order) == greedy_minimise(order)


def test_theta_of_c5_pencil_with_cubic_term_has_21_generators_in_either_order():
    # the per-generator membership minimisation took minutes on this germ
    a = "x^2 + y^2 + z^2 + w^2 + v^2"
    b = "x^2 + 2*y^2 + 3*z^2 + 4*w^2 + 5*v^2 + v^3"
    for exprs in ((a, b), (b, a)):
        assert len(germ(R5, *exprs).tangent_module.generators) == 21


# ------------------------------------------------------------------ df_theta


def test_df_theta_of_full_module_is_jacobian_ideal():
    ambient = VarietyGerm.ambient(R2)
    f = poly("x^3 + x*y", R2)
    image = df_theta(f, ambient.tangent_module)
    expected = Submodule.ideal(R2, gradient(f))
    assert modules_equal(image, expected)


def test_df_theta_on_quadric_contains_all_variables():
    f = poly("x", R4)
    image = df_theta(f, QUADRIC4.tangent_module)
    basis = standard_basis(image)
    for name in R4.variables:
        assert basis.contains(ModuleElement.from_polynomial(poly(name, R4)))


def test_df_theta_requires_vanishing():
    with pytest.raises(PreconditionViolation):
        df_theta(poly("1 + x", R2), LINE.tangent_module)


def test_df_theta_of_zero_function_is_zero_ideal():
    zero = Polynomial.zero(R2)
    assert df_theta(zero, LINE.tangent_module).is_zero()


# ---------------------------------------------------------- the three numbers


def test_mu_br_ambient_equals_milnor():
    ambient = VarietyGerm.ambient(R2)
    assert ambient.bruce_roberts(poly("x^2 + y^2", R2)).mu_br == 1


def test_mu_br_on_quadric():
    f = poly("x", R4)
    assert QUADRIC4.bruce_roberts(f) == (1, 1, 1)


def test_mu_br_infinite_when_function_cuts_nothing():
    h = QUADRIC4.generators[0]
    mu_br, mu_br_rel, _ = QUADRIC4.bruce_roberts(h)
    assert mu_br is INFINITE
    assert mu_br_rel is INFINITE


def test_mu_br_rel_on_hyperplane_with_unit_image():
    assert LINE.bruce_roberts(poly("y", R2)).mu_br_rel == 0


def test_relative_never_exceeds_absolute():
    pairs = [
        (poly("x", R4), QUADRIC4),
        (poly("z", R3), CURVE_K2),
        (poly("x + y", R2), CROSS),
        (poly("x", R2), NONQH),
    ]
    for f, X in pairs:
        absolute, relative, smaller = X.bruce_roberts(f)
        if is_finite(absolute):
            assert relative <= absolute
            assert smaller <= absolute


def test_finiteness_co_occurrence():
    pairs = [
        (poly("x", R4), QUADRIC4),
        (QUADRIC4.generators[0], QUADRIC4),
        (poly("x + y", R2), CROSS),
        (poly("x*y", R2), CROSS),
    ]
    for f, X in pairs:
        mu_br, mu_br_rel, _ = X.bruce_roberts(f)
        assert is_finite(mu_br) == is_finite(mu_br_rel)


def test_ambient_curve_numbers():
    ambient = VarietyGerm.ambient(R2)
    f = poly("x^3 + y^7 + x*y^5", R2)
    mu_br, _, tau_br = ambient.bruce_roberts(f)
    assert (mu_br, tau_br) == (12, 11)


# ------------------------------------------------------ one ladder per pair


@pytest.mark.parametrize(
    "X, f",
    [
        (PENCIL5, poly("x", R5)),
        # D climbs rungs 2, 3, 4 and 6
        (germ(R4, "x^2 + y^3 + z^4 + w^5"), poly("x + y + z + w", R4)),
    ],
    ids=["pencil5_x", "brieskorn_2345"],
)
def test_bruce_roberts_climbs_one_ladder_per_pair(colength_runs, X, f):
    image = df_theta(f, X.tangent_module)
    values = X.bruce_roberts(f)
    *ladder, to_ideal, to_f = colength_runs
    # only D = df(Theta_X) climbs: its rungs in order, the last one certified
    assert len(ladder) >= 2
    assert all(m.generators == image.generators and e is None for m, _, e, _ in ladder)
    degrees = [d for _, d, _, _ in ladder]
    assert degrees == sorted(degrees)
    _, top_rung, _, certified = ladder[-1]
    assert certified.truncated_at < top_rung
    # D + I(X) and D + (f): one run each, at D's bound, extending D's basis
    summands = (X.ideal, Submodule.ideal(X.ring, [f]))
    for (module, degree, extending, _), summand in zip((to_ideal, to_f), summands):
        assert module.generators == summand.generators
        assert degree == certified.truncated_at and extending is certified
    sums = [module_sum(image, summand) for summand in summands]
    assert values == tuple(local_colength(m) for m in (image, *sums))
