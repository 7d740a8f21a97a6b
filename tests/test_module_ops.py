"""Syzygies, intersections, sums, minors and submodule pullbacks."""

import pytest
from hypothesis import given, reject, strategies as st

from germlab import (
    ModuleElement,
    Polynomial,
    ReductionLimitExceeded,
    Submodule,
    intersect,
    jacobian_minors,
    module_sum,
    standard_basis,
    step_cap,
    submodule_pullback,
    syzygies,
)

import _oracle as oracle
import germs
from germs import R1, R2, R3, poly


def elem(ring, *exprs):
    return ModuleElement.from_polynomials([poly(e, ring) for e in exprs])


def rank1(ring, expr):
    return ModuleElement.from_polynomial(poly(expr, ring))


def combination(gens, coords):
    acc = ModuleElement.zero(gens[0].ring, gens[0].rank)
    for g, c in zip(gens, coords):
        acc = acc + g * c
    return acc


def modules_equal(A, B):
    sa, sb = standard_basis(A), standard_basis(B)
    return all(sb.contains(g) for g in A.generators) and all(
        sa.contains(g) for g in B.generators
    )


def projected_syzygy_pullback(gens, N):
    """Reference pullback: the syzygies of (g_1..g_r, n_1..n_s), projected
    onto their first r coordinates."""
    r = len(gens)
    return Submodule(N.ring, r, [
        ModuleElement(N.ring, r, {(c, m): v for (c, m), v in rel.terms.items() if c < r})
        for rel in syzygies(list(gens) + list(N.generators)).generators
    ])


# ------------------------------------------------------------------- syzygies


def test_koszul_syzygy():
    gens = [rank1(R2, "x"), rank1(R2, "y")]
    syz = syzygies(gens)
    basis = standard_basis(syz)
    assert basis.contains(elem(R2, "-y", "x"))
    assert len(syz.generators) == 1


def test_equal_generators_syzygy():
    gens = [rank1(R2, "x"), rank1(R2, "x")]
    syz = syzygies(gens)
    assert standard_basis(syz).contains(elem(R2, "1", "-1"))


def test_single_nonzero_generator_has_no_syzygies():
    assert syzygies([rank1(R2, "x*y + y^3")]).is_zero()


def test_zero_generator_yields_unit_tag():
    gens = [rank1(R2, "x"), ModuleElement.zero(R2, 1)]
    syz = syzygies(gens)
    assert standard_basis(syz).contains(elem(R2, "0", "1"))


def test_syzygy_soundness():
    gens = [rank1(R3, "x^2 - y*z"), rank1(R3, "y^2 - x*z"), rank1(R3, "z^2 - x*y")]
    syz = syzygies(gens)
    assert syz.generators
    for rel in syz.generators:
        assert combination(gens, rel.components).is_zero()


def test_syzygy_completeness_against_kernel_oracle():
    cases = [
        [rank1(R2, "x"), rank1(R2, "y")],
        [rank1(R3, "x^2 - y*z"), rank1(R3, "y^2 - x*z"), rank1(R3, "z^2 - x*y")],
        [rank1(R2, "x^2"), rank1(R2, "x*y"), rank1(R2, "y^3")],
        [elem(R2, "x", "y"), elem(R2, "y", "x"), elem(R2, "x + y", "x + y")],
    ]
    for gens in cases:
        syz = syzygies(gens)
        sb = standard_basis(syz) if not syz.is_zero() else None
        kernel = oracle.exact_polynomial_syzygies(
            gens[0].ring.n, gens[0].rank, [dict(g.terms) for g in gens], 3
        )
        for coords in kernel:
            rel = ModuleElement(
                gens[0].ring,
                len(gens),
                {(i, m): c for i, d in enumerate(coords) for m, c in d.items()},
            )
            assert combination(gens, rel.components).is_zero()
            if rel.is_zero():
                continue
            assert sb is not None and sb.contains(rel)


# ---------------------------------------------------------------- intersect


def test_intersection_of_coprime_principal_ideals():
    I = Submodule.ideal(R2, [poly("x", R2)])
    J = Submodule.ideal(R2, [poly("y", R2)])
    result = intersect(I, J)
    basis = standard_basis(result)
    assert basis.contains(rank1(R2, "x*y"))
    assert standard_basis(Submodule.ideal(R2, [poly("x*y", R2)])).contains(
        result.generators[0]
    )


def test_intersection_with_containment():
    I = Submodule.ideal(R2, [poly("x", R2), poly("y", R2)])
    J = Submodule.ideal(R2, [poly("x^2", R2), poly("y^2", R2)])
    result = intersect(I, J)
    rb = standard_basis(result)
    jb = standard_basis(J)
    for g in J.generators:
        assert rb.contains(g)
    for g in result.generators:
        assert jb.contains(g)


def test_intersection_in_rank_two_forces_zero():
    e1 = ModuleElement.unit_vector(R2, 2, 0)
    twisted = e1 + ModuleElement.unit_vector(R2, 2, 1) * poly("x", R2)
    result = intersect(Submodule(R2, 2, [e1]), Submodule(R2, 2, [twisted]))
    assert result.is_zero()


def test_double_intersection_idempotence():
    M = Submodule(R2, 2, [elem(R2, "x", "y^2"), elem(R2, "y", "0")])
    result = intersect(M, M)
    mb = standard_basis(M)
    rb = standard_basis(result)
    for g in M.generators:
        assert rb.contains(g)
    for g in result.generators:
        assert mb.contains(g)


def test_product_contained_in_intersection():
    I = Submodule.ideal(R2, [poly("x", R2), poly("y^2", R2)])
    J = Submodule.ideal(R2, [poly("x + y", R2), poly("x^3", R2)])
    inter_basis = standard_basis(intersect(I, J))
    for a in I.polynomials():
        for b in J.polynomials():
            assert inter_basis.contains(ModuleElement.from_polynomial(a * b))


# ---------------------------------------------------------------------- sum


def test_module_sum():
    I = Submodule.ideal(R2, [poly("x", R2)])
    J = Submodule.ideal(R2, [poly("y", R2)])
    total = module_sum(I, J)
    assert len(total.generators) == 2
    assert len(module_sum(I, Submodule.zero(R2, 1)).generators) == 1
    redundant = module_sum(I, Submodule.ideal(R2, [poly("x^2", R2)]))
    from germlab import colength

    assert colength(standard_basis(redundant)) == colength(standard_basis(I))


# -------------------------------------------------------------------- minors


def test_jacobian_minors_gradient():
    result = jacobian_minors([poly("x^2+y^2+z^2", R3)], 1)
    assert {str(p) for p in result.polynomials()} == {"2*x", "2*y", "2*z"}


def test_jacobian_minors_identity():
    result = jacobian_minors([poly("x", R2), poly("y", R2)], 2)
    assert [str(p) for p in result.polynomials()] == ["1"]


def test_jacobian_minors_drop_zero():
    result = jacobian_minors([poly("x*y", R3), poly("z", R3)], 2)
    assert {str(p) for p in result.polynomials()} == {"y", "x"}


def test_jacobian_minors_errors():
    with pytest.raises(ValueError):
        jacobian_minors([poly("x", R2), poly("y", R2), poly("x*y", R2)], 3)


def test_pullback_keeps_the_position_of_a_zero_generator():
    # {a : 0*a_0 + x*a_1 in (x^2)} = <e_0, x*e_1>, in rank 2
    gens = [ModuleElement.zero(R1, 1), rank1(R1, "x")]
    K = submodule_pullback(gens, Submodule.ideal(R1, [poly("x^2", R1)]))
    expected = Submodule(R1, 2, [elem(R1, "1", "0"), elem(R1, "0", "x")])
    assert K.rank == 2
    assert all(standard_basis(K).contains(e) for e in expected.generators)
    assert all(standard_basis(expected).contains(g) for g in K.generators)


pullback_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    max_size=3,
).map(lambda d: Polynomial(R2, d))


def elements_of_rank(m):
    return st.lists(pullback_polys, min_size=m, max_size=m).map(ModuleElement.from_polynomials)


pullback_inputs = st.integers(1, 2).flatmap(
    lambda m: st.tuples(
        st.lists(elements_of_rank(m), min_size=1, max_size=3),
        st.lists(elements_of_rank(m), max_size=2).map(lambda ns: Submodule(R2, m, ns)),
    )
)


@given(pullback_inputs)
def test_pullback_matches_the_projected_syzygies(case):
    # Mora's normal form can run for minutes against a reducer whose lead is
    # a unit of large ecart (a few per cent of these inputs, on either
    # construction); such examples are rejected at the step cap instead.
    gens, N = case
    try:
        with step_cap(200):
            K = submodule_pullback(gens, N)
            reference = projected_syzygy_pullback(gens, N)
            assert K.rank == len(gens)
            assert modules_equal(K, reference)
            nb = standard_basis(N)
            for row in K.generators:
                assert nb.contains(combination(gens, row.components))
    except ReductionLimitExceeded:
        reject()


def test_a_runaway_pullback_finishes_under_a_step_cap():
    # Before the pair criteria this block-order run went on for more than
    # 30 s while its coefficients swelled (unit entries of large ecart).  It
    # now needs 680 reduction steps.
    gens = [
        elem(R2, "-5/2*x^2 - x*y^2 - 3*x^2*y^2", "1/2 + 2*x^2*y"),
        elem(R2, "-2*y^2 + 3*x^2*y^2", "0"),
        elem(R2, "-1 - 3*x^2*y", "3 + 3*y^2 + 1/2*x^2*y^2"),
    ]
    N = Submodule(R2, 2, [elem(R2, "0", "3/2*y + 5/2*x^2"),
                          elem(R2, "2*x*y + x*y^2 - 2*x^2*y^2", "0")])
    with step_cap(1000):
        K = submodule_pullback(gens, N)
        nb = standard_basis(N)
        assert K.rank == len(gens) and K.generators
        for row in K.generators:
            assert nb.contains(combination(gens, row.components))


def test_theta_through_projected_syzygies_is_the_tangent_module():
    for X in (v for v in vars(germs).values() if isinstance(v, germs.VarietyGerm)):
        theta = None
        for f_r in X.generators:
            row = [ModuleElement.from_polynomial(f_r.derivative(i)) for i in range(X.ring.n)]
            tangent_r = projected_syzygy_pullback(row, X.ideal)
            if theta is None:
                theta = tangent_r
                continue
            theta = Submodule(X.ring, X.ring.n, [
                combination(theta.generators, a.components)
                for a in projected_syzygy_pullback(theta.generators, tangent_r).generators
            ])
        assert modules_equal(theta, X.tangent_module), X
