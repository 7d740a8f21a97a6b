"""Syzygies, intersections, products, minors and subquotient dimensions."""

import random

import pytest

from germlab import (
    ContainmentViolation,
    ModuleElement,
    Submodule,
    intersect,
    jacobian_minors,
    module_sum,
    product,
    standard_basis,
    submodule_pullback,
    subquotient_dimension,
    syzygies,
)

import _oracle as oracle
from germs import R1, R2, R3, R4, poly


def elem(ring, *exprs):
    return ModuleElement.from_polynomials([poly(e, ring) for e in exprs])


def rank1(ring, expr):
    return ModuleElement.from_polynomial(poly(expr, ring))


def combination(gens, coords):
    acc = ModuleElement.zero(gens[0].ring, gens[0].rank)
    for g, c in zip(gens, coords):
        acc = acc + g * c
    return acc


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
    for g in product(I, J).generators:
        assert inter_basis.contains(g)


# ----------------------------------------------------------- product and sum


def test_product_examples():
    I = Submodule.ideal(R2, [poly("x", R2), poly("y", R2)])
    J = Submodule.ideal(R2, [poly("x", R2)])
    assert {str(p) for p in product(I, J).polynomials()} == {"x^2", "x*y"}
    F = Submodule.ideal(R2, [poly("x^2 - y", R2)])
    assert product(F, Submodule.ideal(R2, [poly("1", R2)])).polynomials() == F.polynomials()
    assert product(I, Submodule.zero(R2, 1)).is_zero()


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


# ------------------------------------------------------------- subquotients


def test_subquotient_examples():
    I = Submodule.ideal(R1, [poly("x", R1)])
    J = Submodule.ideal(R1, [poly("x^2", R1)])
    assert subquotient_dimension(I, J) == 1
    assert subquotient_dimension(I, I) == 0


def test_subquotient_with_unit_jacobian():
    # with I = (x^2+y^2+z^2+w^2) and Jf = (1): (I cap Jf)/(I*Jf) = I/I = 0
    h = poly("x^2+y^2+z^2+w^2", R4)
    I = Submodule.ideal(R4, [h])
    Jf = Submodule.ideal(R4, [poly("1", R4)])
    assert subquotient_dimension(intersect(I, Jf), product(I, Jf)) == 0


def test_subquotient_containment_violation():
    I = Submodule.ideal(R2, [poly("x^2", R2)])
    J = Submodule.ideal(R2, [poly("y", R2)])
    with pytest.raises(ContainmentViolation):
        subquotient_dimension(I, J)


def test_subquotient_matches_truncation_oracle():
    h = poly("x^2 + y^3", R2)
    I = Submodule.ideal(R2, [h])
    Jf = Submodule.ideal(R2, [h.derivative(0), h.derivative(1)])
    big = intersect(I, Jf)
    small = product(I, Jf)
    main = subquotient_dimension(big, small)
    expected = oracle.truncated_subquotient(
        2, 1, [dict(g.terms) for g in big.generators], [dict(g.terms) for g in small.generators]
    )
    assert main == expected


def test_subquotient_permutation_invariance():
    rng = random.Random(3)
    I = Submodule.ideal(R2, [poly("x^2", R2), poly("x*y", R2), poly("y^3", R2)])
    J = Submodule.ideal(R2, [poly("x^3", R2), poly("x^2*y", R2), poly("y^4", R2), poly("x*y^2", R2)])
    base = subquotient_dimension(I, J)
    for _ in range(3):
        gi = list(I.generators)
        gj = list(J.generators)
        rng.shuffle(gi)
        rng.shuffle(gj)
        assert subquotient_dimension(Submodule(R2, 1, gi), Submodule(R2, 1, gj)) == base
