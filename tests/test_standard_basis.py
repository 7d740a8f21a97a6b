"""Mora normal forms, standard bases, colengths and dimensions."""

import hashlib
import importlib
import random

import pytest
from hypothesis import given, strategies as st

from germlab import (
    INFINITE,
    ModuleElement,
    Polynomial,
    ReductionLimitExceeded,
    StandardBasis,
    Submodule,
    VarietyGerm,
    colength,
    df_theta,
    krull_dimension,
    local_colength,
    milnor_icis,
    module_sum,
    mora_normal_form,
    mu_BR,
    mu_BR_rel,
    standard_basis,
    step_cap,
    syzygies,
    tau_BR,
)
from germlab.orders import term_key

import _oracle as oracle
import germs
from germs import D3_PAIRS, LOW_DIM_PAIRS, R1, R2, R3, R4, SUSPENSION4, poly


def ideal(ring, *exprs):
    return Submodule.ideal(ring, [poly(e, ring) for e in exprs])


def ideal_basis(ring, *exprs):
    return standard_basis(ideal(ring, *exprs))


def as_vec(p):
    return {(0, m): c for m, c in p.terms.items()}


def element(ring, *exprs):
    return ModuleElement.from_polynomials([poly(e, ring) for e in exprs])


# ---------------------------------------------------------------- normal form


def test_nf_unit_absorbs_tail():
    f = element(R1, "x^2")
    g = element(R1, "x^2 + x^3")
    rem, cert = mora_normal_form(f, [g])
    assert rem.is_zero()
    assert cert.unit == poly("1 + x", R1)
    assert cert.verify(f, [g], rem)


def test_nf_lead_not_divisible():
    rem, cert = mora_normal_form(element(R1, "x"), [element(R1, "x^2")])
    assert rem == element(R1, "x")
    assert cert.verify(element(R1, "x"), [element(R1, "x^2")], rem)


def test_nf_exact_division():
    f = element(R1, "x^3 + x")
    rem, cert = mora_normal_form(f, [element(R1, "x")])
    assert rem.is_zero()
    assert cert.verify(f, [element(R1, "x")], rem)


def test_nf_of_zero():
    rem, cert = mora_normal_form(ModuleElement.zero(R2, 1), [element(R2, "x")])
    assert rem.is_zero()
    assert cert.unit.constant_term() == 1


def test_nf_remainder_lead_not_reducible():
    gens = [element(R2, "x^2 - y^3"), element(R2, "x*y")]
    f = element(R2, "x^3 + x^2*y + y^5 + x")
    rem, cert = mora_normal_form(f, gens)
    assert cert.verify(f, gens, rem)
    assert cert.unit.constant_term() != 0
    assert not rem.is_zero()
    key = term_key()
    comp, mono = max(rem.terms, key=key)
    for g in gens:
        gc, gm = max(g.terms, key=key)
        assert not (gc == comp and all(a <= b for a, b in zip(gm, mono)))


def test_nf_certificate_in_a_module_with_zero_generators():
    # the quotient of a zero generator is zero, and indices follow the input list
    gens = [
        ModuleElement.zero(R2, 2),
        element(R2, "x^2 + x^3", "y"),
        ModuleElement.zero(R2, 2),
        element(R2, "x*y", "0"),
    ]
    f = element(R2, "x^2 + x^2*y", "y + x*y^2")
    rem, cert = mora_normal_form(f, gens)
    assert cert.verify(f, gens, rem)
    assert len(cert.quotients) == 4
    assert cert.quotients[0].is_zero() and cert.quotients[2].is_zero()


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
monos2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
small_polys = st.dictionaries(monos2, coeffs, min_size=0, max_size=3).map(
    lambda d: Polynomial(R2, d)
)


@given(st.lists(small_polys, min_size=2, max_size=3))
def test_nf_certificate_identity(multipliers):
    # non-monic generators on purpose: quotients must absorb the lead scales
    gens = [element(R2, "3*x^2 + x*y^2"), element(R2, "2*y^3 - x^3"), element(R2, "x*y")]
    f = ModuleElement.zero(R2, 1)
    for q, g in zip(multipliers, gens):
        f = f + g * q
    rem, cert = mora_normal_form(f, gens)
    assert cert.verify(f, gens, rem)
    assert cert.unit.constant_term() != 0


def lead(el):
    return max(el.terms, key=term_key())


small_elements2 = st.tuples(small_polys, small_polys).map(ModuleElement.from_polynomials)


@given(small_elements2, st.lists(small_elements2, min_size=1, max_size=3))
def test_nf_certificate_on_random_rank_two_generators(f, gens):
    rem, cert = mora_normal_form(f, gens)
    assert cert.verify(f, gens, rem)
    assert cert.unit.constant_term() != 0
    if rem:
        comp, mono = lead(rem)
        for g in gens:
            if g:
                gc, gm = lead(g)
                assert not (gc == comp and all(a <= b for a, b in zip(gm, mono)))


def test_nf_rejects_generators_of_another_module():
    f = element(R2, "x^2 + y")
    for g in (element(R2, "x", "y"), element(R1, "x")):
        with pytest.raises(ValueError, match="different modules"):
            mora_normal_form(f, [element(R2, "y^2"), g])


# ------------------------------------------------------------- standard bases


def test_principal_ideal():
    basis = ideal_basis(R1, "x")
    assert [str(e.component(0)) for e in basis.elements] == ["x"]


def test_unit_factor_membership():
    basis = ideal_basis(R1, "x^2 + x^3")
    assert basis.lead_terms == ((0, (2,)),)
    assert basis.contains(element(R1, "x^2"))


def test_lead_module_of_curve_ideal():
    # the ideal <2x^2+z^2, 2y^2+z^2, yz, xz> has lead module <x^2,y^2,yz,xz,z^3>
    basis = ideal_basis(R3, "2*x^2+z^2", "2*y^2+z^2", "y*z", "x*z")
    got = sorted(m for (_, m) in basis.lead_terms)
    assert got == sorted([(2, 0, 0), (0, 2, 0), (0, 1, 1), (1, 0, 1), (0, 0, 3)])


def test_inputs_reduce_to_zero_and_s_elements_vanish():
    module = ideal(R3, "x^2 + y^3", "x*y - z^3", "y*z + x^2")
    basis = standard_basis(module)
    for g in module.generators:
        assert basis.normal_form(g).is_zero()
    # Buchberger-Mora criterion on the output itself
    for i, a in enumerate(basis.elements):
        for b in basis.elements[:i]:
            (ca, ma) = basis.lead_terms[basis.elements.index(a)]
            (cb, mb) = basis.lead_terms[basis.elements.index(b)]
            if ca != cb:
                continue
            lcm = tuple(max(x, y) for x, y in zip(ma, mb))
            sa = Polynomial.term(R3, tuple(l - x for l, x in zip(lcm, ma)), 1)
            sb = Polynomial.term(R3, tuple(l - x for l, x in zip(lcm, mb)), 1)
            s = a * sa - b * sb
            assert basis.normal_form(s).is_zero()


def test_membership_soundness_random_combinations():
    rng = random.Random(11)
    module = ideal(R3, "x^2 - y*z", "y^2 + z^3", "x*z")
    basis = standard_basis(module)
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    for _ in range(25):
        f = ModuleElement.zero(R3, 1)
        for g in module.generators:
            q = Polynomial(
                R3,
                {random.choice(monos): rng.randint(-4, 4) for _ in range(rng.randint(0, 2))},
            )
            f = f + g * q
        assert basis.normal_form(f).is_zero()


def test_iteration_cap_aborts_with_diagnostic():
    module = ideal(R3, "x^2 + y^3", "x*y - z^3", "y*z + x^2")
    with step_cap(3), pytest.raises(ReductionLimitExceeded):
        standard_basis(module)


def current_cap():
    return importlib.import_module("germlab.standard_basis")._STEP_CAP.get()


def test_step_cap_restores_the_previous_cap():
    module = ideal(R3, "x^2 + y^3", "x*y - z^3", "y*z + x^2")
    outer = current_cap()
    with step_cap(3):
        assert current_cap() == 3
    assert current_cap() == outer
    # after the cap is exceeded inside the scope
    with pytest.raises(ReductionLimitExceeded):
        with step_cap(3):
            standard_basis(module)
    assert current_cap() == outer
    assert standard_basis(module).elements
    # nested scopes unwind one at a time
    with step_cap(3):
        with step_cap(outer):
            assert standard_basis(module).elements
        assert current_cap() == 3
        with pytest.raises(ReductionLimitExceeded):
            standard_basis(module)
    assert current_cap() == outer


def test_step_limit_error_names_what_ran_out():
    module = ideal(R3, "x^2 + y^3", "x*y - z^3", "y*z + x^2")
    gens = [element(R2, "x^2 - y^3"), element(R2, "x*y")]
    f = element(R2, "x^3 + x^2*y + y^5 + x^2")
    columns = [element(R2, "x^2", "y"), element(R2, "x*y", "x"), element(R2, "y^2", "x*y")]
    runs = [
        (lambda: standard_basis(module),
         "aborted after 2 reduction steps in a standard basis of rank 1 with 3 generators;"),
        (lambda: standard_basis(module, truncate_degree=8),
         "in a standard basis of rank 1 with 3 generators, truncated at degree 8;"),
        (lambda: mora_normal_form(f, gens),
         "aborted after 2 reduction steps in a normal form of rank 1 against 2 generators;"),
        # the graph module of three rank-2 generators has rank 2 + 3
        (lambda: syzygies(columns), "in a standard basis of rank 5 with 3 generators;"),
    ]
    for run, detail in runs:
        with step_cap(2), pytest.raises(ReductionLimitExceeded) as info:
            run()
        assert detail in str(info.value)
    basis = standard_basis(module)
    with step_cap(0), pytest.raises(ReductionLimitExceeded) as info:
        basis.normal_form(element(R3, "x^2 + y^3 + z^7"))
    assert (
        f"aborted after 0 reduction steps in a normal form of rank 1 against a standard "
        f"basis of {len(basis.elements)} elements;" in str(info.value)
    )


# ------------------------------------------------------------------ colength


def test_colength_examples():
    assert colength(ideal_basis(R2, "x", "y")) == 1
    assert colength(ideal_basis(R2, "x^2", "y^3")) == 6
    assert colength(ideal_basis(R2, "x")) is INFINITE


def test_colength_matches_truncation_oracle():
    cases = [
        (R2, ("x", "y")),
        (R2, ("x^2", "y^3")),
        (R2, ("x^2 + x*y", "y^2")),
        (R3, ("x + y + z", "x*y - z^3", "y^2")),
        (R3, ("2*x^2+z^2", "2*y^2+z^2", "y*z", "x*z")),
    ]
    for ring, exprs in cases:
        main = colength(ideal_basis(ring, *exprs))
        polys = [poly(e, ring) for e in exprs]
        assert main == oracle.truncated_colength(ring.n, 1, [as_vec(p) for p in polys])
        assert local_colength(ideal(ring, *exprs)) == main


def test_colength_invariant_under_permutation_and_units():
    exprs = ["x^2 + y^3", "x*y"]
    base = colength(ideal_basis(R2, *exprs))
    assert base == colength(ideal_basis(R2, *reversed(exprs)))
    for i, name in enumerate(R2.variables):
        unit = poly(f"1 + {name}", R2)
        scaled = [poly(exprs[0], R2) * unit, poly(exprs[1], R2)]
        assert base == colength(standard_basis(Submodule.ideal(R2, scaled)))


def test_module_colength():
    e1x = ModuleElement.from_polynomials([poly("x", R2), poly("0", R2)])
    e2 = ModuleElement.from_polynomials([poly("0", R2), poly("1", R2)])
    basis = standard_basis(Submodule(R2, 2, [e1x, e2]))
    assert colength(basis) is INFINITE  # no pure y-power in component 0
    e1y = ModuleElement.from_polynomials([poly("y^2", R2), poly("0", R2)])
    basis = standard_basis(Submodule(R2, 2, [e1x, e1y, e2]))
    assert colength(basis) == 2  # {1, y} in component 0


def test_colength_sees_the_localization():
    # 1 - x is a unit at the origin, so <x - x^2, y> is <x, y> locally
    assert colength(ideal_basis(R2, "x - x^2", "y")) == 1
    # substitution semantics: <x - y^2, y^3> has residue classes {1, y, y^2}
    basis = ideal_basis(R2, "x - y^2", "y^3")
    assert colength(basis) == 3
    polys = [poly("x - y^2", R2), poly("y^3", R2)]
    assert oracle.truncated_colength(2, 1, [as_vec(p) for p in polys]) == 3


def test_standard_basis_is_deterministic():
    module = ideal(R3, "x^2 - y*z", "y^2 + z^3", "x*z + y^4")
    first = standard_basis(module)
    second = standard_basis(module)
    assert first.elements == second.elements
    assert first.lead_terms == second.lead_terms


def test_local_colength_agrees_with_exact_engine():
    cases = [
        (R2, ("x", "y")),
        (R2, ("x^2", "y^3")),
        (R2, ("x^2 + x*y", "y^2")),
        (R3, ("x + y + z", "x*y - z^3", "y^2")),
        (R3, ("2*x^2+z^2", "2*y^2+z^2", "y*z", "x*z")),
        (R2, ("x^3 - y^4", "x*y^2")),
        # modulo m^4 the staircase of x^3, y^3 counts x^2*y^2, wrongly: 9 not 8
        (R2, ("x^3", "y^3", "x^2*y^2")),
    ]
    for ring, exprs in cases:
        module = ideal(ring, *exprs)
        exact = colength(standard_basis(module))
        assert local_colength(module) == exact


def test_local_colength_falls_back_on_infinite():
    assert local_colength(ideal(R2, "x")) is INFINITE
    assert local_colength(ideal(R3, "x*y", "x*z")) is INFINITE


tiny_monos = st.tuples(st.integers(0, 2), st.integers(0, 2))


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.dictionaries(tiny_monos, coeffs, max_size=3),
)
def test_local_colength_random_agreement(a, b, tail_terms):
    # zero-dimensional by construction: pure powers of both variables present
    tail = Polynomial(R2, tail_terms)
    gens = [
        poly(f"x^{a}", R2) + poly("y", R2) * tail,
        poly(f"y^{b}", R2) + poly("x", R2) * poly("y", R2) * tail,
    ]
    module = Submodule.ideal(R2, gens)
    reference = oracle.truncated_colength(
        2, 1, [dict(g.terms) for g in module.generators]
    )
    assert local_colength(module) == reference


def test_local_colength_handles_modules():
    e1x = ModuleElement.from_polynomials([poly("x", R2), poly("0", R2)])
    e1y = ModuleElement.from_polynomials([poly("y^2", R2), poly("0", R2)])
    e2 = ModuleElement.from_polynomials([poly("0", R2), poly("1", R2)])
    module = Submodule(R2, 2, [e1x, e1y, e2])
    assert local_colength(module) == 2


def test_local_colength_beyond_first_truncation_rungs():
    # staircase reaches degree 13, so early truncation levels cannot certify
    module = ideal(R2, "x^2", "y^14")
    assert local_colength(module) == 28


def test_local_colength_certifies_small_colengths_at_low_rungs(monkeypatch):
    # the package re-exports the function under the submodule's name
    sb = importlib.import_module("germlab.standard_basis")
    rungs = []

    def recorder(module, **kwargs):
        rungs.append(kwargs.get("truncate_degree"))
        return standard_basis(module, **kwargs)

    monkeypatch.setattr(sb, "standard_basis", recorder)
    assert local_colength(ideal(R2, "x", "y^2")) == 2
    # the staircase {1, y} has top degree 1, certified once 1 + 2 <= D
    assert rungs[-1] is not None and rungs[-1] <= 4


def test_local_colength_matches_exact_on_bruce_roberts_modules():
    for _, X, f in D3_PAIRS + LOW_DIM_PAIRS:
        image = df_theta(f, X.tangent_module)
        modules = (
            image,
            module_sum(image, X.ideal),
            module_sum(image, Submodule.ideal(f.ring, [f])),
        )
        for module in modules:
            exact = colength(standard_basis(module))
            if exact is not INFINITE:
                assert local_colength(module) == exact


def test_truncated_basis_refuses_membership():
    basis = standard_basis(ideal(R2, "x^2", "y^3"), truncate_degree=8)
    with pytest.raises(ValueError):
        basis.normal_form(element(R2, "x^2"))


# ------------------------------------------------------------ highest corner


def test_truncated_run_lowers_its_bound_at_the_corner():
    # the staircase {1, y} of (x, y^2) tops out at degree 1, so m^2 lies in
    # the ideal and the run ends modulo m^2
    basis = standard_basis(ideal(R2, "x", "y^2"), truncate_degree=8)
    assert basis.truncated_at == 2
    assert colength(basis) == 2
    # no corner while a pure power is missing, and none in exact runs
    assert standard_basis(ideal(R2, "x"), truncate_degree=8).truncated_at == 8
    assert standard_basis(ideal(R2, "x", "y^2")).truncated_at is None
    # a block order may rank a lead above trailing terms of lower degree,
    # so block runs keep their bound
    pairs = (("x", "0"), ("y", "0"), ("0", "x"), ("0", "y"))
    maximal = Submodule(R2, 2, [element(R2, *p) for p in pairs])
    assert standard_basis(maximal, truncate_degree=8).truncated_at == 1
    assert standard_basis(maximal, block=1, truncate_degree=8).truncated_at == 8


def test_corner_certifies_a_quadric_slice_within_a_rung_eight_budget():
    # germ_scan's germ with a quadric f: the four colengths below top out at
    # degree 7, so rung 8 cannot certify them; each rung-12 basis, run to
    # its end, took 7 600 - 28 200 reduction steps, against at most 6 000
    # for any basis once the corner lowers the bound
    f = poly("-x^2 + y^2 - 3*z^2 - 2*w^2 - 2*y*w", R4)
    X = SUSPENSION4
    with step_cap(10_000):
        values = (
            milnor_icis(X.generators + (f,)),
            mu_BR(f, X),
            mu_BR_rel(f, X),
            tau_BR(f, X),
        )
    assert values == (19, 21, 20, 18)


# sha256 prefixes of the exact bases of each germ's ideal I and of I + J
# (J the generators' partial derivatives), recorded before the corner was
# added to truncated runs; exact runs must not change
EXACT_BASIS_DIGESTS = {
    "LINE": "f56c43c5cc4bfb15",
    "CROSS": "d8e41111bcd0d50d",
    "NONQH": "050bfc0a9d80997d",
    "CONE3": "2042ad8a4da71a7c",
    "AXIS3": "d8994a15e308045b",
    "CURVE_K2": "d122a56c44b51b73",
    "QUADRIC4": "a64acec1539c2f6f",
    "BRIESKORN3": "27c8bfa50efe44e9",
    "BRIESKORN4": "8973da8cfd81d94c",
    "BRIESKORN5": "f45eb6a5b20a8db1",
    "A2_AMBIENT4": "3533d7ca4febcb86",
    "SUSPENSION4": "8bfab728de7f3ff6",
    "PENCIL5": "5b53023d19f08342",
}


def test_exact_bases_are_unchanged_on_every_germ():
    names = [n for n, X in vars(germs).items() if isinstance(X, VarietyGerm)]
    assert sorted(names) == sorted(EXACT_BASIS_DIGESTS)
    for name in names:
        X = getattr(germs, name)
        gens = list(X.generators)
        partials = [g.derivative(i) for g in gens for i in range(X.ring.n)]
        bases = []
        for module in (X.ideal, Submodule.ideal(X.ring, gens + partials)):
            basis = standard_basis(module)
            bases.append([(lt, str(e)) for lt, e in zip(basis.lead_terms, basis.elements)])
        digest = hashlib.sha256(repr(bases).encode()).hexdigest()[:16]
        assert digest == EXACT_BASIS_DIGESTS[name], name


# ------------------------------------------------------------ staircase walk


def box_colength(lead_terms, n, rank):
    """The bounding-box count the staircase walk replaced, kept as its
    oracle: every monomial below the smallest pure powers is tested
    against every lead."""
    total = 0
    for comp in range(rank):
        leads = [m for c, m in lead_terms if c == comp]
        bounds = []
        for i in range(n):
            pure = [m[i] for m in leads if all(e == 0 for k, e in enumerate(m) if k != i)]
            if not pure:
                return INFINITE
            bounds.append(min(pure))
        stack = [(0, ())]
        while stack:
            i, prefix = stack.pop()
            if i == n:
                if not any(all(a <= b for a, b in zip(l, prefix)) for l in leads):
                    total += 1
                continue
            for e in range(bounds[i]):
                stack.append((i + 1, prefix + (e,)))
    return total


def lead_basis(ring, rank, lead_terms):
    return StandardBasis(Submodule.zero(ring, rank), term_key(), (), lead_terms)


monos3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@given(
    st.integers(1, 2),
    st.lists(st.tuples(st.integers(0, 1), monos3), max_size=8),
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(1, 6)), max_size=6),
    st.booleans(),
)
def test_staircase_walk_matches_box_count(rank, mixed, pure, unit):
    # random monomial ideals and rank-2 modules; the pure powers make most
    # components finite, and `unit` adds the zero monomial to component 0
    leads = [(c % rank, m) for c, m in mixed]
    for c, i, e in pure:
        mono = [0, 0, 0]
        mono[i] = e
        leads.append((c % rank, tuple(mono)))
    if unit:
        leads.append((0, (0, 0, 0)))
    basis = lead_basis(R3, rank, leads)
    assert colength(basis) == box_colength(leads, 3, rank)


def test_staircase_walk_of_unit_and_full_modules():
    one = (0, 0, 0)
    assert colength(lead_basis(R3, 2, [(0, one), (1, one)])) == 0
    powers = [(c, m) for c in range(2) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert colength(lead_basis(R3, 2, powers)) == 2


def test_staircase_walk_grows_with_the_staircase_not_its_box():
    # x^e, y^e, z^e, w^e and the six products of two variables: the
    # staircase is 1 and four thin arms, 4e - 3 monomials, in a box of e^4
    e = 400
    leads = [tuple(e if k == i else 0 for k in range(4)) for i in range(4)]
    leads += [
        tuple(1 if k in (i, j) else 0 for k in range(4))
        for i in range(4) for j in range(i + 1, 4)
    ]
    assert colength(lead_basis(R4, 1, [(0, m) for m in leads])) == 4 * e - 3


# ------------------------------------------------------------ krull dimension


def test_krull_dimension_examples():
    assert krull_dimension(ideal_basis(R2, "x")) == 1
    assert krull_dimension(ideal_basis(R2, "x", "y")) == 0
    assert krull_dimension(ideal_basis(R2, "x*y")) == 1
    assert krull_dimension(ideal_basis(R3, "x*y", "x*z")) == 2


def test_krull_dimension_requires_rank_one():
    e = ModuleElement.from_polynomials([poly("x", R2), poly("y", R2)])
    with pytest.raises(ValueError):
        krull_dimension(standard_basis(Submodule(R2, 2, [e])))
