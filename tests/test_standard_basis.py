"""Standard bases, membership, colengths and dimensions."""

import hashlib
import importlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, reject, strategies as st

from germlab import (
    INFINITE,
    DegreeLimitExceeded,
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
    standard_basis,
    step_cap,
    syzygies,
)
from germlab.derlog import _minimise, _pullback_theta
from germlab.standard_basis import DEGREE_LIMIT, _TRUNCATION_LADDER, _Packing, _axis_floor

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


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
monos2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
small_polys = st.dictionaries(monos2, coeffs, min_size=0, max_size=3).map(
    lambda d: Polynomial(R2, d)
)
small_elements2 = st.tuples(small_polys, small_polys).map(ModuleElement.from_polynomials)


# ------------------------------------------------------------- standard bases


def test_principal_ideal():
    basis = ideal_basis(R1, "x")
    assert [str(e.component(0)) for e in basis.elements] == ["x"]


def test_unit_factor_membership():
    basis = ideal_basis(R1, "x^2 + x^3")
    assert basis.lead_terms == ((0, (2,)),)
    assert basis.contains(element(R1, "x^2"))
    assert basis.contains(ModuleElement.zero(R1, 1))
    assert not basis.contains(element(R1, "x"))
    assert ideal_basis(R1, "x").contains(element(R1, "x^3 + x"))


def test_membership_rejects_elements_of_another_module():
    basis = ideal_basis(R2, "x", "y^2")
    for f in (element(R2, "x", "y"), element(R1, "x")):
        with pytest.raises(ValueError, match="ambient module"):
            basis.contains(f)


def test_lead_module_of_curve_ideal():
    # the ideal <2x^2+z^2, 2y^2+z^2, yz, xz> has lead module <x^2,y^2,yz,xz,z^3>
    basis = ideal_basis(R3, "2*x^2+z^2", "2*y^2+z^2", "y*z", "x*z")
    got = sorted(m for (_, m) in basis.lead_terms)
    assert got == sorted([(2, 0, 0), (0, 2, 0), (0, 1, 1), (1, 0, 1), (0, 0, 3)])


def s_elements(basis):
    """The S-element of every pair of basis elements whose leads share a
    component, with the lead terms cancelled."""
    ring = basis.ambient.ring
    pairs = list(zip(basis.elements, basis.lead_terms))
    for i, (a, (ca, ma)) in enumerate(pairs):
        for b, (cb, mb) in pairs[:i]:
            if ca == cb:
                lcm = tuple(map(max, ma, mb))
                sa = Polynomial.term(ring, tuple(l - e for l, e in zip(lcm, ma)), b.terms[cb, mb])
                sb = Polynomial.term(ring, tuple(l - e for l, e in zip(lcm, mb)), a.terms[ca, ma])
                yield a * sa - b * sb


def assert_buchberger(module, basis):
    """Every generator of the module and every S-element of the basis has
    weak normal form 0 against the basis: the Buchberger-Mora criterion,
    which holds iff the basis is a standard basis of the module, so it
    fails when a needed pair was dropped."""
    assert all(basis.contains(g) for g in module.generators)
    assert all(basis.contains(s) for s in s_elements(basis))


GERMS = [(n, X) for n, X in vars(germs).items() if isinstance(X, VarietyGerm)]


def test_inputs_reduce_to_zero_and_s_elements_vanish():
    module = ideal(R3, "x^2 + y^3", "x*y - z^3", "y*z + x^2")
    assert_buchberger(module, standard_basis(module))
    # the exact bases of I and I + J of every germ
    for name, X in GERMS:
        gens = list(X.generators)
        partials = [g.derivative(i) for g in gens for i in range(X.ring.n)]
        for module in (X.ideal, Submodule.ideal(X.ring, gens + partials)):
            assert_buchberger(module, standard_basis(module))


def test_theta_graph_modules_pass_the_buchberger_criterion(monkeypatch):
    # every block-order graph module of the pullback route to Theta_X and of
    # the minimisation that `germlab theta` runs on it
    module_ops = importlib.import_module("germlab.module_ops")
    runs = []

    def recording(module, **options):
        runs.append((module, options))
        return standard_basis(module, **options)

    monkeypatch.setattr(module_ops, "standard_basis", recording)
    for name, X in GERMS:
        runs.clear()
        _minimise(_pullback_theta(X))
        assert runs, name
        for module, options in runs:
            assert options["block"] >= 1
            assert_buchberger(module, standard_basis(module, **options))


small_multipliers3 = st.dictionaries(
    st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]),
    st.integers(-4, 4),
    max_size=2,
).map(lambda d: Polynomial(R3, d))


@given(
    st.lists(st.tuples(small_elements2, small_polys), min_size=1, max_size=3),
    st.lists(small_multipliers3, min_size=3, max_size=3),
)
@example(
    # a membership test that recruits a remainder
    [
        (element(R2, "2*x + 4/3*x^2 + 5*x^2*y^3", "0"), poly("2*x*y^2 - 15/4*x*y^3", R2)),
        (element(R2, "3*y^2 + 5/4*x*y^2 - 9/2*x^2*y^3", "13/4*x*y^3 + 5*x^3*y^2"),
         poly("-x*y", R2)),
        (element(R2, "4*x*y", "0"), poly("0", R2)),
    ],
    [Polynomial(R3)] * 3,
)
def test_membership_soundness_random_combinations(rank_two, multipliers):
    # every combination of the generators is a member: of random rank-2
    # generators, whose reductions may recruit remainders, and of a fixed
    # ideal
    module = ideal(R3, "x^2 - y*z", "y^2 + z^3", "x*z")
    f = ModuleElement.zero(R3, 1)
    for q, g in zip(multipliers, module.generators):
        f = f + g * q
    assert standard_basis(module).contains(f)
    f = ModuleElement.zero(R2, 2)
    for g, q in rank_two:
        f = f + g * q
    try:
        with step_cap(200):
            assert standard_basis(Submodule(R2, 2, [g for g, _ in rank_two])).contains(f)
    except ReductionLimitExceeded:
        reject()


nonzero_scales = st.fractions(
    min_value=-10**9, max_value=10**9, max_denominator=10**9
).filter(bool)
scaled_generators = st.integers(1, 2).flatmap(
    lambda m: st.lists(
        st.tuples(st.lists(small_polys, min_size=m, max_size=m), nonzero_scales),
        min_size=1,
        max_size=3,
    )
)


@given(scaled_generators)
def test_standard_basis_is_invariant_under_scaling_the_generators(case):
    gens = [ModuleElement.from_polynomials(polys) for polys, _ in case]
    scaled = [g * c for g, (_, c) in zip(gens, case)]
    rank = gens[0].rank
    try:
        with step_cap(200):
            basis = standard_basis(Submodule(R2, rank, gens))
            rescaled = standard_basis(Submodule(R2, rank, scaled))
    except ReductionLimitExceeded:
        reject()
    assert rescaled.elements == basis.elements
    assert rescaled.lead_terms == basis.lead_terms
    for el, lt in zip(basis.elements, basis.lead_terms):
        coeffs = list(el.terms.values())
        assert all(type(c) is Fraction and c.denominator == 1 for c in coeffs)
        assert gcd(*(c.numerator for c in coeffs)) == 1
        assert el.terms[lt] > 0


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
    # each run needs more than 2 steps: 45, 8 and 6 with the pair criteria
    module = ideal(R3, "x^2 + z^3", "y^2 + x^3", "x*y*z + z^4")
    columns = [element(R2, "x^2", "y"), element(R2, "x*y + y^3", "x"),
               element(R2, "y^2", "x*y + x^2")]
    runs = [
        (lambda: standard_basis(module),
         "aborted after 2 reduction steps in a standard basis of rank 1 with 3 generators;"),
        (lambda: standard_basis(module, truncate_degree=8),
         "in a standard basis of rank 1 with 3 generators, truncated at degree 8;"),
        # the graph module of three rank-2 generators has rank 2 + 3
        (lambda: syzygies(columns), "in a standard basis of rank 5 with 3 generators;"),
    ]
    for run, detail in runs:
        with step_cap(2), pytest.raises(ReductionLimitExceeded) as info:
            run()
        assert detail in str(info.value)
    basis = standard_basis(module)
    with step_cap(0), pytest.raises(ReductionLimitExceeded) as info:
        basis.contains(element(R3, "x^2 + y^3 + z^7"))
    assert (
        f"aborted after 0 reduction steps in a normal form of rank 1 against a standard "
        f"basis of {len(basis.elements)} elements;" in str(info.value)
    )


# ------------------------------------------------------------- packed terms


@st.composite
def packed_terms(draw):
    # small exponents collide and tie often; large ones reach far into the
    # fields, with sums of two still below the limit for n <= 6
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(1, 4))
    block = draw(st.integers(0, rank - 1))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 2**27))
    mono = st.tuples(*[exponent] * n)
    terms = draw(st.lists(st.tuples(st.integers(0, rank - 1), mono), min_size=2, max_size=6))
    return _Packing(n, rank, block), oracle.term_key(block), terms, draw(mono)


@given(packed_terms())
def test_packed_terms_order_shift_and_divide_as_the_tuples_do(case):
    packing, key, terms, b = case
    shift = sum(e * unit for e, unit in zip(b, packing.units))
    for c, a in terms:
        t = packing.pack(c, a)
        assert packing.unpack(t) == (c, a)
        a_b = tuple(x + y for x, y in zip(a, b))
        assert t + shift == packing.pack(c, a_b)
        # a quotient of packed terms of one component multiplies any term
        for c2, a2 in terms:
            a2_b = tuple(x + y for x, y in zip(a2, b))
            assert packing.pack(c2, a2) + packing.pack(c, a_b) - t == packing.pack(c2, a2_b)
    guards = packing.guards
    for s, t in ((s, t) for s in terms for t in terms):
        ps, pt = packing.pack(*s), packing.pack(*t)
        # a smaller int is a larger term
        assert (ps < pt) == (key(s) > key(t))
        assert (ps == pt) == (s == t)
        divides = s[0] == t[0] and all(x <= y for x, y in zip(s[1], t[1]))
        assert (((pt | guards) - ps) & guards == guards) == divides


def test_a_degree_at_the_field_limit_raises_instead_of_wrapping():
    half = DEGREE_LIMIT // 2
    at_limit = Polynomial(R2, {(half, half): 1, (1, 0): 1})
    with pytest.raises(DegreeLimitExceeded):
        standard_basis(Submodule.ideal(R2, [at_limit]))
    # inputs below the limit whose reduction reaches it: the S-element
    # z*(x + y^(L-1)) - x*z of degree L, and the step x*y - y*(x + y^(L-1))
    # of a membership test
    below = Polynomial(R3, {(1, 0, 0): 1, (0, DEGREE_LIMIT - 1, 0): 1})
    xz = Polynomial(R3, {(1, 0, 1): 1})
    with pytest.raises(DegreeLimitExceeded):
        standard_basis(Submodule.ideal(R3, [below, xz]))
    xy = ModuleElement.from_polynomial(Polynomial(R3, {(1, 1, 0): 1}))
    with pytest.raises(DegreeLimitExceeded):
        standard_basis(Submodule.ideal(R3, [below])).contains(xy)
    # one below the limit is still computed
    basis = standard_basis(Submodule.ideal(R2, [Polynomial(R2, {(0, DEGREE_LIMIT - 1): 1})]))
    assert basis.lead_terms == ((0, (0, DEGREE_LIMIT - 1)),)


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


@pytest.fixture
def runs(monkeypatch):
    """The truncate_degree of every standard basis local_colength runs."""
    # the package re-exports the function under the submodule's name
    sb = importlib.import_module("germlab.standard_basis")
    recorded = []

    def recorder(module, **kwargs):
        recorded.append(kwargs.get("truncate_degree"))
        return standard_basis(module, **kwargs)

    monkeypatch.setattr(sb, "standard_basis", recorder)
    return recorded


def test_empty_axis_is_infinite_before_any_rung(runs):
    # no generator has a pure power of y, so the whole y-axis is standard;
    # the second ideal is the Jacobian of the non-isolated x^2*y + z^2 + w^2
    with step_cap(1):
        assert local_colength(ideal(R3, "x*y", "x*z")) is INFINITE
        assert local_colength(ideal(R4, "2*x*y", "x^2", "2*z", "2*w")) is INFINITE
    assert runs == []


def test_untouched_component_is_infinite_before_any_rung():
    # zero in component 2, so the colength is infinite; the ladder used to
    # climb every rung on it, and rung 28 ran out of memory before a
    # 3000-step cap
    rows = [
        ("-2/3*x*y*z + x^2*y^2 - 5/3*x*y^4", "-x^2 + 3/2*x^4*y^2*z^4 + 5/3*x^4*y^4*z^3"),
        ("x^2*z", "-3*x - 5/4*x^2*z^2"),
        ("-1/4 - x^2*y^3*z^3", "-5/3*z^3 - x^3*y^4*z^2"),
    ]
    gens = [
        ModuleElement.from_polynomials([poly(a, R3), poly(b, R3), poly("0", R3)])
        for a, b in rows
    ]
    with step_cap(1):
        assert local_colength(Submodule(R3, 3, gens)) is INFINITE


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


@st.composite
def truncated_runs(draw):
    ring = draw(st.sampled_from([R2, R3]))
    rank = draw(st.integers(1, 2))
    mono = st.tuples(*[st.integers(0, 3)] * ring.n)
    terms = st.dictionaries(st.tuples(st.integers(0, rank - 1), mono), coeffs,
                            min_size=1, max_size=4)
    gens = draw(st.lists(terms, min_size=1, max_size=4))
    degree = draw(st.integers(1, 7 if ring.n == 2 else 5))
    return Submodule(ring, rank, [ModuleElement(ring, rank, g) for g in gens]), degree


@given(truncated_runs())
@example((ideal(R2, "x^2 + y^3", "y^2 + x^3"), 6))  # coprime leads
@example((ideal(R3, "x*y + z^3", "x*z + y^3", "y*z + x^3"), 5))  # pairs past the bound
# coprime leads in a module: the S-element (0, y*z) is needed
@example((Submodule(R3, 2, [element(R3, "x", "z"), element(R3, "y", "0")]), 4))
def test_truncated_colengths_match_the_oracle(case):
    # a colength of M + m^D counts the standard monomials below the bound the
    # run ended at, and every pair criterion applies to these runs
    module, degree = case
    n, rank = module.ring.n, module.rank
    gens = [dict(g.terms) for g in module.generators]
    expected = rank * len(oracle.monomials_below(n, degree)) - oracle.truncated_span_dim(
        n, rank, gens, degree)
    assert colength(standard_basis(module, truncate_degree=degree)) == expected


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


def test_local_colength_certifies_small_colengths_at_low_rungs(runs):
    assert local_colength(ideal(R2, "x", "y^2")) == 2
    # the staircase {1, y} has top degree 1, certified once 1 + 2 <= D
    assert runs[-1] is not None and runs[-1] <= 4


def test_a_floor_above_the_ladder_runs_only_the_exact_basis(runs):
    # the Jacobian of T_{3,4,30} + w^2 holds 30*z^29 and no lower power of
    # z, so z^28 is standard and no rung up to 29 can certify
    f = poly("x^3 + y^4 + z^30 + x*y*z + w^2", R4)
    jacobian = Submodule.ideal(R4, [f.derivative(i) for i in range(4)])
    assert local_colength(jacobian) == 3 + 4 + 30 - 1
    assert runs == [None]


def test_the_axis_floor_of_a_module_reads_every_component():
    assert _axis_floor(ideal(R2, "x^3 + y", "y^2 + x*y")) == 4
    assert _axis_floor(ideal(R2, "1 + x*y")) == 1
    rows = (("x", "0"), ("y^5", "x*y"), ("0", "y + x^2"))
    assert _axis_floor(Submodule(R2, 2, [element(R2, *r) for r in rows])) == 6
    assert _axis_floor(Submodule(R2, 2, [element(R2, *r) for r in rows[1:]])) is None


small_modules = st.integers(1, 2).flatmap(
    lambda m: st.tuples(
        st.lists(st.lists(small_polys, min_size=m, max_size=m), min_size=1, max_size=3),
        st.lists(st.integers(0, 6), min_size=2 * m, max_size=2 * m),
    )
)


@given(small_modules)
def test_rungs_below_the_axis_floor_never_certify(case):
    # random ideals and rank-2 modules plus, for each component c and
    # variable x_i, a pure power x_i^e * e_c unless e = 0: the added powers
    # make the axes short and the colength often finite
    rows, exponents = case
    rank = len(rows[0])
    gens = [ModuleElement.from_polynomials(polys) for polys in rows]
    for k, e in enumerate(exponents):
        if e:
            comp, i = divmod(k, 2)
            gens.append(ModuleElement(R2, rank, {(comp, (e, 0) if i == 0 else (0, e)): 1}))
    module = Submodule(R2, rank, gens)
    floor = _axis_floor(module)
    try:
        with step_cap(2_000):
            value = local_colength(module)
            exact = colength(standard_basis(module))
            for degree in _TRUNCATION_LADDER:
                if floor is None or degree < floor:
                    assert standard_basis(module, truncate_degree=degree).truncated_at == degree
    except ReductionLimitExceeded:
        reject()
    assert value == exact
    if value is not INFINITE:
        assert value == oracle.truncated_colength(2, rank, [dict(g.terms) for g in gens])


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


# ------------------------------------------------------ sums on one ladder


@given(
    st.integers(2, 6),
    st.lists(small_polys, min_size=1, max_size=3),
    st.lists(small_polys, min_size=1, max_size=3),
)
def test_a_sum_counted_from_the_certified_basis_matches_its_own_ladder(k, gens, extra):
    # D holds m^k, so it is finite whatever its other generators; N is
    # arbitrary, units and zero included
    power = [Polynomial.term(R2, (i, k - i), 1) for i in range(k + 1)]
    D = Submodule.ideal(R2, gens + power)
    N = Submodule.ideal(R2, extra)
    total = module_sum(D, N)
    value = local_colength(total)
    assert local_colength(D, N) == (local_colength(D), value)
    assert value == oracle.truncated_colength(2, 1, [dict(g.terms) for g in total.generators])


def test_a_sum_after_an_exact_certificate_runs_at_the_staircase_top(colength_runs):
    # the Jacobian of T_{3,4,30} + w^2 has axis floor 31, so only the exact
    # run certifies it; its staircase tops out at degree 30
    f = poly("x^3 + y^4 + z^30 + x*y*z + w^2", R4)
    jacobian = Submodule.ideal(R4, [f.derivative(i) for i in range(4)])
    N = ideal(R4, "x + z^5")
    assert local_colength(jacobian, N) == (36, 9)
    (_, exact_degree, _, exact), (_, degree, extending, _) = colength_runs
    assert exact_degree is None and extending is exact
    # the run works modulo m^(t+1) for the top t of the exact staircase
    leads = [mono for _, mono in exact.lead_terms]

    def standard_of_degree(d):
        return [
            m for m in oracle.monomials_below(4, d + 1)
            if sum(m) == d and not any(all(map(int.__ge__, m, lead)) for lead in leads)
        ]

    assert standard_of_degree(degree - 1) and not standard_of_degree(degree)
    assert local_colength(module_sum(jacobian, N)) == 9


def test_a_summand_inside_the_module_adds_no_element(colength_runs):
    D = ideal(R2, "x^2 + y^3", "x*y^2")
    N = ideal(R2, "x^3", "x^2*y + y^4", "x*y^2 + x^3*y")
    assert local_colength(D, N) == (7, 7)
    *_, (_, degree, certified, extended) = colength_runs
    kept = {t for t in certified.lead_terms if sum(t[1]) < degree}
    assert set(extended.lead_terms) == kept
    assert len(extended.elements) == len(kept)


def test_an_extension_keeps_the_order_and_bound_of_its_basis():
    # a basis modulo m^2 says nothing about degree 2, and a block basis is
    # not a standard basis for term-over-position
    D = ideal(R2, "x", "y^2")
    truncated = standard_basis(D, truncate_degree=8)
    assert truncated.truncated_at == 2
    N = ideal(R2, "y")
    assert colength(standard_basis(N, truncate_degree=2, extending=truncated)) == 1
    for kwargs in (
        {"truncate_degree": 3, "extending": truncated},
        {"extending": truncated},
        {"truncate_degree": 2, "extending": standard_basis(D, block=1)},
        {"truncate_degree": 2, "block": 1, "extending": truncated},
        {"truncate_degree": 2, "extending": standard_basis(ideal(R3, "x", "y", "z"))},
    ):
        with pytest.raises(ValueError, match="can only extend"):
            standard_basis(N, **kwargs)


def test_a_sum_of_an_infinite_module_climbs_its_own_ladder(colength_runs):
    # X = {x = 0} and f = y^2: df(Theta_X) = (y) misses the x-axis, while
    # (y) + I(X) = (x, y) has colength 1
    line = germs.LINE
    assert line.bruce_roberts(poly("y^2", R2)) == (INFINITE, 1, INFINITE)
    assert colength_runs and all(extending is None for _, _, extending, _ in colength_runs)


def test_truncated_basis_refuses_membership():
    basis = standard_basis(ideal(R2, "x^2", "y^3"), truncate_degree=8)
    with pytest.raises(ValueError, match="untruncated"):
        basis.contains(element(R2, "x^2"))


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
        values = (milnor_icis(X.generators + (f,)), *X.bruce_roberts(f))
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
    return StandardBasis(Submodule.zero(ring, rank), oracle.term_key(), (), lead_terms)


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
