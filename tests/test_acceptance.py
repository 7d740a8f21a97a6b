"""Acceptance suite: every criterion checked exactly (integer tolerance 0).

Each test prints one `[acceptance] criterion N (...): PASS|FAIL` line, so a
plain `pytest -s tests/test_acceptance.py` doubles as the acceptance
report.
"""

import dataclasses
import functools

import pytest

import germlab.cli as cli
from germlab import (
    IdentityCheck,
    ModuleElement,
    Polynomial,
    Submodule,
    VarietyGerm,
    colength,
    derived_invariants,
    gradient,
    intersect,
    local_colength,
    milnor_hypersurface,
    milnor_icis,
    module_sum,
    standard_basis,
    tjurina_icis,
)
from germlab.errors import ICISViolation

import _oracle as oracle
from germs import (
    AXIS3,
    BRIESKORN3,
    CONE3,
    CROSS,
    CURVE_K2,
    D3_PAIRS,
    LINE,
    LOW_DIM_PAIRS,
    NONQH,
    PENCIL5,
    QUADRIC4,
    R1,
    R2,
    R3,
    R4,
    SECOND_SEED,
    poly,
    report,
)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {number:2d} ({name}): PASS")

        return wrapper

    return decorate


def as_vec(p):
    return {(0, m): c for m, c in p.terms.items()}


def ideal_colength(ring, polys):
    return colength(standard_basis(Submodule.ideal(ring, polys)))


# Classical ADE normal forms with their Milnor numbers.
ADE = (
    [(f"x^{k + 1} + y^2 + z^2", k) for k in range(1, 9)]
    + [(f"x^{k - 1} + x*y^2 + z^2", k) for k in (4, 5, 6)]
    + [("x^3 + y^4 + z^2", 6), ("x^3 + x*y^3 + z^2", 7), ("x^3 + y^5 + z^2", 8)]
)


@criterion(1, "colength oracle equivalence")
def test_colength_oracle_corpus():
    corpus = [
        (R2, ["x", "y"]),
        (R2, ["x^2", "y^3"]),
        (R1, ["x^2 + x^3"]),
        (R3, ["2*x^2+z^2", "2*y^2+z^2", "y*z", "x*z"]),
        (R2, ["x^2 + x*y", "y^2"]),
        (R2, ["x^3 - y^4", "x*y^2"]),
        (R2, ["3*x^2 + 5*y^6", "7*y"]),
        (R3, ["x + y + z", "x*y - z^3", "y^2"]),
        (R4, ["x", "y", "z", "w^4"]),
        (R2, ["x^3 + y^7 + x*y^5", "3*x^2 + y^5", "7*y^6 + 5*x*y^4"]),
    ]
    for expr, _ in ADE:
        corpus.append((R3, [str(g) for g in gradient(poly(expr, R3))]))
    assert len(corpus) >= 20
    for ring, exprs in corpus:
        polys = [poly(e, ring) for e in exprs]
        module = Submodule.ideal(ring, polys)
        exact = ideal_colength(ring, polys)
        fast = local_colength(module)
        reference = oracle.truncated_colength(ring.n, 1, [as_vec(p) for p in polys])
        assert exact == fast == reference, (exprs, exact, fast, reference)


@criterion(2, "ADE Milnor numbers")
def test_ade_milnor_numbers():
    for expr, mu in ADE:
        f = poly(expr, R3)
        assert milnor_hypersurface(f) == mu, expr
        reference = oracle.truncated_colength(3, 1, [as_vec(g) for g in gradient(f)])
        assert reference == mu, expr


@criterion(3, "chain order independence")
def test_chain_order_independence():
    both_orders = [
        (R3, "x^2+y^2+z^2", "x^2+2*y^2+3*z^2", 5),
        (R4, "x^2+y^2+z^2+w^2", "x^2+2*y^2+3*z^2+4*w^2", 7),
        (R3, "x^2+y^2+z^2", "x^3+y^3+z^3", 13),
        (R3, "x^2+y^3+z^3", "x^3+y^2+z^2", 7),
    ]
    assert len(both_orders) >= 3
    for ring, e1, e2, expected in both_orders:
        f1, f2 = poly(e1, ring), poly(e2, ring)
        assert milnor_icis([f1, f2]) == expected
        assert milnor_icis([f2, f1]) == expected
    # quadric-then-binomial: only one chain order is admissible (V(xy) in C^3
    # has a line singularity), and the admissible one gives mu = 5
    h, g = poly("x^2+y^2+z^2", R3), poly("x*y", R3)
    assert milnor_icis([h, g]) == 5
    with pytest.raises(ICISViolation):
        milnor_icis([g, h])


def _low_dim_sides(X, f):
    lhs = X.bruce_roberts(f).mu_br_rel
    rhs = milnor_icis(X.generators + (f,)) + milnor_icis(X.generators) - tjurina_icis(X)
    return lhs, rhs


@criterion(4, "relative Bruce-Roberts identity")
def test_relative_identity():
    count = 0
    for name, X, f in D3_PAIRS:
        rep = report(name)
        assert rep.mu_br_rel == rep.mu_X_f + rep.mu_X - rep.tau_X, name
        count += 1
    for name, X, f in LOW_DIM_PAIRS:
        lhs, rhs = _low_dim_sides(X, f)
        assert lhs == rhs, name
        count += 1
    assert count >= 5


def _correction_terms(X, f):
    # c2 = dim (I cap J)/(I*J) by the linear-algebra oracle, not the pipeline's route
    jacobian = Submodule.ideal(X.ring, gradient(f))
    c1 = local_colength(module_sum(jacobian, X.ideal))
    products = [as_vec(g * p) for g in X.generators for p in gradient(f)]
    inter = [dict(g.terms) for g in intersect(X.ideal, jacobian).generators]
    c2 = oracle.truncated_subquotient(X.ring.n, 1, inter, products)
    return c1, c2


@criterion(5, "absolute Bruce-Roberts identity")
def test_absolute_identity():
    count = 0
    for name, X, f in D3_PAIRS:
        rep = report(name)
        assert rep.mu_f is not None, name
        expected = rep.mu_f + rep.mu_X_f + rep.mu_X - rep.tau_X - rep.c1 + rep.c2
        assert rep.mu_br == expected, name
        count += 1
    for name, X, f in LOW_DIM_PAIRS:
        mu_f = milnor_hypersurface(f)
        c1, c2 = _correction_terms(X, f)
        expected = (
            mu_f + milnor_icis(X.generators + (f,)) + milnor_icis(X.generators)
            - tjurina_icis(X) - c1 + c2
        )
        assert X.bruce_roberts(f).mu_br == expected, name
        count += 1
    assert count >= 5


@criterion(6, "hypersurface correction cancellation")
def test_hypersurface_corrections_cancel():
    seen = 0
    for name, X, f in D3_PAIRS + LOW_DIM_PAIRS:
        if X.k != 1:
            continue
        c1, c2 = _correction_terms(X, f)
        assert c1 == c2, name
        seen += 1
    assert seen >= 6


@criterion(7, "derived-invariant consistency")
def test_derived_consistency():
    for name, X, f in D3_PAIRS:
        rep = report(name)
        assert rep.brasselet == rep.eu_X - rep.eu_fX, name
        d = rep.d
        sd, s1 = (-1) ** d, (-1) ** (d - 1)
        relative_expressions = [
            rep.gsv - rep.tau_X,
            rep.mu_X_f + rep.polar_md + sd * (rep.eu_X - 1) - rep.tau_X,
            rep.mu_X + rep.mu_X_p + sd * rep.eu_fX - rep.tau_X,
            rep.polar_md + sd * rep.eu_fX - rep.tau_X,
            rep.mu_X + s1 * (rep.brasselet - 1) - rep.tau_X,
        ]
        assert len(set(relative_expressions)) == 1, name
        assert relative_expressions[0] == rep.mu_br_rel, name
        if rep.mu_f is not None:
            shift = rep.mu_f - rep.c1 + rep.c2
            assert all(v + shift == rep.mu_br for v in relative_expressions), name
        assert rep.consistent, name


@criterion(8, "genericity stability across seeds")
def test_genericity_stability():
    names = [name for name, _, _ in D3_PAIRS]
    assert len(names) >= 5
    for name in names:
        first = report(name)
        second = report(name, seed=SECOND_SEED)
        for attr in ("eu_X", "polar_md", "eu_fX", "brasselet", "mu_X_p"):
            assert getattr(first, attr) == getattr(second, attr), (name, attr)


@criterion(9, "tangent-module correctness")
def test_tangent_module_correctness():
    germs = [LINE, CROSS, NONQH, CONE3, AXIS3, CURVE_K2, QUADRIC4, BRIESKORN3, PENCIL5]
    for X in germs:
        ideal_basis = X.ideal_basis
        for xi in X.tangent_module.generators:
            comps = xi.components
            for g in X.generators:
                value = Polynomial.zero(X.ring)
                for i in range(X.ring.n):
                    value = value + comps[i] * g.derivative(i)
                assert ideal_basis.contains(ModuleElement.from_polynomial(value))
    # V(x): two-way equality with <x e1, e2>
    expected = Submodule(
        R2,
        2,
        [
            ModuleElement.from_polynomials([poly("x", R2), poly("0", R2)]),
            ModuleElement.from_polynomials([poly("0", R2), poly("1", R2)]),
        ],
    )
    line_basis = standard_basis(LINE.tangent_module)
    expected_basis = standard_basis(expected)
    assert all(line_basis.contains(g) for g in expected.generators)
    assert all(expected_basis.contains(g) for g in LINE.tangent_module.generators)
    # quadric: Euler and rotation fields are members
    qbasis = standard_basis(QUADRIC4.tangent_module)
    euler = ModuleElement.from_polynomials([poly(v, R4) for v in R4.variables])
    assert qbasis.contains(euler)
    for i in range(4):
        for j in range(i + 1, 4):
            comps = [poly("0", R4)] * 4
            comps[i] = -poly(R4.variables[j], R4)
            comps[j] = poly(R4.variables[i], R4)
            assert qbasis.contains(ModuleElement.from_polynomials(comps))


@criterion(10, "quasihomogeneity criterion")
def test_quasihomogeneity_criterion():
    quasihomogeneous = [
        (QUADRIC4, poly("x", R4)),
        (BRIESKORN3, poly("x", R4)),
        (CROSS, poly("x + y", R2)),
    ]
    for X, f in quasihomogeneous:
        weights = oracle.detect_quasihomogeneous(f, X)
        assert weights is not None and all(w > 0 for w in weights)
        mu_br, _, tau_br = X.bruce_roberts(f)
        assert mu_br == tau_br
    ambient = VarietyGerm.ambient(R2)
    stubborn = poly("x^3 + y^7 + x*y^5", R2)
    assert oracle.detect_quasihomogeneous(stubborn, ambient) is None
    mu_br, _, tau_br = ambient.bruce_roberts(stubborn)
    assert (mu_br, tau_br) == (12, 11)


SPHERE_FILE = """\
[ring]
variables = x, y, z, w
[variety]
g1 = x^2 + y^2 + z^2 + w^2
[function]
f = x
[options]
seed = 42
"""


@criterion(11, "CLI determinism and exit codes")
def test_cli_contract(tmp_path, capsys, monkeypatch):
    sphere = tmp_path / "sphere4.germ"
    sphere.write_text(SPHERE_FILE, encoding="utf-8")

    assert cli.main(["invariants", str(sphere)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["invariants", str(sphere)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "mu_br_rel = 1" in first
    assert "gsv = 2" in first
    assert "brasselet = 2" in first
    assert "check.relative_formula = pass" in first

    malformed = tmp_path / "malformed.germ"
    malformed.write_text("[ring]\nvariables = x\n[variety]\ng1 = 2x\n", encoding="utf-8")
    assert cli.main(["invariants", str(malformed)]) == 1
    capsys.readouterr()

    bad = tmp_path / "bad.germ"
    bad.write_text(
        "[ring]\nvariables = x, y, z\n[variety]\ng1 = x*y\ng2 = x*z\n[function]\nf = z\n",
        encoding="utf-8",
    )
    assert cli.main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "ICIS violation: dimension 2, expected 1" in err

    def corrupted(X, f, seed=42):
        rep = derived_invariants(X, f, seed=seed)
        return dataclasses.replace(
            rep, checks=rep.checks + (IdentityCheck("corrupted_probe", 0, 1),)
        )

    monkeypatch.setattr(cli, "derived_invariants", corrupted)
    assert cli.main(["check", str(sphere)]) == 3
    captured = capsys.readouterr()
    assert "corrupted_probe" in captured.err
