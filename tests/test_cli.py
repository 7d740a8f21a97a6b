"""CLI behaviour: reports, determinism, machine block, exit codes."""

import dataclasses

import germlab.cli as cli
from germlab import IdentityCheck, derived_invariants

SPHERE = """\
[ring]
variables = x, y, z, w
[variety]
g1 = x^2 + y^2 + z^2 + w^2
[function]
f = x
[options]
seed = 42
"""

LINE = "[ring]\nvariables = x, y\n[variety]\ng1 = x\n"
BAD = "[ring]\nvariables = x, y, z\n[variety]\ng1 = x*y\ng2 = x*z\n[function]\nf = z\n"
MALFORMED = "[ring]\nvariables = x, y\n[variety]\ng1 = 2x\n"
AMBIENT = "[ring]\nvariables = x, y\n[variety]\nambient\n[function]\nf = x^3 + y^7 + x*y^5\n"


def run(tmp_path, capsys, content, *argv):
    path = tmp_path / "input.germ"
    path.write_text(content, encoding="utf-8")
    code = cli.main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_block(out):
    body = out.split("---RESULTS---\n", 1)[1].split("---END---", 1)[0]
    entries = {}
    for line in body.strip().splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def test_invariants_report_values_and_exit_zero(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, SPHERE, "invariants")
    assert code == 0
    data = machine_block(out)
    assert data["mu_br_rel"] == "1"
    assert data["gsv"] == "2"
    assert data["brasselet"] == "2"
    assert data["eu_X"] == "2"
    assert all(v == "pass" for k, v in data.items() if k.startswith("check."))
    assert "PASS relative_formula: 1 = 1" in out


def test_byte_identical_reports(tmp_path, capsys):
    _, first, _ = run(tmp_path, capsys, SPHERE, "invariants")
    _, second, _ = run(tmp_path, capsys, SPHERE, "invariants")
    assert first == second


def test_machine_flag_suppresses_human_block(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, SPHERE, "invariants", "--machine")
    assert code == 0
    assert out.startswith("---RESULTS---")


def test_seed_flag_overrides_file(tmp_path, capsys):
    _, out, _ = run(tmp_path, capsys, SPHERE, "invariants", "--machine", "--seed", "7")
    assert machine_block(out)["seed"] == "7"


def test_theta_command(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, LINE, "theta", "--machine")
    assert code == 0
    data = machine_block(out)
    assert data["theta.size"] == "2"
    gens = {data["theta.gen.1"], data["theta.gen.2"]}
    assert gens == {"(0, 1)", "(-x, 0)"}


def test_std_and_single_number_commands(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, SPHERE, "std", "--machine")
    assert code == 0
    data = machine_block(out)
    assert data["std.size"] == "1"
    assert data["std.colength"] == "INFINITE"
    assert data["std.dimension"] == "3"

    code, out, _ = run(tmp_path, capsys, SPHERE, "milnor", "--machine")
    assert code == 0 and machine_block(out)["milnor"] == "1"

    code, out, _ = run(tmp_path, capsys, SPHERE, "tjurina", "--machine")
    assert code == 0 and machine_block(out)["tjurina"] == "1"


def test_ambient_report(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, AMBIENT, "invariants", "--machine")
    assert code == 0
    data = machine_block(out)
    assert data["mu_f"] == "12"
    assert data["tau_br"] == "11"
    assert data["check.ambient_bruce_roberts"] == "pass"


def test_ambient_report_with_non_isolated_function(tmp_path, capsys):
    text = "[ring]\nvariables = x, y\n[variety]\nambient\n[function]\nf = x^2*y\n"
    code, out, _ = run(tmp_path, capsys, text, "invariants", "--machine")
    assert code == 0
    data = machine_block(out)
    assert data["mu_f"] == "INFINITE"
    assert data["mu_br"] == "INFINITE"
    assert data["check.ambient_bruce_roberts"] == "pass"


def test_check_command_passes(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, SPHERE, "check", "--machine")
    assert code == 0
    assert machine_block(out)["command"] == "check"


def test_exit_one_on_malformed_file(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, MALFORMED, "invariants")
    assert code == 1
    assert ":4:7: error:" in err
    assert "implicit multiplication" in err


def test_exit_one_on_missing_file(tmp_path, capsys):
    code = cli.main(["invariants", str(tmp_path / "absent.germ")])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot read" in captured.err


def test_exit_two_on_non_icis(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, BAD, "check")
    assert code == 2
    assert "ICIS violation: dimension 2, expected 1" in err
    assert out == ""


def test_exit_two_on_non_icis_linear_slice(tmp_path, capsys):
    a1 = "[ring]\nvariables = x, y, z, w\n[variety]\ng1 = x*y + z^2 + w^2\n[function]\nf = x\n"
    code, out, err = run(tmp_path, capsys, a1, "invariants", "--machine")
    assert code == 2
    assert err == "error: the slice by f is not an ICIS (non-isolated singular locus)\n"
    assert out == ""


def test_exit_two_on_low_dimension(tmp_path, capsys):
    cone = "[ring]\nvariables = x, y, z\n[variety]\ng1 = x^2 + y^2 + z^2\n[function]\nf = x\n"
    code, _, err = run(tmp_path, capsys, cone, "invariants")
    assert code == 2
    assert "dimension 2 < 3" in err


def test_theta_on_ambient_variety(tmp_path, capsys):
    text = "[ring]\nvariables = x, y\n[variety]\nambient\n"
    code, out, _ = run(tmp_path, capsys, text, "theta", "--machine")
    assert code == 0
    data = machine_block(out)
    assert data["theta.size"] == "2"
    assert data["theta.gen.1"] == "(1, 0)"


def test_invariants_without_function_reports_germ_numbers(tmp_path, capsys):
    text = "[ring]\nvariables = x, y, z, w\n[variety]\ng1 = x^2 + y^2 + z^2 + w^3\n"
    code, out, _ = run(tmp_path, capsys, text, "invariants", "--machine")
    assert code == 0
    data = machine_block(out)
    assert data["mu_X"] == "2"
    assert data["tau_X"] == "2"
    assert data["d"] == "3"


def test_ambient_without_function_is_a_precondition_error(tmp_path, capsys):
    text = "[ring]\nvariables = x, y\n[variety]\nambient\n"
    code, _, err = run(tmp_path, capsys, text, "invariants")
    assert code == 2
    assert "needs a [function] section" in err


def test_max_steps_cap_aborts_with_exit_two(tmp_path, capsys):
    from germlab.standard_basis import set_default_max_steps

    try:
        code, _, err = run(tmp_path, capsys, SPHERE, "invariants", "--max-steps", "2")
    finally:
        set_default_max_steps(1_000_000)
    assert code == 2
    assert "reduction steps" in err


def test_max_steps_cap_does_not_leak_into_later_calls(tmp_path, capsys):
    from germlab.standard_basis import set_default_max_steps

    milnor = "[ring]\nvariables = x, y, z\n[variety]\ng1 = x^3 + y^4 + z^5 + x*y*z\n"
    try:
        code, _, err = run(tmp_path, capsys, milnor, "milnor", "--machine", "--max-steps", "5")
        assert code == 2 and "aborted after 5 reduction steps" in err
        code, out, err = run(tmp_path, capsys, milnor, "milnor", "--machine")
    finally:
        set_default_max_steps(1_000_000)
    assert code == 0, err
    assert machine_block(out)["milnor"] == "11"


def test_exit_three_on_corrupted_identity(tmp_path, capsys, monkeypatch):
    def corrupted(X, f, seed=42):
        rep = derived_invariants(X, f, seed=seed)
        broken = rep.checks + (IdentityCheck("corrupted_probe", 0, 1),)
        return dataclasses.replace(rep, checks=broken)

    monkeypatch.setattr(cli, "derived_invariants", corrupted)
    code, out, err = run(tmp_path, capsys, SPHERE, "check")
    assert code == 3
    assert "check.corrupted_probe = fail" in out
    assert "identity check failed: corrupted_probe: lhs = 0, rhs = 1" in err
    assert "FAIL corrupted_probe: 0 != 1" in out
