"""CLI behaviour: reports, determinism, machine block, exit codes."""

import dataclasses

import pytest

import germlab.cli as cli
import germlab.derlog as derlog
import germlab.invariants as inv
from germlab import IdentityCheck, derived_invariants, local_colength, step_cap
from germlab.standard_basis import DEFAULT_MAX_STEPS

from germs import D3_PAIRS

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
    assert gens == {"(0, 1)", "(x, 0)"}


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


def test_one_df_theta_per_report(tmp_path, capsys, monkeypatch):
    # the three Bruce-Roberts numbers share one df(Theta_X)
    calls = []
    df_theta = derlog.df_theta

    def counted(f, theta):
        calls.append(f)
        return df_theta(f, theta)

    monkeypatch.setattr(derlog, "df_theta", counted)
    code, out, _ = run(tmp_path, capsys, AMBIENT, "invariants", "--machine")
    assert code == 0
    assert len(calls) == 1
    _, X, f = D3_PAIRS[0]
    derived_invariants(X, f)
    assert len(calls) == 2


def test_ambient_report_with_non_isolated_function(tmp_path, capsys):
    text = "[ring]\nvariables = x, y\n[variety]\nambient\n[function]\nf = x^2*y\n"
    code, out, _ = run(tmp_path, capsys, text, "invariants", "--machine")
    assert code == 0
    data = machine_block(out)
    assert data["mu_f"] == "INFINITE"
    assert data["mu_br"] == "INFINITE"
    assert data["check.ambient_bruce_roberts"] == "pass"


def test_ambient_report_of_an_infinite_mu_br_climbs_a_ladder_per_sum(tmp_path, capsys, colength_runs):
    # f = (x^2 - y^3)^2 is singular along its zero curve; J(f) holds pure
    # powers of x and y, so its ladder and the exact run end INFINITE, and
    # with no certificate each sum climbs its own ladder and prints INFINITE
    text = "[ring]\nvariables = x, y\n[variety]\nambient\n[function]\nf = x^4 - 2*x^2*y^3 + y^6\n"
    code, out, err = run(tmp_path, capsys, text, "invariants", "--machine")
    assert (code, err) == (0, "")
    assert out == (
        f"---RESULTS---\ncommand = invariants\nfile = {tmp_path / 'input.germ'}\nseed = 42\n"
        "n = 2\nd = 2\nmu_f = INFINITE\nmu_br = INFINITE\nmu_br_rel = INFINITE\n"
        "tau_br = INFINITE\ncheck.ambient_bruce_roberts = pass\n"
        "check.ambient_relative = pass\n---END---\n"
    )
    assert all(extending is None for _, _, extending, _ in colength_runs)
    # mu_f, mu_br, mu_br_rel and tau_br each end with an exact run
    assert [degree for _, degree, _, _ in colength_runs].count(None) == 4


def test_check_command_passes(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, SPHERE, "check", "--machine")
    assert code == 0
    assert machine_block(out)["command"] == "check"


def test_exit_one_on_malformed_file(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, MALFORMED, "invariants")
    assert code == 1
    assert ":4:7: error:" in err
    assert "implicit multiplication" in err


def test_exit_one_on_non_ascii_digit(tmp_path, capsys):
    superscript = "[ring]\nvariables = x, y\n[variety]\ng1 = x^\u00b2 + y^2\n"
    code, out, err = run(tmp_path, capsys, superscript, "milnor")
    assert code == 1
    assert out == ""
    assert ":4:8: error: unexpected character" in err
    assert "Traceback" not in err


def test_exit_one_on_invalid_utf8_byte(tmp_path, capsys):
    path = tmp_path / "input.germ"
    text = "[ring]\r\nvariables = x, y\r\n[variety]\r\ng1 = x\u00b2 "
    path.write_bytes(text.encode("utf-8") + b"\xff+ y^2\n")
    code = cli.main(["milnor", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    # the column counts characters, not bytes, and CRLF ends a line
    assert captured.err == f"{path}:4:9: error: invalid UTF-8 byte 0xff\n"
    # a byte order mark takes no column
    path.write_bytes(b"\xef\xbb\xbf\xc0" + text.encode("utf-8"))
    assert cli.main(["milnor", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}:1:1: error: invalid UTF-8 byte 0xc0\n"


def test_a_byte_order_mark_is_not_content(tmp_path, capsys):
    plain = run(tmp_path, capsys, SPHERE, "invariants", "--machine")
    (tmp_path / "input.germ").write_bytes(b"\xef\xbb\xbf" + SPHERE.encode())
    code = cli.main(["invariants", str(tmp_path / "input.germ"), "--machine"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == plain
    assert code == 0


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


@pytest.mark.parametrize("command", ["tjurina", "milnor", "invariants"])
def test_exit_two_on_non_isolated_hypersurface(tmp_path, capsys, command):
    # singular along the y-axis; tau or the chain colength is infinite,
    # which names a non-isolated singular locus
    text = "[ring]\nvariables = x, y, z, w\n[variety]\ng1 = x^2*y + z^2 + w^2\n"
    code, out, err = run(tmp_path, capsys, text, command, "--machine")
    assert (code, out) == (2, "")
    assert err == "error: ICIS violation: non-isolated singular locus\n"


@pytest.mark.parametrize(
    "command, g",
    [("milnor", "x^3 + y^5 + z^6 + x*y*z"), ("tjurina", "x^3 + y^5 + z^7 + x*y*z")],
)
def test_hypersurface_number_is_one_colength(tmp_path, capsys, monkeypatch, command, g):
    # a finite mu or tau certifies isolatedness: no second colength runs
    # just to verify the germ (each germ is used only here, so the chain
    # cache holds none of its values, and tau is cached on the germ that
    # the run builds)
    calls = []

    def counted(module):
        calls.append(module)
        return local_colength(module)

    monkeypatch.setattr(inv, "local_colength", counted)
    monkeypatch.setattr(derlog, "local_colength", counted)
    text = f"[ring]\nvariables = x, y, z\n[variety]\ng1 = {g}\n"
    code, out, err = run(tmp_path, capsys, text, command, "--machine")
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command, gens",
    [
        ("milnor", "x^2*y + z^2 + w^3"),
        ("tjurina", "x^2*y + z^3 + w^2"),
        ("invariants", "x^2*y + z^3 + w^3\n[function]\nf = z"),
        ("milnor", "x^2*y + z^2 + w^4\ng2 = x + y"),
    ],
)
def test_non_isolated_germ_is_one_colength(tmp_path, capsys, monkeypatch, command, gens):
    # the infinite mu, tau or chain step names the reason itself: no second
    # colength runs to verify the germ (each germ is used only here, so the
    # chain cache holds none of its values, and tau is cached on the germ
    # that the run builds)
    calls = []

    def counted(module):
        calls.append(module)
        return local_colength(module)

    monkeypatch.setattr(inv, "local_colength", counted)
    monkeypatch.setattr(derlog, "local_colength", counted)
    text = f"[ring]\nvariables = x, y, z, w\n[variety]\ng1 = {gens}\n"
    code, out, err = run(tmp_path, capsys, text, command, "--machine")
    assert (code, out) == (2, "")
    assert err == "error: ICIS violation: non-isolated singular locus\n"
    assert len(calls) == 1


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
    with step_cap(DEFAULT_MAX_STEPS):
        code, _, err = run(tmp_path, capsys, SPHERE, "invariants", "--max-steps", "2")
    assert code == 2
    assert "reduction steps" in err


def test_max_steps_cap_does_not_leak_into_later_calls(tmp_path, capsys):
    milnor = "[ring]\nvariables = x, y, z\n[variety]\ng1 = x^3 + y^4 + z^5 + x*y*z\n"
    with step_cap(DEFAULT_MAX_STEPS):
        # the largest run of this milnor needs 5 steps
        code, _, err = run(tmp_path, capsys, milnor, "milnor", "--machine", "--max-steps", "2")
        assert code == 2 and "aborted after 2 reduction steps" in err
        code, out, err = run(tmp_path, capsys, milnor, "milnor", "--machine")
    assert code == 0, err
    assert machine_block(out)["milnor"] == "11"


def test_degree_at_the_kernel_limit_exits_two(tmp_path, capsys):
    huge = "[ring]\nvariables = x, y\n[variety]\ng1 = x^2147483648 + y\n"
    code, out, err = run(tmp_path, capsys, huge, "std", "--machine")
    assert (code, out) == (2, "")
    assert "degree limit" in err


def test_max_steps_below_one_is_rejected_when_parsed(tmp_path, capsys):
    path = tmp_path / "input.germ"
    path.write_text(SPHERE, encoding="utf-8")
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as info:
            cli.main(["invariants", str(path), "--max-steps", value])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert f"argument --max-steps: must be at least 1, got {value}" in err
        assert "reduction steps" not in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--seed", "\u0664\u0662"),
        ("--seed", "4_2"),
        ("--seed", "\uff14\uff12"),
        ("--max-steps", "\u0661\u0660\u0660"),
        ("--max-steps", "1_000"),
    ],
)
def test_integer_flags_take_only_ascii_digits(tmp_path, capsys, flag, value):
    path = tmp_path / "input.germ"
    path.write_text(SPHERE, encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        cli.main(["milnor", str(path), flag, value])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: invalid int value: {value!r}" in captured.err


def test_negative_seed_flag_is_accepted(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, SPHERE, "milnor", "--machine", "--seed", "-7")
    assert code == 0
    assert machine_block(out)["seed"] == "-7"


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
