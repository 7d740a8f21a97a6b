"""Batch command-line front end.

Reads a sectioned problem file, runs the requested computation and emits a
human-readable report followed by a machine-readable block fenced by
---RESULTS--- / ---END---.  The human block is rendered from the same rows
as the machine block, so the two can never disagree.  Output is a pure
function of the file content, the command and the seed.

Exit codes: 0 success, 1 parse/validation error, 2 precondition violation
(non-ICIS, dimension < 3, infinite colength, ...), 3 identity-check
failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .derlog import VarietyGerm, _minimise
from .errors import (
    DegreeLimitExceeded,
    GenericityExhausted,
    ICISViolation,
    InfiniteColength,
    ParseError,
    PreconditionViolation,
    ReductionLimitExceeded,
)
from .invariants import (
    IdentityCheck,
    derived_invariants,
    milnor_hypersurface,
    milnor_icis,
    tjurina_icis,
)
from .problemfile import INTEGER, ProblemFile, parse_problem_file
from .standard_basis import colength, krull_dimension, step_cap

_PRECONDITION_ERRORS = (
    ICISViolation,
    PreconditionViolation,
    InfiniteColength,
    GenericityExhausted,
    ReductionLimitExceeded,
    DegreeLimitExceeded,
)


def _format_value(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return str(value)


def _variety(problem: ProblemFile) -> VarietyGerm:
    if problem.ambient:
        return VarietyGerm.ambient(problem.ring)
    return VarietyGerm(problem.ring, problem.generators)


def _require_function(problem: ProblemFile):
    if problem.function is None:
        raise PreconditionViolation("this command needs a [function] section")
    return problem.function


def _require_proper(X: VarietyGerm):
    if X.is_ambient:
        raise PreconditionViolation("this command needs a proper variety, not 'ambient'")


def _run_invariants(problem: ProblemFile, seed: int):
    X = _variety(problem)
    rows: list[tuple[str, object]] = [("n", problem.ring.n)]
    if X.is_ambient:
        f = _require_function(problem)
        rows.append(("d", problem.ring.n))
        mu_f = milnor_hypersurface(f)
        mu_br, mu_br_rel, tau_br = X.bruce_roberts(f)
        rows += [("mu_f", mu_f), ("mu_br", mu_br), ("mu_br_rel", mu_br_rel), ("tau_br", tau_br)]
        checks = [
            IdentityCheck("ambient_bruce_roberts", mu_br, mu_f),
            IdentityCheck("ambient_relative", mu_br_rel, mu_f),
        ]
        return rows, checks
    if problem.function is None:
        # tjurina_icis verifies X: its dimension, then isolatedness by a finite tau
        tau_X = tjurina_icis(X)
        rows += [
            ("k", X.k),
            ("d", X.dimension),
            ("mu_X", milnor_icis(X.generators)),
            ("tau_X", tau_X),
        ]
        return rows, []
    report = derived_invariants(X, problem.function, seed=seed)
    rows += [
        ("k", report.k),
        ("d", report.d),
        ("mu_f", report.mu_f),
        ("mu_X", report.mu_X),
        ("tau_X", report.tau_X),
        ("mu_X_f", report.mu_X_f),
        ("mu_X_p", report.mu_X_p),
        ("mu_br", report.mu_br),
        ("mu_br_rel", report.mu_br_rel),
        ("tau_br", report.tau_br),
        ("gsv", report.gsv),
        ("polar_md", report.polar_md),
        ("eu_X", report.eu_X),
        ("eu_fX", report.eu_fX),
        ("brasselet", report.brasselet),
        ("c1", report.c1),
        ("c2", report.c2),
    ]
    return rows, list(report.checks)


def _run_theta(problem: ProblemFile, seed: int):
    X = _variety(problem)
    theta = _minimise(list(X.tangent_module.generators))
    rows = [("n", problem.ring.n), ("theta.size", len(theta))]
    for i, gen in enumerate(theta, start=1):
        rows.append((f"theta.gen.{i}", gen))
    return rows, []


def _run_std(problem: ProblemFile, seed: int):
    X = _variety(problem)
    _require_proper(X)
    basis = X.ideal_basis
    value = colength(basis)
    rows = [
        ("n", problem.ring.n),
        ("k", X.k),
        ("std.size", len(basis.elements)),
        ("std.colength", value),
        ("std.dimension", krull_dimension(basis)),
    ]
    for i, el in enumerate(basis.elements, start=1):
        rows.append((f"std.elem.{i}", el.component(0)))
    return rows, []


def _run_milnor(problem: ProblemFile, seed: int):
    X = _variety(problem)
    _require_proper(X)
    return [("n", problem.ring.n), ("k", X.k), ("milnor", milnor_icis(X.generators))], []


def _run_tjurina(problem: ProblemFile, seed: int):
    X = _variety(problem)
    _require_proper(X)
    return [("n", problem.ring.n), ("k", X.k), ("tjurina", tjurina_icis(X))], []


_RUNNERS = {
    "invariants": _run_invariants,
    "theta": _run_theta,
    "std": _run_std,
    "milnor": _run_milnor,
    "tjurina": _run_tjurina,
    "check": _run_invariants,
}


def _emit(command: str, path: str, seed: int, rows, checks, machine_only: bool):
    lines = []
    if not machine_only:
        lines.append(f"germlab {command}: {path}")
        width = max((len(key) for key, _ in rows), default=0)
        for key, value in rows:
            lines.append(f"  {key.ljust(width)} = {_format_value(value)}")
        if checks:
            lines.append("checks:")
            for check in checks:
                status = "PASS" if check.passed else "FAIL"
                relation = "=" if check.passed else "!="
                lines.append(
                    f"  {status} {check.name}: {_format_value(check.lhs)} "
                    f"{relation} {_format_value(check.rhs)}"
                )
            lines.append(f"consistent: {_format_value(all(c.passed for c in checks))}")
        lines.append("")
    lines.append("---RESULTS---")
    lines.append(f"command = {command}")
    lines.append(f"file = {path}")
    lines.append(f"seed = {seed}")
    for key, value in rows:
        lines.append(f"{key} = {_format_value(value)}")
    for check in checks:
        lines.append(f"check.{check.name} = {'pass' if check.passed else 'fail'}")
    lines.append("---END---")
    sys.stdout.write("\n".join(lines) + "\n")


def _ascii_int(text: str) -> int:
    """argparse type for an integer in ASCII digits, as a file's seed."""
    if not INTEGER.fullmatch(text):
        # the message argparse gives for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    """argparse type for a step cap: an integer of at least 1."""
    value = _ascii_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; it holds no request state."""
    parser = argparse.ArgumentParser(
        prog="germlab",
        description="Local invariants of isolated complete intersection singularities.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        sub = subparsers.add_parser(name)
        sub.add_argument("file", help="problem file describing the germ")
        sub.add_argument("--seed", type=_ascii_int, default=None, help="override the file's seed")
        sub.add_argument(
            "--machine", action="store_true", help="suppress the human-readable block"
        )
        sub.add_argument(
            "--max-steps",
            type=_positive_int,
            default=None,
            help="reduction-step cap per standard-basis run or normal form",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.max_steps is None:
        return _run(args)
    with step_cap(args.max_steps):
        return _run(args)


def _run(args) -> int:
    try:
        with open(args.file, "rb") as handle:
            data = handle.read()
    except OSError as err:
        print(f"error: cannot read {args.file}: {err.strerror}", file=sys.stderr)
        return 1
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        # err.start counts from after a BOM, in err.object; the lines are
        # split as the parser splits them, "?" standing for the bad byte
        lines = (err.object[: err.start].decode("utf-8") + "?").splitlines()
        print(
            f"{args.file}:{len(lines)}:{len(lines[-1])}: error: "
            f"invalid UTF-8 byte 0x{err.object[err.start]:02x}",
            file=sys.stderr,
        )
        return 1
    try:
        problem = parse_problem_file(text)
    except ParseError as err:
        print(f"{args.file}:{err.line}:{err.column}: error: {err}", file=sys.stderr)
        return 1

    seed = args.seed if args.seed is not None else problem.seed
    try:
        rows, checks = _RUNNERS[args.command](problem, seed)
    except _PRECONDITION_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    _emit(args.command, args.file, seed, rows, checks, args.machine)
    failures = [c for c in checks if not c.passed]
    if failures:
        for check in failures:
            print(
                f"identity check failed: {check.name}: "
                f"lhs = {_format_value(check.lhs)}, rhs = {_format_value(check.rhs)}",
                file=sys.stderr,
            )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
