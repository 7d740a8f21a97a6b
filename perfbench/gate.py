"""Correctness gate applied to every benchmark request.

A request passes when germlab exits 0, its ---RESULTS--- block parses,
every `check.*` identity reads `pass`, every closed form the generator
attached to the request holds, and, for the requests recorded in
`expected/<workload>.json` (the default seed), every recorded value is
reproduced exactly.  Values that describe a representation rather than
the germ are never compared: `theta.size` depends on the order of the
generators, and `std.elem.*` lists one of many valid standard bases.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
DEFAULT_SEED = 1
# Keys that are not values of the germ; the path differs per checkout.
UNCOMPARED = ("file", "theta.size", "std.elem.")


def compared(key: str) -> bool:
    return not key.startswith(UNCOMPARED)


def parse_results(text: str) -> dict[str, str] | None:
    """The key = value lines between ---RESULTS--- and ---END---, or None."""
    lines = text.splitlines()
    try:
        begin = lines.index("---RESULTS---")
        end = lines.index("---END---", begin)
    except ValueError:
        return None
    values = {}
    for line in lines[begin + 1:end]:
        key, sep, value = line.partition(" = ")
        if not sep:
            return None
        values[key] = value
    return values


def recorded_values(workload: str, seed: int) -> dict[int, dict]:
    """rid -> {"input": text, "values": {...}} for the recorded seed, else {}."""
    path = EXPECTED_DIR / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    return {entry["rid"]: entry for entry in data["requests"]}


def failures(request, exit_code: int, output: str, recorded: dict | None) -> list[str]:
    """Reasons the request failed the gate; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    values = parse_results(output)
    if values is None:
        return ["no ---RESULTS--- block"]
    reasons = [f"{k} = {v}" for k, v in values.items() if k.startswith("check.") and v != "pass"]
    for key, want in request.expect.items():
        if values.get(key) != str(want):
            reasons.append(f"{key} = {values.get(key)}, closed form {want}")
    if recorded is not None:
        if recorded["input"] != request.text:
            reasons.append("input differs from the recorded input")
        for key, want in recorded["values"].items():
            if compared(key) and values.get(key) != want:
                reasons.append(f"{key} = {values.get(key)}, recorded {want}")
    return reasons
