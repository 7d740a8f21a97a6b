"""Tests of the benchmark itself: inputs, gate, deadline and tracing.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.generate(workload, 1, 24)
    assert first == workloads.generate(workload, 1, 24)
    other = workloads.generate(workload, 2, 24)
    assert [r.text for r in first] != [r.text for r in other]
    assert [r.slot for r in first] == [r.slot for r in other]


@pytest.mark.parametrize("workload", ["hypersurface_reports", "colength_queries"])
def test_germs_are_distinct_within_a_pool(workload):
    requests = workloads.generate(workload, 3)
    germs = [r.text.split("[function]")[0] for r in requests if r.command != "std"]
    assert len(germs) == len(set(germs))


def _cheap(workload, count):
    """The first `count` requests of the pool, skipping the costliest slots."""
    slow = {"curve_dense", "bp_mid_dense", "bp_large_coordinate", "dense", "quadric_cross",
            "tjurina_large", "milnor_large", "std_large"}
    return [r for r in workloads.generate(workload, 1) if r.slot not in slow][:count]


def test_traced_results_are_byte_identical_to_untraced():
    for workload, count in (("colength_queries", 4), ("hypersurface_reports", 2),
                            ("germ_scan", 2)):
        plain = run.Session(workload, 1)
        traced = run.Session(workload, 1)
        tracer = tracing.Tracer()
        tracer.install(traced.germlab)
        for request in _cheap(workload, count):
            tracer.rid = request.rid
            code, output = plain.call(request)
            assert code == 0
            assert traced.call(request) == (code, output)
        assert tracer.spans and not tracer.stack
        metrics = tracing.layer_metrics(tracer.spans, count, 0.0)
        assert [name for name, _ in tracing.LAYER_METRICS] == list(metrics)
        assert metrics["standard_basis.sb_calls"] > 0


def test_spans_name_the_calling_module():
    session = run.Session("hypersurface_reports", 1)
    tracer = tracing.Tracer()
    tracer.install(session.germlab)
    request = _cheap("hypersurface_reports", 1)[0]
    tracer.rid = request.rid
    assert session.call(request)[0] == 0
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.derived_invariants", "invariants.milnor_icis",
            "invariants.local_colength", "derlog.VarietyGerm.tangent_module"} <= names
    roles = {s.attrs["role"] for s in tracer.spans if s.fn == "invariants.milnor_icis"}
    assert roles == {"mu_X", "slice_f", "slice_generic"}
    by_id = {s.sid: s for s in tracer.spans}
    for span in tracer.spans:
        assert span.rid == request.rid
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end


def test_gate_passes_a_real_output_and_rejects_a_corrupted_value():
    session = run.Session("colength_queries", 1)
    request = next(r for r in workloads.generate("colength_queries", 1) if r.command == "milnor")
    code, output = session.call(request)
    assert gate.failures(request, code, output, None) == []
    key, want = next(iter(request.expect.items()))
    corrupted = output.replace(f"{key} = {want}", f"{key} = {want + 1}")
    assert corrupted != output
    assert gate.failures(request, code, corrupted, None)
    values = {k: v for k, v in gate.parse_results(output).items() if gate.compared(k)}
    recorded = {"input": request.text, "values": {**values, "k": "2"}}
    assert gate.failures(request, code, output, recorded) == ["k = 1, recorded 2"]
    assert gate.failures(request, 2, output, None) == ["exit code 2"]


def test_gate_rejects_a_failed_identity():
    output = "---RESULTS---\nmu_X = 9\ncheck.relative_formula = fail\n---END---\n"
    request = workloads.Request(0, "slot", "invariants", "", {"mu_X": 9})
    assert gate.failures(request, 0, output, None) == ["check.relative_formula = fail"]


def test_recorded_values_match_their_generated_inputs():
    for workload in workloads.WORKLOADS:
        recorded = gate.recorded_values(workload, gate.DEFAULT_SEED)
        assert recorded, f"no recording for {workload}"
        requests = workloads.generate(workload, gate.DEFAULT_SEED, len(recorded))
        assert [r.text for r in requests] == [recorded[r.rid]["input"] for r in requests]
        assert gate.recorded_values(workload, gate.DEFAULT_SEED + 1) == {}


def test_deadline_is_counted_and_the_run_continues(monkeypatch):
    session = run.Session("theta_ci", 1)
    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    requests = workloads.generate("theta_ci", 1, 2)
    outcomes, _ = run.run_requests(session, requests, {}, None)
    assert all(not o.ok and not o.wrong and "deadline" in o.reasons[0] for o in outcomes)
    assert len(outcomes) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "colength_queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
