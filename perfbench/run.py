"""germlab benchmark: run one seeded workload for a fixed time and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a germlab checkout; germlab is imported from its
`src/`.  One client sends one request at a time (closed loop) in this
one process and thread.  Every request is gated (see gate.py) and bounded
by a wall-clock deadline enforced with SIGALRM.  The last line of stdout
is one JSON object: end-to-end metrics with `--trace 0`, per-layer metrics
with `--trace 1`.  End-to-end times are rescaled to a nominal host speed
measured by a germlab-free probe loop between requests (see README.md).  Each run writes `out/<workload>-seed<N>-trace<T>.json`
(environment, every request, metrics) and a traced run also
`out/<workload>-seed<N>-spans.jsonl`.  The exit code is 1 when any output
was wrong.

The traced run runs every request twice, on a plain import and on a
second import with every public germlab function wrapped (tracing.py);
the two ---RESULTS--- blocks must be byte-identical, and the difference
in their times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
DEADLINE_S = 30.0
WARMUP_S = 2.0
# The host's speed drifts by up to half within minutes (other tenants).
# reference() runs between requests, at least every REFERENCE_EVERY_S, and
# every end-to-end time is rescaled to the speed at which it takes
# REFERENCE_S.
REFERENCE_S = 0.05
REFERENCE_EVERY_S = 0.5
# Seed of the generic slice: the problem files' default, used for germ_scan too.
REPORT_SEED = 42
REPORT_KEYS = ("n", "k", "d", "mu_f", "mu_X", "tau_X", "mu_X_f", "mu_X_p", "mu_br",
               "mu_br_rel", "tau_br", "gsv", "polar_md", "eu_X", "eu_fX", "brasselet",
               "c1", "c2")

END_TO_END = (
    ("requests_per_s", "1/s"),
    ("request_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside germlab when a request overruns its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def reference() -> float:
    """Seconds taken by a fixed loop of Fraction, dict and tuple work that
    shares no code with germlab: a probe of the host's current speed."""
    start = perf_counter()
    counts = {}
    value = Fraction(1)
    for i in range(2500):
        value = (value * Fraction(i + 3, i + 1) + Fraction(1, i + 2)) / 2
        key = (i % 17, i % 13, i % 7)
        counts[key] = counts.get(key, 0) + value.numerator % 97
    return perf_counter() - start


def nominal(seconds: float, probes: list[float]) -> float:
    """`seconds` rescaled to the host speed at which reference() takes
    REFERENCE_S, judged by the median of `probes` (one probe alone is noisy)."""
    return seconds * REFERENCE_S / statistics.median(probes)


def import_germlab():
    """A fresh import of germlab from this checkout's src/."""
    init = SRC / "germlab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found: run from a germlab checkout")
    for name in [n for n in sys.modules if n == "germlab" or n.startswith("germlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    germlab = importlib.import_module("germlab")
    importlib.import_module("germlab.cli")
    if Path(germlab.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported germlab from {germlab.__file__}, not {init}")
    return germlab


def render(report) -> str:
    """A ---RESULTS--- block for a derived_invariants report, in CLI format."""
    lines = ["---RESULTS---", "command = derived", f"seed = {report.seed}"]
    for key in REPORT_KEYS:
        value = getattr(report, key)
        lines.append(f"{key} = {'none' if value is None else value}")
    for check in report.checks:
        lines.append(f"check.{check.name} = {'pass' if check.passed else 'fail'}")
    lines.append("---END---")
    return "\n".join(lines) + "\n"


class Session:
    """One set-up: a fresh germlab import plus the workload's inputs.

    CLI workloads get one problem file per request; germ_scan gets one
    shared VarietyGerm and one Polynomial f per request.
    """

    def __init__(self, workload: str, seed: int):
        self.germlab = import_germlab()
        self.requests = workloads.generate(workload, seed)
        self.paths = {}
        if workload == "germ_scan":
            ring = self.germlab.RingSpec(workloads.VARS4)
            parse = self.germlab.parse_polynomial
            self.germ = self.germlab.VarietyGerm(ring, [parse(workloads.SCAN_GERM, ring)])
            self.functions = {r.rid: parse(r.text, ring) for r in self.requests}
            return
        folder = OUT / "problems" / workload
        folder.mkdir(parents=True, exist_ok=True)
        for request in self.requests:
            path = folder / f"{request.rid:04d}.germ"
            path.write_text(request.text, encoding="utf-8")
            self.paths[request.rid] = str(path)

    def call(self, request) -> tuple[int, str]:
        """Run one request: (exit code, output holding the RESULTS block)."""
        if request.command == "derived":
            try:
                report = self.germlab.derived_invariants(
                    self.germ, self.functions[request.rid], seed=REPORT_SEED)
            except self.germlab.GermlabError as err:
                return 2, f"error: {err}\n"
            return 0, render(report)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.germlab.cli.main([request.command, self.paths[request.rid], "--machine"])
        return code, out.getvalue() + err.getvalue()


@dataclass
class Outcome:
    """A finished request.  It failed if `reasons` is not empty; `wrong`
    marks a failure other than a missed deadline."""

    request: workloads.Request
    seconds: float
    output: str = ""
    reasons: list = field(default_factory=list)
    wrong: bool = False
    nominal_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.reasons

    def record(self) -> dict:
        return {"rid": self.request.rid, "slot": self.request.slot,
                "command": self.request.command, "seconds": self.seconds,
                "nominal_seconds": self.nominal_seconds, "ok": self.ok,
                "reasons": self.reasons}


def timed_request(session: Session, request, recorded: dict) -> Outcome:
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    start = perf_counter()
    try:
        code, output = session.call(request)
        seconds = perf_counter() - start
    except DeadlineExceeded:
        return Outcome(request, perf_counter() - start,
                       reasons=[f"missed the {DEADLINE_S:g} s deadline"])
    except Exception:
        return Outcome(request, perf_counter() - start,
                       reasons=["raised: " + traceback.format_exc(limit=-3)], wrong=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    reasons = gate.failures(request, code, output, recorded.get(request.rid))
    return Outcome(request, seconds, output, reasons, wrong=bool(reasons))


def run_requests(session: Session, requests, recorded: dict, seconds: float | None):
    """Requests one after another until `seconds` of wall time have passed.

    Each request's time is also rescaled by the median of the six host
    probes nearest to it, three before and three after.
    """
    outcomes = []
    probes = [(perf_counter(), reference())]
    probe_before = []
    begin = perf_counter()
    for request in requests:
        if seconds is not None and perf_counter() - begin >= seconds:
            break
        if perf_counter() - probes[-1][0] >= REFERENCE_EVERY_S:
            probes.append((perf_counter(), reference()))
        outcomes.append(timed_request(session, request, recorded))
        probe_before.append(len(probes) - 1)
    probes.append((perf_counter(), reference()))
    speeds = [probe for _, probe in probes]
    for outcome, i in zip(outcomes, probe_before):
        outcome.nominal_seconds = nominal(outcome.seconds, speeds[max(0, i - 2):i + 4])
    return outcomes, speeds


def end_to_end(outcomes, setups, attr: str) -> dict[str, float]:
    """The timing metrics from the `attr` time of each outcome."""
    ok = [o for o in outcomes if o.ok]
    times = [getattr(o, attr) for o in outcomes]
    # A failed request counts as missing the deadline.
    latencies = [t if o.ok else max(t, DEADLINE_S) for o, t in zip(outcomes, times)]
    return {
        "requests_per_s": len(ok) / sum(times),
        "request_s_p50": statistics.median(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": len(ok) / len(outcomes),
    }


def warm_up(workload: str, seed: int) -> None:
    """Run the workload untimed for WARMUP_S on a throwaway import.

    The first requests of a process run up to a third slower while the
    heap grows; timing starts after that, on a fresh import.
    """
    session = Session(workload, seed)
    signal.setitimer(signal.ITIMER_REAL, WARMUP_S)
    try:
        for request in session.requests:
            session.call(request)
    except (DeadlineExceeded, Exception):
        pass  # the timed run that follows reports any failure
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure(workload: str, seed: int, seconds: float):
    warm_up(workload, seed)
    setups = []
    setup_probes = [reference()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        session = Session(workload, seed)
        setups.append(perf_counter() - start)
        setup_probes.append(reference())
    nominal_setups = [nominal(t, setup_probes) for t in setups]
    gc.collect()
    outcomes, probes = run_requests(session, session.requests,
                                    gate.recorded_values(workload, seed), seconds)
    raw = end_to_end(outcomes, setups, "seconds")
    return outcomes, end_to_end(outcomes, nominal_setups, "nominal_seconds"), {
        "raw": raw, "setup_probes": setup_probes, "probes": probes}


def measure_traced(workload: str, seed: int, seconds: float):
    recorded = gate.recorded_values(workload, seed)
    warm_up(workload, seed)
    # Two independent imports: one plain, one with every public function
    # wrapped.  Each request runs on both back to back, in a seeded random
    # order, so that drift in host speed cancels out of the overhead.
    plain = Session(workload, seed)
    traced = Session(workload, seed)
    tracer = tracing.Tracer()
    tracer.install(traced.germlab)
    gc.collect()
    outcomes = []
    untraced = with_tracing = 0.0
    begin = perf_counter()
    for request in traced.requests:
        if perf_counter() - begin >= seconds:
            break
        tracer.rid = request.rid
        if random.Random(request.rid).random() < 0.5:
            before = timed_request(plain, request, recorded)
            after = timed_request(traced, request, recorded)
        else:
            after = timed_request(traced, request, recorded)
            before = timed_request(plain, request, recorded)
        if before.ok and after.ok:
            if before.output != after.output:
                after.reasons.append("---RESULTS--- differs from the untraced run")
                after.wrong = True
            untraced += before.seconds
            with_tracing += after.seconds
        after.reasons += [f"untraced: {r}" for r in before.reasons]
        after.wrong = after.wrong or before.wrong
        outcomes.append(after)
    overhead = with_tracing / untraced - 1 if untraced else 0.0
    metrics = tracing.layer_metrics(tracer.spans, len(outcomes), overhead)
    spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl"
    with spans_path.open("w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.as_dict()) + "\n")
    return outcomes, metrics, {"untraced_seconds": untraced, "traced_seconds": with_tracing,
                               "spans": len(tracer.spans), "spans_file": spans_path.name}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "loadavg_start": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = environment()
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        outcomes, metrics, extra = measure_traced(args.workload, args.seed, args.seconds)
        units = dict(tracing.LAYER_METRICS)
    else:
        outcomes, metrics, extra = measure(args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)

    failed = [o for o in outcomes if not o.ok]
    correct = not any(o.wrong for o in failed)
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, **extra, "result": result,
        "requests": [o.record() for o in outcomes],
    }, indent=1) + "\n", encoding="utf-8")

    for outcome in failed:
        print(f"FAILED request {outcome.request.rid} ({outcome.request.slot}): "
              + "; ".join(outcome.reasons))
    print(f"{args.workload} seed {args.seed}: {len(outcomes)} requests "
          f"({len(failed)} failed); request_s_p50 over {len(outcomes)} samples; "
          f"details in {result_path.relative_to(HERE.parent)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
