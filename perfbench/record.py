"""Record the ---RESULTS--- values of the default seed into expected/.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a germlab checkout.  Every recorded request must
first pass the identity and closed-form checks of the gate.  Each file
covers the workload's whole request pool, so the gate compares every
request of a default-seed run with its recording.
"""

from __future__ import annotations

import json
import signal
import sys

import gate
import run
import workloads

def record(workload: str) -> None:
    session = run.Session(workload, gate.DEFAULT_SEED)
    entries = []
    for request in session.requests:
        outcome = run.timed_request(session, request, {})
        if not outcome.ok:
            raise SystemExit(f"{workload} request {request.rid}: {'; '.join(outcome.reasons)}")
        values = gate.parse_results(outcome.output)
        entries.append({"rid": request.rid, "slot": request.slot, "input": request.text,
                        "values": {k: v for k, v in values.items() if gate.compared(k)}})
    gate.EXPECTED_DIR.mkdir(exist_ok=True)
    path = gate.EXPECTED_DIR / f"{workload}.json"
    path.write_text(json.dumps({"seed": gate.DEFAULT_SEED, "requests": entries}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"{workload}: recorded {len(entries)} requests in {path.name}")


def main(argv) -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    for workload in argv or workloads.WORKLOADS:
        record(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
