"""Regenerate ``bench/references.json`` from the current sources.

    python3 bench/pin.py                       # every workload, smoke and full
    python3 bench/pin.py --mode smoke --workload heat-eps

Runs one untraced repetition per (mode, workload, input set) and stores the
outputs that ``run.py`` checks.  An input set on which the workload itself
fails (fit error, a realization that never crossed 1/e, a wrong decode) is
not pinned: the command exits nonzero instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run

KEEP = {
    "heat-eps": ("exponent", "points_used", "rate_at_pi", "rates_measured"),
    "pulse-trace": ("samples", "values", "sum", "sumsq"),
    "encode-decode": ("samples", "values", "sum", "sumsq"),
}


def pin(mode: str, workload: str, slot: int) -> dict:
    smoke = mode == "smoke"
    rep = run.repetition(workload, slot, smoke, False, None, time.monotonic() + 600)
    observed = rep.get("observed")
    if observed is None:
        raise SystemExit(f"{mode} {workload} set {slot}: {rep['reason']}")
    reference = {key: observed[key] for key in KEEP[workload]}
    problem = run.check(workload, observed, reference, smoke)
    if problem:
        raise SystemExit(f"{mode} {workload} set {slot}: {problem}")
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("smoke", "full"), action="append")
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SOURCE))
    references = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
    for mode in args.mode or ("smoke", "full"):
        for workload in args.workload or run.WORKLOADS:
            pinned = {}
            for slot in range(run.SLOTS):
                start = time.monotonic()
                pinned[str(slot)] = pin(mode, workload, slot)
                print(f"{mode} {workload} set {slot}: {time.monotonic() - start:.1f} s",
                      flush=True)
            references.setdefault(mode, {})[workload] = pinned
            run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
