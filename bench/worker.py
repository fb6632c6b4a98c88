"""One benchmark worker: run one ``rondeau`` CLI invocation in this process.

    python3 bench/worker.py --record REC.json --source SRC [--trace | --setup-only] -- <rondeau CLI arguments>

The parent starts the clock just before it starts this process.  The worker
records when ``run`` is entered and when it returns (on the system-wide
monotonic clock), its peak RSS, the crossing flag of every measured rate, and,
with ``--trace``, the spans around every layer call.  Everything is written
to REC.json once, after the run.  ``--setup-only`` stops where ``run`` would
be entered, so that set-up time can be sampled more often than whole runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, instrument  # noqa: E402


def _import_cli(tracer: Tracer | None):
    """Import the CLI module; traced, split out numpy and scipy.optimize."""
    if tracer is None:
        import rondeau.cli
        return rondeau.cli
    t0 = tracer.clock()
    import numpy  # noqa: F401
    t1 = tracer.clock()
    import scipy.optimize  # noqa: F401
    t2 = tracer.clock()
    import rondeau.cli
    t3 = tracer.clock()
    root = tracer.record("cli.import", t0, t3)
    tracer.record("cli.import_scipy_optimize", t1, t2, parent=root)
    return rondeau.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True, type=Path)
    parser.add_argument("--source", required=True, type=Path,
                        help="directory rondeau must be imported from")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer() if args.trace else None
    cli = _import_cli(tracer)
    source = Path(cli.__file__).resolve()
    if not source.is_relative_to(args.source.resolve()):
        print(f"rondeau imported from {source}, not from {args.source}", file=sys.stderr)
        return 2
    if tracer is not None:
        instrument(tracer)

    import rondeau.runner as runner

    crossed: list[bool] = []
    measure_rate = runner.measure_rate

    def checked_measure_rate(*a, **k):
        fit = measure_rate(*a, **k)
        crossed.append(bool(fit.crossed))
        return fit

    runner.measure_rate = checked_measure_rate

    marks: dict[str, float] = {}
    run = cli.run

    def timed_run(config):
        marks["run_enter"] = time.monotonic()
        if args.setup_only:
            return {}
        try:
            return run(config)
        finally:
            marks["run_exit"] = time.monotonic()

    cli.run = timed_run
    code = cli.main(cli_args)
    record = {
        "exit_code": code,
        **marks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "crossed": crossed,
        "spans": tracer.spans if tracer is not None else None,
    }
    args.record.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
