"""End-to-end benchmark of the ``rondeau`` CLI on three pinned workloads.

    python3 bench/run.py --workload heat-eps --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload encode-decode --seed 0 --seconds 1 --trace 1 --smoke

Run it from anywhere inside a checkout; it imports ``rondeau`` from the
checkout's ``src/`` and refuses to run without it.  Each repetition starts
fresh worker processes one at a time (``bench/worker.py``), hands them only
a generated INI config, and checks their output files against references
pinned in ``bench/references.json`` (regenerate with ``bench/pin.py``).
Repetitions continue until ``--seconds`` have passed; metrics are medians
over them.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced repetitions, reports the
per-layer metrics of the traced ones (medians), and reports the tracing
overhead as traced minus untraced ``wall_s``.  ``--smoke`` shrinks every
workload to 6 spins so that a run takes seconds.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, with the raw
repetitions and the environment, goes to ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

sys.path.insert(0, str(BENCH))

from tracing import LAYER_METRICS, layer_metrics  # noqa: E402

WORKLOADS = ("heat-eps", "pulse-trace", "encode-decode")

#: Seeds map onto this many pinned input sets, each with its own reference.
SLOTS = 8

#: 98 characters of 7-bit text: 686 drive cycles.
MESSAGE = ("Random multipolar drives heat a dipolar spin network slowly; "
           "its micromotion carries this message.")
SMOKE_MESSAGE = "RMD!"

#: Every trace sample is |total Ix| <= n/2; refactors must agree far below this.
TRACE_ATOL = 1e-8
#: Fitted exponents and rates; one early-stop cycle more or less moves them ~1e-3.
FIT_RTOL = 1e-6
#: Trace samples kept in the references: every TRACE_STRIDE-th, plus moments of all.
TRACE_STRIDE = 7

#: Set-up samples per run: repetitions short of this are made up with
#: set-up-only launches; setup_s is the median over all of them.
SETUP_SAMPLES = 7

#: A new repetition starts only if it is expected to end before this.
RUN_LIMIT_S = 150.0
#: Hard limit on the whole run, including a repetition that hangs.
HARD_LIMIT_S = 175.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

NOTES = {
    "warm_up": "No warm-up repetition is excluded: every repetition is a fresh "
               "process, because CLI users pay the imports (numpy, scipy.optimize) "
               "and the LAPACK first-call cost of eigh on every run.  Only the "
               "byte-compilation of the package, which an install does once, "
               "happens before the first worker is timed.",
    "failed_frac": "failed_frac = failed / attempted repetitions; a repetition fails "
                   "when a worker exits nonzero, times out, or its outputs miss the "
                   "pinned references.",
    "heating_csv": "The heat-eps check reads fits.json and the crossing flag of every "
                   "measured rate, never heating_eps.csv: its numeric fields are "
                   "written as 'np.float64(...)' (ROADMAP open item 5, corrupt "
                   "heating CSVs), so it does not round-trip.",
    "pulse_trace_size": "pulse-trace runs n=11 for 8 cycles, the planned fallback from "
                        "n=12 for 1 cycle: at n=12 one repetition took 18-20 s, so a 30 s "
                        "run held only two, and run medians spread 9.2% (IQR/median over "
                        "5 seeds); n=11 x 8 cycles takes 8 s (4 repetitions a run, "
                        "spread 5.6%) and its 67 MB propagator still exceeds the 4 MB L2.",
    "seeds": f"--seed selects one of {SLOTS} pinned input sets (seed mod {SLOTS}): the "
             "drive realizations for heat-eps (graph 0 fixed, so the early-stopped "
             "rundowns keep a steady length) and the spin graph for pulse-trace and "
             "encode-decode.",
}


class RepetitionFailed(RuntimeError):
    """A worker failed or its outputs missed the references."""


def steps(workload: str, slot: int, smoke: bool, work: Path) -> list[tuple[list, dict]]:
    """CLI subcommand and config values of each worker process of one repetition."""
    import numpy as np

    if workload == "heat-eps":
        # rondeau heating --sweep eps --spins 10 --tau 0.01 --eps-points 4 --realizations 3
        eps = tuple(float(x) for x in np.geomspace(0.01 * math.pi, 0.1 * math.pi, 4))
        return [(["heating", "--sweep", "eps"],
                 {"num_spins": 6 if smoke else 10, "tau": 0.01, "eps_grid": eps,
                  "realizations": 3, "seed": slot, "graph_seed": 0, "threads": 1})]
    if workload == "pulse-trace":
        # rondeau trace --spins 11 --cycles 8
        return [(["trace"],
                 {"num_spins": 6 if smoke else 11, "cycles": 2 if smoke else 8,
                  "seed": slot, "graph_seed": slot, "threads": 1})]
    if workload == "encode-decode":
        # rondeau encode --spins 10 --tau 0.01, then rondeau decode of its trace.csv
        return [(["encode"],
                 {"num_spins": 6 if smoke else 10, "tau": 0.01,
                  "text": SMOKE_MESSAGE if smoke else MESSAGE,
                  "seed": slot, "graph_seed": slot, "threads": 1}),
                (["decode"], {"trace_file": str(work / "out0" / "trace.csv")})]
    raise ValueError(f"unknown workload {workload!r}")


def write_ini(path: Path, values: dict):
    lines = ["[bench]"]
    for key, value in values.items():
        text = ",".join(repr(v) for v in value) if isinstance(value, tuple) else str(value)
        lines.append(f"{key} = {text}")
    path.write_text("\n".join(lines) + "\n")


def run_workers(workload: str, slot: int, smoke: bool, mode: str | None, work: Path,
                deadline: float) -> list[dict]:
    """Start each worker of one repetition in turn; returns their records.

    `mode` is None, "--trace" or "--setup-only" (see worker.py).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    records = []
    for i, (command, values) in enumerate(steps(workload, slot, smoke, work)):
        ini, record = work / f"step{i}.ini", work / f"step{i}.json"
        write_ini(ini, values)
        argv = [sys.executable, str(BENCH / "worker.py"), "--record", str(record),
                "--source", str(SOURCE)] + ([mode] if mode else [])
        argv += ["--", *command, "--config", str(ini), "--out", str(work / f"out{i}")]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            raise RepetitionFailed(f"step {i} ({command[0]}) timed out") from None
        if proc.returncode != 0 or not record.exists():
            raise RepetitionFailed(f"step {i} ({command[0]}) exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-400:]}")
        rec = json.loads(record.read_text())
        rec["spawned"] = spawned
        records.append(rec)
    return records


def _trace_summary(path: Path) -> dict:
    from rondeau import serialize

    values = serialize.read_trace(path).values
    return {"samples": int(values.size),
            "values": [float(f"{v:.12g}") for v in values[::TRACE_STRIDE]],
            "sum": float(values.sum()), "sumsq": float((values**2).sum())}


def observe(workload: str, work: Path, records: list[dict]) -> dict:
    """The outputs of one repetition that the references pin."""
    if workload == "heat-eps":
        fit = json.loads((work / "out0" / "fits.json").read_text())["0"]
        return {"exponent": fit.get("exponent"), "points_used": fit["points_used"],
                "rate_at_pi": fit["rate_at_pi"], "fit_error": fit.get("error"),
                "rates_measured": len(records[0]["crossed"]),
                "uncrossed": records[0]["crossed"].count(False)}
    observed = _trace_summary(work / "out0" / "trace.csv")
    if workload == "encode-decode":
        observed["text"] = json.loads((work / "out1" / "decoded.json").read_text())["text"]
    return observed


def check(workload: str, observed: dict, reference: dict, smoke: bool) -> str | None:
    """Why the outputs are wrong, or None if they match the references."""
    if workload == "heat-eps":
        if observed["fit_error"] is not None:
            return f"power-law fit failed: {observed['fit_error']}"
        if observed["uncrossed"]:
            return f"{observed['uncrossed']} realizations never crossed 1/e"
        for key in ("points_used", "rates_measured"):
            if observed[key] != reference[key]:
                return f"{key} {observed[key]} != reference {reference[key]}"
        for key in ("exponent", "rate_at_pi"):
            if not math.isclose(observed[key], reference[key], rel_tol=FIT_RTOL):
                return f"{key} {observed[key]!r} != reference {reference[key]!r}"
        return None
    if observed["samples"] != reference["samples"]:
        return f"trace has {observed['samples']} samples, reference {reference['samples']}"
    for got, want in zip(observed["values"], reference["values"]):
        if abs(got - want) > TRACE_ATOL:
            return f"trace sample {got!r} != reference {want!r} (atol {TRACE_ATOL})"
    for key in ("sum", "sumsq"):
        if abs(observed[key] - reference[key]) > TRACE_ATOL * observed["samples"]:
            return f"trace {key} {observed[key]!r} != reference {reference[key]!r}"
    if workload == "encode-decode":
        text = SMOKE_MESSAGE if smoke else MESSAGE
        if observed["text"] != text:
            return f"decoded {observed['text']!r} != encoded {text!r}"
    return None


def scratch_dir() -> Path:
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=OUT / "work"))


def repetition(workload: str, slot: int, smoke: bool, traced: bool,
               reference: dict | None, deadline: float) -> dict:
    """Run, time and check one repetition in a scratch directory of its own."""
    work = scratch_dir()
    rep: dict = {"traced": traced, "ok": False}
    try:
        records = run_workers(workload, slot, smoke, "--trace" if traced else None,
                              work, deadline)
        rep.update(
            wall_s=sum(r["run_exit"] - r["spawned"] for r in records),
            setup_s=sum(r["run_enter"] - r["spawned"] for r in records),
            peak_rss_mb=max(r["peak_rss_kb"] for r in records) / 1024.0,
        )
        if traced:
            rep["layers"] = layer_metrics([r["spans"] for r in records])
        rep["observed"] = observe(workload, work, records)
        if reference is None:
            rep["reason"] = "no pinned reference"
        else:
            rep["reason"] = check(workload, rep["observed"], reference, smoke)
            rep["ok"] = rep["reason"] is None
    except (RepetitionFailed, OSError, KeyError, ValueError) as exc:
        rep["reason"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rep


def setup_probe(workload: str, slot: int, smoke: bool, deadline: float) -> float | None:
    """Set-up time of one repetition whose workers stop before `run`."""
    work = scratch_dir()
    try:
        records = run_workers(workload, slot, smoke, "--setup-only", work, deadline)
        return sum(r["run_enter"] - r["spawned"] for r in records)
    except (RepetitionFailed, OSError, KeyError, ValueError) as exc:
        print(f"set-up probe failed: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    max_threads = [int(w.split("=", 1)[1]) for w in config.split()
                   if w.startswith("MAX_THREADS=")]
    cpus = len(os.sched_getaffinity(0))
    # OpenBLAS takes OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else one per CPU
    requested = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    threads = int(requested) if requested and requested.isdigit() else cpus
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": config,
                 "max_threads": max_threads[0] if max_threads else None,
                 "threads": min([threads] + max_threads)},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Repeat the workload for about `seconds`; returns the run's result record.

    Rounds (one repetition, or an untraced and a traced one) continue while
    the next is expected to end less than half a round past `seconds`, so
    the measured time is the whole number of rounds nearest to it (at least one).
    """
    slot = seed % SLOTS
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    reference = references.get("smoke" if smoke else "full", {}).get(workload, {}).get(str(slot))
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        round_start = time.monotonic()
        for rep_traced in ((False, True) if traced else (False,)):
            reps.append(repetition(workload, slot, smoke, rep_traced, reference,
                                   start + HARD_LIMIT_S))
        elapsed, last = time.monotonic() - start, time.monotonic() - round_start
        if elapsed + last / 2 >= seconds or elapsed + last > RUN_LIMIT_S:
            break

    probes = []
    if not traced:
        for _ in range(SETUP_SAMPLES - len(reps)):
            probe = setup_probe(workload, slot, smoke, start + HARD_LIMIT_S)
            if probe is not None:
                probes.append(probe)

    timed = [r for r in reps if "wall_s" in r]
    metrics: dict = {}
    if traced:
        plain = [r["wall_s"] for r in timed if not r["traced"]]
        with_spans = [r for r in timed if r["traced"]]
        if plain and with_spans:
            layers = {name: statistics.median(r["layers"][name] for r in with_spans)
                      for name in with_spans[0]["layers"]}
            layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in with_spans)
                                          - statistics.median(plain))
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit, _ in LAYER_METRICS}
    elif timed:
        samples = {name: [r[name] for r in timed] for name, _ in END_TO_END}
        samples["setup_s"] += probes
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
    failed = sum(not r["ok"] for r in reps)
    return {
        "workload": workload, "seed": seed, "slot": slot, "smoke": smoke,
        "trace": int(traced), "seconds": seconds,
        "measured_s": time.monotonic() - start,
        "correct": failed == 0, "attempted": len(reps), "failed": failed,
        "failed_frac": failed / len(reps),
        "metrics": metrics,
        "configs": [values for _, values in steps(workload, slot, smoke, Path("WORK"))],
        "repetitions": [{k: v for k, v in r.items() if k != "observed"} for r in reps],
        "setup_probes_s": probes,
        "environment": environment(),
        "notes": NOTES,
    }


def report(result: dict):
    """Human-readable lines for one workload."""
    print(f"{result['workload']}: seed {result['seed']} (input set {result['slot']}), "
          f"{result['attempted']} repetitions in {result['measured_s']:.1f} s"
          f"{', traced' if result['trace'] else ''}{', smoke' if result['smoke'] else ''}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':<36} {result['failed_frac']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for i, rep in enumerate(result["repetitions"]):
        if not rep["ok"]:
            print(f"  repetition {i} failed: {rep['reason']}", file=sys.stderr)


def save(result: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
                      f"{'-smoke' if result['smoke'] else ''}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the rondeau CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="6-spin variants of every workload, for tests")
    args = parser.parse_args(argv)

    if not (SOURCE / "rondeau" / "__init__.py").is_file():
        print(f"no rondeau sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    # byte-compile the package once, as an install would, before any worker is timed
    import rondeau.cli  # noqa: F401

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        save(result)
        report(result)
        results.append(result)
    if not all(r["metrics"] for r in results):
        print("no repetition produced measurements", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
