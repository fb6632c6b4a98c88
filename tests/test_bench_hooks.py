"""The benchmark wraps package functions by name and writes INI configs; a rename
or a config key dropped while the benchmark still writes it must fail fast here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer, instrument
instrument(Tracer())
"""

# A tiny full-engine heating sweep (3 eps points, 2 realizations), an encode and a
# per-pulse trace, run after instrumenting; prints the per-layer metrics of the heating
# run's spans, then of all spans.
RUN_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer, instrument, layer_metrics
tracer = Tracer()
instrument(tracer)
from rondeau.runner import RunConfig, run
small = dict(engine="full", num_spins=4, pulses_per_block=12, kick_plus=8, kick_minus=4,
             tau=0.05, realizations=2)
run(RunConfig(kind="heating-eps", out_dir=sys.argv[3] + "/heat", eps_grid=(0.3, 0.5, 0.7),
              max_cycles=64, **small))
print(json.dumps(layer_metrics([list(tracer.spans)])))
run(RunConfig(kind="encode", out_dir=sys.argv[3] + "/encode", text="Hi", **small))
run(RunConfig(kind="trace", out_dir=sys.argv[3] + "/trace", cycles=2, **small))
print(json.dumps(layer_metrics([tracer.spans])))
"""

# Every INI the benchmark writes, for each workload in full and smoke size, read
# through the CLI's config path and validated without running; prints their kinds.
INI_SCRIPT = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from run import WORKLOADS, steps, write_ini
from rondeau.cli import _config_from_args, build_parser
work = Path(sys.argv[3])
kinds = []
for workload in WORKLOADS:
    for smoke in (False, True):
        for i, (command, values) in enumerate(steps(workload, 0, smoke, work)):
            ini = work / f"{workload}-{int(smoke)}-{i}.ini"
            write_ini(ini, values)
            args = build_parser().parse_args(
                command + ["--config", str(ini), "--out", str(work / "out")])
            config = _config_from_args(args)
            config.validate()
            kinds.append(config.kind)
print(json.dumps(kinds))
"""


def test_bench_tracing_instruments_current_names():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_runs_go_through_the_traced_names(tmp_path):
    """A seam calling the engines by their home-module names would zero these spans."""
    proc = subprocess.run(
        [sys.executable, "-c", RUN_SCRIPT, str(ROOT / "bench"), str(ROOT / "src"),
         str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    heating, metrics = map(json.loads, proc.stdout.splitlines()[-2:])
    # one block set per kick angle, each under its own key: the runner passes no
    # include_half, which the benchmark's key still reads
    assert heating["evolution.block_set_calls"] == 4
    assert heating["evolution.block_set_distinct"] == 4
    # (3 eps points + the reference at gamma = pi) x 2 realizations
    assert metrics["runner.measure_rate_calls"] == (3 + 1) * 2
    assert metrics["runner.rundown_cycles"] > 0
    # the 14 cycles of "Hi": the per-pulse trace's steps are no blockwise cycles
    assert metrics["evolution.blockwise_cycles"] == 14
    # 2 cycles of 12 spin-lock pulses and a kick
    assert metrics["evolution.pulses"] == 2 * 13
    # one Hamiltonian per run, diagonalized in one traced call
    assert metrics["spins.eigensystem_calls"] == 3
    # every file is written once through one traced writer: a wrapped name nested in
    # another would count its bytes twice
    written = sum(f.stat().st_size for f in tmp_path.rglob("*") if f.is_file())
    assert metrics["serialize.bytes_written"] == written


def test_bench_configs_pass_the_cli(tmp_path):
    """A key the benchmark writes (``threads`` today) must stay a valid config key."""
    proc = subprocess.run(
        [sys.executable, "-c", INI_SCRIPT, str(ROOT / "bench"), str(ROOT / "src"),
         str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    kinds = json.loads(proc.stdout.splitlines()[-1])
    assert kinds == ["heating-eps", "heating-eps", "trace", "trace",
                     "encode", "decode", "encode", "decode"]
