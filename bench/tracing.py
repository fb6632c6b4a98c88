"""In-memory spans around the calls into rondeau's layers, and the per-layer
metrics derived from them.

The spans are recorded from the benchmark's side of each call: a function is
wrapped where ``rondeau.runner`` (or ``rondeau.cli``) binds it, because the
runner imports names with ``from .x import y``; methods are wrapped on their
classes.  Nothing inside the package is edited.  Spans stay in memory until
the worker writes them out once, at the end of its run.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from pathlib import Path

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("spins.build_hamiltonian_s", "s", "lower"),
    ("spins.eigensystem_s", "s", "lower"),
    ("spins.eigensystem_calls", "count", "lower"),
    ("evolution.evolve_self_s", "s", "lower"),
    ("evolution.pulses", "count", "lower"),
    ("evolution.pulse_step_ms", "ms", "lower"),
    ("evolution.factory_self_s", "s", "lower"),
    ("evolution.factory_calls", "count", "lower"),
    ("evolution.block_set_s", "s", "lower"),
    ("evolution.block_set_calls", "count", "lower"),
    ("evolution.block_set_distinct", "count", "lower"),
    ("evolution.block_set_useful_frac", "ratio", "higher"),
    ("evolution.blockwise_s", "s", "lower"),
    ("evolution.blockwise_cycles", "count", "lower"),
    ("evolution.blockwise_cycle_ms", "ms", "lower"),
    ("runner.rundown_s", "s", "lower"),
    ("runner.rundown_cycles", "count", "lower"),
    ("runner.rundown_cycle_ms", "ms", "lower"),
    ("runner.measure_rate_calls", "count", "lower"),
    ("runner.uncrossed", "count", "lower"),
    ("runner.self_s", "s", "lower"),
    ("sequences.make_stream_s", "s", "lower"),
    ("sequences.symbols", "count", "lower"),
    ("analysis.lifetime_s", "s", "lower"),
    ("analysis.fit_s", "s", "lower"),
    ("codec.encode_s", "s", "lower"),
    ("codec.decode_s", "s", "lower"),
    ("codec.min_margin", "Ix", "higher"),
    ("serialize.write_s", "s", "lower"),
    ("serialize.read_s", "s", "lower"),
    ("serialize.bytes_written", "B", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_scipy_optimize_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, attributes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Add a span measured by the caller; returns its id."""
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "start": start, "end": end}
        self.spans.append(span)
        return span["id"]

    def wrap(self, fn, name: str, attrs=None):
        """Wrap `fn` in a span; `attrs(bound_args, result)` adds attributes."""
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = self.record(name, 0.0, 0.0, parent)
            span = self.spans[span_id]
            self._stack.append(span_id)
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if attrs:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(attrs(bound.arguments, result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs))


def _block_set_key(a, _result):
    factory = a["self"]
    gamma = a["gamma_y"] if a["gamma_y"] is not None else factory.spec.gamma_y
    return {"key": [id(factory.hamiltonian), factory.spec.tau, gamma,
                    a["include_half"], a["angle_spread"], a["disorder_seed"]]}


def _bytes_written(a, _result):
    return {"bytes": Path(a["path"]).stat().st_size}


def instrument(tracer: Tracer):
    """Wrap every layer boundary the runner and the CLI call through."""
    import rondeau.cli as cli
    import rondeau.evolution as evolution
    import rondeau.runner as runner
    import rondeau.serialize as serialize
    import rondeau.spins as spins

    tracer.patch(cli, "run", "runner.run")
    tracer.patch(runner, "measure_rate", "runner.measure_rate",
                 lambda a, r: {"uncrossed": int(not r.crossed)})
    tracer.patch(runner, "stroboscopic_rundown", "runner.rundown",
                 lambda a, r: {"cycles": r.num_cycles})
    tracer.patch(runner, "make_stream", "sequences.make_stream",
                 lambda a, r: {"symbols": len(r)})
    for fn in ("generate_graph", "compute_couplings", "build_hamiltonian"):
        tracer.patch(runner, fn, f"spins.{fn}")
    tracer.patch(spins.Hamiltonian, "eigensystem", "spins.eigensystem")
    tracer.patch(runner, "evolve", "evolution.evolve",
                 lambda a, r: {"pulses": a["program"].num_pulses})
    tracer.patch(evolution.BlockPropagatorFactory, "__init__", "evolution.factory")
    tracer.patch(evolution.BlockPropagatorFactory, "block_set", "evolution.block_set",
                 _block_set_key)
    tracer.patch(runner, "evolve_blockwise", "evolution.blockwise",
                 lambda a, r: {"cycles": len(a["stream"])})
    tracer.patch(runner, "lifetime", "analysis.lifetime")
    tracer.patch(runner, "fit_power_law", "analysis.fit")
    tracer.patch(runner, "encode", "codec.encode")
    tracer.patch(runner, "decode", "codec.decode")
    tracer.patch(runner, "decode_margins", "codec.margins",
                 lambda a, r: {"min_margin": float(abs(r).min()) if r.size else 0.0})
    for fn in dir(serialize):
        if fn.startswith("write_"):
            tracer.patch(serialize, fn, f"serialize.{fn}", _bytes_written)
        elif fn.startswith("read_"):
            tracer.patch(serialize, fn, f"serialize.{fn}")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Spans of one process nest strictly (runs use one thread), so children
    never overlap and their durations can simply be summed.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


def layer_metrics(processes: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one repetition, summed over its worker processes.

    Layers a workload never calls read 0 (ratios of nothing included).
    """
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr: dict[str, float] = defaultdict(float)
    keys: set = set()
    margins: list[float] = []
    for spans in processes:
        selfs = self_times(spans)
        for s in spans:
            name = s["name"]
            if name.startswith("serialize."):
                name = "serialize.write" if name.startswith("serialize.write_") else "serialize.read"
            dur[name] += s["end"] - s["start"]
            own[name] += selfs[s["id"]]
            calls[name] += 1
            for key in ("pulses", "cycles", "symbols", "uncrossed", "bytes"):
                if key in s:
                    attr[f"{name}.{key}"] += s[key]
            if "key" in s:
                keys.add(tuple(s["key"]))
            if "min_margin" in s:
                margins.append(s["min_margin"])

    def per(total_s, count, scale=1000.0):
        return scale * total_s / count if count else 0.0

    block_calls = calls["evolution.block_set"]
    return {
        "spins.build_hamiltonian_s": dur["spins.build_hamiltonian"],
        "spins.eigensystem_s": dur["spins.eigensystem"],
        "spins.eigensystem_calls": calls["spins.eigensystem"],
        "evolution.evolve_self_s": own["evolution.evolve"],
        "evolution.pulses": attr["evolution.evolve.pulses"],
        "evolution.pulse_step_ms": per(own["evolution.evolve"],
                                       attr["evolution.evolve.pulses"]),
        "evolution.factory_self_s": own["evolution.factory"],
        "evolution.factory_calls": calls["evolution.factory"],
        "evolution.block_set_s": dur["evolution.block_set"],
        "evolution.block_set_calls": block_calls,
        "evolution.block_set_distinct": len(keys),
        "evolution.block_set_useful_frac": per(len(keys), block_calls, 1.0),
        "evolution.blockwise_s": own["evolution.blockwise"],
        "evolution.blockwise_cycles": attr["evolution.blockwise.cycles"],
        "evolution.blockwise_cycle_ms": per(own["evolution.blockwise"],
                                            attr["evolution.blockwise.cycles"]),
        "runner.rundown_s": own["runner.rundown"],
        "runner.rundown_cycles": attr["runner.rundown.cycles"],
        "runner.rundown_cycle_ms": per(own["runner.rundown"], attr["runner.rundown.cycles"]),
        "runner.measure_rate_calls": calls["runner.measure_rate"],
        "runner.uncrossed": attr["runner.measure_rate.uncrossed"],
        "runner.self_s": own["runner.run"] + own["runner.measure_rate"],
        "sequences.make_stream_s": dur["sequences.make_stream"],
        "sequences.symbols": attr["sequences.make_stream.symbols"],
        "analysis.lifetime_s": dur["analysis.lifetime"],
        "analysis.fit_s": dur["analysis.fit"],
        "codec.encode_s": dur["codec.encode"],
        "codec.decode_s": dur["codec.decode"],
        "codec.min_margin": min(margins) if margins else 0.0,
        "serialize.write_s": dur["serialize.write"],
        "serialize.read_s": dur["serialize.read"],
        "serialize.bytes_written": attr["serialize.write.bytes"],
        "cli.import_s": dur["cli.import"],
        "cli.import_scipy_optimize_s": dur["cli.import_scipy_optimize"],
    }
