"""Reproducible experiment driver.

A :class:`RunConfig` pins every parameter and seed of an experiment; `run`
executes it, writes plot-ready CSV/JSON files plus a manifest (config,
hash, versions, derived seeds) into the output directory, and returns a
summary.  Re-running an identical config reproduces the outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (MIN_SPECTRUM_CYCLES, NORMALIZATIONS, HeatingFit, SpectrumResult,
                       fit_power_law, half_frequency_contrast, lifetime, min_contrast_cycles,
                       phase_diagram, dft_micromotion, dft_stroboscopic, symbol_dft)
from .codec import BITS_PER_CHAR, LowConfidenceError, Message, decode, decode_margins, encode
from .dephasing import DephasingParams, model_signal
from .evolution import (BatchSamples, BlockPropagatorFactory, BlockPropagators, FreeStep,
                        PulseProgram, SignalTrace, check_kick_layout, evolve, evolve_batch,
                        evolve_blockwise, half_sample_slot, initial_state, kick_parity,
                        parity_ix_bytes)
from .sequences import (DEFAULT_MAX_SYMBOLS, MonopoleSpec, SymbolStream, sample_rmd,
                        thue_morse_stream)
from .spins import (COUPLING_MODELS, DEFAULT_SPIN_CAP, Hamiltonian, PackingInfeasibleError,
                    SpinGraph, build_hamiltonian, compute_couplings, generate_graph)
from . import serialize

KINDS = ("trace", "phase-diagram", "heating-eps", "heating-period",
         "heating-highfreq", "spectrum", "encode", "decode")
ENGINES = ("full", "dephasing")
SPECTRUM_KINDS = ("symbol", "micromotion", "stroboscopic")


@dataclass(frozen=True)
class _Sweep:
    """One heating sweep: its CSV file, the swept grid, its CSV column and its seed layout."""

    table: str         # the CSV file of its rates
    grid: str          # RunConfig field holding the swept values
    xname: str         # CSV column of the swept axis
    seed_block: int    # point indices of the k-th order start at seed_block * k
    orders: tuple = ()  # orders swept when n_orders is empty; () means (n_order,)


_SWEEPS = {
    "heating-eps": _Sweep("heating_eps.csv", "eps_grid", "epsilon", 1000),
    "heating-period": _Sweep("heating_period.csv", "tau_grid", "period", 2000),
    "heating-highfreq": _Sweep("heating_highfreq.csv", "tau_grid", "period", 3000,
                               ("0", "1", "3", "inf")),
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Flat bag of every knob an experiment can turn.

    Fields irrelevant to the chosen `kind` are ignored but still recorded
    in the manifest, so a config file fully determines its outputs.
    """

    kind: str
    out_dir: str
    engine: str = "full"
    seed: int = 0
    threads: int = 1  # must be 1; still a key because existing config files set it
    # spin system
    num_spins: int = 10
    edge_length: float | None = None
    r_min: float = 0.9
    r_max: float = 1.1
    graph_seed: int = 0
    coupling_median: float = 1.0
    coupling_model: str = "isotropic"
    decay_time: float = 0.0
    # drive timing
    pulses_per_block: int = 300
    kick_plus: int = 200
    kick_minus: int = 100
    tau: float = 0.05
    theta_x: float = math.pi / 2
    gamma_y: float = math.pi
    n_order: str = "0"
    cycles: int = 128
    realizations: int = 1
    readout_noise: float = 0.0
    # dephasing engine
    gamma_0: float = 0.0
    # sweeps
    graph_realizations: int = 1
    gamma_grid: tuple = ()
    eps_grid: tuple = ()
    tau_grid: tuple = ()
    n_orders: tuple = ()
    sweep_slope: float = 0.0
    max_cycles: int = 32768
    normalization: str = "row"
    # spectrum
    spectrum_kind: str = "micromotion"
    # codec
    text: str = ""
    trace_file: str = ""
    threshold: float = 0.0

    def plan(self) -> RunPlan:
        """Check every field and derive the run's `RunPlan`, each per-kind rule once; raise
        ConfigError for a config no run can follow.  `validate` checks what needs a system."""
        for name, known in (("kind", KINDS), ("engine", ENGINES),
                            ("spectrum_kind", SPECTRUM_KINDS), ("normalization", NORMALIZATIONS),
                            ("coupling_model", COUPLING_MODELS)):
            if getattr(self, name) not in known:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}, not one of {known}")
        if self.threads != 1:
            raise ConfigError("threads must be 1: a run starts no threads of its own, "
                              "and its BLAS library sets its own thread count")
        for name in ("cycles", "realizations", "graph_realizations", "max_cycles"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("readout_noise", "gamma_0", "decay_time"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for grid in ("gamma_grid", "eps_grid", "tau_grid"):
            if not all(math.isfinite(x) for x in getattr(self, grid)):
                raise ConfigError(f"{grid} entries must be finite")
        if any(tau <= 0 for tau in self.tau_grid):
            raise ConfigError("tau_grid entries must be > 0")
        if 0 in self.eps_grid:  # its excess rate would enter the fit at |eps| = 0
            raise ConfigError("eps_grid entries must be nonzero: eps = 0 is the gamma = pi "
                              "reference, which every eps sweep measures")
        if self.readout_noise > 0 and self.kind not in ("trace", "encode"):
            raise ConfigError(f"readout_noise is seeded only by trace and encode, not {self.kind}")
        if self.kind == "phase-diagram" and not self.gamma_grid:
            raise ConfigError("phase-diagram requires a gamma_grid")
        if len(set(self.gamma_grid)) < len(self.gamma_grid):
            raise ConfigError(f"gamma_grid {self.gamma_grid} repeats a kick angle")
        order = _parse_order(self.n_order)
        if self.kind in ("trace", "spectrum", "phase-diagram") and order != math.inf \
                and self.cycles % 2**order:
            raise ConfigError(f"cycles ({self.cycles}) must be a multiple of 2**n "
                              f"({2**order}) for order {order}")
        # a phase diagram's contrast.json needs a background bin in every row
        needed = {"phase-diagram": max(MIN_SPECTRUM_CYCLES, min_contrast_cycles()),
                  "spectrum": 0 if self.spectrum_kind == "symbol" else MIN_SPECTRUM_CYCLES}
        if self.cycles < needed.get(self.kind, 0):
            raise ConfigError(f"{self.kind} needs cycles >= {needed[self.kind]}")
        sweep = _SWEEPS.get(self.kind)
        if sweep and not getattr(self, sweep.grid):
            raise ConfigError(f"{self.kind} requires a non-empty {sweep.grid}")
        if self.kind == "encode" and not self.text:
            raise ConfigError("encode requires text")
        if self.kind == "decode" and not self.trace_file:
            raise ConfigError("decode requires a trace_file")
        for i, label in enumerate(self.n_orders):
            if _parse_order(label) in map(_parse_order, self.n_orders[:i]):
                raise ConfigError(f"n_orders repeats multipole order {label!r}")
        # the orders a run draws streams of: a heating sweep's, none for a codec kind
        orders = () if self.kind in ("encode", "decode") else (
            (sweep and (self.n_orders or sweep.orders)) or (self.n_order,))
        cycles, realizations = (self.max_cycles, self.realizations) if sweep else (self.cycles, 1)
        symbols = 0  # of the longest stream drawn
        for label in orders:  # a sweep's Thue-Morse windows shift by up to realizations - 1
            length = stream_symbols(label, cycles, realizations - 1 if sweep else 0)
            symbols = max(symbols, length)
            if length > DEFAULT_MAX_SYMBOLS:
                raise ConfigError(f"order {label} draws a stream of {length} symbols for "
                                  f"{cycles} cycles, more than the cap of {DEFAULT_MAX_SYMBOLS}")
        n, end = self.num_spins, self.pulses_per_block + 1
        # a heating-eps rundown writes whole-block 1/e crossings alone, which complex64 steps
        # kept on every eps input measured; the tau sweeps' long small-T rundowns were not
        dtype = np.dtype(np.complex64 if sweep is _SWEEPS["heating-eps"] else np.complex128)
        try:  # a decode reads its drive layout from the trace file
            base = self.spec() if self.kind != "decode" else None
            specs, slots = [base], (end,)
            if self.kind == "trace":
                slots = tuple(range(1, end + 1))
            elif self.kind == "encode":
                check_kick_layout(base)
                slots, cycles = (half_sample_slot(base), end), len(self.text) * BITS_PER_CHAR
                Message(self.text)  # an EncodingError for text outside 7 bits
            elif self.kind == "decode":
                specs, slots = [], ()
            elif self.kind == "heating-eps":  # point 0 is the gamma = pi reference
                specs = [replace(base, gamma_y=math.pi + eps) for eps in (0.0, *self.eps_grid)]
            elif sweep:  # a tau point kicks at gamma = pi + sweep_slope * T
                specs = [replace(s, gamma_y=math.pi + self.sweep_slope * s.block_duration)
                         for s in (replace(base, tau=tau) for tau in self.tau_grid)]
            else:  # a spectrum or a phase diagram: one realization of a Thue-Morse drive
                realizations = 1 if order == math.inf else self.realizations
                if self.kind == "phase-diagram":
                    specs = [replace(base, gamma_y=gamma) for gamma in self.gamma_grid]
                elif self.spectrum_kind == "micromotion":
                    check_kick_layout(base)
                    slots = half_sample_slot(base), end
                elif self.spectrum_kind == "symbol":
                    slots = ()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # the kicks that keep P last: their block set fuses the factory's chains in place
        points = tuple(sorted(enumerate(specs), key=lambda p: kick_parity(p[1].gamma_y, n) != 0))
        # a sweep steps the points that share a factory (one tau) and whose kicks mix P as
        # one batch; a point whose kick keeps P, and so fuses the chains, is a batch alone
        batches = tuple(tuple(i for i, _ in group) for _, group in groupby(
            points, lambda p: (p[1].tau, p[0] if kick_parity(p[1].gamma_y, n) else -1))
        ) if sweep else ()
        samples = 1 + cycles * len(slots) if slots else 0
        builds_system = self.engine == "full" and bool(slots)
        # a full-engine batch holds every member's stream and samples while their traces
        # are placed, one at a time
        members = max(map(len, batches), default=0) * len(orders) * realizations
        held = builds_system * members * (8 * samples + symbols)
        path = self.trace_file  # a file that cannot be stat'ed adds 0, and fails when read
        stages = ({"decode_read": serialize.read_bytes(path) if os.path.isfile(path) else 0}
                  if self.kind == "decode" else {"trace": SignalTrace.peak_bytes(samples) + held})
        if builds_system and n >= 2:  # `validate` refuses fewer spins before any estimate
            stages["eigensystem"], stages["eigensystem_build"] = Hamiltonian.eigensystem_bytes(n)
            stages["parity_ix"] = parity_ix_bytes(n)
            if self.kind == "trace":  # the per-pulse engine
                stages["free_step"] = FreeStep.peak_bytes(n)
            else:
                stages["factory"] = BlockPropagatorFactory.peak_bytes(
                    n, base, slots, {kick_parity(s.gamma_y, n) for _, s in points},
                    dtype.itemsize)
        return RunPlan(self, slots, points, batches, orders, realizations, samples,
                       builds_system, sweep, dtype, stages)

    def validate(self, plan: RunPlan | None = None) -> tuple[SpinGraph, ...]:
        """Raise ConfigError unless the run of ``plan`` (by default this config's `plan`) can
        go ahead here: its system within the spin cap, its graphs placed (graph g of a heating
        sweep has seed ``graph_seed + g``) and its `RunPlan.peak_bytes` within physical
        memory.  Return the graphs."""
        plan, graphs = plan or self.plan(), ()
        where = f"{self.kind} on the {self.engine} engine at n = {self.num_spins}"
        if plan.builds_system:
            if not 2 <= self.num_spins <= DEFAULT_SPIN_CAP:
                raise ConfigError(f"{where} needs between 2 spins and the cap of "
                                  f"{DEFAULT_SPIN_CAP} spins")
            try:
                graphs = tuple(generate_graph(self.num_spins, edge_length=self.edge_length,
                                              r_min=self.r_min, r_max=self.r_max,
                                              seed=self.graph_seed + g)
                               for g in range(self.graph_realizations if plan.sweep else 1))
            except (ValueError, PackingInfeasibleError) as exc:
                raise ConfigError(str(exc)) from None
        estimate, memory = plan.peak_bytes, _physical_memory()
        if estimate > memory:
            raise ConfigError(f"{where} needs about {estimate} bytes of arrays, more than the "
                              f"{memory} bytes of physical memory")
        return graphs

    def spec(self) -> MonopoleSpec:
        return MonopoleSpec(
            pulses_per_block=self.pulses_per_block, kick_plus=self.kick_plus,
            kick_minus=self.kick_minus, tau=self.tau, theta_x=self.theta_x,
            gamma_y=self.gamma_y,
        )

    def hash(self) -> str:
        """Content hash of the fields that affect outputs (not out_dir or threads).

        ``threads`` can only be 1; leaving it out keeps the hashes of earlier runs.
        """
        fields = dataclasses.asdict(self)
        del fields["out_dir"], fields["threads"]
        payload = json.dumps(fields, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


_TRANSIENT_STAGES = ("eigensystem_build", "free_step", "factory")  # one after another


@dataclass(frozen=True)
class RunPlan:
    """Every per-kind rule of one run of ``config``, derived once by `RunConfig.plan`.

    ``dtype`` is the one a factory keeps its powers and steps its rows in: complex64 for
    heating-eps, whose rundowns write whole-block 1/e crossings alone, complex128 for every
    other kind.  ``batches`` groups a heating sweep's points into the batches its rundowns
    are stepped in (`_run_heating`).  ``stage_bytes`` names each array stage of the memory
    estimate: the ``trace`` (one `SignalTrace.at_slots` placement, and where a system is
    built the stream, a byte a symbol, and the samples, 8 bytes each, of every member of
    the largest batch) and, with a system, its kept ``eigensystem`` and `parity_ix` caches,
    then the ``eigensystem_build`` and the per-pulse ``free_step`` or the ``factory``; a
    decode's ``decode_read`` alone."""

    config: RunConfig
    slots: tuple[int, ...]   # each block's readout slots; () where no trace is evolved
    points: tuple[tuple[int, MonopoleSpec], ...]  # (index, spec), visited gamma = pi last
    batches: tuple[tuple[int, ...], ...]  # a sweep's point indices stepped together, in turn
    orders: tuple            # multipole orders the run draws streams of
    realizations: int        # drive realizations per point and order
    trace_samples: int       # samples of the longest trace the run records
    builds_system: bool
    sweep: _Sweep | None     # the heating sweep, if any
    dtype: np.dtype          # of a factory's kept powers and of the rows it steps
    stage_bytes: dict[str, int]

    @property
    def peak_bytes(self) -> int:
        """Peak bytes of the run's arrays: every held stage plus the largest transient one."""
        transient = [b for stage, b in self.stage_bytes.items() if stage in _TRANSIENT_STAGES]
        return sum(self.stage_bytes.values()) - sum(transient) + max(transient, default=0)


def _parse_order(label) -> int | float:
    """Multipole order of a label: an integer n >= 0, or inf ("inf", "tm", "thue-morse")."""
    text = str(label).strip().lower()
    if text in ("inf", "tm", "thue-morse"):
        return math.inf
    numeric = isinstance(label, (int, float)) and not isinstance(label, bool)
    try:
        value = int(label) if numeric and float(label).is_integer() else int(text)
    except ValueError:
        value = -1  # not an integer: rejected below like a negative order
    if value < 0:
        raise ConfigError(f"invalid multipole order {label!r}")
    return value


def derive_seed(master: int, *key: int) -> int:
    """Stable per-task seed, independent of scheduling order."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def stream_symbols(order, cycles: int, offset: int = 0) -> int:
    """Symbols `make_stream` draws: a random drive's ``cycles`` rounded up to a multiple of
    its 2**n, a Thue-Morse window's ``cycles`` after the ``offset`` it skips."""
    order = _parse_order(order)
    return cycles + offset if order == math.inf else -(-cycles // 2**order) * 2**order


def make_stream(order, cycles: int, seed: int, offset: int = 0) -> SymbolStream:
    """Stream covering `cycles` blocks for the given multipole order.

    A random drive is rounded up to `stream_symbols` (`RunConfig.validate` keeps
    fixed-length kinds aligned).  For the deterministic n -> inf drive, ``offset``
    selects the window that plays the role of a realization; ``seed`` is ignored there.
    """
    order = _parse_order(order)
    if order == math.inf:
        return thue_morse_stream(cycles, offset=offset)
    return sample_rmd(order, stream_symbols(order, cycles), seed)


class FullSystem:
    """Graph, Hamiltonian, initial P = +1 row, and the propagator factory of one run.

    ``graph`` is one that `RunConfig.validate` placed.  The Hamiltonian keeps
    its couplings and, from its first use, its sector eigensystem; no sector
    block outlives its diagonalization.
    """

    def __init__(self, config: RunConfig, graph: SpinGraph):
        self.graph = graph
        self.couplings = compute_couplings(
            self.graph, coupling_median=config.coupling_median,
            model=config.coupling_model,
        )
        self.hamiltonian = build_hamiltonian(self.couplings)
        self.row0 = initial_state(config.num_spins, self.hamiltonian,
                                  decay_time=config.decay_time)
        self._factory: tuple[tuple, BlockPropagatorFactory] | None = None

    def factory(self, spec: MonopoleSpec, slots: tuple, dtype=complex) -> BlockPropagatorFactory:
        """The factory of ``spec``'s tau and ``slots``, built at the first ask and kept until
        another tau or slot tuple is asked for: a run reads one slot tuple, and every block
        set of a sweep's batch (`RunPlan.batches`) is asked for at one tau, so all of them
        read one factory's powers.  A run's plan fixes one ``dtype``."""
        key = (spec.tau, slots)
        if self._factory is None or self._factory[0] != key:
            self._factory = None  # release the old factory before building
            self._factory = (key, BlockPropagatorFactory(
                self.hamiltonian, replace(spec, gamma_y=math.pi), slots, dtype))
        return self._factory[1]


# -- the engine seam: only these two functions know which engine runs ---------

def _block_set(system: FullSystem | None, plan: RunPlan,
               spec: MonopoleSpec) -> BlockPropagators | DephasingParams:
    """What `_drive_trace` evolves under at ``spec``.

    The full engine's block propagators on ``system`` in ``plan.dtype``, or the
    dephasing model's parameters when ``system`` is None; both read ``plan.slots``.
    """
    if system is None:
        return DephasingParams(spec=spec, slots=plan.slots, gamma_0=plan.config.gamma_0)
    return system.factory(spec, plan.slots, plan.dtype).block_set(spec.gamma_y)


def _drive_trace(system: FullSystem | None, props, stream: SymbolStream) -> SignalTrace:
    """Noise-free trace of the whole ``stream`` under ``props`` from `_block_set`."""
    if system is None:
        return model_signal(stream, props)
    return evolve_blockwise(stream, props, system.row0)


def _rundown_traces(system: FullSystem | None, members):
    """Heating rundown trace of each (stream, ``props`` from `_block_set`) member, in turn.

    The full engine steps the members as one batch, `stroboscopic_rundown`; the
    closed-form model traces each whole stream, one member at a time.
    """
    if system is None:
        return (model_signal(stream, params) for stream, params in members)
    return stroboscopic_rundown(members, system.row0).traces()


def stroboscopic_rundown(members, row) -> BatchSamples:
    """The heating rundown of a batch of (stream, block set) members from ``row``: each
    member stepped by `evolve_batch` until its first block-end sample below 0.8 / e of its
    initial magnitude, or its stream's end."""
    return evolve_batch(members, row, stop_factor=0.8)


def _rundown_stream(config: RunConfig, order, seed: int, offset: int = 0) -> SymbolStream:
    """The drive of one heating realization: `make_stream`'s, cut at ``max_cycles``."""
    stream = make_stream(order, config.max_cycles, seed, offset=offset)
    return replace(stream, symbols=stream.symbols[:config.max_cycles])


def measure_rate(trace: SignalTrace) -> HeatingFit:
    """1/e decay rate of one drive realization, from its rundown ``trace``."""
    return lifetime(trace)


def _realization_spectra(system: FullSystem | None, plan: RunPlan, spec: MonopoleSpec,
                         i: int) -> list[SpectrumResult]:
    """DFTs of the ``plan.realizations`` streams of sweep point ``i``, stream r seeded
    ``derive_seed(seed, i, r)``: of the stream where the plan reads no slot (a symbol
    spectrum), else of its trace under `_block_set` at ``spec``, micromotion at two slots."""
    config = plan.config
    streams = (make_stream(config.n_order, config.cycles, derive_seed(config.seed, i, r))
               for r in range(plan.realizations))
    if not plan.slots:
        return [symbol_dft(stream) for stream in streams]
    props = _block_set(system, plan, spec)
    traces = (_drive_trace(system, props, stream) for stream in streams)
    return [(dft_micromotion if len(t.slots) > 1 else dft_stroboscopic)(t) for t in traces]


# -- experiment handlers ----------------------------------------------------

def _pooled(fits) -> tuple[float, float, bool]:
    """Mean and std of the rates of ``fits``, and whether every one crossed 1/e."""
    rates = np.array([f.rate for f in fits])
    return float(rates.mean()), float(rates.std()), all(f.crossed for f in fits)


def _run_trace(plan: RunPlan, out: Path, graphs: tuple) -> dict:
    config, ((_, spec),) = plan.config, plan.points
    stream = make_stream(config.n_order, config.cycles, derive_seed(config.seed, 0, 0))
    if config.engine == "full":
        # the per-pulse reference engine, for the quasi-continuous readout
        system = FullSystem(config, graphs[0])
        trace = evolve(PulseProgram(stream, spec), system.hamiltonian, system.row0)
        serialize.write_graph(out / "graph.csv", system.graph)
        serialize.write_couplings(out / "couplings.csv", system.couplings)
    else:
        trace = _drive_trace(None, _block_set(None, plan, spec), stream)
    trace = trace.with_noise(config.readout_noise, derive_seed(config.seed, 0, 1))
    serialize.write_stream(out / "stream.txt", stream)
    serialize.write_trace(out / "trace.csv", trace)
    fit = lifetime(trace)
    return {"samples": len(trace), "lifetime": fit.lifetime,
            "rate": fit.rate, "crossed": fit.crossed}


def _run_spectrum(plan: RunPlan, out: Path, graphs: tuple) -> dict:
    config, ((_, spec),) = plan.config, plan.points
    system = FullSystem(config, graphs[0]) if graphs else None
    spectra = _realization_spectra(system, plan, spec, 0)
    amps = np.vstack([s.amplitudes for s in spectra])
    mean = SpectrumResult(omegas=spectra[0].omegas, amplitudes=amps.mean(axis=0),
                          kind=spectra[0].kind, std=amps.std(axis=0), meta={
                              "realizations": plan.realizations, "n_order": config.n_order,
                              "engine": config.engine, "seed": config.seed})
    serialize.write_spectrum(out / "spectrum.csv", mean)
    return {"kind": config.spectrum_kind, "realizations": plan.realizations,
            "cycles": config.cycles}


def _json_number(x: float) -> float | str | None:
    """``x`` as strict JSON: "inf" as in the CSV headers, None where undefined."""
    return None if math.isnan(x) else "inf" if math.isinf(x) else x


def _run_phase_diagram(plan: RunPlan, out: Path, graphs: tuple) -> dict:
    config, system = plan.config, FullSystem(plan.config, graphs[0]) if graphs else None
    rows = {i: np.mean([s.amplitudes**2 for s in _realization_spectra(system, plan, p, i)],
                       axis=0)
            for i, p in plan.points}
    diagram = phase_diagram(config.gamma_grid, [rows[i] for i in sorted(rows)],
                            config.spec().block_duration, n_order=config.n_order,
                            realizations=plan.realizations, normalization=config.normalization)
    serialize.write_phase_diagram(out / "phase_diagram.csv", diagram)
    contrasts = {repr(float(g)): _json_number(half_frequency_contrast(row))
                 for g, row in zip(diagram.gamma_grid, diagram.intensity)}
    serialize.write_json(out / "contrast.json", {"half_frequency_contrast": contrasts})
    return {"gammas": len(config.gamma_grid), "realizations": plan.realizations,
            "cycles": config.cycles}


def _run_heating(plan: RunPlan, out: Path, graphs: tuple) -> dict:
    """Heating-rate power law along one swept axis, per multipole order.

    ``heating-eps`` sweeps the kick-angle deviation and fits the rate in excess of the rate
    at gamma = pi against |eps|; ``heating-period`` and ``heating-highfreq`` sweep tau at
    gamma = pi + sweep_slope * T and fit the rate against the period T.  One loop measures
    every rate: graph g (one on the dephasing engine) -> batch, in ``plan.batches`` order ->
    its points' block sets -> order k -> point j -> realization r, one member each, seeded
    by ``derive_seed(seed, seed_block * k + j, g, r)`` (Thue-Morse: offset r).  A batch's
    members are stepped together (`stroboscopic_rundown`): all eps points that mix P, which
    share one factory, and then the gamma = pi reference alone, whose block set fuses the
    chains in place; a tau sweep's points each need their own factory, so each is a batch.
    Eps point 0 is the reference, and eps i is point 1 + i; a tau point is its grid index.
    One graph's system is alive at a time, and one batch's block sets.  Batching changes no
    value: each row goes through the same mat-vecs as alone.  Each member's rate is measured
    (`measure_rate`) in member order.  A point pools its (g, r) rates and is used if all
    crossed 1/e and its (excess) rate is positive; an order whose used points share one
    rate, or an eps order whose reference never crossed (``rate_at_pi`` NaN), is not
    fitted.  Each ``fits.json`` entry has ``points_used``, ``uncrossed``, then
    ``exponent``/``stderr`` or an ``error``; eps entries add ``rate_at_pi`` (``null`` when
    NaN) and ``reference_crossed``, tau sweeps ``smallest_period_rate``.  The rates go to
    the sweep's ``table``.

    A heating-eps run steps its rundowns in complex64 (``plan.dtype``), at half the bytes
    per mat-vec; the other sweeps step in complex128.  A rate is 1/(m T) for the whole block
    m nearest 1/e, and complex64 rows move |S| by about 1e-5 at n = 10.  So m can differ from
    complex128's only where a block-end |S| lies that close to 1/e or to the stop target,
    and then by one block, a relative 1/m.  On the benchmark's inputs and the golden cases
    no m, stop cycle or crossing differed.  ``manifest.json``'s plan records the dtype.
    """
    config, sweep, orders = plan.config, plan.sweep, plan.orders
    eps_sweep = sweep.grid == "eps_grid"
    xs = np.array(config.eps_grid if eps_sweep else
                  [s.block_duration for _, s in sorted(plan.points)], dtype=float)
    measured = [[[] for _ in plan.points] for _ in orders]  # [k][j]: fits over (g, r)
    specs = dict(plan.points)
    for g in range(len(graphs) or 1):
        system = FullSystem(config, graphs[g]) if graphs else None
        for batch in plan.batches:
            props = {j: _block_set(system, plan, specs[j]) for j in batch}
            keys = [(k, j, r) for k in range(len(orders)) for j in batch
                    for r in range(plan.realizations)]
            members = ((_rundown_stream(config, orders[k],
                                        derive_seed(config.seed, sweep.seed_block * k + j, g, r),
                                        r if _parse_order(orders[k]) == math.inf else 0),
                        props[j]) for k, j, r in keys)
            for (k, j, _), trace in zip(keys, _rundown_traces(system, members)):
                measured[k][j].append(measure_rate(trace))
            del props  # before the next batch's block sets are built
        del system  # before the next graph's Hamiltonian is built

    rows, fits = [], {}
    for k, order in enumerate(orders):
        results = [_pooled(point) for point in measured[k]]
        reference, reference_crossed = 0.0, True
        if eps_sweep:
            (reference, _, reference_crossed), *results = results
            reference = reference if reference_crossed else math.nan
        rates = np.array([r[0] for r in results])
        crossed = np.array([r[2] for r in results], dtype=bool)
        ys = rates - reference
        use = crossed & (ys > 0) & reference_crossed
        entry = {"points_used": int(use.sum()), "uncrossed": int((~crossed).sum())}
        if eps_sweep:
            entry.update(rate_at_pi=_json_number(reference),
                         reference_crossed=reference_crossed)
        else:
            entry["smallest_period_rate"] = float(rates[np.argmin(xs)])
        if not reference_crossed:
            entry["error"] = "no fit: the reference rate at gamma = pi never crossed 1/e"
        elif use.sum() > 1 and np.ptp(rates[use]) == 0:
            entry["error"] = (f"no fit: the {entry['points_used']} crossed points share the rate "
                              f"{float(rates[use][0])!r}, unresolved below whole blocks")
        else:
            try:
                fit = fit_power_law(np.abs(xs[use]), ys[use])
                entry.update(exponent=fit.exponent, stderr=fit.stderr)
            except ValueError as exc:
                entry["error"] = f"fit over {entry['points_used']} crossed points failed: {exc}"
        fits[str(order)] = entry
        rows += [(str(order), xs[j], rates[j], results[j][1], ys[j], crossed[j])
                 for j in range(len(xs))]
    meta = {"swept": sweep.xname, "engine": config.engine, "seed": config.seed,
            "max_cycles": config.max_cycles, "config_hash": config.hash()}
    serialize.write_heating(out / sweep.table, meta, [*zip(*rows)])
    serialize.write_json(out / "fits.json", fits)
    return {"fits": fits}


def _run_encode(plan: RunPlan, out: Path, graphs: tuple) -> dict:
    config, ((_, spec),) = plan.config, plan.points
    message = Message(config.text)
    stream = encode(message)
    serialize.write_stream(out / "stream.txt", stream)
    system = FullSystem(config, graphs[0]) if graphs else None
    props = _block_set(system, plan, spec)
    trace = _drive_trace(system, props, stream).with_noise(
        config.readout_noise, derive_seed(config.seed, 0, 1))
    serialize.write_trace(out / "trace.csv", trace)
    return {"characters": len(message.text), "cycles": len(stream)}


def _run_decode(plan: RunPlan, out: Path, graphs: tuple, message: Message,
                margins: np.ndarray) -> dict:
    """Write the ``message`` and ``margins`` that `run` decoded before creating ``out``; a
    decode builds no system, so ``graphs`` is empty."""
    serialize.write_json(out / "decoded.json", {
        "text": message.text,
        "margins": [float(m) for m in margins],
        "threshold": plan.config.threshold,
    })
    return {"text": message.text, "cycles": int(margins.size)}


_HANDLERS = {
    "trace": _run_trace,
    "phase-diagram": _run_phase_diagram,
    "heating-eps": _run_heating,
    "heating-period": _run_heating,
    "heating-highfreq": _run_heating,
    "spectrum": _run_spectrum,
    "encode": _run_encode,
}


def run(config: RunConfig) -> dict:
    """Plan, validate and execute ``config`` and write its manifest; returns the summary.

    ``manifest.json`` holds the ``config``, its ``config_hash``, the ``versions`` of rondeau
    and numpy, the handler's ``summary``, the other ``outputs`` in the directory, and the
    ``plan``: its readout ``slots``, its number of sweep ``points``, for a heating sweep the
    ``batches`` of point indices whose rundowns are stepped together, where the run builds a
    system the ``dtype`` its rows are stepped in, the ``stage_bytes`` of each array stage of
    the memory estimate, and ``peak_bytes``, the estimate that the preflight compares with
    physical memory and prints when it refuses a run.
    """
    plan = config.plan()
    graphs = config.validate(plan)
    handler = _HANDLERS.get(config.kind)
    if handler is None:  # a decode: its trace is read, checked and decoded before --out exists
        trace = serialize.read_trace(config.trace_file)
        if half_sample_slot(trace) not in trace.slots:
            raise ValueError(f"{config.trace_file} reads slots {trace.slots}, not the "
                             f"half-period slot {half_sample_slot(trace)} a decode reads")
        try:
            message = decode(trace, threshold=config.threshold)
        except (ValueError, LowConfidenceError) as exc:
            exc.args = (f"{config.trace_file}: {exc}",)  # name the file, keep the type
            raise
        handler = partial(_run_decode, message=message, margins=decode_margins(trace))
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = handler(plan, out, graphs)
    manifest = {
        "config": dataclasses.asdict(config),
        "config_hash": config.hash(),
        "versions": {"rondeau": __version__, "numpy": np.__version__},
        "summary": summary,
        "outputs": sorted(p.name for p in out.iterdir() if p.name != "manifest.json"),
        "plan": {"slots": plan.slots, "points": len(plan.points),
                 **({"batches": plan.batches} if plan.sweep else {}),
                 **({"dtype": plan.dtype.name} if plan.builds_system else {}),
                 "stage_bytes": plan.stage_bytes, "peak_bytes": plan.peak_bytes},
    }
    serialize.write_json(out / "manifest.json", manifest)
    return summary
