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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (MIN_SPECTRUM_CYCLES, HeatingFit, SpectrumResult, fit_power_law,
                       half_frequency_contrast, lifetime, min_contrast_cycles, phase_diagram,
                       dft_micromotion, dft_stroboscopic, symbol_dft)
from .codec import Message, decode, decode_margins, encode
from .dephasing import DephasingParams, model_signal
from .evolution import (BlockPropagatorFactory, BlockPropagators, PulseProgram, SignalTrace,
                        check_kick_layout, evolve, evolve_blockwise, initial_state,
                        readout_slots)
# the heating rundown under its own name, so bench/tracing.py times it apart
from .evolution import evolve_blockwise as stroboscopic_rundown
from .sequences import MonopoleSpec, SymbolStream, sample_rmd, thue_morse_stream
from .spins import DEFAULT_SPIN_CAP, build_hamiltonian, compute_couplings, generate_graph
from . import serialize

KINDS = ("trace", "phase-diagram", "heating-eps", "heating-period",
         "heating-highfreq", "spectrum", "encode", "decode")
ENGINES = ("full", "dephasing")
SPECTRUM_KINDS = ("symbol", "micromotion", "stroboscopic")


@dataclass(frozen=True)
class _Sweep:
    """One heating sweep: the swept grid, its CSV column and its seed layout."""

    grid: str          # RunConfig field holding the swept values
    xname: str         # CSV column of the swept axis
    seed_block: int    # point indices of the k-th order start at seed_block * k
    orders: tuple = ()  # orders swept when n_orders is empty; () means (n_order,)


_SWEEPS = {
    "heating-eps": _Sweep("eps_grid", "epsilon", 1000),
    "heating-period": _Sweep("tau_grid", "period", 2000),
    "heating-highfreq": _Sweep("tau_grid", "period", 3000, ("0", "1", "3", "inf")),
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
    threads: int = 1
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

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")
        for name in ("cycles", "realizations", "threads", "graph_realizations", "max_cycles"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("readout_noise", "gamma_0"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for grid in ("gamma_grid", "eps_grid", "tau_grid"):
            if not all(math.isfinite(x) for x in getattr(self, grid)):
                raise ConfigError(f"{grid} entries must be finite")
        if any(tau <= 0 for tau in self.tau_grid):
            raise ConfigError("tau_grid entries must be > 0")
        if self.readout_noise > 0 and self.kind not in ("trace", "encode"):
            raise ConfigError(f"readout_noise is seeded only by trace and encode, not {self.kind}")
        if self.spectrum_kind not in SPECTRUM_KINDS:
            raise ConfigError(f"unknown spectrum kind {self.spectrum_kind!r}")
        if self.kind == "phase-diagram" and not self.gamma_grid:
            raise ConfigError("phase-diagram requires a gamma_grid")
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
        seen = set()
        for label in self.n_orders:
            order = _parse_order(label)
            if order in seen:
                raise ConfigError(f"n_orders repeats multipole order {label!r}")
            seen.add(order)
        if _evolves_blocks(self):
            try:
                check_kick_layout(self.spec())
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if _builds_systems(self) and self.num_spins > DEFAULT_SPIN_CAP:
            raise ConfigError(f"{self.kind} on the {self.engine} engine at n = {self.num_spins} "
                              f"exceeds the cap of {DEFAULT_SPIN_CAP} spins")
        estimate, memory = peak_matrix_bytes(self), _physical_memory()
        if estimate > memory:
            raise ConfigError(f"{self.kind} on the {self.engine} engine at n = {self.num_spins} "
                              f"needs about {estimate} bytes of matrices, more than the "
                              f"{memory} bytes of physical memory")

    def spec(self) -> MonopoleSpec:
        return MonopoleSpec(
            pulses_per_block=self.pulses_per_block, kick_plus=self.kick_plus,
            kick_minus=self.kick_minus, tau=self.tau, theta_x=self.theta_x,
            gamma_y=self.gamma_y,
        )

    def hash(self) -> str:
        """Content hash of the fields that affect outputs (not out_dir or threads)."""
        fields = dataclasses.asdict(self)
        del fields["out_dir"], fields["threads"]
        payload = json.dumps(fields, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _builds_systems(config: RunConfig) -> bool:
    """Whether the run builds spin systems: the dephasing engine, decode and the
    symbol spectrum build none.
    """
    return config.engine == "full" and config.kind != "decode" and not (
        config.kind == "spectrum" and config.spectrum_kind == "symbol")


def _evolves_blocks(config: RunConfig) -> bool:
    """Whether the run evolves block sets or the dephasing model, which need a
    kick layout that the half-period sample separates (`check_kick_layout`).
    """
    return config.kind != "decode" and not (
        config.kind == "spectrum" and config.spectrum_kind == "symbol") and not (
        config.kind == "trace" and config.engine == "full")


def peak_matrix_bytes(config: RunConfig) -> int:
    """Bytes of the matrices a run holds at its peak.

    Each graph holds the real blocks of its Hamiltonian and their real
    eigenvectors, one per total-Iz sector, sum_k C(n, k)^2 = C(2n, n) entries
    each.  The per-pulse trace adds the complex free-step blocks, C(2n, n)
    entries again, and two complex temporaries of the largest block while it
    is built.  The other full-engine kinds add, per graph, the peak of the
    factory's build for the run's readout mode: its parity blocks, each a
    quarter of a dense complex matrix, counted by
    `BlockPropagatorFactory.peak_matrices`.  Each thread adds a block set while
    it is built, `BlockPropagatorFactory.BLOCK_SET_MATRICES` dense complex
    matrices.  Runs that build no system hold none.
    """
    if not _builds_systems(config):
        return 0
    n = config.num_spins
    matrix, sectors = 16 * 4**n, 16 * math.comb(2 * n, n)
    if config.kind == "trace":
        return 2 * sectors + 2 * 16 * math.comb(n, n // 2)**2
    graphs = config.graph_realizations if config.kind in _SWEEPS else 1
    factory = BlockPropagatorFactory.peak_matrices(config.spec(), _reads_half_period(config))
    block_sets = BlockPropagatorFactory.BLOCK_SET_MATRICES * config.threads
    return int((sectors + factory * matrix) * graphs + block_sets * matrix)


def _reads_half_period(config: RunConfig) -> bool:
    """Whether the run's block sets read the half-period sample besides the block end."""
    return config.kind == "encode" or (
        config.kind == "spectrum" and config.spectrum_kind == "micromotion")


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


def make_stream(order, cycles: int, seed: int, offset: int = 0) -> SymbolStream:
    """Stream covering `cycles` blocks for the given multipole order.

    A random drive is rounded up to the next multiple of its 2**n alignment
    (`RunConfig.validate` keeps fixed-length kinds aligned).  For the
    deterministic n -> inf drive, ``offset`` selects the window that plays
    the role of a realization; ``seed`` is ignored there.
    """
    order = _parse_order(order)
    if order == math.inf:
        return thue_morse_stream(cycles, offset=offset)
    chunk = 2**order
    return sample_rmd(order, -(-cycles // chunk) * chunk, seed)


def _drive_realizations(config: RunConfig) -> int:
    """Drive realizations a spectrum or phase diagram evolves; one for Thue-Morse."""
    return 1 if _parse_order(config.n_order) == math.inf else config.realizations


def _parallel_map(fn, items, threads: int):
    """Order-preserving map; results independent of worker scheduling."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


class FullSystem:
    """Graph, Hamiltonian, initial state, and the propagator factory of one run.

    Only the factory of the most recent tau and readout mode is kept, since a
    sweep uses each tau for one point and a run reads out in one mode; the
    cache is safe to share between the threads of `_parallel_map`.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.graph = generate_graph(
            config.num_spins, edge_length=config.edge_length,
            r_min=config.r_min, r_max=config.r_max, seed=config.graph_seed,
        )
        self.couplings = compute_couplings(
            self.graph, coupling_median=config.coupling_median,
            model=config.coupling_model,
        )
        self.hamiltonian = build_hamiltonian(self.couplings)
        self.psi0 = initial_state(config.num_spins, self.hamiltonian,
                                  decay_time=config.decay_time)
        self._factory: tuple[tuple, BlockPropagatorFactory] | None = None
        self._lock = threading.Lock()

    def factory(self, spec: MonopoleSpec, include_half: bool) -> BlockPropagatorFactory:
        key = (spec.tau, include_half)
        with self._lock:
            if self._factory is None or self._factory[0] != key:
                self._factory = None  # release the old factory before building
                self._factory = (key, BlockPropagatorFactory(
                    self.hamiltonian, replace(spec, gamma_y=math.pi), include_half))
            return self._factory[1]


def _systems_for(config: RunConfig, graphs: int = 1) -> list:
    """A FullSystem for each of ``graphs`` graph seeds, or [None] for the dephasing engine."""
    if config.engine != "full":
        return [None]
    return [FullSystem(replace(config, graph_seed=config.graph_seed + g))
            for g in range(graphs)]


# -- the engine seam: only these two functions know which engine runs ---------

def _block_set(system: FullSystem | None, config: RunConfig,
               spec: MonopoleSpec) -> BlockPropagators | DephasingParams:
    """What `_drive_trace` evolves under at ``spec``.

    The full engine's block propagators on ``system``, or the dephasing
    model's parameters when ``system`` is None; both read out the
    `readout_slots` (the half-period slot too when `_reads_half_period`).
    """
    include_half = _reads_half_period(config)
    if system is None:
        return DephasingParams(spec=spec, epsilon=spec.epsilon, gamma_0=config.gamma_0,
                               readout=readout_slots(spec, include_half))
    return system.factory(spec, include_half).block_set(spec.gamma_y, include_half=include_half)


def _drive_trace(system: FullSystem | None, props, stream: SymbolStream,
                 stop_factor: float | None = None) -> SignalTrace:
    """Noise-free trace of ``stream`` under ``props`` from `_block_set`.

    With ``stop_factor`` the full engine runs the early-stopping heating
    rundown; the closed-form model always covers the whole stream.
    """
    if system is None:
        return model_signal(stream, props)
    if stop_factor is None:
        return evolve_blockwise(stream, props, system.psi0)
    return stroboscopic_rundown(stream, props, system.psi0, stop_factor=stop_factor)


def measure_rate(system: FullSystem | None, props, config: RunConfig, order, seed: int,
                 offset: int = 0) -> HeatingFit:
    """1/e decay rate of one drive realization under ``props`` from `_block_set`."""
    stream = make_stream(order, config.max_cycles, seed, offset=offset)
    stream = replace(stream, symbols=stream.symbols[:config.max_cycles])
    return lifetime(_drive_trace(system, props, stream, stop_factor=0.8))


def point_rates(systems: list, config: RunConfig, spec: MonopoleSpec, orders,
                indices) -> list[tuple[float, float, bool]]:
    """Per order, the rate at ``spec`` over graph and drive realizations.

    Returns (mean, std, all_crossed) for each order; ``indices[k]`` is the
    seed index of the k-th order.  Each system's block set is built once and
    shared by every order and realization; it is released before the next
    system's.
    """
    fits = [[] for _ in orders]
    for gi, system in enumerate(systems):
        props = _block_set(system, config, spec)
        for order, index, order_fits in zip(orders, indices, fits):
            # deterministic drives vary by window offset instead of seed
            inf = _parse_order(order) == math.inf
            for r in range(config.realizations):
                order_fits.append(measure_rate(system, props, config, order,
                                               derive_seed(config.seed, index, gi, r),
                                               offset=r if inf else 0))
        del props
    rates = [np.array([f.rate for f in order_fits]) for order_fits in fits]
    return [(float(r.mean()), float(r.std()), all(f.crossed for f in order_fits))
            for r, order_fits in zip(rates, fits)]


# -- experiment handlers ----------------------------------------------------

def _run_trace(config: RunConfig, out: Path) -> dict:
    spec = config.spec()
    stream = make_stream(config.n_order, config.cycles, derive_seed(config.seed, 0, 0))
    if config.engine == "full":
        # the per-pulse reference engine, for the quasi-continuous readout
        system = FullSystem(config)
        trace = evolve(PulseProgram(stream, spec), system.hamiltonian, system.psi0)
        serialize.write_graph(out / "graph.csv", system.graph)
        serialize.write_couplings(out / "couplings.csv", system.couplings)
    else:
        trace = _drive_trace(None, replace(_block_set(None, config, spec), readout=None),
                             stream)
    trace = trace.with_noise(config.readout_noise, derive_seed(config.seed, 0, 1))
    serialize.write_stream(out / "stream.txt", stream)
    serialize.write_trace(out / "trace.csv", trace)
    fit = lifetime(trace)
    return {"samples": len(trace), "lifetime": fit.lifetime,
            "rate": fit.rate, "crossed": fit.crossed}


def _run_spectrum(config: RunConfig, out: Path) -> dict:
    spec = config.spec()
    system = props = None
    if config.spectrum_kind != "symbol":
        (system,) = _systems_for(config)
        props = _block_set(system, config, spec)

    def one(r: int):
        stream = make_stream(config.n_order, config.cycles, derive_seed(config.seed, 0, r))
        if props is None:
            return symbol_dft(stream)
        trace = _drive_trace(system, props, stream)
        if config.spectrum_kind == "micromotion":
            return dft_micromotion(trace)
        return dft_stroboscopic(trace)

    reps = _drive_realizations(config)
    spectra = _parallel_map(one, list(range(reps)), config.threads)
    amps = np.vstack([s.amplitudes for s in spectra])
    mean = SpectrumResult(omegas=spectra[0].omegas, amplitudes=amps.mean(axis=0),
                          kind=spectra[0].kind, std=amps.std(axis=0), meta={
                              "realizations": reps, "n_order": config.n_order,
                              "engine": config.engine, "seed": config.seed})
    serialize.write_spectrum(out / "spectrum.csv", mean)
    return {"kind": config.spectrum_kind, "realizations": reps, "cycles": config.cycles}


def _json_number(x: float) -> float | str | None:
    """``x`` as strict JSON: "inf" as in the CSV headers, None where undefined."""
    return None if math.isnan(x) else "inf" if math.isinf(x) else x


def _run_phase_diagram(config: RunConfig, out: Path) -> dict:
    spec = config.spec()
    (system,) = _systems_for(config)
    reps = _drive_realizations(config)

    def one(i: int) -> list:
        """(gamma, trace) of every realization at the i-th kick angle."""
        gamma = config.gamma_grid[i]
        props = _block_set(system, config, replace(spec, gamma_y=gamma))
        return [(gamma, _drive_trace(system, props, make_stream(
                    config.n_order, config.cycles, derive_seed(config.seed, i, r))))
                for r in range(reps)]

    per_gamma = _parallel_map(one, list(range(len(config.gamma_grid))), config.threads)
    sweep = [pair for pairs in per_gamma for pair in pairs]
    diagram = phase_diagram(sweep, n_order=config.n_order,
                            normalization=config.normalization)
    serialize.write_phase_diagram(out / "phase_diagram.csv", diagram)
    contrasts = {repr(float(g)): _json_number(half_frequency_contrast(row))
                 for g, row in zip(diagram.gamma_grid, diagram.intensity)}
    serialize.write_json(out / "contrast.json", {"half_frequency_contrast": contrasts})
    return {"gammas": len(config.gamma_grid), "realizations": reps,
            "cycles": config.cycles}


def _run_heating(config: RunConfig, out: Path) -> dict:
    """Heating-rate power law along one swept axis, per multipole order.

    ``heating-eps`` sweeps the kick-angle deviation and fits the rate in
    excess of the rate at gamma = pi against |eps|; ``heating-period`` and
    ``heating-highfreq`` sweep tau at gamma = pi + sweep_slope * T and fit
    the rate against the period T.  Each point, the eps reference included,
    is measured for every order under one block set per system.  Only points
    whose realizations all crossed 1/e and whose fitted (excess) rate is
    positive enter a fit; an eps order whose reference realizations never
    crossed is not fitted, and its reference rate, only the argmin fallback,
    is NaN.  Every ``fits.json`` entry carries ``points_used`` and
    ``uncrossed``, then ``exponent``/``stderr`` or an ``error``; eps entries
    add ``rate_at_pi`` (``null`` when NaN) and ``reference_crossed``,
    tau-sweep entries ``smallest_period_rate``.
    """
    sweep = _SWEEPS[config.kind]
    base = config.spec()
    systems = _systems_for(config, config.graph_realizations)
    grid = getattr(config, sweep.grid)
    orders = config.n_orders or sweep.orders or (config.n_order,)
    # the k-th order's point indices start at seed_block * k
    starts = [sweep.seed_block * k for k in range(len(orders))]
    if sweep.grid == "eps_grid":
        references = point_rates(systems, config, replace(base, gamma_y=math.pi),
                                 orders, starts)
        starts = [s + 1 for s in starts]  # the reference holds each order's first index
        specs = [replace(base, gamma_y=math.pi + eps) for eps in grid]
        xs = np.array(grid, dtype=float)
    else:
        references = [(0.0, 0.0, True)] * len(orders)
        specs = [replace(base, tau=tau) for tau in grid]
        specs = [replace(s, gamma_y=math.pi + config.sweep_slope * s.block_duration)
                 for s in specs]
        xs = np.array([s.block_duration for s in specs])
    points = _parallel_map(
        lambda j: point_rates(systems, config, specs[j], orders, [s + j for s in starts]),
        list(range(len(specs))), config.threads)

    rows, fits = [], {}
    for k, order in enumerate(orders):
        reference, _, reference_crossed = references[k]
        if not reference_crossed:
            reference = math.nan
        results = [point[k] for point in points]
        rates = np.array([r[0] for r in results])
        crossed = np.array([r[2] for r in results], dtype=bool)
        ys = rates - reference
        use = crossed & (ys > 0) & reference_crossed
        entry = {"points_used": int(use.sum()), "uncrossed": int((~crossed).sum())}
        if sweep.grid == "eps_grid":
            entry.update(rate_at_pi=_json_number(reference),
                         reference_crossed=reference_crossed)
        else:
            entry["smallest_period_rate"] = float(rates[np.argmin(xs)])
        if not reference_crossed:
            entry["error"] = "no fit: the reference rate at gamma = pi never crossed 1/e"
        else:
            try:
                fit = fit_power_law(np.abs(xs[use]), ys[use])
                entry.update(exponent=fit.exponent, stderr=fit.stderr)
            except ValueError as exc:
                entry["error"] = f"fit over {entry['points_used']} crossed points failed: {exc}"
        fits[str(order)] = entry
        rows += [(str(order), xs[j], rates[j], results[j][1], ys[j], crossed[j])
                 for j in range(len(grid))]
    serialize.write_heating(out / f"{config.kind.replace('-', '_')}.csv", sweep.xname, rows)
    serialize.write_json(out / "fits.json", fits)
    return {"fits": fits}


def _run_encode(config: RunConfig, out: Path) -> dict:
    message = Message(config.text)
    stream = encode(message)
    serialize.write_stream(out / "stream.txt", stream)
    (system,) = _systems_for(config)
    props = _block_set(system, config, config.spec())
    trace = _drive_trace(system, props, stream).with_noise(
        config.readout_noise, derive_seed(config.seed, 0, 1))
    serialize.write_trace(out / "trace.csv", trace)
    return {"characters": len(message.text), "cycles": len(stream)}


def _run_decode(config: RunConfig, out: Path) -> dict:
    trace = serialize.read_trace(config.trace_file)
    message = decode(trace, threshold=config.threshold)
    margins = decode_margins(trace)
    serialize.write_json(out / "decoded.json", {
        "text": message.text,
        "margins": [float(m) for m in margins],
        "threshold": config.threshold,
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
    "decode": _run_decode,
}


def run(config: RunConfig) -> dict:
    """Validate, execute, and write the manifest; returns a summary dict."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = _HANDLERS[config.kind](config, out)
    manifest = {
        "config": dataclasses.asdict(config),
        "config_hash": config.hash(),
        "versions": {"rondeau": __version__, "numpy": np.__version__},
        "summary": summary,
        "outputs": sorted(p.name for p in out.iterdir() if p.name != "manifest.json"),
    }
    serialize.write_json(out / "manifest.json", manifest)
    return summary
