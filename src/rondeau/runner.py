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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (HeatingFit, SpectrumResult, fit_power_law,
                       half_frequency_contrast, lifetime, phase_diagram,
                       dft_micromotion, dft_stroboscopic, symbol_dft)
from .codec import Message, decode, decode_margins, encode
from .dephasing import DephasingParams, model_signal, predicted_rate
from .evolution import (BlockPropagatorFactory, BlockPropagators, SignalTrace,
                        compile_program, evolve, evolve_blockwise, initial_state,
                        total_ix, _check_norm)
from .sequences import MonopoleSpec, SymbolStream, sample_rmd, thue_morse_stream
from .spins import build_hamiltonian, compute_couplings, generate_graph
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
        if self.cycles < 1:
            raise ConfigError("cycles must be >= 1")
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.spectrum_kind not in SPECTRUM_KINDS:
            raise ConfigError(f"unknown spectrum kind {self.spectrum_kind!r}")
        if self.kind == "phase-diagram" and not self.gamma_grid:
            raise ConfigError("phase-diagram requires a gamma_grid")
        sweep = _SWEEPS.get(self.kind)
        if sweep and not getattr(self, sweep.grid):
            raise ConfigError(f"{self.kind} requires a non-empty {sweep.grid}")
        if self.kind == "encode" and not self.text:
            raise ConfigError("encode requires text")
        if self.kind == "decode" and not self.trace_file:
            raise ConfigError("decode requires a trace_file")
        _parse_order(self.n_order)
        seen = set()
        for label in self.n_orders:
            order = _parse_order(label)
            if order in seen:
                raise ConfigError(f"n_orders repeats multipole order {label!r}")
            seen.add(order)

    def spec(self) -> MonopoleSpec:
        return MonopoleSpec(
            pulses_per_block=self.pulses_per_block, kick_plus=self.kick_plus,
            kick_minus=self.kick_minus, tau=self.tau, theta_x=self.theta_x,
            gamma_y=self.gamma_y,
        )

    def hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _parse_order(label) -> int | float:
    if isinstance(label, (int, float)) and not isinstance(label, bool):
        if label == math.inf:
            return math.inf
        if float(label).is_integer() and label >= 0:
            return int(label)
        raise ConfigError(f"invalid multipole order {label!r}")
    text = str(label).strip().lower()
    if text in ("inf", "tm", "thue-morse"):
        return math.inf
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"invalid multipole order {label!r}") from None
    if value < 0:
        raise ConfigError(f"invalid multipole order {label!r}")
    return value


def derive_seed(master: int, *key: int) -> int:
    """Stable per-task seed, independent of scheduling order."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def make_stream(order, cycles: int, seed: int, exact: bool = True,
                offset: int = 0) -> SymbolStream:
    """Stream covering `cycles` blocks for the given multipole order.

    With ``exact`` the cycle count must respect the 2**n alignment of the
    multipole; otherwise the stream is rounded up to the next multiple and
    callers simply stop evolving early.  For the deterministic n -> inf
    drive, ``offset`` selects the window that plays the role of a
    realization; ``seed`` is ignored there.
    """
    order = _parse_order(order)
    if order == math.inf:
        return thue_morse_stream(cycles, offset=offset)
    chunk = 2**order
    if exact and cycles % chunk:
        raise ConfigError(
            f"cycles ({cycles}) must be a multiple of 2**n ({chunk}) for order {order}")
    rounded = ((cycles + chunk - 1) // chunk) * chunk
    return sample_rmd(order, rounded, seed)


def _parallel_map(fn, items, threads: int):
    """Order-preserving map; results independent of worker scheduling."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


class FullSystem:
    """Graph, Hamiltonian, initial state, and propagator caches for one run.

    The factory cache is safe to share between the threads of `_parallel_map`.
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
        self._factories: dict[float, BlockPropagatorFactory] = {}
        self._lock = threading.Lock()

    def factory(self, spec: MonopoleSpec) -> BlockPropagatorFactory:
        key = spec.tau
        with self._lock:
            if key not in self._factories:
                self._factories[key] = BlockPropagatorFactory(
                    self.hamiltonian, replace(spec, gamma_y=math.pi))
            return self._factories[key]

    def s0(self) -> float:
        return total_ix(self.psi0, self.config.num_spins)


def blockwise_trace(system: FullSystem, stream: SymbolStream, props: BlockPropagators,
                    readout_noise: float = 0.0, noise_seed=None) -> SignalTrace:
    """Blockwise evolution of one stream under propagators the caller built.

    The caller builds ``props`` once per kick angle with
    ``system.factory(spec).block_set`` and passes it to every stream evolved
    at that angle; half-period samples are recorded when it was built with
    ``include_half``.
    """
    return evolve_blockwise(stream, props.spec, system.hamiltonian, system.psi0,
                            propagators=props, include_half=props.first is not None,
                            readout_noise=readout_noise, noise_seed=noise_seed)


def dephasing_trace(config: RunConfig, stream: SymbolStream, spec: MonopoleSpec,
                    noise_seed=None) -> SignalTrace:
    params = DephasingParams(spec=spec, epsilon=spec.epsilon, gamma_0=config.gamma_0)
    return model_signal(stream, params, amplitude=1.0,
                        readout_noise=config.readout_noise, noise_seed=noise_seed)


def stroboscopic_rundown(symbols: np.ndarray, props, psi0, max_cycles: int,
                         stop_factor: float = 0.8) -> SignalTrace:
    """Blockwise evolution that stops soon after the 1/e crossing.

    Records only stroboscopic samples; once the envelope falls below
    ``stop_factor / e`` of its initial value the remaining cycles cannot
    move the lifetime argmin, so the run ends early.
    """
    spec = props.spec
    T = spec.block_duration
    full = props.full_ops()
    num_spins = int(round(math.log2(psi0.size)))
    psi = np.array(psi0, dtype=complex)
    values = [total_ix(psi, num_spins)]
    target = abs(values[0]) * stop_factor / math.e
    limit = min(max_cycles, symbols.size)
    for ell in range(limit):
        psi = full[int(symbols[ell])] @ psi
        values.append(total_ix(psi, num_spins))
        if (ell + 1) % 64 == 0:
            _check_norm(psi, f"cycle {ell + 1}")
        if abs(values[-1]) < target:
            break
    m = len(values) - 1
    times = T * np.arange(m + 1)
    per_block = spec.slots_per_block
    return SignalTrace(
        times=times, values=np.array(values),
        cycle_index=np.maximum(np.arange(m + 1) - 1, 0),
        pulse_index=np.where(np.arange(m + 1) == 0, 0, per_block),
        block_duration=T, num_cycles=m,
        meta={"engine": "full-blockwise", "gamma_y": spec.gamma_y, "tau": spec.tau},
    )


def measure_rate(system: FullSystem | None, props: BlockPropagators | None,
                 config: RunConfig, spec: MonopoleSpec, order, seed: int,
                 offset: int = 0) -> HeatingFit:
    """1/e decay rate of one drive realization under either engine.

    The full engine evolves under ``props``, the whole-block propagators the
    caller built for ``spec`` on ``system``; the dephasing engine (``system``
    None) ignores both.
    """
    max_cycles = config.max_cycles
    if config.engine == "dephasing" or system is None:
        # the model's own rate bounds the cycles needed to reach 1/e
        params = DephasingParams(spec=spec, epsilon=spec.epsilon, gamma_0=config.gamma_0)
        rate = predicted_rate(params)
        budget = max_cycles
        if rate > 0:
            budget = min(max_cycles, max(64, int(3.0 / (rate * spec.block_duration))))
        stream = make_stream(order, budget, seed, exact=False, offset=offset)
        trace = dephasing_trace(config, stream, spec)
        return lifetime(trace)
    stream = make_stream(order, max_cycles, seed, exact=False, offset=offset)
    trace = stroboscopic_rundown(stream.symbols, props, system.psi0, max_cycles)
    return lifetime(trace)


def mean_rate(systems: list, config: RunConfig, spec: MonopoleSpec, order,
              point_index: int) -> tuple[float, float, bool]:
    """Rate averaged over graph and drive realizations: (mean, std, all_crossed).

    Each system's block set for ``spec`` is built here once and shared by
    that system's realizations; it is released before the next system's.
    """
    order_val = _parse_order(order)
    fits = []
    for gi, system in enumerate(systems):
        props = None
        if system is not None:
            props = system.factory(spec).block_set(spec.gamma_y, include_half=False)
        for r in range(config.realizations):
            seed = derive_seed(config.seed, point_index, gi, r)
            # deterministic drives vary by window offset instead of seed
            offset = r if order_val == math.inf else 0
            fits.append(measure_rate(system, props, config, spec, order, seed,
                                     offset=offset))
        props = None
    rates = np.array([f.rate for f in fits])
    return float(rates.mean()), float(rates.std()), all(f.crossed for f in fits)


# -- experiment handlers ----------------------------------------------------

def _run_trace(config: RunConfig, out: Path) -> dict:
    spec = config.spec()
    stream = make_stream(config.n_order, config.cycles, derive_seed(config.seed, 0, 0))
    if config.engine == "dephasing":
        trace = dephasing_trace(config, stream, spec,
                                noise_seed=derive_seed(config.seed, 0, 1))
    else:
        system = FullSystem(config)
        program = compile_program(stream, spec)
        trace = evolve(program, system.hamiltonian, system.psi0,
                       readout_noise=config.readout_noise,
                       noise_seed=derive_seed(config.seed, 0, 1))
        serialize.write_graph(out / "graph.csv", system.graph)
        serialize.write_couplings(out / "couplings.csv", system.couplings)
    serialize.write_stream(out / "stream.txt", stream)
    serialize.write_trace(out / "trace.csv", trace)
    fit = lifetime(trace)
    return {"samples": len(trace), "lifetime": fit.lifetime,
            "rate": fit.rate, "crossed": fit.crossed}


def _run_spectrum(config: RunConfig, out: Path) -> dict:
    spec = config.spec()
    system = props = None
    if config.engine == "full" and config.spectrum_kind != "symbol":
        system = FullSystem(config)
        props = system.factory(spec).block_set(
            spec.gamma_y, include_half=config.spectrum_kind == "micromotion")

    def one(r: int):
        seed = derive_seed(config.seed, 0, r)
        stream = make_stream(config.n_order, config.cycles, seed)
        if config.spectrum_kind == "symbol":
            return symbol_dft(stream)
        if config.engine == "dephasing":
            trace = dephasing_trace(config, stream, spec)
        else:
            trace = blockwise_trace(system, stream, props)
        if config.spectrum_kind == "micromotion":
            return dft_micromotion(trace, spec)
        return dft_stroboscopic(trace, spec)

    spectra = _parallel_map(one, list(range(config.realizations)), config.threads)
    amps = np.vstack([s.amplitudes for s in spectra])
    mean = SpectrumResult(omegas=spectra[0].omegas, amplitudes=amps.mean(axis=0),
                          kind=spectra[0].kind)
    serialize.write_spectrum(
        out / "spectrum.csv", mean, std=amps.std(axis=0),
        extra_meta={"realizations": config.realizations, "n_order": config.n_order,
                    "engine": config.engine, "seed": config.seed},
    )
    return {"kind": config.spectrum_kind, "realizations": config.realizations,
            "cycles": config.cycles}


def _run_phase_diagram(config: RunConfig, out: Path) -> dict:
    spec = config.spec()
    system = FullSystem(config) if config.engine == "full" else None
    order_val = _parse_order(config.n_order)
    reps = 1 if order_val == math.inf else config.realizations

    def one(i: int) -> list:
        """(gamma, trace) of every realization at the i-th kick angle."""
        gamma = config.gamma_grid[i]
        gspec = replace(spec, gamma_y=gamma)
        props = None
        if system is not None:
            props = system.factory(gspec).block_set(gspec.gamma_y, include_half=False)
        pairs = []
        for r in range(reps):
            stream = make_stream(config.n_order, config.cycles, derive_seed(config.seed, i, r))
            if system is None:
                pairs.append((gamma, dephasing_trace(config, stream, gspec)))
            else:
                pairs.append((gamma, blockwise_trace(system, stream, props)))
        return pairs

    per_gamma = _parallel_map(one, list(range(len(config.gamma_grid))), config.threads)
    sweep = [pair for pairs in per_gamma for pair in pairs]
    diagram = phase_diagram(sweep, n_order=config.n_order,
                            normalization=config.normalization)
    serialize.write_phase_diagram(out / "phase_diagram.csv", diagram)
    contrasts = {repr(float(g)): half_frequency_contrast(row)
                 for g, row in zip(diagram.gamma_grid, diagram.intensity)}
    serialize.write_json(out / "contrast.json", {"half_frequency_contrast": contrasts})
    return {"gammas": len(config.gamma_grid), "realizations": reps,
            "cycles": config.cycles}


def _systems_for(config: RunConfig):
    """One FullSystem per graph realization, or [None] for the dephasing engine."""
    if config.engine != "full":
        return [None]
    return [FullSystem(replace(config, graph_seed=config.graph_seed + g))
            for g in range(config.graph_realizations)]


def _run_heating(config: RunConfig, out: Path) -> dict:
    """Heating-rate power law along one swept axis, per multipole order.

    ``heating-eps`` sweeps the kick-angle deviation and fits the rate in
    excess of the rate at gamma = pi against |eps|; ``heating-period`` and
    ``heating-highfreq`` sweep tau at gamma = pi + sweep_slope * T and fit
    the rate against the period T.  Only points whose realizations all
    crossed 1/e and whose fitted (excess) rate is positive enter a fit; an
    eps order whose reference realizations never crossed is not fitted.
    Every ``fits.json`` entry carries ``points_used`` and ``uncrossed``,
    then ``exponent``/``stderr`` or an ``error``; eps entries add
    ``rate_at_pi`` and ``reference_crossed``, tau-sweep entries
    ``smallest_period_rate``.
    """
    sweep = _SWEEPS[config.kind]
    base = config.spec()
    systems = _systems_for(config)
    grid = getattr(config, sweep.grid)
    rows, fits = [], {}
    for k, order in enumerate(config.n_orders or sweep.orders or (config.n_order,)):
        index = sweep.seed_block * k
        if sweep.grid == "eps_grid":
            reference, _, reference_crossed = mean_rate(
                systems, config, replace(base, gamma_y=math.pi), order, index)
            entry = {"rate_at_pi": reference, "reference_crossed": reference_crossed}
            index += 1  # the reference point holds the order's first seed index
            specs = [replace(base, gamma_y=math.pi + eps) for eps in grid]
            xs = np.array(grid, dtype=float)
        else:
            reference, reference_crossed, entry = 0.0, True, {}
            specs = [replace(base, tau=tau) for tau in grid]
            specs = [replace(s, gamma_y=math.pi + config.sweep_slope * s.block_duration)
                     for s in specs]
            xs = np.array([s.block_duration for s in specs])

        results = _parallel_map(
            lambda task: mean_rate(systems, config, task[1], order, index + task[0]),
            list(enumerate(specs)), config.threads)
        rates = np.array([r[0] for r in results])
        crossed = np.array([r[2] for r in results], dtype=bool)
        ys = rates - reference
        use = crossed & (ys > 0) & reference_crossed
        if sweep.grid == "tau_grid":
            entry["smallest_period_rate"] = float(rates[np.argmin(xs)])
        entry.update(points_used=int(use.sum()), uncrossed=int((~crossed).sum()))
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
    spec = config.spec()
    serialize.write_stream(out / "stream.txt", stream)
    if config.engine == "dephasing":
        trace = dephasing_trace(config, stream, spec,
                                noise_seed=derive_seed(config.seed, 0, 1))
    else:
        system = FullSystem(config)
        props = system.factory(spec).block_set(spec.gamma_y, include_half=True)
        trace = blockwise_trace(system, stream, props, readout_noise=config.readout_noise,
                                noise_seed=derive_seed(config.seed, 0, 1))
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
