"""Block propagators are built once per kick angle and shared; lazy caches build once."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

import rondeau.runner as runner
from rondeau import serialize
from rondeau.evolution import BlockPropagatorFactory
from rondeau.runner import FullSystem, RunConfig, derive_seed, run
from rondeau.spins import build_hamiltonian, compute_couplings, generate_graph

from conftest import realization_rate

SMALL = dict(num_spins=4, engine="full", pulses_per_block=12, kick_plus=8, kick_minus=4,
             tau=0.05, realizations=3)


@pytest.fixture()
def block_set_keys(monkeypatch):
    """Key of every BlockPropagatorFactory.block_set call, in call order."""
    keys = []
    real = BlockPropagatorFactory.block_set

    def counted(self, gamma_y=None, include_half=None, angle_spread=0.0, disorder_seed=None):
        keys.append((id(self), gamma_y, include_half, angle_spread, disorder_seed))
        return real(self, gamma_y, include_half, angle_spread, disorder_seed)

    monkeypatch.setattr(BlockPropagatorFactory, "block_set", counted)
    return keys


@pytest.mark.parametrize("overrides, distinct", [
    (dict(kind="spectrum", spectrum_kind="micromotion", cycles=16), 1),
    (dict(kind="phase-diagram", gamma_grid=(math.pi, 0.9 * math.pi), cycles=16), 2),
    (dict(kind="heating-eps", eps_grid=(0.2, 0.4, 0.6), max_cycles=64), 4),
    (dict(kind="heating-highfreq", tau_grid=(0.05, 0.04, 0.03), n_orders=("0", "1"),
          sweep_slope=0.5, max_cycles=64), 3),
])
def test_one_block_set_per_kick_angle(tmp_path, block_set_keys, overrides, distinct):
    run(RunConfig(out_dir=str(tmp_path), **SMALL, **overrides))
    assert len(set(block_set_keys)) == distinct
    assert len(block_set_keys) == distinct


@pytest.mark.parametrize("graphs", [1, 3])
@pytest.mark.parametrize("overrides, batches", [
    (dict(kind="heating-highfreq", sweep_slope=0.5, tau_grid=(0.05, 0.04, 0.03, 0.02)),
     [1, 1, 1, 1]),  # one batch per tau
    (dict(kind="heating-eps", eps_grid=(0.2, 0.4)), [2, 1]),  # then the gamma = pi reference
])
def test_sweep_keeps_one_spin_system_alive(tmp_path, monkeypatch, graphs, overrides,
                                           batches):
    """Each block set is built with one factory and no block set of an earlier batch alive,
    and each graph's Hamiltonian with neither: a sweep releases each batch's block sets,
    each tau's factory and each graph's system before it builds the next."""
    factories, block_sets, seen = weakref.WeakSet(), weakref.WeakSet(), []
    init, block_set = BlockPropagatorFactory.__init__, BlockPropagatorFactory.block_set
    build_hamiltonian = runner.build_hamiltonian

    def record(event):
        gc.collect()
        seen.append((event, len(factories), len(block_sets)))

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        factories.add(self)

    def tracked_block_set(self, *args, **kwargs):
        record("block_set")
        props = block_set(self, *args, **kwargs)
        block_sets.add(props)
        return props

    def tracked_build(couplings):
        record("hamiltonian")
        return build_hamiltonian(couplings)

    monkeypatch.setattr(BlockPropagatorFactory, "__init__", tracked_init)
    monkeypatch.setattr(BlockPropagatorFactory, "block_set", tracked_block_set)
    monkeypatch.setattr(runner, "build_hamiltonian", tracked_build)
    # heating-highfreq evolves its four default orders under each block set
    run(RunConfig(out_dir=str(tmp_path), graph_realizations=graphs, max_cycles=64,
                  **SMALL, **overrides))
    assert seen == ([("hamiltonian", 0, 0)] + [("block_set", 1, i) for size in batches
                                               for i in range(size)]) * graphs


@pytest.mark.parametrize("order", ["1", "inf"])
def test_shared_block_set_gives_identical_rates(tmp_path, order):
    """A G = 2 sweep's row pools every (graph, realization) rate, each measured here
    under a block set of its own."""
    config = RunConfig(kind="heating-eps", out_dir=str(tmp_path), graph_realizations=2,
                       eps_grid=(0.3,), n_orders=(order,), max_cycles=256, seed=7, **SMALL)
    run(config)
    spec = dataclasses.replace(config.spec(), gamma_y=math.pi + 0.3)
    rates, graphs, dtype = [], config.validate(), config.plan().dtype
    for g in range(config.graph_realizations):
        system = FullSystem(config, graphs[g])
        for r in range(config.realizations):
            props = system.factory(spec, (spec.slots_per_block,), dtype).block_set(spec.gamma_y)
            seed = derive_seed(config.seed, 1, g, r)  # eps point 0 follows the reference
            offset = r if order == "inf" else 0
            rates.append(realization_rate(system, props, config, order, seed,
                                          offset=offset).rate)
    _, (_, _, mean, std, _, _) = serialize.read_heating(tmp_path / "heating_eps.csv")
    assert (mean.tolist(), std.tolist()) == ([float(np.mean(rates))], [float(np.std(rates))])


def _counter(build, calls):
    """`build` that records the arguments of each call."""
    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    return counted


def test_eigensystem_is_computed_once(monkeypatch):
    """Repeated calls run one eigh per total-Iz sector k <= n/2 and share its result; the
    sectors k > n/2 mirror them."""
    num_spins = 3
    hamiltonian = build_hamiltonian(compute_couplings(generate_graph(num_spins, seed=1)))
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", _counter(np.linalg.eigh, calls))
    results = [hamiltonian.eigensystem() for _ in range(3)]
    assert len(calls) == num_spins // 2 + 1
    assert all(r is results[0] for r in results)


def test_factory_matches_each_callers_tau():
    """Callers alternating between taus each get the factory of their own tau."""
    config = RunConfig(kind="heating-period", out_dir="x", tau_grid=(0.05, 0.04, 0.03, 0.02),
                       **SMALL)
    system, spec = FullSystem(config, *config.validate()), config.spec()
    for tau in [0.05, 0.04, 0.05, 0.03, 0.03, 0.02]:
        assert system.factory(dataclasses.replace(spec, tau=tau), (13,)).spec.tau == tau


def test_factory_is_built_once(monkeypatch):
    config = RunConfig(kind="spectrum", out_dir="x", **SMALL)
    system = FullSystem(config, *config.validate())
    calls = []
    monkeypatch.setattr(runner, "BlockPropagatorFactory",
                        _counter(lambda hamiltonian, spec, slots, dtype: object(), calls))
    spec = config.spec()
    results = [system.factory(spec, (13,)) for _ in range(3)]
    assert len(calls) == 1
    assert all(r is results[0] for r in results)


@pytest.mark.parametrize("overrides, parities", [
    (dict(kind="encode", text="Hi"), [[1]]),
    (dict(kind="heating-period", tau_grid=(0.05,)), [[1]]),
    (dict(kind="heating-eps", eps_grid=(0.1,)), [[1, -1], [1]]),
    (dict(kind="encode", text="Hi", num_spins=5), [[1, -1]]),
])
def test_factory_builds_each_parity_at_its_first_block_set(overrides, parities):
    """A factory starts with P = +1 alone, and the first block set that reads P = -1 builds
    it; block sets come in the run's visiting order.  At even n the fusing gamma = pi
    block set drops P = -1, which no later block set reads."""
    config = RunConfig(out_dir="x", **{**SMALL, **overrides})
    factory = FullSystem(config, *config.validate()).factory(config.spec(), (13,))
    assert list(factory.blocks) == [1]
    for (_, spec), expected in zip(config.plan().points, parities, strict=True):
        factory.block_set(spec.gamma_y)
        assert list(factory.blocks) == expected


def test_heating_eps_builds_p_minus_first_and_fuses_the_reference_last(tmp_path, monkeypatch):
    """A heating-eps run builds P = -1 at its first eps point's block set, before any rundown,
    steps every eps point in one batch, one rundown, and then fuses the kick steps at its
    gamma = pi reference, the last block set, which at even n drops P = -1."""
    events = []
    real_block_set = BlockPropagatorFactory.block_set
    real_rundown = runner.stroboscopic_rundown

    def block_set(self, gamma_y=None, *args, **kwargs):
        props = real_block_set(self, gamma_y, *args, **kwargs)
        events.append((gamma_y - math.pi, list(self.blocks), self.fused))
        return props

    def rundown(*args, **kwargs):
        events.append("rundown")
        return real_rundown(*args, **kwargs)

    monkeypatch.setattr(BlockPropagatorFactory, "block_set", block_set)
    monkeypatch.setattr(runner, "stroboscopic_rundown", rundown)
    run(RunConfig(kind="heating-eps", out_dir=str(tmp_path), eps_grid=(0.1, 0.2),
                  max_cycles=64, **SMALL))
    sets = [e for e in events if e != "rundown"]
    assert events == [sets[0], sets[1], "rundown", sets[2], "rundown"]
    assert sets == [(pytest.approx(0.1), [1, -1], False), (pytest.approx(0.2), [1, -1], False),
                    (0.0, [1], True)]
