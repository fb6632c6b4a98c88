import math
import tracemalloc

import numpy as np
import pytest

import rondeau.runner as runner
from rondeau.evolution import half_sample_slot, initial_state
from rondeau.sequences import MonopoleSpec
from rondeau.spins import build_hamiltonian, compute_couplings, generate_graph


@pytest.fixture(scope="session")
def small_system():
    """6-spin interacting system shared by the engine tests."""
    graph = generate_graph(6, seed=11)
    couplings = compute_couplings(graph, coupling_median=1.0)
    hamiltonian = build_hamiltonian(couplings)
    row0 = initial_state(6, hamiltonian)
    return graph, couplings, hamiltonian, row0


@pytest.fixture()
def short_spec():
    """Small block keeping unit tests fast; kick layout mirrors the 2:1 ratio."""
    return MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4,
                        tau=0.05, gamma_y=math.pi)


def traced(fn):
    """``(fn(), kept, peak)``: what ``fn`` returns, and the bytes tracemalloc counts still
    held when it returns and at the peak while it runs."""
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def half_period(spec):
    """Readout slots of the micromotion runs: the half-period slot, then the block end."""
    return half_sample_slot(spec), spec.slots_per_block


def block_end(spec):
    """Readout slots of the stroboscopic runs: the block end alone."""
    return (spec.slots_per_block,)


def every_slot(spec):
    """Readout slots of the per-pulse trace: every slot of the block."""
    return tuple(range(1, spec.slots_per_block + 1))


def realization_rate(system, props, config, order, seed: int, offset: int = 0):
    """`measure_rate` of one heating realization stepped alone, a batch of one member: the
    stream `_run_heating` draws for it under ``props``, on ``system`` (None: dephasing)."""
    stream = runner._rundown_stream(config, order, seed, offset)
    (trace,) = runner._rundown_traces(system, [(stream, props)])
    return runner.measure_rate(trace)
