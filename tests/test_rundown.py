"""The heating rundown is evolve_blockwise with an early stop, checked against a plain loop."""

import dataclasses
import math

import numpy as np
import pytest

import rondeau.runner as runner
from rondeau.analysis import lifetime
from rondeau.evolution import SignalTrace, _check_norm, total_ix
from rondeau.runner import FullSystem, RunConfig, make_stream, measure_rate


def reference_rundown(symbols, props, psi0, max_cycles, stop_factor=0.8):
    """Standalone stroboscopic loop: stop at the first sample below stop_factor/e."""
    spec = props.spec
    T = spec.block_duration
    full = {s: op for s, ((_, op),) in props.steps.items()}
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
    )


@pytest.mark.parametrize("tau, eps, order, max_cycles, outcome", [
    (0.05, 0.5, "0", 256, "crossed"),
    (0.01, 0.05, "0", 64, "uncrossed"),
    (0.01, 0.05, "2", 101, "rounded-up"),  # an order-2 stream holds 104 symbols
])
def test_rundown_matches_reference_loop(monkeypatch, tau, eps, order, max_cycles, outcome):
    config = RunConfig(kind="heating-eps", out_dir="x", num_spins=4, pulses_per_block=12,
                       kick_plus=8, kick_minus=4, tau=tau, max_cycles=max_cycles,
                       eps_grid=(eps,))
    spec = dataclasses.replace(config.spec(), gamma_y=math.pi + eps)
    system = FullSystem(config)
    props = system.factory(spec).block_set(spec.gamma_y, include_half=False)
    traces = []
    rundown = runner.stroboscopic_rundown

    def recorded(*args, **kwargs):
        traces.append(rundown(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(runner, "stroboscopic_rundown", recorded)
    fit = measure_rate(system, props, config, spec, order, seed=5)

    stream = make_stream(order, max_cycles, 5, exact=False)
    expected = reference_rundown(stream.symbols, props, system.psi0, max_cycles)
    (trace,) = traces
    assert trace.num_cycles == expected.num_cycles
    assert np.array_equal(trace.values, expected.values)
    assert np.array_equal(trace.times, expected.times)
    assert np.array_equal(trace.cycle_index, expected.cycle_index)
    assert np.array_equal(trace.pulse_index, expected.pulse_index)
    assert fit == lifetime(expected)
    if outcome == "crossed":
        assert expected.num_cycles < max_cycles
    else:
        assert expected.num_cycles == max_cycles
    assert (len(stream) > max_cycles) == (outcome == "rounded-up")
