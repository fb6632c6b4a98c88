"""The heating rundown is evolve_blockwise with an early stop, checked against a plain loop."""

import dataclasses
import math

import numpy as np
import pytest

import rondeau.runner as runner
from rondeau.analysis import lifetime
from rondeau.evolution import SignalTrace, _check_norm, parity_ix
from rondeau.runner import FullSystem, RunConfig, make_stream, measure_rate


def reference_rundown(symbols, props, row0, max_cycles, stop_factor=0.8):
    """Standalone stroboscopic loop off pi, on both parity rows from the first cycle: the
    P = +1 ``row0`` and a zero P = -1 row.  Stop at the first sample below stop_factor/e."""
    spec = props.spec
    T = spec.block_duration
    full = {s: step for s, (step,) in props.steps.items()}
    rows, signs = np.stack((row0, np.zeros_like(row0))), (1, -1)
    values = [parity_ix(rows, signs)]
    target = abs(values[0]) * stop_factor / math.e
    limit = min(max_cycles, symbols.size)
    for ell in range(limit):
        for factor in full[int(symbols[ell])]:
            rows, signs = factor(rows, signs)
        values.append(parity_ix(rows, signs))
        if (ell + 1) % 64 == 0:
            _check_norm(rows, f"cycle {ell + 1}")
        if abs(values[-1]) < target:
            break
    return SignalTrace(times=T * np.arange(len(values)), values=np.array(values),
                       slots=(spec.slots_per_block,), block_duration=T,
                       slots_per_block=spec.slots_per_block)


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
    system = FullSystem(config, *config.validate())
    props = system.factory(spec, (spec.slots_per_block,)).block_set(spec.gamma_y)
    traces = []
    rundown = runner.stroboscopic_rundown

    def recorded(*args, **kwargs):
        traces.append(rundown(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(runner, "stroboscopic_rundown", recorded)
    fit = measure_rate(system, props, config, order, seed=5)

    stream = make_stream(order, max_cycles, 5)
    expected = reference_rundown(stream.symbols, props, system.row0, max_cycles)
    (trace,) = traces
    assert trace.num_cycles == expected.num_cycles
    assert np.array_equal(trace.values, expected.values)
    assert np.array_equal(trace.times, expected.times)
    assert trace.slots == expected.slots
    assert fit == lifetime(expected)
    if outcome == "crossed":
        assert expected.num_cycles < max_cycles
    else:
        assert expected.num_cycles == max_cycles
    assert (len(stream) > max_cycles) == (outcome == "rounded-up")


def test_dephasing_rundown_stops_at_max_cycles(monkeypatch):
    config = RunConfig(kind="heating-eps", out_dir="x", engine="dephasing",
                       pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.01,
                       max_cycles=101, eps_grid=(0.05,))
    spec = dataclasses.replace(config.spec(), gamma_y=math.pi + 0.05)
    lengths = []
    model_signal = runner.model_signal

    def recorded(stream, params):
        lengths.append(len(stream))
        return model_signal(stream, params)

    monkeypatch.setattr(runner, "model_signal", recorded)
    fit = measure_rate(None, runner._block_set(None, config.plan(), spec), config, "2", seed=5)
    assert lengths == [101]  # not the 104 symbols of the rounded-up order-2 stream
    assert not fit.crossed
    assert fit.lifetime == pytest.approx(101 * spec.block_duration)
