"""The heating rundown is evolve_blockwise with an early stop, checked against a plain loop
in either precision."""

import dataclasses
import math

import numpy as np
import pytest

import rondeau.runner as runner
from rondeau.analysis import lifetime
from rondeau.cli import _config_from_args, build_parser
from rondeau.evolution import NumericalIntegrityError, SignalTrace, _check_norm, parity_ix
from rondeau.runner import FullSystem, RunConfig, make_stream, measure_rate, run

from golden.regenerate import CASES

#: The full-engine heating cases of the golden suite, each one CLI command line.
FULL_HEATING_CASES = sorted(name for name, argv in CASES.items()
                            if argv[0] == "heating" and "dephasing" not in argv)
#: Bound on |Δ|S|| between complex64 and complex128 rundowns of those cases at a block end:
#: the largest measured over their 43 realizations is 1.8e-6, with |S₀| <= 3.
SINGLE_ATOL = 1e-5


def reference_rundown(symbols, props, row0, max_cycles, stop_factor=0.8):
    """Standalone stroboscopic loop off pi, on both parity rows from the first cycle: the
    P = +1 ``row0`` and a zero P = -1 row, both in ``props.dtype``.  Stop at the first sample
    below stop_factor/e."""
    spec = props.spec
    T = spec.block_duration
    full = {s: step for s, (step,) in props.steps.items()}
    rows, signs = np.stack((row0, np.zeros_like(row0))).astype(props.dtype), (1, -1)
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


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("tau, eps, order, max_cycles, outcome", [
    (0.05, 0.5, "0", 256, "crossed"),
    (0.01, 0.05, "0", 64, "uncrossed"),
    (0.01, 0.05, "2", 101, "rounded-up"),  # an order-2 stream holds 104 symbols
])
def test_rundown_matches_reference_loop(monkeypatch, tau, eps, order, max_cycles, outcome,
                                        dtype):
    config = RunConfig(kind="heating-eps", out_dir="x", num_spins=4, pulses_per_block=12,
                       kick_plus=8, kick_minus=4, tau=tau, max_cycles=max_cycles,
                       eps_grid=(eps,))
    spec = dataclasses.replace(config.spec(), gamma_y=math.pi + eps)
    system = FullSystem(config, *config.validate())
    props = system.factory(spec, (spec.slots_per_block,), dtype).block_set(spec.gamma_y)
    assert props.dtype == dtype
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


@pytest.mark.parametrize("case", FULL_HEATING_CASES)
def test_complex64_rundowns_keep_every_lifetime(tmp_path, monkeypatch, case):
    """A heating-eps run steps its rundowns in complex64 (`RunPlan.dtype`), the other sweeps
    in complex128.  On every full-engine golden heating case, period and highfreq too, each
    realization stepped in complex64 keeps the lifetime, stop cycle and crossing of
    complex128, its block-end |S| within `SINGLE_ATOL`: the run writes the same heating CSV
    and fits.json."""
    config = _config_from_args(build_parser().parse_args(CASES[case]))
    planned, rundown = RunConfig.plan, runner.stroboscopic_rundown
    eps = config.kind == "heating-eps"
    assert planned(config).dtype == (np.complex64 if eps else np.complex128)
    runs = {}
    for dtype in (np.complex64, np.complex128):
        recorded = runs[dtype] = []

        def traced_rundown(stream, props, *args, **kwargs):
            recorded.append((props.dtype, rundown(stream, props, *args, **kwargs)))
            return recorded[-1][1]

        monkeypatch.setattr(RunConfig, "plan", lambda self, dtype=dtype: dataclasses.replace(
            planned(self), dtype=np.dtype(dtype)))
        monkeypatch.setattr(runner, "stroboscopic_rundown", traced_rundown)
        run(dataclasses.replace(config, out_dir=str(tmp_path / np.dtype(dtype).name)))
    single, double = runs[np.complex64], runs[np.complex128]
    assert len(single) == len(double) > 0
    for (dtype, a), (_, b) in zip(single, double, strict=True):
        assert dtype == np.complex64
        assert (a.num_cycles, lifetime(a)) == (b.num_cycles, lifetime(b))
        assert np.abs(np.abs(a.values) - np.abs(b.values)).max() <= SINGLE_ATOL
    for name in (planned(config).sweep.table, "fits.json"):
        assert (tmp_path / "complex64" / name).read_bytes() == \
            (tmp_path / "complex128" / name).read_bytes()


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_non_unitary_step_fails_the_norm_check(dtype):
    """A rundown through a `Power` scaled by 1 + 1e-3, which grows the norm by 2e-3 in every
    + block, raises in either precision: complex64 rows are held to
    `NORM_DRIFT_LIMIT_SINGLE`."""
    config = RunConfig(kind="heating-eps", out_dir="x", num_spins=6, pulses_per_block=12,
                       kick_plus=8, kick_minus=4, tau=0.05, max_cycles=256, eps_grid=(0.3,))
    spec = dataclasses.replace(config.spec(), gamma_y=math.pi + 0.3)
    system = FullSystem(config, *config.validate())
    props = system.factory(spec, (spec.slots_per_block,), dtype).block_set(spec.gamma_y)
    (power, *_), = props.steps[1]  # W^b of a + block's one step
    for block in power.blocks.values():
        block *= 1 + 1e-3
    with pytest.raises(NumericalIntegrityError, match="norm drift"):
        measure_rate(system, props, config, "0", seed=5)
