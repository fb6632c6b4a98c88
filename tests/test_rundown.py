"""The heating rundown is evolve_batch with an early stop, checked against a plain loop
in either precision, and a batch against its members stepped alone."""

import dataclasses
import math

import numpy as np
import pytest

import rondeau.runner as runner
from rondeau.analysis import lifetime
from rondeau.cli import _config_from_args, build_parser
from rondeau.evolution import NumericalIntegrityError, SignalTrace, _check_norm, parity_ix
from rondeau.runner import FullSystem, RunConfig, _block_set, derive_seed, make_stream, run

from conftest import realization_rate
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
    values = [parity_ix([rows], [signs])[0]]
    target = abs(values[0]) * stop_factor / math.e
    limit = min(max_cycles, symbols.size)
    for ell in range(limit):
        for factor in full[int(symbols[ell])]:
            rows, signs = factor(rows, signs)
        values.append(parity_ix([rows], [signs])[0])
        if (ell + 1) % 64 == 0:
            state = rows.astype(complex)  # summed in float64, as the stepper sums it
            _check_norm(np.vdot(state, state).real, rows.dtype, f"cycle {ell + 1}")
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
    batches = []
    rundown = runner.stroboscopic_rundown

    def recorded(*args, **kwargs):
        batches.append(rundown(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(runner, "stroboscopic_rundown", recorded)
    fit = realization_rate(system, props, config, order, seed=5)

    stream = make_stream(order, max_cycles, 5)
    expected = reference_rundown(stream.symbols, props, system.row0, max_cycles)
    (batch,) = batches
    (trace,) = batch.traces()
    assert trace.num_cycles == batch.num_cycles == expected.num_cycles
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
    fit = realization_rate(None, runner._block_set(None, config.plan(), spec), config, "2",
                           seed=5)
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

        def traced_rundown(members, *args, **kwargs):
            batch = rundown(members, *args, **kwargs)
            recorded.extend((props.dtype, trace)
                            for (_, props), trace in zip(batch.members, batch.traces()))
            return batch

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
        realization_rate(system, props, config, "0", seed=5)


@pytest.mark.parametrize("engine", ["full", "dephasing"])
@pytest.mark.parametrize("kind, overrides", [
    ("heating-eps", dict(num_spins=5, eps_grid=(0.05, 0.4, 0.8), max_cycles=128)),
    ("heating-period", dict(num_spins=4, tau_grid=(0.02, 0.1), sweep_slope=0.3,
                            max_cycles=100)),
])
def test_a_batch_steps_each_member_as_alone(engine, kind, overrides):
    """Every batch of the plan, in its order (the eps points that mix P together, in
    complex64, then the gamma = pi reference, which fuses the chains; each tau point
    alone, in complex128), holds 3 realizations of each of its points.  Each member's trace
    is bit for bit its trace stepped alone, a batch of one on the same (stream, block
    set), and the batch's cycles are its members' sum.  The members stop at many cycles,
    some never within ``max_cycles``."""
    config = RunConfig(kind=kind, out_dir="x", engine=engine, pulses_per_block=12,
                       kick_plus=8, kick_minus=4, tau=0.05, realizations=3, **overrides)
    plan = config.plan()
    system = FullSystem(config, *config.validate(plan)) if engine == "full" else None
    specs, stops = dict(plan.points), []
    for batch in plan.batches:
        props = {j: _block_set(system, plan, specs[j]) for j in batch}
        members = [(runner._rundown_stream(config, "0", derive_seed(1, j, r)), props[j])
                   for j in batch for r in range(3)]
        if system is None:
            together = list(runner._rundown_traces(None, members))
            alone = [t for m in members for t in runner._rundown_traces(None, [m])]
        else:
            assert all(p.dtype == plan.dtype for p in props.values())
            batched = runner.stroboscopic_rundown(members, system.row0)
            singles = [runner.stroboscopic_rundown([m], system.row0) for m in members]
            assert batched.num_cycles == sum(single.num_cycles for single in singles)
            together = list(batched.traces())
            alone = [t for single in singles for t in single.traces()]
        for a, b in zip(together, alone, strict=True):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.times, b.times)
            assert a.meta == b.meta
        stops += [t.num_cycles for t in together]
    if engine == "full":
        assert config.max_cycles in stops and min(stops) < config.max_cycles
        assert len(set(stops)) > len(plan.batches)
