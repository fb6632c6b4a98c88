import dataclasses
import math

import numpy as np
import pytest

from rondeau.analysis import (dft_micromotion, fit_power_law, half_period_samples,
                              stroboscopic_samples, symbol_dft)
from rondeau.dephasing import DephasingParams, model_signal
from rondeau.evolution import SignalTrace
from rondeau.sequences import MonopoleSpec, SymbolStream, sample_rmd, thue_morse_stream

from conftest import every_slot
from oracles import pi_shift_mirror, predicted_rate


def params_for(spec, epsilon=0.0, **kwargs):
    """Model parameters read at every slot, with the kick deviation ``epsilon`` set
    through ``spec.gamma_y``."""
    return DephasingParams(spec=dataclasses.replace(spec, gamma_y=math.pi + epsilon),
                           slots=every_slot(spec), **kwargs)


def swept_params(spec, period, offset=0.0, slope=0.0):
    """Parameters at block duration ``period`` with epsilon = offset + slope * period."""
    epsilon = offset + slope * period
    return params_for(dataclasses.replace(spec, tau=period / spec.slots_per_block),
                      epsilon=epsilon)


class TestModelSignal:
    def test_sign_algebra_for_perfect_kicks(self, short_spec):
        stream = SymbolStream.from_text("+-+")
        trace = model_signal(stream, params_for(short_spec))
        _, strobo = stroboscopic_samples(trace)
        assert np.allclose(strobo, [1.0, -1.0, 1.0, -1.0])
        assert np.allclose(half_period_samples(trace), [1.0, 1.0, 1.0])

    def test_pure_intrinsic_decay(self, short_spec):
        stream = SymbolStream.from_text("+" * 6)
        trace = model_signal(stream, params_for(short_spec, gamma_0=0.3))
        times, strobo = stroboscopic_samples(trace)
        assert np.allclose(np.abs(strobo), np.exp(-0.3 * times))

    def test_kick_factor_accumulates(self, short_spec):
        eps = 0.2
        stream = SymbolStream.from_text("++++")
        trace = model_signal(stream, params_for(short_spec, epsilon=eps))
        _, strobo = stroboscopic_samples(trace)
        assert np.allclose(strobo, (-math.cos(eps)) ** np.arange(5))

    def test_envelope_depends_only_on_length(self, short_spec):
        # stroboscopic envelope counts kicks, never which block delivered them
        p = params_for(short_spec, epsilon=0.11, gamma_0=0.05)
        a = model_signal(sample_rmd(0, 16, seed=1), p)
        b = model_signal(thue_morse_stream(16), p)
        _, sa = stroboscopic_samples(a)
        _, sb = stroboscopic_samples(b)
        assert np.allclose(sa, sb)

    def test_readout_slots_pick_samples_of_the_every_slot_trace(self, short_spec):
        stream = sample_rmd(1, 8, seed=2)
        params = params_for(short_spec, epsilon=0.1, gamma_0=0.05)
        every = model_signal(stream, params)
        read = model_signal(stream, dataclasses.replace(params, slots=(3, 6, 13)))
        keep = np.isin(SignalTrace.slot_layout(every.slots, 8)[1], (0, 3, 6, 13))
        for name in ("times", "values"):
            assert np.array_equal(getattr(read, name), getattr(every, name)[keep])
        assert read.slots == (3, 6, 13)
        assert read.num_cycles == every.num_cycles == 8
        for slot in read.slots:
            assert np.array_equal(read.slot_values(slot), every.slot_values(slot))

    def test_empty_stream_gives_the_pre_drive_sample(self, short_spec):
        trace = model_signal(SymbolStream.from_text(""), params_for(short_spec, gamma_0=0.1))
        assert (trace.values.tolist(), trace.times.tolist(), trace.num_cycles) == ([1.0], [0.0], 0)

    def test_pi_shift_identity_exact(self, short_spec):
        stream = sample_rmd(2, 64, seed=9)
        trace = model_signal(stream, params_for(short_spec))
        micro = dft_micromotion(trace).amplitudes
        mirrored = pi_shift_mirror(symbol_dft(stream).amplitudes)
        assert np.abs(micro - mirrored).max() < 1e-12


class TestPredictedRate:
    def test_zero_deviation_returns_intrinsic(self, short_spec):
        assert predicted_rate(params_for(short_spec, gamma_0=0.07)) == 0.07

    def test_small_angle_value(self, short_spec):
        rate = predicted_rate(swept_params(short_spec, 1.0, offset=0.1))
        assert rate == pytest.approx(0.005)

    def test_calibration_offset_bends_curve_up(self, short_spec):
        periods = np.linspace(0.05, 4.0, 200)
        rates = np.array([predicted_rate(swept_params(short_spec, t, 0.02, 0.05))
                          for t in periods])
        interior = np.argmin(rates)
        assert 0 < interior < periods.size - 1
        assert rates[0] > rates[interior]
        assert rates[-1] > rates[interior]

    def test_unfolds_sweep_terms(self, short_spec):
        offset, slope, period = 0.03, 0.02, 2.5
        p = swept_params(short_spec, period, offset, slope)
        assert p.spec.block_duration == pytest.approx(period, rel=1e-15)
        expected = offset**2 / (2 * period) + slope * offset + slope**2 * period / 2
        assert predicted_rate(p) == pytest.approx(expected)

    def test_rejects_large_deviation(self, short_spec):
        with pytest.raises(ValueError):
            predicted_rate(params_for(short_spec, epsilon=2.0))


class TestExponentProperties:
    def test_epsilon_scaling_exactly_quadratic(self, short_spec):
        eps = np.geomspace(0.01, 0.3, 12)
        rates = np.array([
            predicted_rate(params_for(short_spec, epsilon=e, gamma_0=0.05)) - 0.05
            for e in eps
        ])
        fit = fit_power_law(eps, rates)
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.stderr < 1e-6

    def test_period_scaling_exactly_linear(self, short_spec):
        periods = np.geomspace(0.5, 5.0, 12)
        rates = np.array([predicted_rate(swept_params(short_spec, t, slope=0.04))
                          for t in periods])
        fit = fit_power_law(periods, rates)
        assert fit.exponent == pytest.approx(1.0, abs=1e-6)
        assert fit.stderr < 1e-6
