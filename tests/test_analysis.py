import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rondeau.analysis import (InsufficientDataError, digitize, dft_micromotion,
                              dft_stroboscopic, fit_power_law, half_frequency_contrast,
                              lifetime, phase_diagram, symbol_dft)
from rondeau.dephasing import DephasingParams, model_signal
from rondeau.evolution import SignalTrace
from rondeau.sequences import MonopoleSpec, SymbolStream, sample_rmd

from conftest import half_period
from oracles import pi_shift_mirror


def strobo_trace(values, block_duration=1.0):
    """Trace of purely stroboscopic samples at t = 0, T, 2T, ..."""
    values = np.asarray(values, dtype=float)
    return SignalTrace(times=block_duration * np.arange(values.size), values=values, slots=(13,),
                       block_duration=block_duration, slots_per_block=13)


def model_trace(stream, spec, epsilon=0.0, gamma_0=0.0, **kwargs):
    params = DephasingParams(spec=dataclasses.replace(spec, gamma_y=math.pi + epsilon),
                             slots=half_period(spec), gamma_0=gamma_0)
    return model_signal(stream, params, **kwargs)


class TestSymbolDft:
    def test_constant_stream_is_dc_line(self):
        spectrum = symbol_dft(SymbolStream.from_text("++++"))
        assert np.allclose(spectrum.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_alternating_stream_peaks_at_pi(self):
        spectrum = symbol_dft(SymbolStream.from_text("+-+-"))
        assert spectrum.omegas[2] == pytest.approx(math.pi)
        assert np.allclose(spectrum.amplitudes, [0.0, 0.0, 1.0, 0.0], atol=1e-15)

    def test_mirror_symmetry_of_real_sequences(self):
        spectrum = symbol_dft(sample_rmd(1, 64, seed=8))
        amps = spectrum.amplitudes
        assert np.allclose(amps[1:], amps[1:][::-1], atol=1e-12)

    def test_empty_stream_rejected(self):
        with pytest.raises(InsufficientDataError):
            symbol_dft(SymbolStream.from_text(""))


class TestMicromotionDft:
    def test_alternating_signs_peak_at_pi(self, short_spec):
        # an all-plus drive flips sign every cycle at the half-period samples
        trace = model_trace(SymbolStream.from_text("+" * 8), short_spec)
        spectrum = dft_micromotion(trace)
        assert spectrum.amplitudes[4] == pytest.approx(1.0)
        assert np.allclose(np.delete(spectrum.amplitudes, 4), 0.0, atol=1e-15)

    def test_constant_signs_give_dc_line(self, short_spec):
        # alternating drive symbols cancel the (-1)^cycle factor exactly
        trace = model_trace(SymbolStream.from_text("+-" * 4), short_spec)
        spectrum = dft_micromotion(trace)
        assert spectrum.amplitudes[0] == pytest.approx(1.0)

    def test_requires_enough_cycles(self, short_spec):
        trace = model_trace(SymbolStream.from_text("+-+"), short_spec)
        with pytest.raises(InsufficientDataError):
            dft_micromotion(trace)

    def test_digitize_tie_break(self):
        assert list(digitize(np.array([-0.5, 0.0, 0.5]))) == [-1.0, 1.0, 1.0]


class TestStroboscopicDft:
    def test_period_doubled_signal_single_line(self, short_spec):
        trace = model_trace(sample_rmd(0, 8, seed=1), short_spec)
        spectrum = dft_stroboscopic(trace)
        assert spectrum.amplitudes[4] == pytest.approx(1.0)

    def test_constant_signal_dc_line(self):
        trace = strobo_trace(np.ones(9))
        spectrum = dft_stroboscopic(trace)
        assert spectrum.amplitudes[0] == pytest.approx(1.0)
        assert np.allclose(spectrum.amplitudes[1:], 0.0, atol=1e-15)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_parseval_both_kinds(self, seed):
        from rondeau.analysis import half_period_samples, stroboscopic_samples

        spec = MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05)
        stream = sample_rmd(0, 16, seed=seed)
        trace = model_trace(stream, spec, epsilon=0.05, gamma_0=0.02)
        m = 16
        strobo = stroboscopic_samples(trace)[1][:m]
        micro = digitize(half_period_samples(trace))
        for spectrum, samples in (
            (dft_stroboscopic(trace), strobo),
            (dft_micromotion(trace), micro),
        ):
            total = np.sum(spectrum.amplitudes**2)
            assert total == pytest.approx(np.sum(np.abs(samples) ** 2) / m)


class TestPiShiftMirror:
    def test_exact_for_perfect_kicks(self, short_spec):
        stream = sample_rmd(2, 32, seed=13)
        trace = model_trace(stream, short_spec)
        micro = dft_micromotion(trace).amplitudes
        mirrored = pi_shift_mirror(symbol_dft(stream).amplitudes)
        assert np.abs(micro - mirrored).max() < 1e-12

    def test_requires_even_grid(self):
        with pytest.raises(ValueError):
            pi_shift_mirror(np.ones(7))


class TestLifetime:
    def test_argmin_example(self):
        trace = strobo_trace([1.0, 0.5, 0.3, 0.2])
        fit = lifetime(trace)
        assert fit.lifetime == pytest.approx(2.0)
        assert fit.rate == pytest.approx(0.5)

    def test_dense_exponential_recovers_rate(self):
        times_rate = 0.37
        values = np.exp(-times_rate * 0.05 * np.arange(400))
        trace = strobo_trace(values, block_duration=0.05)
        fit = lifetime(trace)
        assert abs(fit.lifetime - 1.0 / times_rate) <= 0.05

    def test_zero_initial_sample_rejected(self):
        with pytest.raises(ValueError):
            lifetime(strobo_trace([0.0, 0.1, 0.2]))

    def test_tie_breaks_toward_earlier(self):
        target = 1.0 / math.e
        trace = strobo_trace([1.0, target + 0.1, target - 0.1, target + 0.1])
        assert lifetime(trace).lifetime == pytest.approx(1.0)

    def test_first_crossing_variant(self):
        values = [1.0, 0.5, 0.36, 0.6, 0.2]
        assert lifetime(strobo_trace(values)).lifetime == pytest.approx(2.0)
        # an envelope that dips early and recovers: the sample nearest 1/e
        # wins, not the first one below it (at 1.0)
        bumpy = [1.0, 0.2, 0.5, 0.37, 0.2]
        assert lifetime(strobo_trace(bumpy)).lifetime == pytest.approx(3.0)

    def test_crossed_flag(self):
        fit = lifetime(strobo_trace([1.0, 0.9, 0.8]))
        assert not fit.crossed


class TestFitPowerLaw:
    def test_exact_square_law(self):
        xs = np.linspace(1.0, 5.0, 7)
        fit = fit_power_law(xs, xs**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-10)

    def test_prefactor_free_slope(self):
        xs = np.array([1.0, 2.0, 4.0])
        fit = fit_power_law(xs, 3.0 * xs)
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0)

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 2.0])


class TestPhaseDiagram:
    def build_rows(self, spec, gammas, cycles=16):
        """Per angle, the mean stroboscopic |DFT|**2 of two drive realizations."""
        return [np.mean([dft_stroboscopic(model_trace(sample_rmd(0, cycles, seed=10 * i + r),
                                                      spec, epsilon=gamma - math.pi)
                                          ).amplitudes**2 for r in range(2)], axis=0)
                for i, gamma in enumerate(gammas)]

    def test_perfect_kick_column_peaks_at_half_frequency(self, short_spec):
        diagram = phase_diagram([math.pi], self.build_rows(short_spec, [math.pi]),
                                short_spec.block_duration)
        row = diagram.intensity[0]
        peak_index = int(np.argmax(row))
        assert diagram.nu_grid[peak_index] == pytest.approx(
            math.pi / short_spec.block_duration)

    def test_row_normalization(self, short_spec):
        gammas = [math.pi, 0.9 * math.pi]
        rows = self.build_rows(short_spec, gammas)
        diagram = phase_diagram(gammas, rows, short_spec.block_duration, realizations=2)
        assert diagram.intensity.shape == (2, 16)
        assert np.allclose(diagram.intensity.max(axis=1), 1.0)
        # rows follow their angles into ascending order
        assert diagram.gamma_grid.tolist() == [0.9 * math.pi, math.pi]
        assert np.array_equal(diagram.intensity[1], rows[0] / rows[0].max())
        assert diagram.realizations == 2

    def test_global_normalization(self, short_spec):
        gammas = [0.9 * math.pi, math.pi]
        diagram = phase_diagram(gammas, self.build_rows(short_spec, gammas),
                                short_spec.block_duration, normalization="global")
        assert diagram.intensity.max() == pytest.approx(1.0)

    def test_inconsistent_traces_rejected(self, short_spec):
        rows = [*self.build_rows(short_spec, [math.pi], cycles=16),
                *self.build_rows(short_spec, [0.9 * math.pi], cycles=32)]
        with pytest.raises(ValueError):
            phase_diagram([math.pi, 0.9 * math.pi], rows, short_spec.block_duration)

    def test_contrast_metric(self):
        row = np.full(120, 0.01)
        row[60] = 1.0
        assert half_frequency_contrast(row) == pytest.approx(100.0)
