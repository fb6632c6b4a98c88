import math

import numpy as np
import pytest
from scipy.linalg import expm

from rondeau.analysis import half_period_samples, samples_nearest, stroboscopic_samples
from rondeau.dephasing import DephasingParams, model_signal
from rondeau.evolution import (BlockPropagatorFactory, NumericalIntegrityError,
                               PulseProgram, X_PULSE, Y_PULSE, compile_program,
                               evolve, evolve_blockwise, global_rotation_matrix,
                               half_sample_slot, initial_state, total_ix)
from rondeau.sequences import MonopoleSpec, SymbolStream, sample_rmd
from rondeau.spins import zero_hamiltonian


def stream_of(text):
    return SymbolStream.from_text(text)


class TestCompileProgram:
    def test_single_plus_block_layout(self):
        spec = MonopoleSpec(pulses_per_block=300, kick_plus=200, kick_minus=100,
                            tau=1.0)
        program = compile_program(stream_of("+"), spec)
        assert program.num_pulses == 301
        kinds = program.kinds
        assert (kinds == Y_PULSE).sum() == 1
        assert kinds[200] == Y_PULSE            # 200 spin-lock pulses, kick, 100 more
        assert (kinds[:200] == X_PULSE).all()
        assert (kinds[201:] == X_PULSE).all()

    def test_blocks_share_duration(self, short_spec):
        program = compile_program(stream_of("+-"), short_spec)
        slots = short_spec.slots_per_block
        assert program.num_pulses == 2 * slots
        # one kick per block, at sign-dependent positions
        assert program.kinds[short_spec.kick_plus] == Y_PULSE
        assert program.kinds[slots + short_spec.kick_minus] == Y_PULSE

    def test_empty_stream(self, short_spec):
        program = compile_program(stream_of(""), short_spec)
        assert program.num_pulses == 0


class TestInitialState:
    def test_product_state_polarization(self):
        psi = initial_state(4)
        assert total_ix(psi, 4) == pytest.approx(2.0)

    def test_transverse_components_vanish(self):
        psi = initial_state(3)
        # <Iy> and <Iz> via explicit small operators
        dim = 8
        sy = np.array([[0, -1j], [1j, 0]]) / 2
        sz = np.diag([0.5, -0.5])
        for op in (sy, sz):
            total = sum(
                np.kron(np.kron(np.eye(2**k), op), np.eye(2**(2 - k)))
                for k in range(3)
            )
            assert abs(np.vdot(psi, total @ psi)) < 1e-12

    def test_decay_time_reduces_polarization(self, small_system):
        _, _, hamiltonian, _ = small_system
        fresh = initial_state(6, hamiltonian, decay_time=0.0)
        decayed = initial_state(6, hamiltonian, decay_time=0.5)
        assert total_ix(decayed, 6) < total_ix(fresh, 6)


class TestRotationFactorization:
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("num_spins", [1, 2, 4])
    def test_matches_dense_exponential(self, axis, num_spins):
        angle = 0.8317
        op = np.array([[0, 1], [1, 0]], dtype=complex) / 2
        if axis == "y":
            op = np.array([[0, -1j], [1j, 0]]) / 2
        total = sum(
            np.kron(np.kron(np.eye(2**k), op), np.eye(2**(num_spins - 1 - k)))
            for k in range(num_spins)
        )
        dense = expm(-1j * angle * total)
        factored = global_rotation_matrix(axis, angle, num_spins)
        assert np.abs(dense - factored).max() < 1e-10


class TestNonInteractingLimits:
    def test_perfect_kicks_give_exact_period_doubling(self, short_spec):
        h0 = zero_hamiltonian(4)
        psi0 = initial_state(4)
        stream = sample_rmd(0, 12, seed=2)
        trace = evolve(compile_program(stream, short_spec), h0, psi0)
        times, values = stroboscopic_samples(trace)
        expected = values[0] * (-1.0) ** np.arange(13)
        assert np.abs(values - expected).max() < 1e-12

    def test_half_period_signs_follow_kick_position(self, short_spec):
        # kick before/after the half sample per block sign: all samples +S0
        h0 = zero_hamiltonian(3)
        psi0 = initial_state(3)
        trace = evolve(compile_program(stream_of("+-+"), short_spec), h0, psi0)
        half = half_period_samples(trace)
        assert np.allclose(half, total_ix(psi0, 3), atol=1e-12)

    def test_dephasing_model_equivalence_is_exact(self, short_spec):
        h0 = zero_hamiltonian(4)
        psi0 = initial_state(4)
        stream = sample_rmd(0, 8, seed=5)
        trace = evolve(compile_program(stream, short_spec), h0, psi0)
        params = DephasingParams(spec=short_spec, epsilon=0.0, gamma_0=0.0)
        model = model_signal(stream, params, amplitude=total_ix(psi0, 4))
        assert np.allclose(model.times, trace.times)
        assert np.abs(model.values - trace.values).max() < 1e-12


class TestEvolveEngine:
    def test_norm_preserved_over_many_pulses(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        stream = sample_rmd(0, 64, seed=9)
        program = compile_program(stream, short_spec)
        trace = evolve(program, hamiltonian, psi0)
        assert len(trace) == program.num_pulses + 1

    def test_norm_check_catches_bad_state(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        program = compile_program(sample_rmd(0, 2, seed=1), short_spec)
        with pytest.raises(NumericalIntegrityError):
            evolve(program, hamiltonian, 1.5 * psi0, norm_check_every=4)

    def test_readout_noise_reproducible(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        program = compile_program(sample_rmd(0, 2, seed=1), short_spec)
        a = evolve(program, hamiltonian, psi0, readout_noise=0.1, noise_seed=7)
        b = evolve(program, hamiltonian, psi0, readout_noise=0.1, noise_seed=7)
        assert np.array_equal(a.values, b.values)

    def test_angle_disorder_reproducible_and_small(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        program = compile_program(sample_rmd(0, 4, seed=1), short_spec)
        base = evolve(program, hamiltonian, psi0)
        a = evolve(program, hamiltonian, psi0, angle_spread=0.018, disorder_seed=3)
        b = evolve(program, hamiltonian, psi0, angle_spread=0.018, disorder_seed=3)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, base.values)
        # 1.8% inhomogeneity perturbs the trace only weakly
        assert np.abs(a.values - base.values).max() < 0.05 * abs(base.values[0])

    def test_trace_timing_layout(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        program = compile_program(sample_rmd(0, 3, seed=4), short_spec)
        trace = evolve(program, hamiltonian, psi0)
        assert trace.times[0] == 0.0
        assert trace.pulse_index[0] == 0
        slots = short_spec.slots_per_block
        assert trace.times[slots] == pytest.approx(short_spec.block_duration)
        assert trace.pulse_index[slots] == slots
        assert trace.cycle_index[slots] == 0
        assert trace.cycle_index[slots + 1] == 1


class TestBlockwiseEngine:
    def test_matches_per_pulse_engine(self, small_system):
        _, _, hamiltonian, psi0 = small_system
        spec = MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4,
                            tau=0.05, gamma_y=0.97 * math.pi)
        stream = sample_rmd(1, 8, seed=3)
        full = evolve(compile_program(stream, spec), hamiltonian, psi0)
        props = BlockPropagatorFactory(hamiltonian, spec).block_set()
        block = evolve_blockwise(stream, props, psi0)
        at_shared = samples_nearest(full, block.times)
        assert np.abs(at_shared - block.values).max() < 1e-10

    def test_strobo_only_mode(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        stream = sample_rmd(0, 6, seed=8)
        props = BlockPropagatorFactory(hamiltonian, short_spec).block_set(include_half=False)
        trace = evolve_blockwise(stream, props, psi0)
        assert len(trace) == 7
        assert np.allclose(np.diff(trace.times), short_spec.block_duration)

    def test_block_propagators_unitary(self, small_system, short_spec):
        _, _, hamiltonian, _ = small_system
        factory = BlockPropagatorFactory(hamiltonian, short_spec)
        props = factory.block_set(0.95 * math.pi, include_half=False)
        for sign in (1, -1):
            (_, u), = props.steps[sign]
            deviation = u.conj().T @ u - np.eye(u.shape[0])
            assert np.abs(deviation).max() < 1e-10

    def test_half_slot_positions(self):
        assert half_sample_slot(MonopoleSpec(300, 200, 100)) == 150
        assert half_sample_slot(MonopoleSpec(15, 10, 5)) == 8

    def test_rejects_uninformative_kick_layout(self, small_system):
        _, _, hamiltonian, _ = small_system
        spec = MonopoleSpec(pulses_per_block=12, kick_plus=11, kick_minus=9,
                            tau=0.05)
        with pytest.raises(ValueError):
            BlockPropagatorFactory(hamiltonian, spec)


class TestSpinLockConservation:
    def test_polarization_leak_shrinks_with_tau(self, small_system):
        # pure spin-lock train: no kicks at all
        _, _, hamiltonian, psi0 = small_system
        losses = []
        for tau in (0.02, 0.05, 0.1):
            spec = MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4,
                                tau=tau)
            kinds = np.zeros(200, dtype=np.int8)
            program = PulseProgram(kinds=kinds, times=np.arange(200) * tau,
                                   spec=spec, stream=stream_of(""))
            trace = evolve(program, hamiltonian, psi0)
            losses.append(1.0 - trace.values[-1] / trace.values[0])
        assert losses[0] < losses[1] < losses[2]


class TestInitialStateIndependence:
    def test_normalized_traces_collapse(self):
        # pre-decayed initial states give the same dynamics up to the overall
        # amplitude; ensemble-averaged over graphs since a single small-system
        # free-induction decay rings through zero
        from rondeau.spins import build_hamiltonian, compute_couplings, generate_graph

        spec = MonopoleSpec(pulses_per_block=30, kick_plus=20, kick_minus=10,
                            tau=0.02, gamma_y=math.pi)
        stream = sample_rmd(0, 16, seed=6)
        hamiltonians = [
            build_hamiltonian(compute_couplings(generate_graph(8, seed=s), 1.0))
            for s in range(10)
        ]
        curves = []
        for decay_time in (0.0, 0.05, 0.1):
            traces = []
            for hamiltonian in hamiltonians:
                psi0 = initial_state(8, hamiltonian, decay_time=decay_time)
                props = BlockPropagatorFactory(hamiltonian, spec).block_set(
                    include_half=False)
                trace = evolve_blockwise(stream, props, psi0)
                _, values = stroboscopic_samples(trace)
                traces.append(values)
            mean = np.mean(traces, axis=0)
            curves.append(mean / mean[0])
        reference = curves[0]
        for other in curves[1:]:
            assert np.abs(other - reference).max() < 0.05


class TestRondeauPhenomenology:
    def test_long_lived_order_with_disordered_micromotion(self, small_system):
        # stroboscopic period doubling survives while half-period signs
        # inherit the randomness of the drive
        _, _, hamiltonian, psi0 = small_system
        spec = MonopoleSpec(pulses_per_block=30, kick_plus=20, kick_minus=10,
                            tau=0.02, gamma_y=0.98 * math.pi)
        stream = sample_rmd(0, 40, seed=12)
        props = BlockPropagatorFactory(hamiltonian, spec).block_set()
        trace = evolve_blockwise(stream, props, psi0)
        _, values = stroboscopic_samples(trace)
        signs = np.sign(values)
        assert np.array_equal(signs, signs[0] * (-1.0) ** np.arange(values.size))
        assert np.abs(values[-1]) > 0.5 * np.abs(values[0])
        half = half_period_samples(trace)
        expected = np.sign(values[0]) * (-1.0) ** np.arange(40) * stream.symbols
        assert np.array_equal(np.sign(half), expected)
