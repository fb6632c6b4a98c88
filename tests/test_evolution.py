import math

import numpy as np
import pytest
from scipy.linalg import expm

from rondeau.analysis import dft_micromotion, half_period_samples, stroboscopic_samples
from rondeau.dephasing import DephasingParams, model_signal
from rondeau.evolution import (BlockPropagatorFactory, NumericalIntegrityError,
                               PulseProgram, apply_gates, evolve, evolve_blockwise,
                               free_propagator, half_sample_slot, initial_state,
                               rotation_gate, total_ix)
from rondeau.sequences import MonopoleSpec, SymbolStream, sample_rmd
from rondeau.spins import build_hamiltonian, compute_couplings, generate_graph

from oracles import (dense_free, dense_free_propagator, global_rotation_matrix,
                     total_iz_matrix, zero_hamiltonian)


def stream_of(text):
    return SymbolStream.from_text(text)


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
        trace = evolve(PulseProgram(stream, short_spec), h0, psi0)
        times, values = stroboscopic_samples(trace)
        expected = values[0] * (-1.0) ** np.arange(13)
        assert np.abs(values - expected).max() < 1e-12

    def test_half_period_signs_follow_kick_position(self):
        # the - block kicks before the half sample, the + block after it; the
        # second layout puts the + kick directly after the half-period slot
        h0 = zero_hamiltonian(3)
        psi0 = initial_state(3)
        stream = sample_rmd(0, 64, seed=14)
        expected = total_ix(psi0, 3) * (-1.0) ** np.arange(64) * stream.symbols
        for kick_plus in (8, 6):
            spec = MonopoleSpec(pulses_per_block=12, kick_plus=kick_plus, kick_minus=4,
                                tau=0.05)
            trace = evolve(PulseProgram(stream, spec), h0, psi0)
            assert np.allclose(half_period_samples(trace), expected, atol=1e-12)

    def test_dephasing_model_equivalence_is_exact(self):
        """One sample-time rule: the three engines agree bit for bit on every shared time.

        30 pulses of tau = 0.05 over 16 cycles: the slot sum misses a block
        end (l + 1) T by an ulp in several cycles.
        """
        spec = MonopoleSpec(pulses_per_block=30, kick_plus=20, kick_minus=10, tau=0.05)
        h0 = zero_hamiltonian(4)
        psi0 = initial_state(4)
        stream = sample_rmd(0, 16, seed=5)
        trace = evolve(PulseProgram(stream, spec), h0, psi0)
        params = DephasingParams(spec=spec, epsilon=0.0, gamma_0=0.0)
        model = model_signal(stream, params, amplitude=total_ix(psi0, 4))
        assert np.array_equal(model.times, trace.times)
        assert np.abs(model.values - trace.values).max() < 1e-12
        props = BlockPropagatorFactory(h0, spec).block_set()
        block = evolve_blockwise(stream, props, psi0)
        by_slot = dict(zip(zip(trace.cycle_index, trace.pulse_index), trace.times))
        shared = [by_slot[key] for key in zip(block.cycle_index, block.pulse_index)]
        assert np.array_equal(shared, block.times)
        for t in (trace, model, block):
            ends = t.pulse_index == spec.slots_per_block
            assert np.array_equal(t.times[ends], (t.cycle_index[ends] + 1) * spec.block_duration)
            assert ends.sum() == 16


class TestEvolveEngine:
    def test_norm_preserved_over_many_pulses(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        stream = sample_rmd(0, 64, seed=9)
        program = PulseProgram(stream, short_spec)
        trace = evolve(program, hamiltonian, psi0)
        assert len(trace) == program.num_pulses + 1

    def test_norm_check_catches_bad_state(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        program = PulseProgram(sample_rmd(0, 2, seed=1), short_spec)
        with pytest.raises(NumericalIntegrityError):
            evolve(program, hamiltonian, 1.5 * psi0)

    def test_readout_noise_reproducible(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        program = PulseProgram(sample_rmd(0, 2, seed=1), short_spec)
        a = evolve(program, hamiltonian, psi0).with_noise(0.1, 7)
        b = evolve(program, hamiltonian, psi0).with_noise(0.1, 7)
        assert np.array_equal(a.values, b.values)

    def test_angle_disorder_reproducible_and_small(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        program = PulseProgram(sample_rmd(0, 4, seed=1), short_spec)
        base = evolve(program, hamiltonian, psi0)
        a = evolve(program, hamiltonian, psi0, angle_spread=0.018, disorder_seed=3)
        b = evolve(program, hamiltonian, psi0, angle_spread=0.018, disorder_seed=3)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, base.values)
        # 1.8% inhomogeneity perturbs the trace only weakly
        assert np.abs(a.values - base.values).max() < 0.05 * abs(base.values[0])

    def test_empty_stream_gives_the_pre_drive_sample(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        program = PulseProgram(stream_of(""), short_spec)
        assert program.num_pulses == 0
        trace = evolve(program, hamiltonian, psi0)
        assert len(trace) == 1 and trace.num_cycles == 0
        assert trace.values[0] == total_ix(psi0, hamiltonian.num_spins)

    def test_both_engines_reject_a_state_of_the_wrong_dimension(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        stream = sample_rmd(0, 2, seed=1)
        short = psi0[:-1]
        with pytest.raises(ValueError, match="state dimension"):
            evolve(PulseProgram(stream, short_spec), hamiltonian, short)
        props = BlockPropagatorFactory(hamiltonian, short_spec).block_set()
        with pytest.raises(ValueError, match="state dimension"):
            evolve_blockwise(stream, props, short)

    def test_trace_timing_layout(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        program = PulseProgram(sample_rmd(0, 3, seed=4), short_spec)
        trace = evolve(program, hamiltonian, psi0)
        assert trace.times[0] == 0.0
        assert trace.pulse_index[0] == 0
        slots = short_spec.slots_per_block
        assert trace.times[slots] == pytest.approx(short_spec.block_duration)
        assert trace.pulse_index[slots] == slots
        assert trace.cycle_index[slots] == 0
        assert trace.cycle_index[slots + 1] == 1


def dense_evolve_values(program: PulseProgram, hamiltonian, psi0) -> np.ndarray:
    """Reference per-pulse readout: each pulse's gate layer, then the dense free propagator.

    Places each block's kick itself: ``kick_plus`` (``kick_minus``) x pulses,
    the y-kick, then x pulses to the block's end.
    """
    spec, n = program.spec, hamiltonian.num_spins
    u_free = dense_free_propagator(hamiltonian, spec.tau)
    x, y = rotation_gate("x", spec.theta_x), rotation_gate("y", spec.gamma_y)
    psi, values = psi0, [total_ix(psi0, n)]
    for sym in program.stream.symbols:
        kick = spec.kick_plus if sym > 0 else spec.kick_minus
        for i in range(spec.slots_per_block):
            psi = u_free @ apply_gates(psi, y if i == kick else x, n)
            values.append(total_ix(psi, n))
    return np.array(values)


class TestSectorFreeEvolution:
    """Free evolution runs per total-Iz sector; the dense eigh of the whole matrix is the gate."""

    @pytest.fixture(params=[(3, 2), (5, 0), (8, 4)], ids=lambda p: f"n{p[0]}-graph{p[1]}")
    def hamiltonian(self, request):
        num_spins, seed = request.param
        return build_hamiltonian(compute_couplings(generate_graph(num_spins, seed=seed)))

    def test_trace_matches_dense_engine(self, hamiltonian):
        spec = MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05,
                            gamma_y=0.97 * math.pi)
        program = PulseProgram(sample_rmd(1, 4, seed=3), spec)
        psi0 = initial_state(hamiltonian.num_spins)
        trace = evolve(program, hamiltonian, psi0)
        assert np.abs(trace.values - dense_evolve_values(program, hamiltonian, psi0)).max() < 1e-10

    def test_decayed_initial_state_matches_dense(self, hamiltonian):
        n = hamiltonian.num_spins
        decayed = initial_state(n, hamiltonian, decay_time=0.3)
        reference = dense_free_propagator(hamiltonian, 0.3) @ initial_state(n)
        assert np.abs(decayed - reference).max() < 1e-10

    def test_assembled_u_free_has_no_entry_between_sectors(self, hamiltonian):
        n = hamiltonian.num_spins
        blocks = free_propagator(hamiltonian, 0.05)
        assert [idx.size for idx, _ in blocks] == [math.comb(n, k) for k in range(n + 1)]
        u_free = dense_free(blocks, 2**n)
        iz = total_iz_matrix(n)
        assert np.all(u_free[iz[:, None] != iz[None, :]] == 0)
        assert np.abs(u_free - dense_free_propagator(hamiltonian, 0.05)).max() < 1e-12


def blockwise_deviation(hamiltonian, psi0, spec, include_half=True) -> float:
    """Largest gap between the blockwise and the per-pulse trace at their shared samples."""
    stream = sample_rmd(1, 8, seed=3)
    full = evolve(PulseProgram(stream, spec), hamiltonian, psi0)
    props = BlockPropagatorFactory(hamiltonian, spec, include_half).block_set()
    block = evolve_blockwise(stream, props, psi0)
    by_slot = dict(zip(zip(full.cycle_index, full.pulse_index), full.values))
    at_shared = [by_slot[key] for key in zip(block.cycle_index, block.pulse_index)]
    return float(np.abs(at_shared - block.values).max())


class TestBlockwiseEngine:
    def test_matches_per_pulse_engine(self, small_system):
        _, _, hamiltonian, psi0 = small_system
        spec = MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4,
                            tau=0.05, gamma_y=0.97 * math.pi)
        assert blockwise_deviation(hamiltonian, psi0, spec) < 1e-10

    @pytest.mark.parametrize("include_half", [True, False])
    def test_matches_per_pulse_engine_with_the_kick_at_the_half_slot(self, small_system,
                                                                      include_half):
        """kick_plus == half slot: the + block's first step is A · G(W^0), B the identity."""
        _, _, hamiltonian, psi0 = small_system
        spec = MonopoleSpec(pulses_per_block=12, kick_plus=6, kick_minus=4,
                            tau=0.05, gamma_y=1.03 * math.pi)
        assert half_sample_slot(spec) == spec.kick_plus
        assert blockwise_deviation(hamiltonian, psi0, spec, include_half) < 1e-10

    def test_strobo_only_mode(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        stream = sample_rmd(0, 6, seed=8)
        props = BlockPropagatorFactory(hamiltonian, short_spec, include_half=False).block_set()
        trace = evolve_blockwise(stream, props, psi0)
        assert len(trace) == 7
        assert np.allclose(np.diff(trace.times), short_spec.block_duration)

    def test_micromotion_of_a_strobo_only_trace_rejected(self, small_system, short_spec):
        _, _, hamiltonian, psi0 = small_system
        props = BlockPropagatorFactory(hamiltonian, short_spec, include_half=False).block_set()
        trace = evolve_blockwise(sample_rmd(0, 8, seed=8), props, psi0)
        with pytest.raises(ValueError, match=r"slot 6 sample in cycles \[0, 1, 2, 3, 4, 5, 6, 7\]"):
            dft_micromotion(trace)

    def test_block_propagators_unitary(self, small_system, short_spec):
        _, _, hamiltonian, _ = small_system
        factory = BlockPropagatorFactory(hamiltonian, short_spec, include_half=False)
        props = factory.block_set(0.95 * math.pi)
        for sign in (1, -1):
            (_, u), = props.steps[sign]
            deviation = u.conj().T @ u - np.eye(u.shape[0])
            assert np.abs(deviation).max() < 1e-10

    def test_block_set_only_in_the_factorys_readout_mode(self, small_system, short_spec):
        _, _, hamiltonian, _ = small_system
        factory = BlockPropagatorFactory(hamiltonian, short_spec, include_half=False)
        assert factory.block_set().steps.keys() == {1, -1}
        with pytest.raises(ValueError, match="include_half"):
            factory.block_set(include_half=True)

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
        # pure spin-lock train: one 200-pulse block whose kick is the identity (gamma_y = 0)
        _, _, hamiltonian, psi0 = small_system
        losses = []
        for tau in (0.02, 0.05, 0.1):
            spec = MonopoleSpec(pulses_per_block=199, kick_plus=150, kick_minus=50,
                                tau=tau, gamma_y=0.0)
            trace = evolve(PulseProgram(stream_of("+"), spec), hamiltonian, psi0)
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
                props = BlockPropagatorFactory(hamiltonian, spec, include_half=False).block_set()
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
