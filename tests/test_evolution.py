import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from rondeau.analysis import dft_micromotion, half_period_samples, stroboscopic_samples
from rondeau.dephasing import DephasingParams, model_signal
from rondeau.evolution import (BlockPropagatorFactory, BlockPropagators, FreeStep, GateLayer,
                               NumericalIntegrityError, Power, PulseProgram, SignalTrace,
                               cycle_parity, evolve, evolve_blockwise, free_blocks,
                               half_sample_slot, initial_state, parity_ix, rotation_gate)
from rondeau.sequences import MonopoleSpec, SymbolStream, sample_rmd
from rondeau.spins import build_hamiltonian, compute_couplings, generate_graph

from conftest import block_end, every_slot, half_period
from oracles import (dense_free_propagator, dense_free_rows, dense_step, gates_by_spin,
                     global_rotation_matrix, join_rows, parity_rows, sector_cycle_parity,
                     sector_free_rows, sector_free_step, state_vector, total_iz_matrix,
                     total_ix, zero_hamiltonian)


def stream_of(text):
    return SymbolStream.from_text(text)


def rows(trace):
    """The (cycle, slot) of each sample of ``trace``."""
    return zip(*SignalTrace.slot_layout(trace.slots, trace.num_cycles))


class TestSignalTrace:
    def test_slot_values_are_the_samples_of_that_slot(self, short_spec):
        trace = SignalTrace.at_slots(short_spec, range(4, 14, 3), np.arange(1.0, 18.0), {})
        assert trace.slots == (4, 7, 10, 13) and trace.num_cycles == 4
        _, slot = SignalTrace.slot_layout(trace.slots, 4)
        for s in trace.slots:
            assert np.array_equal(trace.slot_values(s), trace.values[slot == s])
        assert trace.slot_values(13).tolist() == [5.0, 9.0, 13.0, 17.0]

    def test_slot_values_reject_a_slot_not_read(self, short_spec):
        trace = SignalTrace.at_slots(short_spec, (6, 13), np.ones(5), {})
        for slot in (0, 5, 14):
            with pytest.raises(ValueError, match=rf"reads slots \(6, 13\), not slot {slot}$"):
                trace.slot_values(slot)

    def test_pre_drive_sample_alone_is_no_cycle(self, short_spec):
        trace = SignalTrace.at_slots(short_spec, (13,), [2.0], {})
        assert (trace.num_cycles, trace.times.tolist()) == (0, [0.0])
        assert trace.slot_values(13).size == 0


class TestParityReadout:
    @pytest.mark.parametrize("num_spins", range(2, 13))
    @pytest.mark.parametrize("signs", [(1,), (-1,), (1, -1)])
    @pytest.mark.parametrize("layout", ["C", "reversed", "strided", "F"])
    def test_readout_matches_the_vector_oracle(self, num_spins, signs, layout):
        """Total Ix of parity rows equals that of the joined ψ, whatever the rows' memory
        layout: the readout's real view is of C-contiguous rows."""
        g = np.random.default_rng(num_spins)
        shape = (len(signs), 1 << (num_spins - 1))
        rows = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        expected = total_ix(join_rows(rows, signs), num_spins)
        wide = np.zeros((len(signs), 2 * shape[1]), dtype=complex)
        wide[:, ::2] = rows
        laid_out = {"C": rows, "reversed": rows[::-1, ::-1].copy()[::-1, ::-1],
                    "strided": wide[:, ::2], "F": np.asfortranarray(rows)}[layout]
        assert np.array_equal(laid_out, rows)
        assert abs(parity_ix([laid_out], [signs])[0] - expected) <= 1e-12 * abs(expected)


class TestMixingLayer:
    @pytest.mark.parametrize("num_spins", range(2, 10))
    @pytest.mark.parametrize("signs", [(1,), (-1,), (1, -1)])
    @pytest.mark.parametrize("gamma_y", [0.95 * math.pi, 2.0, math.pi])
    def test_row_space_layer_matches_the_layer_on_the_joined_state(self, num_spins, signs,
                                                                   gamma_y):
        """A mixing kick layer on the rows equals the n-spin layer on their joined ψ, split
        into rows again: one row of either sign or two, the gate at pi forced to mix."""
        spec = MonopoleSpec(gamma_y=gamma_y)
        gates = rotation_gate("x", spec.theta_x).conj().T @ rotation_gate("y", gamma_y)
        g = np.random.default_rng(num_spins)
        shape = (len(signs), 1 << (num_spins - 1))
        rows = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        rows /= np.linalg.norm(rows)
        out, out_signs = GateLayer(gates, num_spins, 0)(rows, signs)
        expected = parity_rows(gates_by_spin(join_rows(rows, signs), gates, num_spins))
        assert out_signs == (1, -1)
        assert np.abs(out - expected).max() < 1e-13


class TestInitialState:
    def test_row_is_the_p_plus_row_of_the_product_state(self):
        """Bit for bit (ψ₀[H₀] + ψ₀[F(H₀)]) / √2; at odd n 1 / √2^(n-1) is an ulp off it."""
        for n in range(2, 15):
            psi = np.full(2**n, 1 / math.sqrt(2**n), dtype=complex)
            assert np.array_equal(initial_state(n), parity_rows(psi)[0])

    def test_product_state_polarization(self):
        psi = state_vector(initial_state(4))
        assert total_ix(psi, 4) == pytest.approx(2.0)

    def test_transverse_components_vanish(self):
        psi = state_vector(initial_state(3))
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

    def test_decay_time_without_a_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="decay_time"):
            initial_state(4, decay_time=0.5)

    def test_decay_time_reduces_polarization(self, small_system):
        _, _, hamiltonian, _ = small_system
        fresh = initial_state(6, hamiltonian, decay_time=0.0)
        decayed = initial_state(6, hamiltonian, decay_time=0.5)
        assert total_ix(state_vector(decayed), 6) < total_ix(state_vector(fresh), 6)


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
        row0 = initial_state(4)
        stream = sample_rmd(0, 12, seed=2)
        trace = evolve(PulseProgram(stream, short_spec), h0, row0)
        times, values = stroboscopic_samples(trace)
        expected = values[0] * (-1.0) ** np.arange(13)
        assert np.abs(values - expected).max() < 1e-12

    def test_half_period_signs_follow_kick_position(self):
        # the - block kicks before the half sample, the + block after it; the
        # second layout puts the + kick directly after the half-period slot
        h0 = zero_hamiltonian(3)
        row0 = initial_state(3)
        stream = sample_rmd(0, 64, seed=14)
        expected = total_ix(state_vector(row0), 3) * (-1.0) ** np.arange(64) * stream.symbols
        for kick_plus in (8, 6):
            spec = MonopoleSpec(pulses_per_block=12, kick_plus=kick_plus, kick_minus=4,
                                tau=0.05)
            trace = evolve(PulseProgram(stream, spec), h0, row0)
            assert np.allclose(half_period_samples(trace), expected, atol=1e-12)

    def test_dephasing_model_equivalence_is_exact(self):
        """One sample-time rule: the three engines agree bit for bit on every shared time.

        30 pulses of tau = 0.05 over 16 cycles: the slot sum misses a block
        end (l + 1) T by an ulp in several cycles.
        """
        spec = MonopoleSpec(pulses_per_block=30, kick_plus=20, kick_minus=10, tau=0.05)
        h0 = zero_hamiltonian(4)
        row0 = initial_state(4)
        stream = sample_rmd(0, 16, seed=5)
        trace = evolve(PulseProgram(stream, spec), h0, row0)
        model = model_signal(stream, DephasingParams(spec=spec, slots=every_slot(spec)))
        model.values *= total_ix(state_vector(row0), 4)
        assert np.array_equal(model.times, trace.times)
        assert np.abs(model.values - trace.values).max() < 1e-12
        props = BlockPropagatorFactory(h0, spec, half_period(spec)).block_set()
        block = evolve_blockwise(stream, props, row0)
        by_slot = dict(zip(rows(trace), trace.times))
        assert np.array_equal([by_slot[key] for key in rows(block)], block.times)
        for t in (trace, model, block):
            cycle, slot = SignalTrace.slot_layout(t.slots, t.num_cycles)
            ends = slot == spec.slots_per_block
            assert np.array_equal(t.times[ends], (cycle[ends] + 1) * spec.block_duration)
            assert ends.sum() == 16


class TestEvolveEngine:
    def test_norm_preserved_over_many_pulses(self, small_system, short_spec):
        _, _, hamiltonian, row0 = small_system
        stream = sample_rmd(0, 64, seed=9)
        program = PulseProgram(stream, short_spec)
        trace = evolve(program, hamiltonian, row0)
        assert len(trace) == program.num_pulses + 1

    def test_norm_check_catches_bad_state(self, small_system, short_spec):
        _, _, hamiltonian, row0 = small_system
        program = PulseProgram(sample_rmd(0, 2, seed=1), short_spec)
        with pytest.raises(NumericalIntegrityError):
            evolve(program, hamiltonian, 1.5 * row0)

    def test_readout_noise_reproducible(self, small_system, short_spec):
        _, _, hamiltonian, row0 = small_system
        program = PulseProgram(sample_rmd(0, 2, seed=1), short_spec)
        a = evolve(program, hamiltonian, row0).with_noise(0.1, 7)
        b = evolve(program, hamiltonian, row0).with_noise(0.1, 7)
        assert np.array_equal(a.values, b.values)

    def test_empty_stream_gives_the_pre_drive_sample(self, small_system, short_spec):
        _, _, hamiltonian, row0 = small_system
        program = PulseProgram(stream_of(""), short_spec)
        assert program.num_pulses == 0
        trace = evolve(program, hamiltonian, row0)
        assert len(trace) == 1 and trace.num_cycles == 0
        # both engines read the same parity rows; on ψ the sum runs in another order
        props = BlockPropagatorFactory(hamiltonian, short_spec, block_end(short_spec)).block_set()
        assert trace.values[0] == evolve_blockwise(program.stream, props, row0).values[0]
        psi0 = state_vector(row0)
        assert trace.values[0] == pytest.approx(total_ix(psi0, hamiltonian.num_spins), rel=1e-15)

    def test_both_engines_reject_a_state_of_the_wrong_dimension(self, small_system, short_spec):
        _, _, hamiltonian, row0 = small_system
        stream = sample_rmd(0, 2, seed=1)
        short = row0[:-1]
        with pytest.raises(ValueError, match="state dimension"):
            evolve(PulseProgram(stream, short_spec), hamiltonian, short)
        props = BlockPropagatorFactory(hamiltonian, short_spec, half_period(short_spec)).block_set()
        with pytest.raises(ValueError, match="state dimension"):
            evolve_blockwise(stream, props, short)

    def test_trace_timing_layout(self, small_system, short_spec):
        _, _, hamiltonian, row0 = small_system
        program = PulseProgram(sample_rmd(0, 3, seed=4), short_spec)
        trace = evolve(program, hamiltonian, row0)
        assert trace.times[0] == 0.0
        slots = short_spec.slots_per_block
        assert trace.slots == tuple(range(1, slots + 1)) and trace.num_cycles == 3
        assert trace.times[slots] == pytest.approx(short_spec.block_duration)
        assert trace.times[slots + 1] == pytest.approx(short_spec.block_duration + short_spec.tau)


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
            psi = u_free @ gates_by_spin(psi, y if i == kick else x, n)
            values.append(total_ix(psi, n))
    return np.array(values)


class TestSectorFreeEvolution:
    """Free evolution runs per total-Iz sector; the dense eigh of the whole matrix is the gate."""

    # at n = 2 the half-up sector maps onto itself under the spin flip
    @pytest.fixture(params=[(2, 1), (3, 2), (5, 0), (8, 4)], ids=lambda p: f"n{p[0]}-graph{p[1]}")
    def hamiltonian(self, request):
        num_spins, seed = request.param
        return build_hamiltonian(compute_couplings(generate_graph(num_spins, seed=seed)))

    @pytest.mark.parametrize("gamma_y", [0.97 * math.pi, math.pi], ids=["0.97pi", "pi"])
    def test_trace_matches_dense_engine(self, hamiltonian, gamma_y):
        spec = MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05,
                            gamma_y=gamma_y)
        program = PulseProgram(sample_rmd(1, 4, seed=3), spec)
        row0 = initial_state(hamiltonian.num_spins)
        trace = evolve(program, hamiltonian, row0)
        reference = dense_evolve_values(program, hamiltonian, state_vector(row0))
        assert np.abs(trace.values - reference).max() < 1e-10

    def test_decayed_initial_state_matches_dense(self, hamiltonian):
        n = hamiltonian.num_spins
        decayed = state_vector(initial_state(n, hamiltonian, decay_time=0.3))
        reference = dense_free_propagator(hamiltonian, 0.3) @ state_vector(initial_state(n))
        assert np.abs(decayed - reference).max() < 1e-10

    def test_free_blocks_are_the_h0_rows_of_u_free_with_no_entry_between_sectors(self,
                                                                                  hamiltonian):
        n = hamiltonian.num_spins
        blocks = tuple(free_blocks(hamiltonian.eigensystem(), 0.05))
        # one block per mirror pair (k, n - k), k < n/2, on all of sector k's states, and at
        # even n one on the middle sector's states in H₀
        assert [block.shape for _, _, block in blocks] == [
            (math.comb(n, k) // (1 + (2 * k == n)), math.comb(n, k)) for k in range(n // 2 + 1)]
        rows_of = dense_free_rows(blocks, n)
        iz = total_iz_matrix(n)
        assert np.all(rows_of[iz[:2**(n - 1), None] != iz[None, :]] == 0)
        u_free = dense_free_propagator(hamiltonian, 0.05)
        assert np.abs(rows_of - u_free[:2**(n - 1)]).max() < 1e-12


class TestPairedFreeStep:
    """The free step applies one block per mirror pair of sectors to one gather of a row."""

    @pytest.mark.parametrize("num_spins", range(2, 11))
    @pytest.mark.parametrize("signs", [(1,), (-1,), (1, -1)])
    def test_matches_the_dense_free_propagator(self, num_spins, signs):
        hamiltonian = graph_system(num_spins)
        g = np.random.default_rng(num_spins)
        shape = (len(signs), 1 << (num_spins - 1))
        rows = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        rows /= np.linalg.norm(rows)
        out, out_signs = FreeStep(hamiltonian.eigensystem(), 0.05)(rows, signs)
        expected = dense_free_propagator(hamiltonian, 0.05) @ join_rows(rows, signs)
        assert out_signs == signs
        assert np.abs(join_rows(out, signs) - expected).max() < 1e-13

    @pytest.mark.parametrize("num_spins", [7, 8])
    @pytest.mark.parametrize("signs", [(1,), (1, -1)])
    def test_pass_order_changes_no_value(self, num_spins, signs):
        """Each pass over the pair blocks runs opposite to the pass before it, across rows
        and calls.  In a second call every row passes the other way (after one more pass at
        two rows), and both calls return the same bits, each matching the dense step."""
        hamiltonian = graph_system(num_spins)
        g = np.random.default_rng(num_spins)
        shape = (len(signs), 1 << (num_spins - 1))
        rows = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        rows /= np.linalg.norm(rows)
        step = FreeStep(hamiltonian.eigensystem(), 0.05)
        before = step.parts
        first, _ = step(rows, signs)
        if len(signs) == 2:
            step(rows[:1], signs[:1])
        assert all(a is b for a, b in zip(step.parts, before[::-1], strict=True))
        second, _ = step(rows, signs)
        assert np.array_equal(first, second)
        expected = dense_free_propagator(hamiltonian, 0.05) @ join_rows(rows, signs)
        for out in (first, second):
            assert np.abs(join_rows(out, signs) - expected).max() < 1e-13

    @pytest.mark.parametrize("signs", [(1,), (-1,), (1, -1)])
    def test_matches_the_per_sector_step_at_11_spins(self, signs):
        eigensystem = graph_system(11).eigensystem()
        g = np.random.default_rng(11)
        rows = g.standard_normal((len(signs), 1024)) + 1j * g.standard_normal((len(signs), 1024))
        rows /= np.linalg.norm(rows)
        out, _ = FreeStep(eigensystem, 0.05)(rows, signs)
        reference = sector_free_step(tuple(sector_free_rows(eigensystem, 0.05)), rows, signs)
        assert np.abs(out - reference).max() < 1e-13

    @pytest.mark.parametrize("num_spins", [2, 3, 6, 9, 10])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_cycle_parity_matches_the_per_sector_scatter(self, num_spins, sign):
        """Also away from theta_x = pi/2, where x₀₀ and x₀₁ differ in size: the row-wise
        x pulse rests on X± being symmetric, not on the angle."""
        eigensystem = graph_system(num_spins).eigensystem()
        for theta_x in (math.pi / 2, 0.7 * math.pi):
            spec = MonopoleSpec(tau=0.05, theta_x=theta_x)
            assert np.abs(cycle_parity(eigensystem, spec, sign)
                          - sector_cycle_parity(eigensystem, spec, sign)).max() < 1e-13


def blockwise_deviation(hamiltonian, row0, spec, slots) -> float:
    """Largest gap between the blockwise and the per-pulse trace at their shared samples."""
    stream = sample_rmd(1, 8, seed=3)
    full = evolve(PulseProgram(stream, spec), hamiltonian, row0)
    props = BlockPropagatorFactory(hamiltonian, spec, slots).block_set()
    block = evolve_blockwise(stream, props, row0)
    by_slot = dict(zip(rows(full), full.values))
    at_shared = [by_slot[key] for key in rows(block)]
    return float(np.abs(at_shared - block.values).max())


@functools.cache
def graph_system(num_spins: int):
    """Hamiltonian of the n-spin graph of seed 11: the small_system one at n = 6."""
    return build_hamiltonian(compute_couplings(generate_graph(num_spins, seed=11),
                                               coupling_median=1.0))


class TestBlockwiseEngine:
    @pytest.mark.parametrize("kicks, gamma_y, slots, num_spins", [
        ((8, 4), 0.97 * math.pi, (6, 13), 6),
        ((10, 7), math.pi + 0.3, (13,), 6),  # half slot 6 precedes both kicks; never read
        ((10, 7), math.pi + 0.3, (6, 13), 6),  # both kicks in the second step
        ((8, 4), 0.97 * math.pi, tuple(range(1, 14)), 6),  # every slot, as the per-pulse trace
        ((8, 4), 1.02 * math.pi, (4, 5, 9, 13), 6),  # each kick alone in a one-slot step
        # gamma = pi: the steps carry the P = +1 component; at odd n its parity flips
        ((8, 4), math.pi, (6, 13), 5),
        ((8, 4), math.pi, (4, 5, 9, 13), 5),
        ((8, 4), math.pi, (6, 13), 6),
        ((10, 7), math.pi, (13,), 6),
    ])
    def test_matches_per_pulse_engine(self, kicks, gamma_y, slots, num_spins):
        hamiltonian = graph_system(num_spins)
        row0 = initial_state(num_spins, hamiltonian)
        spec = MonopoleSpec(12, *kicks, tau=0.05, gamma_y=gamma_y)
        assert blockwise_deviation(hamiltonian, row0, spec, slots) < 1e-10

    @pytest.mark.parametrize("slots", [half_period, block_end])
    def test_matches_per_pulse_engine_with_the_kick_at_the_half_slot(self, small_system,
                                                                      slots):
        """kick_plus == half slot: the + block's first step is A · G(W^0), B the identity."""
        _, _, hamiltonian, row0 = small_system
        spec = MonopoleSpec(pulses_per_block=12, kick_plus=6, kick_minus=4,
                            tau=0.05, gamma_y=1.03 * math.pi)
        assert half_sample_slot(spec) == spec.kick_plus
        assert blockwise_deviation(hamiltonian, row0, spec, slots(spec)) < 1e-10

    def test_strobo_only_mode(self, small_system, short_spec):
        _, _, hamiltonian, row0 = small_system
        stream = sample_rmd(0, 6, seed=8)
        props = BlockPropagatorFactory(hamiltonian, short_spec, block_end(short_spec)).block_set()
        trace = evolve_blockwise(stream, props, row0)
        assert len(trace) == 7
        assert np.allclose(np.diff(trace.times), short_spec.block_duration)

    def test_micromotion_of_a_strobo_only_trace_rejected(self, small_system, short_spec):
        _, _, hamiltonian, row0 = small_system
        props = BlockPropagatorFactory(hamiltonian, short_spec, block_end(short_spec)).block_set()
        trace = evolve_blockwise(sample_rmd(0, 8, seed=8), props, row0)
        with pytest.raises(ValueError, match=r"the trace reads slots \(13,\), not slot 6"):
            dft_micromotion(trace)

    def test_block_propagators_unitary(self, small_system, short_spec):
        _, _, hamiltonian, _ = small_system
        factory = BlockPropagatorFactory(hamiltonian, short_spec, block_end(short_spec))
        props = factory.block_set(0.95 * math.pi)
        for sign in (1, -1):
            step, = props.steps[sign]
            u = dense_step(step, hamiltonian.num_spins)
            deviation = u.conj().T @ u - np.eye(u.shape[0])
            assert np.abs(deviation).max() < 1e-10

    @pytest.mark.parametrize("key", [dict(include_half=False), dict(include_half=True),
                                     dict(angle_spread=0.018), dict(disorder_seed=3)])
    def test_block_set_refuses_the_benchmark_key_parameters(self, small_system, short_spec,
                                                            key):
        """``include_half``, ``angle_spread`` and ``disorder_seed`` are named only for the
        benchmark's key: a value other than the default is refused, not ignored."""
        _, _, hamiltonian, _ = small_system
        factory = BlockPropagatorFactory(hamiltonian, short_spec, block_end(short_spec))
        assert factory.block_set(None, None, 0.0, None).steps.keys() == {1, -1}
        with pytest.raises(ValueError, match="defaults"):
            factory.block_set(**key)

    def test_half_slot_positions(self):
        assert half_sample_slot(MonopoleSpec(300, 200, 100)) == 150
        assert half_sample_slot(MonopoleSpec(15, 10, 5)) == 8

    @pytest.mark.parametrize("slots", [(), (6,), (0, 13), (6, 6, 13), (8, 6, 13), (13, 14)])
    def test_rejects_slots_that_do_not_step_to_the_block_end(self, small_system, short_spec,
                                                              slots):
        _, _, hamiltonian, _ = small_system
        with pytest.raises(ValueError, match="readout slots"):
            BlockPropagatorFactory(hamiltonian, short_spec, slots)


def factored_block_set(factory: BlockPropagatorFactory, parity: int) -> BlockPropagators:
    """The factory's block set at its own angle with each kick step left as its factors
    (W^b, G, W^a), every power holding both parity blocks.  The kick's layer G acts by
    ``parity``: ±1 folds it onto each row; 0 mixes the rows into the P = ±1 rows, so the
    state is two rows from the first kick on."""
    spec, n = factory.spec, factory.num_spins
    power = lambda e: Power({s: factory.parity(s)[e] for s in (1, -1)})
    kick = GateLayer(rotation_gate("x", spec.theta_x).conj().T
                        @ rotation_gate("y", spec.gamma_y), n, parity)
    steps = {sign: tuple((power(f[0]),) if len(f) == 1 else (power(f[1]), kick, power(f[0]))
                         for f in layout)
             for sign, layout in factory.layout.items()}
    return BlockPropagators(spec, factory.slots, steps, n)


def two_row_pulses(hamiltonian, spec: MonopoleSpec) -> BlockPropagators:
    """The per-pulse steps of `evolve` with a mixing kick: the kick's layer mixes the rows
    into the P = ±1 rows, so the state is two rows from the first kick on."""
    n = hamiltonian.num_spins
    free = FreeStep(hamiltonian.eigensystem(), spec.tau)
    x = (GateLayer(rotation_gate("x", spec.theta_x), n, 1), free)
    kick = (GateLayer(rotation_gate("y", spec.gamma_y), n, 0), free)
    slots = tuple(range(1, spec.slots_per_block + 1))
    steps = {sign: tuple(kick if slot == k + 1 else x for slot in slots)
             for sign, k in ((1, spec.kick_plus), (-1, spec.kick_minus))}
    return BlockPropagators(spec, slots, steps, n)


def kick_of(props: BlockPropagators) -> GateLayer:
    """The kick's gate layer in the + block's steps, where the kick step is not fused."""
    return next(f for step in props.steps[1] for f in step if isinstance(f, GateLayer))


def step_signs(props: BlockPropagators, row: np.ndarray) -> list[tuple]:
    """The signs of the state's rows after each step of the + block, from the one ``row``."""
    rows, signs, out = row[None], (1,), []
    for step in props.steps[1]:
        for factor in step:
            rows, signs = factor(rows, signs)
        out.append(signs)
    return out


class TestParityComponent:
    """At gamma = pi every engine's steps evolve one spin-flip parity component."""

    @pytest.mark.parametrize("num_spins", [5, 6])
    @pytest.mark.parametrize("decay_time", [0.0, 0.3])
    @pytest.mark.parametrize("slots", [block_end, half_period])
    def test_fused_steps_match_the_factored_steps(self, short_spec, num_spins, decay_time,
                                                  slots):
        """A gamma = pi block set fuses each kick step into one matrix per row sign, on
        P = +1 alone at even n.  Its trace matches the factored (W^b, G, W^a) steps of a
        second factory, with G folded onto the rows or mixing them."""
        hamiltonian = graph_system(num_spins)
        row0 = initial_state(num_spins, hamiltonian, decay_time)
        parity = (-1) ** num_spins
        factory = BlockPropagatorFactory(hamiltonian, short_spec, slots(short_spec))
        fused = factory.block_set()
        assert list(factory.blocks) == [1, -1][:1 + num_spins % 2]
        assert all(len(step) == 1 for steps in fused.steps.values() for step in steps)
        assert math.prod(f.parity for f, in fused.steps[1]) == parity
        reference = BlockPropagatorFactory(hamiltonian, short_spec, slots(short_spec))
        stream = sample_rmd(1, 16, seed=3)
        a = evolve_blockwise(stream, fused, row0)
        for other in (factored_block_set(reference, parity), factored_block_set(reference, 0)):
            b = evolve_blockwise(stream, other, row0)
            assert np.array_equal(a.times, b.times)
            assert np.abs(a.values - b.values).max() < 1e-12

    @pytest.mark.parametrize("num_spins", [5, 6])
    @pytest.mark.parametrize("decay_time", [0.0, 0.3])
    def test_per_pulse_matches_the_two_row_steps(self, short_spec, num_spins, decay_time):
        """At gamma = pi `evolve` keeps one row where `two_row_pulses` mixes it into two;
        at a kick that mixes P both take the same steps, so their traces are bit-equal."""
        hamiltonian = graph_system(num_spins)
        row0 = initial_state(num_spins, hamiltonian, decay_time)
        stream = sample_rmd(1, 4, seed=3)
        a = evolve(PulseProgram(stream, short_spec), hamiltonian, row0)
        b = evolve_blockwise(stream, two_row_pulses(hamiltonian, short_spec), row0)
        assert np.array_equal(a.times, b.times)
        assert np.abs(a.values - b.values).max() < 1e-12
        mixing = replace(short_spec, gamma_y=0.95 * math.pi)
        a = evolve(PulseProgram(stream, mixing), hamiltonian, row0)
        b = evolve_blockwise(stream, two_row_pulses(hamiltonian, mixing), row0)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("gamma_y", [np.nextafter(math.pi, 4), 0.95 * math.pi])
    def test_only_exactly_pi_takes_one_block(self, small_system, short_spec, gamma_y):
        """The state is one row until the first kick that mixes P creates the P = -1 row."""
        _, _, hamiltonian, row0 = small_system
        factory = BlockPropagatorFactory(hamiltonian, short_spec, half_period(short_spec))
        one = factory.block_set()
        assert all(len(step) == 1 for step in one.steps[1]) and list(factory.blocks) == [1]
        assert step_signs(one, row0) == [(1,), (1,)]
        factory = BlockPropagatorFactory(hamiltonian, short_spec, half_period(short_spec))
        props = factory.block_set(gamma_y)
        assert kick_of(props).parity == 0 and list(factory.blocks) == [1, -1]
        # the + block kicks at slot 9, in its second step (6, 13]
        assert step_signs(props, row0) == [(1,), (1, -1)]

    def test_even_n_builds_the_odd_chain_only_off_pi(self, small_system, short_spec):
        _, _, hamiltonian, _ = small_system
        factory = BlockPropagatorFactory(hamiltonian, short_spec, block_end(short_spec))
        factory.block_set()
        assert list(factory.blocks) == [1]
        factory = BlockPropagatorFactory(hamiltonian, short_spec, block_end(short_spec))
        factory.block_set(0.95 * math.pi)
        assert list(factory.blocks) == [1, -1]
        odd = BlockPropagatorFactory(graph_system(5), short_spec, block_end(short_spec))
        assert list(odd.blocks) == [1]
        odd.block_set()
        assert list(odd.blocks) == [1, -1]

    @pytest.mark.parametrize("num_spins", [5, 6])
    def test_fused_factory_refuses_a_mixing_kick(self, short_spec, num_spins):
        """Fusing consumes powers of the chains, so once a block set has fused the kick steps
        a kick that mixes P cannot be served; another gamma = pi block set still can."""
        factory = BlockPropagatorFactory(graph_system(num_spins), short_spec,
                                         half_period(short_spec))
        factory.block_set(0.95 * math.pi)  # not fused yet
        first = factory.block_set()
        with pytest.raises(ValueError, match="keep P"):
            factory.block_set(0.95 * math.pi)
        again = factory.block_set()
        assert all(f.blocks[s] is g.blocks[s] for sign in (1, -1)
                   for (f, *_), (g, *_) in zip(first.steps[sign], again.steps[sign])
                   for s in f.blocks)


class TestSpinLockConservation:
    def test_polarization_leak_shrinks_with_tau(self, small_system):
        # pure spin-lock train: one 200-pulse block whose kick is the identity (gamma_y = 0)
        _, _, hamiltonian, row0 = small_system
        losses = []
        for tau in (0.02, 0.05, 0.1):
            spec = MonopoleSpec(pulses_per_block=199, kick_plus=150, kick_minus=50,
                                tau=tau, gamma_y=0.0)
            trace = evolve(PulseProgram(stream_of("+"), spec), hamiltonian, row0)
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
                row0 = initial_state(8, hamiltonian, decay_time=decay_time)
                props = BlockPropagatorFactory(hamiltonian, spec, block_end(spec)).block_set()
                trace = evolve_blockwise(stream, props, row0)
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
        _, _, hamiltonian, row0 = small_system
        spec = MonopoleSpec(pulses_per_block=30, kick_plus=20, kick_minus=10,
                            tau=0.02, gamma_y=0.98 * math.pi)
        stream = sample_rmd(0, 40, seed=12)
        props = BlockPropagatorFactory(hamiltonian, spec, half_period(spec)).block_set()
        trace = evolve_blockwise(stream, props, row0)
        _, values = stroboscopic_samples(trace)
        signs = np.sign(values)
        assert np.array_equal(signs, signs[0] * (-1.0) ** np.arange(values.size))
        assert np.abs(values[-1]) > 0.5 * np.abs(values[0])
        half = half_period_samples(trace)
        expected = np.sign(values[0]) * (-1.0) ** np.arange(40) * stream.symbols
        assert np.array_equal(np.sign(half), expected)
