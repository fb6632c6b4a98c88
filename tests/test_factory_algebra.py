"""The propagator factory's algebra: addition-chain powers, Kronecker-half gates, the
spin-flip parity split, memory."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rondeau.evolution import (BlockPropagatorFactory, ParityPair, PowerChain, PulseProgram,
                               _kick_gates, apply_gates, evolve, initial_state, kick_layout)
from rondeau.runner import RunConfig, peak_matrix_bytes
from rondeau.sequences import MonopoleSpec, sample_rmd
from rondeau.spins import build_hamiltonian, compute_couplings, generate_graph

from conftest import rng
from oracles import dense_cycle_powers, dense_kick_gate, spin_flip

#: Powers the default layout reads, by readout mode (``include_half``).
MODE_EXPONENTS = {False: {100, 101, 200, 201}, True: {50, 100, 101, 150, 151}}
DEFAULT_EXPONENTS = MODE_EXPONENTS[False] | MODE_EXPONENTS[True]


def binary_products(exponents) -> int:
    """Products of the binary method: shared squarings, then one per extra set bit."""
    positive = [e for e in set(exponents) if e > 0]
    if not positive:
        return 0
    return max(positive).bit_length() - 1 + sum(bin(e).count("1") - 1 for e in positive)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    g = rng(seed)
    q, r = np.linalg.qr(g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gates_by_spin(state, gates, num_spins):
    """Reference: each spin's 2x2 gate applied to its own axis, one spin at a time."""
    if np.shape(gates) == (2, 2):
        gates = [gates] * num_spins
    out = np.array(state, dtype=complex)
    for k, g in enumerate(gates):
        out = np.einsum("ij,ajb->aib", g, out.reshape(2**k, 2, -1))
    return out.reshape(np.shape(state))


class TestPowerChain:
    def test_default_layout_exponents(self):
        for include_half, exponents in MODE_EXPONENTS.items():
            layout = kick_layout(MonopoleSpec(), include_half)
            assert BlockPropagatorFactory._exponents(layout) == exponents

    @pytest.mark.parametrize("exponents", [
        [0], [1], [0, 1], [2, 2, 3, 3], [17], [5, 64], [0, 1, 2, 3, 17], [49, 50, 100, 150, 151],
        sorted(DEFAULT_EXPONENTS),
    ])
    def test_matches_matrix_power(self, exponents):
        w = random_unitary(8, seed=5)
        powers = PowerChain(exponents).fill({1: w.copy()})
        assert set(powers) == set(exponents)
        for e in exponents:
            assert np.abs(powers[e] - np.linalg.matrix_power(w, e)).max() < 1e-12

    @pytest.mark.parametrize("exponents, products, binary", [
        (DEFAULT_EXPONENTS, 13, 26),
        (MODE_EXPONENTS[False], 11, 17),
        (MODE_EXPONENTS[True], 11, 21),
        ({49, 50, 100, 150, 151}, 11, 20),
    ])
    def test_fewer_products_than_binary_on_layout_sets(self, exponents, products, binary):
        assert binary_products(exponents) == binary
        assert len(PowerChain(exponents).steps) == products

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(0, 5000), max_size=8))
    def test_never_more_products_than_binary(self, exponents):
        chain = PowerChain(exponents)
        assert len(chain.steps) <= binary_products(exponents)
        built = {1}
        for e, a, b in chain.steps:
            assert a in built and b in built and e == a + b
            built.add(e)
        assert set(exponents) - {0} <= built

    def test_intermediates_are_dropped_after_last_use(self):
        chain = PowerChain(DEFAULT_EXPONENTS)
        live = {1}
        for i, ((e, a, b), drop) in enumerate(zip(chain.steps, chain.drops)):
            live.add(e)
            later = {f for step in chain.steps[i + 1:] for f in step[1:]}
            assert set(drop) == {a, b} - later - DEFAULT_EXPONENTS
            live -= set(drop)
        assert live == DEFAULT_EXPONENTS

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            PowerChain({3, -1})


class TestKroneckerHalves:
    @pytest.mark.parametrize("num_spins", [1, 2, 5, 6])
    @pytest.mark.parametrize("columns", [None, 3])
    @pytest.mark.parametrize("per_spin", [False, True])
    def test_matches_per_spin_loop(self, num_spins, columns, per_spin):
        g = rng(num_spins)
        dim = 2**num_spins
        shape = (dim,) if columns is None else (dim, columns)
        state = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        gates = ([random_unitary(2, seed=k) for k in range(num_spins)] if per_spin
                 else random_unitary(2, seed=num_spins))
        out = apply_gates(state, gates, num_spins)
        assert out.shape == shape
        assert np.abs(out - gates_by_spin(state, gates, num_spins)).max() < 1e-12

    @pytest.mark.parametrize("num_spins", [1, 2, 5, 6])
    def test_angle_spread_gates(self, num_spins):
        spec = MonopoleSpec(12, 8, 4, gamma_y=0.97 * math.pi)
        gates = _kick_gates(spec, num_spins, angle_spread=0.018, disorder_seed=3)
        state = random_unitary(2**num_spins, seed=num_spins)
        assert np.abs(apply_gates(state, gates, num_spins)
                      - gates_by_spin(state, gates, num_spins)).max() < 1e-12


def system(num_spins: int):
    """Hamiltonian of a disordered n-spin graph."""
    return build_hamiltonian(compute_couplings(generate_graph(num_spins, seed=7), 1.0))


def dense(op) -> np.ndarray:
    """A step operator as a dense matrix: a ParityPair applied to the identity."""
    return op @ np.eye(op.shape[0], dtype=complex)


class TestParitySplit:
    """W = U_free · X commutes with P = prod sigma_x, so the factory keeps its powers as pairs."""

    SPEC = MonopoleSpec(tau=0.01, gamma_y=0.93 * math.pi)

    @pytest.mark.parametrize("num_spins", [5, 6])
    def test_cycle_powers_commute_with_the_spin_flip(self, num_spins):
        flip = spin_flip(num_spins)
        for e, power in dense_cycle_powers(system(num_spins), self.SPEC,
                                           DEFAULT_EXPONENTS | {0, 1}).items():
            assert np.abs(flip @ power @ flip - power).max() < 1e-12

    def test_pair_of_a_flip_symmetric_matrix(self):
        """A pair applied to vectors and matrices equals its dense matrix."""
        g, h = rng(3), 8
        plus, minus = (random_unitary(h, seed) for seed in (1, 2))
        pair = ParityPair(plus, minus)
        matrix = dense(pair)
        flip = spin_flip(4)
        assert np.abs(flip @ matrix @ flip - matrix).max() < 1e-15
        assert np.abs(matrix[:h, :h] + matrix[:h, h:][:, ::-1] - plus).max() < 1e-15
        for shape in [(2 * h,), (2 * h, 3)]:
            state = g.standard_normal(shape) + 1j * g.standard_normal(shape)
            assert np.abs(pair @ state - matrix @ state).max() < 1e-14

    @pytest.mark.parametrize("num_spins", [3, 5, 8])
    @pytest.mark.parametrize("include_half", [False, True])
    def test_split_powers_and_steps_match_the_dense_chain(self, num_spins, include_half):
        hamiltonian = system(num_spins)
        factory = BlockPropagatorFactory(hamiltonian, self.SPEC, include_half)
        assert all(isinstance(p, ParityPair) for p in factory.powers.values())
        assert all(p.plus.shape == (2**(num_spins - 1),) * 2 for p in factory.powers.values())
        reference = dense_cycle_powers(hamiltonian, self.SPEC, MODE_EXPONENTS[include_half])
        assert factory.powers.keys() == reference.keys()
        for e, pair in factory.powers.items():
            assert np.abs(dense(pair) - reference[e]).max() < 1e-12
        gate = dense_kick_gate(self.SPEC, num_spins)
        props = factory.block_set()
        for sign, layout in factory.layout.items():
            for (_, op), factors in zip(props.steps[sign], layout):
                if len(factors) == 1:
                    assert isinstance(op, ParityPair)
                    expected = reference[factors[0]]
                else:
                    a, b = factors
                    expected = reference[a] @ gate @ reference[b]
                assert np.abs(dense(op) - expected).max() < 1e-12


class TestFactoryMemory:
    def test_build_peak_within_the_counted_matrices(self, small_system):
        _, _, hamiltonian, _ = small_system
        hamiltonian.eigensystem()  # cached before tracing: the run's Hamiltonian term
        spec = MonopoleSpec(tau=0.01)
        matrix = 16 * 4**hamiltonian.num_spins
        for include_half, exponents in MODE_EXPONENTS.items():
            counted = BlockPropagatorFactory.peak_matrices(spec, include_half)
            tracemalloc.start()
            try:
                factory = BlockPropagatorFactory(hamiltonian, spec, include_half)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # a quarter matrix (16 KB at n = 6) covers the gates and bookkeeping objects
            assert (counted - 0.25) * matrix < peak <= (counted + 0.25) * matrix
            # only the powers of the factory's own readout mode are kept, each a
            # pair of half-size blocks: half a dense matrix
            assert set(factory.powers) == exponents
            assert kept <= (len(exponents) / 2 + 0.25) * matrix
            del factory

    def test_block_set_peak_within_the_counted_matrices(self):
        """A block set keeps its two dense kick steps and peaks at BLOCK_SET_MATRICES."""
        hamiltonian = system(8)
        spec = MonopoleSpec(tau=0.01)
        matrix = 16 * 4**8
        for include_half in (False, True):
            factory = BlockPropagatorFactory(hamiltonian, spec, include_half)
            tracemalloc.start()
            try:
                props = factory.block_set(0.95 * math.pi)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the plain steps are the factory's own pairs, not copies
            assert 2 * matrix < kept <= 2.05 * matrix
            counted = BlockPropagatorFactory.BLOCK_SET_MATRICES
            assert (counted - 0.25) * matrix < peak <= counted * matrix
            del factory, props

    def test_trace_estimate_counts_the_sector_engine(self, small_system):
        """A per-pulse trace holds H's sector blocks, their eigenvectors and the free-step blocks."""
        _, couplings, _, _ = small_system
        config = RunConfig(kind="trace", out_dir="x", num_spins=couplings.num_spins,
                           pulses_per_block=12, kick_plus=8, kick_minus=4)
        program = PulseProgram(sample_rmd(0, 2, seed=1), config.spec())
        psi0 = initial_state(config.num_spins)
        matrix = 16 * 4**config.num_spins
        tracemalloc.start()
        try:
            evolve(program, build_hamiltonian(couplings), psi0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        estimate = peak_matrix_bytes(config)
        assert estimate - 0.25 * matrix < peak <= estimate + 0.25 * matrix

    def test_run_estimate_counts_the_chain_peak(self):
        def estimate(**layout):
            return peak_matrix_bytes(RunConfig(kind="heating-eps", out_dir="x", num_spins=6,
                                               eps_grid=(0.1,), graph_realizations=2,
                                               **layout))
        small = dict(pulses_per_block=3, kick_plus=2, kick_minus=1)
        # a heating run reads whole blocks only
        # in dense matrices: 4 kept and 5 live half-size blocks, against 3 and 3
        chains = [BlockPropagatorFactory.peak_matrices(MonopoleSpec(**layout), False)
                  for layout in ({}, small)]
        assert chains == [2.25, 1.5]
        assert estimate() - estimate(**small) == 2 * (2.25 - 1.5) * 16 * 4**6
