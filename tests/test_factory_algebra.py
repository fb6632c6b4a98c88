"""The propagator factory's algebra: addition-chain powers, gate layers on parity rows,
the spin-flip parity split, memory."""

import functools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rondeau.dephasing import DephasingParams, model_signal
from rondeau.evolution import (BlockPropagatorFactory, FreeStep, GateLayer, Power, PowerChain,
                               PulseProgram, SignalTrace, _sum_sigma_x, cycle_parity, evolve,
                               evolve_blockwise, free_blocks, fuse_kick, fuse_kick_bytes,
                               half_sample_slot, initial_state, kick_layout, kick_parity,
                               parity_ix, parity_ix_bytes, rotation_gate)
from rondeau.runner import RunConfig, run
from rondeau.sequences import MonopoleSpec, sample_rmd
from rondeau.spins import build_hamiltonian, compute_couplings, generate_graph

from conftest import rng, traced
from oracles import (dense_cycle_powers, dense_kick_gate, dense_slot_steps, dense_step,
                     gates_by_spin, join_rows, parity_rows, spin_flip)

#: Powers the default layout (301 slots, kicks after pulses 200 and 100) reads at the
#: block end alone and at the half-period slot and the block end.
LAYOUT_EXPONENTS = {(301,): {100, 101, 200, 201}, (150, 301): {50, 100, 101, 150, 151}}
#: Every power of both: an exponent set for the chain tests.
BOTH_LAYOUTS = {50, 100, 101, 150, 151, 200, 201}
#: Bytes a factory or run holds besides its matrices: gate halves, fusion plans, Python
#: objects.  Measured at 10-25 KB for n = 6-9, not growing with n.
BOOKKEEPING = 32 * 1024


def binary_products(exponents) -> int:
    """Products of the binary method: shared squarings, then one per extra set bit."""
    positive = [e for e in set(exponents) if e > 0]
    if not positive:
        return 0
    return max(positive).bit_length() - 1 + sum(bin(e).count("1") - 1 for e in positive)


def largest_pair_chain(exponents) -> list[tuple]:
    """Steps (e, a, b) of the pair rule with the largest a, else the binary method with
    shared squares: the chain `PowerChain` keeps unless its second rule does better."""
    built, steps = {1}, []

    def product(a, b):
        if a + b not in built:
            steps.append((a + b, a, b))
            built.add(a + b)
        return a + b

    for e in sorted(set(exponents) - {0}):
        a = next((a for a in sorted(built, reverse=True) if e - a in built), None)
        if a is not None:
            product(a, e - a)
            continue
        for j in range(1, e.bit_length()):
            product(1 << j - 1, 1 << j - 1)
        partial = 1 << e.bit_length() - 1
        for j in reversed(range(e.bit_length() - 1)):
            partial = product(partial, 1 << j) if e >> j & 1 else partial
    return steps


def held_peak(steps, targets) -> int:
    """Most matrices alive while ``steps`` run from W alone, a power freed after its last
    read unless it is a target, W^0 added at the end."""
    targets, live = set(targets), {1}
    last = {f: i for i, step in enumerate(steps) for f in step[1:]}
    peak = 1
    for i, (e, a, b) in enumerate(steps):
        live.add(e)
        peak = max(peak, len(live))
        live -= {f for f in (a, b) if last[f] == i} - targets
    if 1 not in targets and 1 not in last:
        live.discard(1)
    return max(peak, len(live) + (0 in targets))


def cast_after_last_read(steps, targets, itemsize: int) -> int:
    """Most bytes an entry held while ``steps`` run in order from a complex128 W, each product
    taken whole in complex128, each power freed after its last read unless it is a target (one
    that no step reads is kept), and below 16 bytes each target, W^e read by no step included,
    cast to ``itemsize`` then."""
    last = {f: i for i, step in enumerate(steps) for f in step}
    held, peak = {1: 16}, 16
    for i, step in enumerate(steps):
        held[step[0]] = 16
        peak = max(peak, sum(held.values()))
        ends = {f for f in step if last[f] == i}
        for f in ends - {step[0]} - set(targets):
            del held[f]
        for f in sorted(ends & set(targets)) if itemsize < 16 else ():
            peak = max(peak, sum(held.values()) + itemsize)
            held[f] = itemsize
    if 1 not in targets:
        held.pop(1, None)
    elif itemsize < 16 and not steps:
        peak, held[1] = 16 + itemsize, itemsize
    if 0 in targets:
        held[0] = itemsize
    return max(peak, sum(held.values()))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    g = rng(seed)
    q, r = np.linalg.qr(g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPowerChain:
    def test_default_layout_exponents(self):
        for slots, exponents in LAYOUT_EXPONENTS.items():
            layout = kick_layout(MonopoleSpec(), slots)
            assert BlockPropagatorFactory._exponents(layout) == exponents

    @pytest.mark.parametrize("exponents", [
        [0], [1], [0, 1], [2, 2, 3, 3], [17], [5, 64], [0, 1, 2, 3, 17], [49, 50, 100, 150, 151],
        sorted(BOTH_LAYOUTS),
    ])
    def test_matches_matrix_power(self, exponents):
        w = random_unitary(8, seed=5)
        powers = PowerChain(exponents).fill({1: w.copy()})
        assert set(powers) == set(exponents)
        for e in exponents:
            assert np.abs(powers[e] - np.linalg.matrix_power(w, e)).max() < 1e-12

    @pytest.mark.parametrize("exponents, products, binary", [
        (BOTH_LAYOUTS, 13, 26),
        (LAYOUT_EXPONENTS[301,], 11, 17),
        (LAYOUT_EXPONENTS[150, 301], 11, 21),
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

    @pytest.mark.parametrize("exponents", [[0, 1], [1], [17], sorted(BOTH_LAYOUTS)])
    def test_fill_keeps_each_target_in_its_dtype(self, exponents):
        """A complex64 fill takes every product in complex128 and casts each target once no
        later product reads it: its powers equal the complex128 chain's, rounded once."""
        w = random_unitary(8, seed=5)
        double = PowerChain(exponents).fill({1: w.copy()})
        single = PowerChain(exponents).fill({1: w.copy()}, np.complex64)
        assert set(single) == set(double)
        for e, power in single.items():
            assert power.dtype == np.complex64
            assert np.array_equal(power, double[e].astype(np.complex64))

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(0, 5000), max_size=8))
    def test_peak_bytes_counts_the_held_matrices(self, exponents):
        """Kept at 16 bytes an entry, the held bytes are ``peak`` complex128 matrices; kept at
        8, never more than those and one cast's copy."""
        chain = PowerChain(exponents)
        assert chain.peak_bytes(1) == 16 * chain.peak
        assert chain.peak_bytes(1, 8) <= 16 * chain.peak + 8

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(0, 5000), max_size=8))
    @example({3, 5, 11})  # the lean rule builds W^4, which no product reads
    def test_leaves_taken_into_the_kept_dtype_never_hold_more(self, exponents):
        """A fill that casts runs the chain's products, each after its factors, and holds no
        more than casting every target after its last read; one that keeps complex128 runs
        them in order and holds what it held."""
        chain = PowerChain(exponents)
        single, double = chain.schedule(cast=True), chain.schedule(cast=False)
        assert sorted(step[:3] for step in single) == sorted(chain.steps)
        assert [step[:3] for step in double] == list(chain.steps)
        built = {1}
        for e, a, b, *_ in single:
            assert {a, b} <= built
            built.add(e)
        assert chain.peak_bytes(1) == cast_after_last_read(chain.steps, exponents, 16)
        assert chain.peak_bytes(1, 8) <= cast_after_last_read(chain.steps, exponents, 8)

    @pytest.mark.parametrize("slots, leaves, single, after_last_read", [
        ((301,), [201, 200], 48, 64), ((150, 301), [150, 151], 64, 72)])
    def test_layout_leaves_free_a_factor_first(self, slots, leaves, single, after_last_read):
        """The default layouts' leaves are the last products.  W^201 = W^101 · W^100 runs
        before W^200 = W^100 · W^100, so W^101 is cast before W^200 is held, and a complex64
        chain holds 3 complex128 matrices, not 4 (4, not 4.5, with the half-period slot)."""
        exponents = LAYOUT_EXPONENTS[slots]
        chain = PowerChain(exponents)
        assert [e for e, _, _, leaf, _, _ in chain.schedule(cast=True) if leaf] == leaves
        assert not any(leaf for *_, leaf, _, _ in chain.schedule(cast=False))
        assert chain.peak_bytes(1, 8) == single
        assert cast_after_last_read(chain.steps, exponents, 8) == after_last_read

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(0, 5000), max_size=8))
    def test_never_more_products_or_matrices_than_the_largest_pair_rule(self, exponents):
        chain, reference = PowerChain(exponents), largest_pair_chain(exponents)
        assert len(chain.steps) <= len(reference)
        assert chain.peak == held_peak(chain.steps, exponents) <= held_peak(reference, exponents)

    @pytest.mark.parametrize("slots, peak, reference", [((301,), 4, 5), ((150, 301), 5, 6)])
    def test_layout_chains_read_the_base_early(self, slots, peak, reference):
        """The default layouts' chains keep 11 products and hold one matrix fewer than
        the largest-pair rule: W is last read by W^101 = W^100 · W."""
        exponents = LAYOUT_EXPONENTS[slots]
        chain = PowerChain(exponents)
        assert len(chain.steps) == len(largest_pair_chain(exponents)) == 11
        assert chain.peak == peak
        assert held_peak(largest_pair_chain(exponents), exponents) == reference
        assert [step for step in chain.steps if 1 in step[1:]][-1] == (101, 100, 1)

    def test_lean_chain_kept_for_fewer_products_at_the_same_peak(self):
        """9 pulses with kicks after pulses 3 and 1, read at the block end: both rules hold
        5 matrices, and the lean chain needs 5 products where the binary one needs 6."""
        spec = MonopoleSpec(pulses_per_block=9, kick_plus=3, kick_minus=1)
        exponents = BlockPropagatorFactory._exponents(kick_layout(spec, (10,)))
        assert exponents == {1, 3, 7, 9}
        chain = PowerChain(exponents)
        lean, binary = chain._chain(lean=True), chain._chain(lean=False)
        assert (len(binary[0]), binary[1]) == (6, 5)
        assert (chain.steps, chain.peak) == lean
        assert (len(chain.steps), chain.peak) == (5, 5)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_the_other_rule_never_beats_the_kept_chain_on_both_counts(self, data):
        """On a layout of 3-79 pulses read at the block end, or at the half period too, the
        rule not kept needs no fewer products or holds no fewer matrices."""
        pulses = data.draw(st.integers(3, 79))
        minus = data.draw(st.integers(1, pulses - 2))
        spec = MonopoleSpec(pulses_per_block=pulses, kick_minus=minus,
                            kick_plus=data.draw(st.integers(minus + 1, pulses - 1)))
        half = (half_sample_slot(spec),) if minus < half_sample_slot(spec) <= spec.kick_plus \
            and data.draw(st.booleans()) else ()
        chain = PowerChain(BlockPropagatorFactory._exponents(
            kick_layout(spec, (*half, spec.slots_per_block))))
        kept = (len(chain.steps), chain.peak)
        for steps, peak in (chain._chain(lean=True), chain._chain(lean=False)):
            other = (len(steps), peak)
            assert not (other != kept and other[0] <= kept[0] and other[1] <= kept[1]), other

    @pytest.mark.parametrize("cast", [False, True])
    def test_intermediates_are_dropped_after_last_use(self, cast):
        schedule = PowerChain(BOTH_LAYOUTS).schedule(cast)
        live = {1}
        for i, (e, a, b, _, drops, _) in enumerate(schedule):
            live.add(e)
            later = {f for step in schedule[i + 1:] for f in step[1:3]}
            assert set(drops) == {a, b} - later - BOTH_LAYOUTS
            live -= set(drops)
        assert live == BOTH_LAYOUTS

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            PowerChain({3, -1})


class TestKroneckerHalves:
    """`GateLayer`, the one code that applies a gate layer, on parity rows against each
    spin's gate applied to the joined state vector by `gates_by_spin`."""

    @staticmethod
    def check(gate, num_spins: int, parity: int, rows: np.ndarray, signs: tuple):
        out, out_signs = GateLayer(gate, num_spins, parity)(rows, signs)
        if parity:  # the folding branch: each row is a state of its own
            for c, s, z, t in zip(rows, signs, out, out_signs, strict=True):
                expected = gates_by_spin(join_rows(c[None], (s,)), gate, num_spins)
                assert np.abs(join_rows(z[None], (t,)) - expected).max() < 1e-12
        else:
            expected = gates_by_spin(join_rows(rows, signs), gate, num_spins)
            assert np.abs(join_rows(out, out_signs) - expected).max() < 1e-12

    @pytest.mark.parametrize("num_spins", [1, 2, 5, 6])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_matches_per_spin_loop(self, num_spins, batch):
        """A random gate mixes P: the two rows of one state.  An x rotation keeps it: a
        ``batch`` of rows of both signs through the folding branch, as the factory applies it."""
        g = rng(num_spins)
        shape = (2 if batch is None else batch, 2**(num_spins - 1))
        rows = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        if batch is None:
            self.check(random_unitary(2, seed=num_spins), num_spins, 0, rows, (1, -1))
        else:
            gate = rotation_gate("x", g.uniform(0, 2 * math.pi))
            self.check(gate, num_spins, 1, rows, (1, -1, -1)[:batch])


def system(num_spins: int):
    """Hamiltonian of a disordered n-spin graph."""
    return build_hamiltonian(compute_couplings(generate_graph(num_spins, seed=7), 1.0))


class TestParitySplit:
    """W = U_free · X commutes with P = prod sigma_x, so the factory keeps each power as its
    two parity blocks."""

    SPEC = MonopoleSpec(tau=0.01, gamma_y=0.93 * math.pi)

    @pytest.mark.parametrize("num_spins", [5, 6])
    def test_cycle_powers_commute_with_the_spin_flip(self, num_spins):
        flip = spin_flip(num_spins)
        for e, power in dense_cycle_powers(system(num_spins), self.SPEC,
                                           BOTH_LAYOUTS | {0, 1}).items():
            assert np.abs(flip @ power @ flip - power).max() < 1e-12

    def test_power_of_a_flip_symmetric_matrix(self):
        """A power applied to the parity rows of a vector equals its dense matrix."""
        g, h = rng(3), 8
        plus, minus = (random_unitary(h, seed) for seed in (1, 2))
        power = Power({1: plus, -1: minus})
        matrix = dense_step((power,), 4)
        flip = spin_flip(4)
        assert np.abs(flip @ matrix @ flip - matrix).max() < 1e-15
        assert np.abs(matrix[:h, :h] + matrix[:h, h:][:, ::-1] - plus).max() < 1e-15
        for _ in range(3):
            state = g.standard_normal(2 * h) + 1j * g.standard_normal(2 * h)
            rows, signs = power(parity_rows(state), (1, -1))
            assert np.abs(join_rows(rows, signs) - matrix @ state).max() < 1e-14

    @pytest.mark.parametrize("num_spins", [3, 5, 8])
    @pytest.mark.parametrize("slots", LAYOUT_EXPONENTS)
    def test_split_powers_and_steps_match_the_dense_chain(self, num_spins, slots):
        hamiltonian = system(num_spins)
        factory = BlockPropagatorFactory(hamiltonian, self.SPEC, slots)
        blocks = {s: factory.parity(s) for s in (1, -1)}
        assert all(b.shape == (2**(num_spins - 1),) * 2 for p in blocks.values() for b in p.values())
        reference = dense_cycle_powers(hamiltonian, self.SPEC, LAYOUT_EXPONENTS[slots])
        assert blocks[1].keys() == blocks[-1].keys() == reference.keys()
        for e in reference:
            power = Power({s: blocks[s][e] for s in (1, -1)})
            assert np.abs(dense_step((power,), num_spins) - reference[e]).max() < 1e-12
        gate = dense_kick_gate(self.SPEC, num_spins)
        props = factory.block_set()
        for sign, layout in factory.layout.items():
            for step, factors in zip(props.steps[sign], layout, strict=True):
                if len(factors) == 1:
                    assert len(step) == 1
                    expected = reference[factors[0]]
                else:
                    a, b = factors
                    expected = reference[a] @ gate @ reference[b]
                assert np.abs(dense_step(step, num_spins) - expected).max() < 1e-12


@functools.cache
def cached_system(num_spins: int):
    return system(num_spins)


class TestLayoutRule:
    """Each factory step is the per-pulse product over its interval of readout slots."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_steps_match_the_per_pulse_products(self, data):
        num_spins = data.draw(st.integers(2, 4), label="num_spins")
        pulses = data.draw(st.integers(3, 9), label="pulses_per_block")
        kick_minus = data.draw(st.integers(1, pulses - 2), label="kick_minus")
        kick_plus = data.draw(st.integers(kick_minus + 1, pulses - 1), label="kick_plus")
        reads = data.draw(st.sets(st.integers(1, pulses)), label="slots before the end")
        spec = MonopoleSpec(pulses, kick_plus, kick_minus,
                            tau=data.draw(st.floats(0.01, 0.3), label="tau"),
                            gamma_y=data.draw(st.floats(0.0, 2 * math.pi), label="gamma_y"))
        # at gamma = pi the factory fuses the kick steps whose B no other step reads
        if data.draw(st.booleans(), label="gamma_y = pi"):
            spec = replace(spec, gamma_y=math.pi)
        self.check_steps(spec, (*sorted(reads), spec.slots_per_block), num_spins)

    @pytest.mark.parametrize("num_spins", [3, 4])
    def test_a_kick_step_whose_power_another_reads_stays_factored(self, num_spins):
        """Slots (2, 10), kicks after pulses 6 and 3: the + block's kick step W^4 G W^4
        reads W^4 twice, so it stays factored; the - block's W^7 G W^1 fuses into W^1."""
        props = self.check_steps(MonopoleSpec(9, 6, 3, tau=0.1, gamma_y=math.pi), (2, 10),
                                 num_spins)
        assert [len(step) for step in props.steps[1]] == [1, 3]
        assert [len(step) for step in props.steps[-1]] == [1, 1]

    @staticmethod
    def check_steps(spec: MonopoleSpec, slots: tuple, num_spins: int):
        """Assert that a fresh factory's block set at ``slots`` has the per-pulse steps."""
        hamiltonian = cached_system(num_spins)
        factory = BlockPropagatorFactory(hamiltonian, spec, slots)
        props = factory.block_set()
        assert props.slots == slots
        # the steps hold the P = -1 blocks unless the kick keeps P = +1; a step on the
        # P = +1 row alone acts on the P = +1 part of a state
        signs = tuple(factory.blocks)
        assert (signs == (1,)) == (kick_parity(spec.gamma_y, num_spins) == 1)
        identity = np.eye(1 << num_spins)
        part = (identity + spin_flip(num_spins)) / 2 if signs == (1,) else identity
        for sign, kick in ((1, spec.kick_plus), (-1, spec.kick_minus)):
            expected = dense_slot_steps(hamiltonian, spec, kick, slots)
            for op, step in zip(props.steps[sign], expected, strict=True):
                assert np.abs(dense_step(op, num_spins, signs) - step @ part).max() < 1e-12
        return props


class TestFactoryMemory:
    # a gamma = pi block set at even n reads one parity's chain, any other both; as in a
    # run, the gamma = pi block set comes last.  The last case is the bench's heat-eps
    # factory.  A complex128 one at n = 10 would end holding both chains, all the count
    # reaches, beside the mixing kick's gate layer, whose 32 KB of halves it does not count.
    @pytest.mark.parametrize("num_spins, gammas, chains, dtype", [
        *((*case, dtype) for dtype in (np.complex128, np.complex64) for case in [
            (6, (math.pi,), 1), (6, (0.95 * math.pi, math.pi), 2),
            (8, (math.pi,), 1), (8, (0.95 * math.pi, math.pi), 2), (7, (math.pi,), 2)]),
        (10, (0.95 * math.pi, math.pi), 2, np.complex64),
    ])
    def test_build_peak_within_the_counted_matrices(self, num_spins, gammas, chains, dtype):
        """Chains build in complex128 and keep their powers in ``dtype``: a complex64
        factory keeps half the bytes, and builds the second chain beside them."""
        hamiltonian = system(num_spins)
        hamiltonian.eigensystem()  # cached before tracing: the run's Hamiltonian term
        spec = MonopoleSpec(tau=0.01)
        half, itemsize = 16 * 4**(num_spins - 1), np.dtype(dtype).itemsize
        parities = {kick_parity(gamma, num_spins) for gamma in gammas}
        assert chains == 1 + (parities != {1})

        def built(slots):
            factory = BlockPropagatorFactory(hamiltonian, spec, slots, dtype)
            for gamma in gammas:
                factory.block_set(gamma)
            return factory

        for slots, exponents in LAYOUT_EXPONENTS.items():
            counted = BlockPropagatorFactory.peak_bytes(num_spins, spec, slots, parities,
                                                        itemsize)
            factory, kept, peak = traced(lambda: built(slots))
            assert counted < peak <= counted + BOOKKEEPING
            # only the chains the gamma = pi block set read are kept, each parity's block
            # half-size, and fused kick steps hold the place of the powers they consumed: at
            # even n fusing drops a P = -1 chain built earlier
            read = (1,) if kick_parity(math.pi, num_spins) == 1 else (1, -1)
            assert tuple(factory.blocks) == read
            assert all(len(blocks) < len(exponents) for blocks in factory.blocks.values())
            assert all(b.dtype == dtype for blocks in factory.blocks.values()
                       for b in blocks.values())
            assert kept <= len(read) * len(exponents) * itemsize / 16 * half + half
            del factory

    @pytest.mark.parametrize("num_spins", [8, 9, 10, 11])
    def test_cycle_parity_applies_the_pulse_in_place(self, num_spins):
        """W± is U± scattered pair block by pair block, then the x pulse's layer on its rows
        in place: at most 1.6 half-size matrices, the one returned included."""
        eigensystem = system(num_spins).eigensystem()
        half = 16 * 4**(num_spins - 1)
        for sign in (1, -1):
            w, _, peak = traced(lambda: cycle_parity(eigensystem, MonopoleSpec(tau=0.01), sign))
            assert w.nbytes == half
            assert peak <= 1.6 * half
            del w

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("num_spins", [8, 11])
    def test_fuse_kick_holds_its_counted_temporaries(self, num_spins, dtype):
        """`fuse_kick` writes over b and holds `fuse_kick_bytes`, three complex128 column
        blocks in either dtype, while the kick's call runs on one of them."""
        h = 1 << (num_spins - 1)
        a, b = ((rng(seed).standard_normal((h, h)) + 0j).astype(dtype) for seed in (1, 2))
        counted = fuse_kick_bytes(num_spins)
        for parity in (1, -1):
            kick = GateLayer(rotation_gate("y", math.pi), num_spins, parity, dtype)
            out, kept, peak = traced(lambda: fuse_kick(a, kick, 1, b, b))
            assert out.dtype == dtype
            assert kept < 1024
            assert counted < peak <= counted + BOOKKEEPING

    def test_parity_frees_the_base_after_its_last_read(self, monkeypatch):
        """A chain's dict holds the only reference to W, so W is freed right after the last
        step that reads it, W^101 = W^100 · W, not when the chain ends."""
        alive, fill = [], PowerChain.fill

        class Watched(dict):
            def __setitem__(self, key, value):
                alive[-1].append(self.base() is not None)
                super().__setitem__(key, value)

        def watched_fill(chain, powers, dtype):
            alive.append([])
            watched = Watched(powers)
            powers.clear()
            watched.base = weakref.ref(watched[1])
            filled = fill(chain, watched, dtype)
            alive[-1].append(watched.base() is not None)
            return filled

        monkeypatch.setattr(PowerChain, "fill", watched_fill)
        factory = BlockPropagatorFactory(system(6), MonopoleSpec(tau=0.01), (301,))
        factory.parity(-1)
        steps = PowerChain(LAYOUT_EXPONENTS[301,]).steps
        last = steps.index((101, 100, 1))
        expected = [True] * (last + 1) + [False] * (len(steps) - last)
        assert alive == [expected, expected]

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("num_spins", [8, 9])
    def test_factory_fuses_into_the_powers_it_consumes(self, num_spins, dtype):
        """A factory whose block set keeps P ends holding fewer half-size blocks than its
        layout's powers: each fused kick step takes the storage of a power it consumed."""
        hamiltonian = system(num_spins)
        hamiltonian.eigensystem()
        spec = MonopoleSpec(tau=0.01)
        half, chains = 16 * 4**(num_spins - 1), 1 + num_spins % 2
        itemsize = np.dtype(dtype).itemsize

        def built(slots):
            factory = BlockPropagatorFactory(hamiltonian, spec, slots, dtype)
            return factory, factory.block_set()

        for slots, exponents in LAYOUT_EXPONENTS.items():
            counted = BlockPropagatorFactory.peak_bytes(
                num_spins, spec, slots, {kick_parity(math.pi, num_spins)}, itemsize)
            (factory, props), kept, peak = traced(lambda: built(slots))
            assert counted < peak <= counted + BOOKKEEPING
            # per chain: 2 fused steps of 4 powers, or 2 fused and 2 plain of 5
            assert list(factory.blocks) == [1, -1][:chains]
            held = {(301,): 2, (150, 301): 4}[slots]
            assert all(len(blocks) == held < len(exponents) for blocks in factory.blocks.values())
            assert kept <= len(factory.blocks) * held * itemsize / 16 * half + half
            # a second block set reads the same fused steps and builds no dense matrix
            again, kept, peak = traced(factory.block_set)
            assert kept <= peak < 0.2 * half
            assert all(f.blocks[s] is g.blocks[s] for sign in (1, -1)
                       for (f,), (g,) in zip(props.steps[sign], again.steps[sign])
                       for s in f.blocks)
            del factory, props, again

    @pytest.mark.parametrize("gamma_y", [0.95 * math.pi])
    def test_block_set_builds_no_dense_matrix(self, gamma_y):
        """Once both chains are built, a mixing block set keeps the factory's blocks and
        builds only the kick's gate halves; a gamma = pi one fuses its kick steps, which
        `test_factory_fuses_into_the_powers_it_consumes` bounds."""
        hamiltonian = system(8)
        spec = MonopoleSpec(tau=0.01)
        half = 16 * 4**7
        for slots in LAYOUT_EXPONENTS:
            factory = BlockPropagatorFactory(hamiltonian, spec, slots)
            factory.parity(-1)
            props, kept, peak = traced(lambda: factory.block_set(gamma_y))
            assert kept <= peak < 0.2 * half
            del factory, props

    def test_blockwise_steps_hold_only_state_vectors(self):
        hamiltonian = system(8)
        spec = MonopoleSpec(tau=0.01)
        half = 16 * 4**7
        for slots in LAYOUT_EXPONENTS:
            factory = BlockPropagatorFactory(hamiltonian, spec, slots)
            props, stream = factory.block_set(0.95 * math.pi), sample_rmd(1, 4, seed=3)
            row0 = initial_state(8)
            _, _, peak = traced(lambda: evolve_blockwise(stream, props, row0))
            assert peak < half

    def test_power_keeps_no_sign_tuples(self):
        """A parity -1 `Power` builds its signs from a list: `tuple()` of a generator leaves
        resized tuples in CPython's free list, about 56 bytes a call."""
        rows = rng(0).standard_normal((2, 8)) + 0j
        step = Power({1: np.eye(8), -1: np.eye(8)}, -1)

        def called():
            signs = (1, -1)
            for _ in range(1000):
                _, signs = step(rows, signs)

        _, kept, _ = traced(called)
        assert kept < 1024

    @pytest.mark.parametrize("num_spins, graphs", [(6, 1), (6, 3), (9, 1)])
    def test_heating_run_peak_within_the_estimate(self, tmp_path, num_spins, graphs):
        """A whole full-engine heating-eps run holds no matrix beyond its plan's `peak_bytes`.

        The estimate counts arrays only.  The run also holds its drive
        streams, under 25 bytes a cycle while drawn, and `BOOKKEEPING`.  A short ``max_cycles``
        keeps the streams small next to one dense matrix, which a block set
        built densely would add.  At n = 9 the factory, which builds in complex128 and keeps
        complex64 powers, holds most of the estimate, and the peak is within [0.8, 1.3] of it.
        """
        config = RunConfig(kind="heating-eps", out_dir=str(tmp_path / "run"),
                           num_spins=num_spins, eps_grid=(0.1, 0.2), realizations=2,
                           max_cycles=1024, graph_realizations=graphs)
        run(replace(config, out_dir=str(tmp_path / "warm")))  # imports outside the trace
        _, _, peak = traced(lambda: run(config))
        streams, estimate = 25 * config.max_cycles, config.plan().peak_bytes
        assert peak <= estimate + streams + BOOKKEEPING
        if num_spins == 9:
            assert config.plan().stage_bytes["factory"] > 0.9 * estimate
            assert 0.8 * estimate <= peak <= 1.3 * estimate

    def test_batched_heating_run_peak_within_the_estimate(self, tmp_path):
        """A heating-eps batch holds every member's stream and samples while its traces
        are placed: here 4 eps points x 3 realizations of 2^14 + 1 samples each, more than
        the rest of the run.  The plan's ``trace`` stage counts them, so the whole run stays
        within `peak_bytes` and `BOOKKEEPING`, and an estimate without them would be short."""
        config = RunConfig(kind="heating-eps", out_dir=str(tmp_path / "run"), num_spins=6,
                           eps_grid=(0.3, 0.4, 0.5, 0.6), realizations=3, max_cycles=2**14,
                           pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05)
        run(replace(config, out_dir=str(tmp_path / "warm"), max_cycles=64))  # imports
        _, _, peak = traced(lambda: run(config))
        plan = config.plan()
        assert plan.batches == ((1, 2, 3, 4), (0,))
        held = 12 * (8 * plan.trace_samples + config.max_cycles)
        assert plan.stage_bytes["trace"] == SignalTrace.peak_bytes(plan.trace_samples) + held
        assert plan.peak_bytes - held < peak <= plan.peak_bytes + BOOKKEEPING

    @pytest.mark.parametrize("num_spins", [8, 9, 10])
    def test_trace_estimate_counts_the_sector_engine(self, num_spins):
        """A per-pulse trace holds the eigenvectors of the sectors k <= n/2, no sector
        block, the free step's pair blocks and, while they are built, a real temporary of
        a block's rows in H₀: within 10 % of the estimate.  Keeping H's sector blocks
        would add 44-50 % here.  The free step alone holds its `FreeStep.peak_bytes`."""
        couplings = compute_couplings(generate_graph(num_spins, seed=11), 1.0)
        config = RunConfig(kind="trace", out_dir="x", num_spins=num_spins,
                           pulses_per_block=12, kick_plus=8, kick_minus=4, cycles=2)
        program = PulseProgram(sample_rmd(0, config.cycles, seed=1), config.spec())
        row0 = initial_state(config.num_spins)
        _, _, peak = traced(lambda: evolve(program, build_hamiltonian(couplings), row0))
        estimate = config.plan().peak_bytes
        assert abs(peak - estimate) <= 0.1 * estimate
        eigensystem = build_hamiltonian(couplings).eigensystem()
        _, _, peak = traced(lambda: FreeStep(eigensystem, config.tau))
        assert abs(peak - FreeStep.peak_bytes(num_spins)) <= BOOKKEEPING
        # the free step's blocks are half the C(2n, n) complex entries of U_free's sectors
        blocks = free_blocks(eigensystem, config.tau)
        assert sum(b.nbytes for _, _, b in blocks) == 8 * math.comb(2 * num_spins, num_spins)

    @pytest.mark.parametrize("engine", ["full", "dephasing"])
    @pytest.mark.parametrize("cycles", [1, 64, 256])
    def test_trace_placement_holds_its_bytes(self, engine, cycles):
        """A trace of 301-slot blocks peaks at its `SignalTrace.peak_bytes` while it is placed:
        from the values array `evolve_blockwise` fills, or inside `model_signal`."""
        spec, stream = MonopoleSpec(), sample_rmd(0, cycles, seed=1)
        slots = tuple(range(1, spec.slots_per_block + 1))
        samples = 1 + cycles * len(slots)
        if engine == "full":
            values = np.zeros(samples)
            _, _, peak = traced(lambda: SignalTrace.at_slots(spec, slots, values, {}))
            peak += values.nbytes
        else:
            _, _, peak = traced(lambda: model_signal(stream, DephasingParams(spec, slots)))
        assert abs(peak - SignalTrace.peak_bytes(samples)) <= BOOKKEEPING

    @pytest.mark.parametrize("engine", ["full", "dephasing"])
    def test_long_trace_run_within_its_estimate(self, tmp_path, engine):
        """A trace of 64 cycles at n = 8 holds 19,265 samples, 40 bytes each while
        `SignalTrace.at_slots` places them: four times the system's bytes, on either engine.
        A run whose writer held its cells as Python objects would add about 100 bytes each."""
        config = RunConfig(kind="trace", engine=engine, out_dir=str(tmp_path / "run"),
                           num_spins=8, cycles=64)
        run(replace(config, out_dir=str(tmp_path / "warm"), cycles=2))  # imports, caches
        _, _, peak = traced(lambda: run(config))
        estimate = config.plan().peak_bytes
        assert SignalTrace.peak_bytes(19265) > 0.75 * estimate
        assert abs(peak - estimate) <= 0.1 * estimate

    @pytest.mark.parametrize("num_spins", [8, 9, 10])
    def test_readout_caches_hold_their_bytes(self, num_spins):
        """`parity_ix` keeps its two Σσx caches, `parity_ix_bytes`, and nothing else."""
        rows = initial_state(num_spins)[None]
        _sum_sigma_x.cache_clear()
        try:
            _, kept, _ = traced(lambda: parity_ix([rows], [(1,)]))
        finally:
            _sum_sigma_x.cache_clear()
        assert parity_ix_bytes(num_spins) < kept <= parity_ix_bytes(num_spins) + BOOKKEEPING

    @pytest.mark.parametrize("num_spins, overrides, parities", [
        (8, dict(kind="encode", text="Hi"), {1}),
        (9, dict(kind="encode", text="Hi"), {-1}),
        (8, dict(kind="spectrum"), {1}),
        (8, dict(kind="spectrum", gamma_y=3.0), {0}),
        (8, dict(kind="phase-diagram", gamma_grid=(math.pi,)), {1}),
        (8, dict(kind="phase-diagram", gamma_grid=(math.pi, 3.0)), {0, 1}),
        (8, dict(kind="phase-diagram", gamma_grid=(3.0, math.pi)), {0, 1}),
        (9, dict(kind="phase-diagram", gamma_grid=(3.0, math.pi)), {0, -1}),
        (8, dict(kind="heating-eps", eps_grid=(0.1,)), {0, 1}),
        (9, dict(kind="heating-eps", eps_grid=(0.1,)), {0, -1}),
        (8, dict(kind="heating-period", tau_grid=(0.05, 0.02)), {1}),
        (8, dict(kind="heating-highfreq", tau_grid=(0.05, 0.02), sweep_slope=0.1), {0}),
    ])
    def test_run_estimate_follows_the_chains(self, tmp_path, num_spins, overrides, parities):
        """A whole run at the kick ``parities`` peaks within 10 % of its estimate: its
        system, plus the build of its chains or the fusion of the chains a kick that keeps
        P reads, whichever holds more."""
        config = RunConfig(out_dir=str(tmp_path / "run"), num_spins=num_spins,
                           pulses_per_block=12, kick_plus=8, kick_minus=4, cycles=16,
                           max_cycles=256, **overrides)
        points = config.plan().points
        assert {kick_parity(s.gamma_y, num_spins) for _, s in points} == parities
        run(replace(config, out_dir=str(tmp_path / "warm")))  # imports outside the trace
        _, _, peak = traced(lambda: run(config))
        estimate = config.plan().peak_bytes
        assert abs(peak - estimate) <= 0.1 * estimate

    @pytest.mark.parametrize("text, num_spins", [("Hi", 8), ("Hi", 9)])
    def test_encode_run_peak_within_the_estimate(self, tmp_path, text, num_spins):
        """An encode at gamma = pi holds one parity's chain at even n and both at odd n."""
        config = RunConfig(kind="encode", out_dir=str(tmp_path / "run"), num_spins=num_spins,
                           pulses_per_block=60, kick_plus=40, kick_minus=20, text=text)
        run(replace(config, out_dir=str(tmp_path / "warm")))  # imports outside the trace
        _, _, peak = traced(lambda: run(config))
        half = 16 * 4**(num_spins - 1)
        assert config.plan().peak_bytes - half < peak <= config.plan().peak_bytes + half

    def test_run_estimate_counts_the_chain_peak(self):
        def estimate(**layout):
            return RunConfig(kind="heating-eps", out_dir="x", num_spins=6, eps_grid=(0.1,),
                             graph_realizations=2, **layout).plan().peak_bytes
        small = dict(pulses_per_block=3, kick_plus=2, kick_minus=1)
        # a heating run reads whole blocks only
        # in half-size blocks: 4 kept and 4 live, against 3 and 3; the chain of 4 powers
        # reads W early and drops it, so it holds no fifth block
        specs = [MonopoleSpec(**layout) for layout in ({}, small)]
        half = 16 * 4**5

        def chains(itemsize):
            return [BlockPropagatorFactory.peak_bytes(6, s, (s.slots_per_block,), {0, 1},
                                                      itemsize) for s in specs]
        assert chains(16) == [8 * half, 6 * half]
        # complex64 keeps 4 or 3 powers at half a block each while the other chain builds in
        # 3 blocks: W^100, W^101, the leaf W^201 at half a block and W^101's copy while it is
        # cast; or W, W^2, the leaf W^3 at half a block and W's copy while it is cast
        assert chains(8) == [5 * half, 4.5 * half]
        # the two graphs are built one after another, so their peaks do not add; a heating-eps
        # run keeps its powers in complex64
        assert estimate() - estimate(**small) == (5 - 4.5) * half
