import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rondeau.sequences import (MonopoleSpec, StreamCapacityError, SymbolStream,
                               sample_rmd, thue_morse_stream, unroll_multipole)

from oracles import envelope


def parity_symbol(k: int) -> int:
    """Independent oracle: +1 when the binary weight of k is even."""
    return -1 if bin(k).count("1") % 2 else 1


class TestUnroll:
    def test_base_cases(self):
        assert unroll_multipole(0, 1).as_text() == "+"
        assert unroll_multipole(0, -1).as_text() == "-"

    def test_order_two(self):
        # hand-unrolled recursion, rightmost operator first
        assert unroll_multipole(2, 1).as_text() == "+--+"
        assert unroll_multipole(2, -1).as_text() == "-++-"

    def test_order_four_matches_parity_formula(self):
        symbols = unroll_multipole(4, 1).symbols
        assert list(symbols) == [parity_symbol(k) for k in range(16)]

    def test_capacity_error(self):
        with pytest.raises(StreamCapacityError):
            unroll_multipole(12, 1, max_symbols=2**10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            unroll_multipole(-1, 1)
        with pytest.raises(ValueError):
            unroll_multipole(2, 0)

    @given(n=st.integers(min_value=1, max_value=10))
    def test_recursion_identity(self, n):
        whole = unroll_multipole(n, 1).symbols
        first = unroll_multipole(n - 1, 1).symbols
        second = unroll_multipole(n - 1, -1).symbols
        assert np.array_equal(whole, np.concatenate([first, second]))


class TestSampleRmd:
    def test_deterministic_for_fixed_seed(self):
        a = sample_rmd(0, 3, seed=99)
        b = sample_rmd(0, 3, seed=99)
        assert a == b

    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=25)
    def test_determinism_property(self, seed):
        assert sample_rmd(1, 8, seed) == sample_rmd(1, 8, seed)

    def test_dipole_pairs_anti_aligned(self):
        stream = sample_rmd(1, 4, seed=5)
        pairs = stream.symbols.reshape(-1, 2)
        for pair in pairs:
            assert tuple(pair) in ((1, -1), (-1, 1))

    def test_chunks_are_unrolled_multipoles(self):
        stream = sample_rmd(2, 32, seed=17)
        plus = unroll_multipole(2, 1).symbols
        for chunk in stream.symbols.reshape(-1, 4):
            assert np.array_equal(chunk, plus) or np.array_equal(chunk, -plus)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_symbols_match_the_int64_sign_product(self, n):
        """The int8 sign arithmetic keeps the draw, so the symbols are the old ones."""
        for seed in (0, 7, 2**63 - 1):
            rng = np.random.Generator(np.random.PCG64(seed))
            signs = np.where(rng.integers(0, 2, size=64) == 0, 1, -1)
            old = (signs[:, None] * unroll_multipole(n, 1).symbols[None, :]).reshape(-1)
            new = sample_rmd(n, 64 * 2**n, seed).symbols
            assert new.dtype == np.int8 and np.array_equal(new, old.astype(np.int8))

    def test_draw_holds_no_wide_transients(self):
        sample_rmd(0, 2, 7)  # the first draw in a process sets up about 0.7 MB once
        tracemalloc.start()
        try:
            sample_rmd(0, 32768, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20  # a 32 KB stream; int64 sign arithmetic peaked at 578 KB

    def test_rejects_unaligned_cycles(self):
        with pytest.raises(ValueError):
            sample_rmd(2, 721, seed=0)

    def test_symbol_frequency_balanced(self):
        # Monte-Carlo over seeds: fair coin per multipole
        fractions = [
            np.mean(sample_rmd(2, 720, seed=s).symbols > 0) for s in range(20)
        ]
        assert abs(np.mean(fractions) - 0.5) < 0.05


class TestThueMorse:
    def test_first_symbols(self):
        assert thue_morse_stream(1).as_text() == "+"
        assert thue_morse_stream(8).as_text() == "+--+-++-"

    def test_matches_parity_formula(self):
        symbols = thue_morse_stream(64).symbols
        assert list(symbols) == [parity_symbol(k) for k in range(64)]

    @given(n=st.integers(min_value=0, max_value=12))
    @settings(max_examples=13, deadline=None)
    def test_prefix_equals_unrolled_multipole(self, n):
        assert np.array_equal(thue_morse_stream(2**n).symbols,
                              unroll_multipole(n, 1).symbols)

    def test_truncation_is_prefix(self):
        long = thue_morse_stream(100).symbols
        short = thue_morse_stream(37).symbols
        assert np.array_equal(long[:37], short)


class TestEnvelope:
    def test_order_zero_is_flat(self):
        grid = np.linspace(0, math.pi, 11)
        assert np.allclose(envelope(0, grid).amplitude, 1.0)

    def test_order_one_at_pi(self):
        assert envelope(1, np.array([math.pi])).amplitude[0] == pytest.approx(math.sqrt(2))

    def test_low_frequency_suppression_quadratic(self):
        # 1 - cos x ~ x**2/2, so the order-2 envelope vanishes as nu**2
        small = envelope(2, np.array([1e-3, 2e-3])).amplitude
        assert small[1] / small[0] == pytest.approx(4.0, rel=1e-3)

    def test_nonnegative(self):
        grid = np.linspace(0, math.pi, 101)
        for n in range(5):
            assert (envelope(n, grid).amplitude >= 0).all()

    def test_rejects_grid_outside_range(self):
        with pytest.raises(ValueError):
            envelope(1, np.array([-0.1]))

    @pytest.mark.parametrize("n", range(6))
    def test_is_the_unrolled_multipole_spectrum(self, n):
        # |sum_j b_j e^{-i w j}|**2 of one order-n block is 2**n envelope(n, w)**2
        symbols = unroll_multipole(n, 1).symbols
        grid = np.linspace(0, math.pi, 257)
        power = np.abs(np.exp(-1j * np.outer(grid, np.arange(symbols.size))) @ symbols) ** 2
        assert np.allclose(power, 2**n * envelope(n, grid).amplitude ** 2,
                           rtol=0, atol=1e-11)


class TestSymbolStream:
    def test_text_round_trip(self):
        stream = sample_rmd(2, 16, seed=3)
        again = SymbolStream.from_text(stream.as_text(), n_order=2, seed=3)
        assert again == stream

    @given(bits=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=64))
    @settings(max_examples=30)
    def test_round_trip_property(self, bits):
        stream = SymbolStream(np.array(bits, dtype=np.int8))
        assert SymbolStream.from_text(stream.as_text()) == stream

    def test_rejects_bad_text(self):
        with pytest.raises(ValueError):
            SymbolStream.from_text("+-x")

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            SymbolStream(np.array([1, 2], dtype=np.int8))


class TestMonopoleSpec:
    def test_block_duration_includes_kick_slot(self):
        spec = MonopoleSpec(pulses_per_block=300, kick_plus=200, kick_minus=100,
                            tau=0.5)
        assert spec.slots_per_block == 301
        assert spec.block_duration == pytest.approx(150.5)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            MonopoleSpec(pulses_per_block=10, kick_plus=4, kick_minus=6)
        with pytest.raises(ValueError):
            MonopoleSpec(pulses_per_block=10, kick_plus=10, kick_minus=5)
        with pytest.raises(ValueError):
            MonopoleSpec(tau=0.0)

    def test_epsilon_is_deviation_from_inversion(self):
        spec = MonopoleSpec(gamma_y=math.pi + 0.05)
        assert spec.epsilon == pytest.approx(0.05)
