import dataclasses
import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rondeau.codec import (BITS_PER_CHAR, EncodingError, LowConfidenceError,
                           Message, capacity, decode, decode_margins, encode)
from rondeau.dephasing import DephasingParams, model_signal
from rondeau.evolution import BlockPropagatorFactory, evolve_blockwise, initial_state
from rondeau.sequences import MonopoleSpec, sample_rmd
from rondeau.spins import build_hamiltonian, compute_couplings, generate_graph

printable_7bit = st.text(alphabet=string.printable, min_size=1, max_size=64)


def channel(stream, spec, epsilon=0.0, gamma_0=0.0, **kwargs):
    params = DephasingParams(spec=dataclasses.replace(spec, gamma_y=math.pi + epsilon),
                             epsilon=epsilon, gamma_0=gamma_0)
    return model_signal(stream, params, **kwargs)


class TestMessage:
    def test_letter_d_bit_pattern(self):
        assert list(Message("D").bits) == [1, 0, 0, 0, 1, 0, 0]

    def test_bits_round_trip(self):
        message = Message("Disorder")
        assert Message.from_bits(message.bits) == message

    def test_rejects_non_7bit_characters(self):
        with pytest.raises(EncodingError):
            Message("café")


class TestEncode:
    def test_letter_d_symbols(self):
        # bits 1000100 with the (-1)^cycle sign law
        assert encode(Message("D")).as_text() == "++-+++-"

    def test_leading_one_bit_is_plus(self):
        assert encode(Message("D")).symbols[0] == 1

    def test_offset_shifts_parity(self):
        base = encode(Message("D"), start_cycle=0).symbols
        shifted = encode(Message("D"), start_cycle=1).symbols
        assert np.array_equal(shifted, -base)

    def test_rejects_empty_message(self):
        with pytest.raises(ValueError):
            encode(Message.from_bits([]))

    @given(text=printable_7bit)
    @settings(max_examples=30)
    def test_bit_flip_flips_one_symbol(self, text):
        message = Message(text)
        bits = message.bits.copy()
        bits[0] ^= 1
        a = encode(message).symbols
        b = encode(Message.from_bits(bits)).symbols
        assert np.sum(a != b) == 1


class TestDecode:
    def test_round_trip_single_character(self, short_spec):
        trace = channel(encode(Message("D")), short_spec)
        assert decode(trace, short_spec).text == "D"

    @given(text=printable_7bit)
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, text):
        spec = MonopoleSpec(pulses_per_block=12, kick_plus=8, kick_minus=4, tau=0.05)
        trace = channel(encode(Message(text)), spec)
        assert decode(trace, spec).text == text

    def test_noise_margin(self, short_spec):
        # additive noise at a tenth of the signal leaves sign slicing intact
        stream = encode(Message("Disorder"))
        for noise_seed in range(50):
            trace = channel(stream, short_spec, readout_noise=0.1,
                            noise_seed=noise_seed)
            assert decode(trace, short_spec).text == "Disorder"

    def test_full_simulator_round_trip(self):
        graph = generate_graph(8, seed=3)
        hamiltonian = build_hamiltonian(compute_couplings(graph, 1.0))
        psi0 = initial_state(8, hamiltonian)
        spec = MonopoleSpec(pulses_per_block=30, kick_plus=20, kick_minus=10,
                            tau=0.02, gamma_y=math.pi)
        props = BlockPropagatorFactory(hamiltonian, spec).block_set()
        trace = evolve_blockwise(encode(Message("Hi")), props, psi0)
        assert decode(trace, spec).text == "Hi"

    def test_trailing_partial_group_dropped(self, short_spec):
        stream = encode(Message("D"))
        extra = np.concatenate([stream.symbols, [1]])
        from rondeau.sequences import SymbolStream
        trace = channel(SymbolStream(extra.astype(np.int8)), short_spec)
        assert decode(trace, short_spec).text == "D"

    def test_low_confidence_error_lists_cycles(self, short_spec):
        trace = channel(encode(Message("D")), short_spec)
        # force one half-period sample to zero magnitude
        from rondeau.evolution import half_sample_slot
        h = half_sample_slot(short_spec)
        mask = (trace.pulse_index == h) & (trace.cycle_index == 3)
        trace.values[mask] = 0.0
        with pytest.raises(LowConfidenceError) as err:
            decode(trace, short_spec)
        assert err.value.cycles == [3]

    def test_margins_exposed(self, short_spec):
        trace = channel(encode(Message("D")), short_spec)
        margins = decode_margins(trace, short_spec)
        assert margins.size == 7
        assert (np.abs(margins) > 0).all()


class TestStroboscopicOrderUnaffected:
    def test_encoded_stream_keeps_the_envelope(self, short_spec):
        from rondeau.analysis import stroboscopic_samples

        epsilon, gamma_0 = 0.07, 0.02
        encoded = encode(Message("Disorder"))
        reference = sample_rmd(0, len(encoded), seed=4)
        a = channel(encoded, short_spec, epsilon=epsilon, gamma_0=gamma_0)
        b = channel(reference, short_spec, epsilon=epsilon, gamma_0=gamma_0)
        _, sa = stroboscopic_samples(a)
        _, sb = stroboscopic_samples(b)
        assert np.allclose(sa, sb)


class TestCapacity:
    def paper_spec(self):
        return MonopoleSpec(pulses_per_block=300, kick_plus=200, kick_minus=100,
                            tau=86.8e-6)

    def test_published_budget(self):
        assert capacity(36.2, self.paper_spec(), bits_per_char=7) == 198

    def test_below_one_train_is_zero(self):
        spec = self.paper_spec()
        assert capacity(0.5 * spec.pulses_per_block * spec.tau, spec) == 0

    def test_doubling_time_doubles_characters(self):
        spec = self.paper_spec()
        base = capacity(10.0, spec)
        assert abs(capacity(20.0, spec) - 2 * base) <= 1

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            capacity(0.0, self.paper_spec())
