"""Text encoding in the monopole arrangement of a drive.

Bit b of cycle M fixes the required half-period micromotion sign
(positive for 1, negative for 0); inverting the sign law
sign = (-1)**M * symbol then picks the monopole for that cycle.  Decoding
slices the measured half-period samples by sign, seven bits per character,
most significant bit first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import half_period_samples
from .evolution import SignalTrace
from .sequences import MonopoleSpec, SymbolStream

BITS_PER_CHAR = 7


class EncodingError(ValueError):
    """Message contains a character outside the 7-bit range."""


class LowConfidenceError(RuntimeError):
    """Half-period samples too close to zero to slice reliably."""

    def __init__(self, cycles):
        self.cycles = list(cycles)
        super().__init__(f"low-confidence micromotion samples at cycles {self.cycles}")


@dataclass(frozen=True)
class Message:
    """A 7-bit-clean character string and its bit expansion."""

    text: str

    def __post_init__(self):
        bad = [c for c in self.text if ord(c) > 127]
        if bad:
            raise EncodingError(f"characters not 7-bit encodable: {bad!r}")

    @property
    def bits(self) -> np.ndarray:
        """MSB-first code bits, BITS_PER_CHAR per character."""
        codes = np.frombuffer(self.text.encode("ascii"), dtype=np.uint8)
        return np.unpackbits(codes[:, None], axis=1)[:, 8 - BITS_PER_CHAR:].ravel().view(np.int8)

    @classmethod
    def from_bits(cls, bits) -> "Message":
        """Text of MSB-first code bits; a trailing partial character is dropped."""
        bits = np.asarray(bits, dtype=np.uint8)
        chars = bits[:bits.size - bits.size % BITS_PER_CHAR].reshape(-1, BITS_PER_CHAR)
        codes = np.packbits(chars, axis=1)[:, 0] >> (8 - BITS_PER_CHAR)
        return cls(text=codes.tobytes().decode("ascii"))


def encode(message: Message | str) -> SymbolStream:
    """Monopole arrangement whose micromotion signs spell the message bits."""
    if isinstance(message, str):
        message = Message(message)
    if not message.text:
        raise ValueError("cannot encode an empty message")
    bits = message.bits
    wanted_signs = np.where(bits == 1, 1, -1)
    parity = np.where(np.arange(bits.size) % 2 == 0, 1, -1)
    symbols = (parity * wanted_signs).astype(np.int8)
    return SymbolStream(symbols=symbols, n_order=None, seed=None)


def decode_margins(trace: SignalTrace) -> np.ndarray:
    """Raw half-period sample values, one per complete cycle."""
    return half_period_samples(trace)


def decode(trace: SignalTrace, threshold: float = 0.0) -> Message:
    """Read the message back from a trace's half-period samples.

    Samples with magnitude at or below `threshold` abort the decode with
    the affected cycle numbers; a trailing partial character is dropped.
    """
    samples = decode_margins(trace)
    usable = samples.size - samples.size % BITS_PER_CHAR
    if usable == 0:
        raise ValueError("trace spans fewer cycles than one encoded character")
    weak = np.nonzero(np.abs(samples[:usable]) <= threshold)[0]
    if weak.size:
        raise LowConfidenceError(weak.tolist())
    return Message.from_bits(samples > 0)


def capacity(floor_crossing_time: float, spec: MonopoleSpec,
             bits_per_char: int = BITS_PER_CHAR) -> int:
    """Characters encodable before the signal reaches the noise floor.

    Counts whole spin-lock trains of duration N*tau per usable cycle (the
    published budget neglects the kick slot), then whole characters.
    """
    if floor_crossing_time <= 0:
        raise ValueError("floor-crossing time must be positive")
    if bits_per_char < 1:
        raise ValueError("bits_per_char must be >= 1")
    train = spec.pulses_per_block * spec.tau
    usable_cycles = math.floor(floor_crossing_time / train)
    return usable_cycles // bits_per_char
