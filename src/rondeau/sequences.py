"""Drive protocols: multipole blocks, random multipolar streams, Thue-Morse.

A drive is a time-ordered string of monopole labels (+1 / -1).  The +1 and
-1 blocks are spin-lock trains of equal duration that differ only in where
the inversion kick sits, so the stream alone fixes the micromotion while
the stroboscopic dynamics is stream-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Hard cap on generated stream length; unrolling a multipole of order n
#: produces 2**n symbols, so absurd n must fail fast.
DEFAULT_MAX_SYMBOLS = 2**20

#: Marker for the deterministic n -> infinity (Thue-Morse) limit.
THUE_MORSE = math.inf


class StreamCapacityError(ValueError):
    """Requested stream would exceed the symbol cap `DEFAULT_MAX_SYMBOLS`."""


@dataclass(frozen=True)
class MonopoleSpec:
    """Timing layout of the two elementary drive blocks.

    A block is ``pulses_per_block`` spin-lock cycles with a single y-kick
    inserted after ``kick_plus`` (resp. ``kick_minus``) cycles.  Every
    pulse, kick included, is followed by a free-evolution slot of duration
    ``tau``, so both blocks last ``(pulses_per_block + 1) * tau``.
    """

    pulses_per_block: int = 300
    kick_plus: int = 200
    kick_minus: int = 100
    tau: float = 1.0
    theta_x: float = math.pi / 2
    gamma_y: float = math.pi

    def __post_init__(self):
        if not (0 < self.kick_minus < self.kick_plus < self.pulses_per_block):
            raise ValueError(
                "kick positions must satisfy 0 < kick_minus < kick_plus < pulses_per_block, "
                f"got {self.kick_minus}, {self.kick_plus}, {self.pulses_per_block}"
            )
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    @property
    def slots_per_block(self) -> int:
        """Pulse-plus-free-evolution slots per block (spin-lock cycles + kick)."""
        return self.pulses_per_block + 1

    @property
    def block_duration(self) -> float:
        """Duration T of one block; kicks carry their own free slot."""
        return self.slots_per_block * self.tau

    @property
    def epsilon(self) -> float:
        """Kick-angle deviation from a perfect inversion."""
        return self.gamma_y - math.pi


@dataclass(frozen=True, eq=False)
class SymbolStream:
    """Time-ordered monopole labels, stored as an int8 array of +1 / -1.

    ``n_order`` is the multipole order (``THUE_MORSE`` for the n -> inf
    limit, ``None`` for user-supplied or encoded streams); ``seed`` is the
    RNG seed for random streams and ``None`` for deterministic ones.
    """

    symbols: np.ndarray
    n_order: int | float | None = None
    seed: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.symbols, dtype=np.int8)
        if arr.ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        if arr.size and not np.all(np.abs(arr) == 1):
            raise ValueError("symbols must be +1 or -1")
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)

    def __len__(self) -> int:
        return self.symbols.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolStream):
            return NotImplemented
        return (
            np.array_equal(self.symbols, other.symbols)
            and self.n_order == other.n_order
            and self.seed == other.seed
        )

    def as_text(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.symbols)

    @classmethod
    def from_text(cls, text: str, n_order=None, seed=None) -> "SymbolStream":
        mapping = {"+": 1, "-": -1}
        try:
            symbols = np.array([mapping[c] for c in text.strip()], dtype=np.int8)
        except KeyError as exc:
            raise ValueError(f"invalid stream character {exc.args[0]!r}") from exc
        return cls(symbols=symbols, n_order=n_order, seed=seed)


def _check_capacity(length: int):
    if length > DEFAULT_MAX_SYMBOLS:
        raise StreamCapacityError(
            f"stream of {length} symbols exceeds cap of {DEFAULT_MAX_SYMBOLS}"
        )


def unroll_multipole(n: int, sign: int) -> SymbolStream:
    """Unroll the order-n multipole into its time-ordered symbol list.

    The recursion anti-aligns the two order-(n-1) blocks; written as an
    operator product the later factor acts first, so in execution order
    the same-sign half precedes the opposite-sign half.
    """
    if n < 0:
        raise ValueError(f"multipole order must be >= 0, got {n}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _check_capacity(2**n)
    block = np.array([1], dtype=np.int8)
    for _ in range(n):
        block = np.concatenate([block, -block])
    symbols = block if sign == 1 else -block
    return SymbolStream(symbols=symbols, n_order=n, seed=None)


def sample_rmd(n: int, cycles: int, seed: int) -> SymbolStream:
    """Draw a random multipolar drive of order n spanning `cycles` blocks.

    Each aligned chunk of 2**n cycles is a fair-coin choice between the
    two unrolled order-n multipoles.  Deterministic for a fixed seed.
    """
    if n < 0:
        raise ValueError(f"multipole order must be >= 0, got {n}")
    chunk = 2**n
    if cycles < 1 or cycles % chunk != 0:
        raise ValueError(
            f"cycles ({cycles}) must be a positive multiple of 2**n ({chunk})"
        )
    _check_capacity(cycles)
    rng = np.random.Generator(np.random.PCG64(seed))
    signs = 1 - 2 * rng.integers(0, 2, size=cycles // chunk).astype(np.int8)
    base = unroll_multipole(n, 1).symbols
    symbols = (signs[:, None] * base[None, :]).reshape(-1)
    return SymbolStream(symbols=symbols, n_order=n, seed=seed)


def thue_morse_stream(cycles: int, offset: int = 0) -> SymbolStream:
    """`cycles` symbols of the deterministic n -> infinity stream.

    Built by repeated doubling (block followed by its negation), which
    agrees with every finite multipole prefix by construction.  A nonzero
    ``offset`` starts the window that many symbols into the sequence --
    the stand-in for drive realizations of a deterministic protocol.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    _check_capacity(cycles + offset)
    block = np.array([1], dtype=np.int8)
    while block.size < cycles + offset:
        block = np.concatenate([block, -block])
    return SymbolStream(symbols=block[offset:offset + cycles].copy(),
                        n_order=THUE_MORSE, seed=None)


def order_label(stream: SymbolStream) -> int | str | None:
    """Serialization-friendly multipole order: an int, "inf", or None."""
    if stream.n_order is None:
        return None
    return "inf" if math.isinf(stream.n_order) else int(stream.n_order)
