"""Exact state-vector evolution of driven spin networks.

Pulses are instantaneous global rotations: one single-spin gate on every spin, applied as
the Kronecker products of two halves of the spins by :class:`GateLayer`'s call, the only
code that applies a gate layer.  The dipolar Hamiltonian conserves total Iz, so free
evolution is block-diagonal in the n + 1 magnetization sectors, built from the
Hamiltonian's cached sector-wise eigendecomposition, one block per mirror pair of sectors
(:func:`free_blocks`).  Each pass over the blocks runs opposite to the last
(:class:`FreeStep`): at n = 11 they outgrow L2, and a pass that starts with the blocks the
last one read last finds them still there; no value depends on the order.  Readout is the
expectation value of total Ix after a slot's free evolution.

Free evolution, the x pulse and Ix commute with the global spin flip P = Π σx, and the
initial state has P = +1.  Every engine therefore carries its state as parity rows
c_s = (ψ[H₀] + s ψ[F(H₀)]) / √2, with H₀ the basis states whose spin 0 is up, the indices
below 2^(n-1), and F the flip of every spin, which maps index i to 2^n - 1 - i.  A run
starts from the one P = +1 row of :func:`initial_state`; a kick that keeps P eigenstates
(:func:`kick_parity`, exactly gamma = pi) keeps one row, and the first kick that mixes P
creates the P = -1 row.  Every operator acts on the rows, a gate layer included.

A run reads every block at one increasing tuple of readout slots that ends at the block
end.  :class:`BlockPropagators` holds one step per readout: b, then a :class:`GateLayer`,
then a, with a and b per-parity operators, the factory's powers of the spin-lock cycle
operator (:class:`Power`, placed by :func:`kick_layout`) or the per-pulse free step
(:class:`FreeStep`).  At a kick that keeps P the factory multiplies the three into one
half-size matrix per row sign (:func:`fuse_kick`), written over a power it consumes, so
such a step is one :class:`Power`, one mat-vec per row.  :func:`evolve_batch`, the one
stepper, applies the steps to a batch of (stream, block set) members that share a factory
and records each member's Ix after each; a shared power is applied to all rows that read it
back to back, while it is in cache.  :func:`evolve_blockwise` is a batch of one.  No
2^n x 2^n matrix is built, and only a mixing gate layer joins the rows into ψ's halves.  The
per-pulse and blockwise engines share `free_blocks` and the gate layer's call, and differ in
how they combine them: pulse by pulse, or through powers of W.  The tests' dense oracles
share only `rotation_gate` with this module: they apply gates spin by spin and build free
evolution from one dense eigh.

A factory keeps its powers, and its block sets step their rows, in one dtype: complex128,
or complex64 for a heating-eps sweep's rundowns, which halves the bytes each mat-vec
streams.  Either way every product of a chain is taken, and every gate layer computes, in
complex128, and Ix and the norm are summed in float64; only the stored powers and the rows
are rounded.  A complex64 chain writes the powers no later product reads straight into
complex64, row block by row block, and casts each other power after its last read
(`PowerChain.schedule`): on the default block-end layout it holds at most the bytes of
three complex128 matrices, where a complex128 chain holds four.  At n = 10 a complex64
rundown moved Ix by at most 1.6e-5 in up to 1160 cycles, against |Ix| near 1.8 where a
lifetime is read.  A lifetime, a whole block m, can then move by one block only where a
block-end |S| lies that close to 1/e; on every input measured none did.
Every other kind, a trace whose samples are outputs too, is stepped in complex128.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache, reduce
from itertools import groupby, zip_longest

import numpy as np

from .sequences import MonopoleSpec, SymbolStream, order_label
from .spins import Hamiltonian

#: Relative norm drift beyond which the evolution of complex128 rows is aborted.
NORM_DRIFT_LIMIT = 1e-8
#: The same for complex64 rows, whose drift grows by single-precision rounding.
NORM_DRIFT_LIMIT_SINGLE = 1e-4


class NumericalIntegrityError(RuntimeError):
    """State norm drifted beyond the allowed tolerance."""


@dataclass(frozen=True, eq=False)
class PulseProgram:
    """A symbol stream on ``spec``'s block layout, to be read out after every pulse.

    Each block is ``spec.slots_per_block`` pulses, each followed by a free
    slot of tau: x pulses, and the y-kick at slot ``kick_plus + 1`` of a +
    block or ``kick_minus + 1`` of a - block.
    """

    stream: SymbolStream
    spec: MonopoleSpec

    @property
    def num_pulses(self) -> int:
        return len(self.stream) * self.spec.slots_per_block


@dataclass(eq=False)
class SignalTrace:
    """Total-Ix record: the pre-drive sample at t = 0, then ``slots`` of every cycle.

    ``slots`` are the increasing 1-based slots read in each block, up to
    ``slots_per_block``; a trace of no cycle may read the block end alone.  The
    engines record noise-free values; :meth:`with_noise` adds read-out noise.
    """

    times: np.ndarray
    values: np.ndarray
    slots: tuple
    block_duration: float
    slots_per_block: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.size

    @property
    def num_cycles(self) -> int:
        return (len(self.values) - 1) // len(self.slots)

    def slot_values(self, slot: int) -> np.ndarray:
        """The value read after ``slot`` in each cycle: a strided view of ``values``."""
        if slot not in self.slots:
            raise ValueError(f"the trace reads slots {self.slots}, not slot {slot}")
        return self.values[1 + self.slots.index(slot)::len(self.slots)]

    @classmethod
    def at_slots(cls, spec: MonopoleSpec, slots, values, meta: dict) -> "SignalTrace":
        """Trace of ``values`` read at the pre-drive (0, 0), then at ``slots`` of every cycle.

        The one sample-time rule: a block end is at exactly (l + 1) T, which
        the slot sum can miss by an ulp; every other sample of cycle l is at
        l T + slot tau, the pre-drive one at t = 0.
        """
        slots = tuple(slots)
        cycle, slot = cls.slot_layout(slots, (len(values) - 1) // len(slots))
        T = spec.block_duration
        times = np.multiply(cycle, T)
        times += slot * spec.tau
        np.multiply(cycle + 1, T, out=times, where=slot == spec.slots_per_block)
        return cls(times=times, values=np.asarray(values, dtype=float), slots=slots,
                   block_duration=T, slots_per_block=spec.slots_per_block, meta=meta)

    @staticmethod
    def peak_bytes(num_samples: int) -> int:
        """Most bytes a trace of ``num_samples`` holds in `at_slots`: 5 arrays, a mask, a buffer."""
        return 41 * num_samples + 8 * min(num_samples, np.getbufsize())

    @staticmethod
    def slot_layout(slots, num_cycles: int) -> tuple[np.ndarray, np.ndarray]:
        """Cycle and slot indices: the pre-drive (0, 0), then ``slots`` in each cycle."""
        return (np.concatenate([[0], np.repeat(np.arange(num_cycles), len(slots))]),
                np.concatenate([[0], np.tile(np.asarray(slots, dtype=np.int64), num_cycles)]))

    def with_noise(self, readout_noise: float, noise_seed: int | None) -> "SignalTrace":
        """This trace plus Gaussian read-out noise: std ``readout_noise``, PCG64 ``noise_seed``."""
        if readout_noise <= 0.0:
            return self
        rng = np.random.Generator(np.random.PCG64(noise_seed))
        return replace(self, values=self.values + readout_noise * rng.standard_normal(len(self)))


# -- gate helpers ----------------------------------------------------------

def rotation_gate(axis: str, angle: float) -> np.ndarray:
    """2x2 matrix exp(-i * angle * sigma_axis / 2)."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    raise ValueError(f"unsupported rotation axis {axis!r}")


# -- spin-flip parity rows -------------------------------------------------

def kick_parity(gamma_y: float, num_spins: int) -> int:
    """How the kick maps a P eigenstate: 1 keeps its parity, -1 flips it, 0 mixes P = ±1.

    The one gamma = pi rule, from the angle exactly, never from the numbers:
    Y(pi) = -i σy anticommutes with σx, so Y(pi)^⊗n P = (-1)^n P Y(pi)^⊗n.
    """
    if gamma_y != math.pi:
        return 0
    return -1 if num_spins % 2 else 1


@cache
def _sum_sigma_x(bits: int, width: int = 1) -> np.ndarray:
    """Σ_k σx_k over ``bits`` spins ⊗ the identity on ``width`` (1 or 2), dense, read-only."""
    index = np.arange(width << bits)
    total = np.zeros((index.size, index.size))
    for k in range(bits):
        total[index, index ^ (width << k)] = 1.0
    total.setflags(write=False)
    return total


def parity_ix(rows: list, signs: list, norms: np.ndarray | None = None) -> np.ndarray:
    """Total Ix of each member's parity rows, ``rows[m]`` of ``signs[m]``; Ix commutes with
    P, so each row reads its own part.  ``norms``, if given, receives each member's squared
    norm, summed from the same float64 view.

    A row c of parity s is c / √2 on H₀ and s c[::-1] / √2 on F(H₀).  Spins 1 ... n-1
    read one real view v of every member's rows, stacked C-contiguous, each 2^a x 2^b,
    a = ⌈(n - 1)/2⌉, with real and imaginary parts side by side, as vdot(v, A v + v (B ⊗ I₂))
    / 2 over a member's part of v, A and B the cached Σσx of the first a and the last b
    spins.  Spin 0 reads s Re<c, c[::-1]> / 2 per row.  Complex64 rows are read as
    complex128, so every readout accumulates in float64.  The products compute each row's
    part of A v and v (B ⊗ I₂) from that row alone, so a member reads the same bits in a
    batch as alone; `test_a_batch_steps_each_member_as_alone` checks it on the BLAS in use.
    """
    state = (np.ascontiguousarray(rows[0], dtype=complex) if len(rows) == 1
             else np.concatenate(rows, dtype=complex))
    bits = state.shape[1].bit_length() - 1
    a = (bits + 1) // 2
    v = state.view(float).reshape(len(state), 1 << a, -1)
    w = _sum_sigma_x(a) @ v
    w += (v.reshape(-1, v.shape[2]) @ _sum_sigma_x(bits - a, 2)).reshape(v.shape)
    ix, stop = np.empty(len(rows)), 0
    for m, member in enumerate(signs):
        start, stop = stop, stop + len(member)
        total = np.vdot(v[start:stop], w[start:stop]) / 2
        for row, s in zip(state[start:stop], member):
            total += s * np.vdot(row, row[::-1]).real / 2
        ix[m] = total
        if norms is not None:
            norms[m] = np.vdot(v[start:stop], v[start:stop])
    return ix


def parity_ix_bytes(num_spins: int) -> int:
    """Bytes of the two Σσx caches `parity_ix` keeps for rows of ``num_spins`` spins."""
    return 8 * (4**(num_spins // 2) + 4**(num_spins - num_spins // 2))


def free_blocks(eigensystem, duration: float):
    """exp(-i duration H) on parity rows, one ``(cols, h, block)`` triple per mirror pair of
    total-Iz sectors (k, n - k), k < n/2, then at even n one for the middle sector n/2.

    ``cols`` lists sector k's states as row entries: its h states in H₀, a prefix of its
    ascending indices, then the F(j) of its states j in H₁, which a P = s state holds as
    s c[F(j)]: sector n - k's states in H₀.  ``block`` is V_k e^{-i duration Λ_k} V_k^T
    from sector k's cached real eigensystem on the entries ``cols[:len(block)]``: all of a
    pair's, each F(j) written back with the sign it was read with, or the middle sector's
    h in H₀.  Its real and imaginary parts are (L cos) R and -(L sin) R, R = V_k^T, built
    in the row parts L = V_k[:h] and V_k[h:]; no mirror sector's eigenvectors are read.
    """
    n = len(eigensystem) - 1
    dim = 1 << n
    for k, (idx, vals, vecs) in enumerate(eigensystem[:n // 2 + 1]):
        h = int(np.searchsorted(idx, dim // 2))
        block = np.empty((idx.size if 2 * k < n else h, idx.size), dtype=complex)
        for part in (slice(0, h), slice(h, len(block))):
            np.matmul(vecs[part] * np.cos(duration * vals), vecs.T, out=block.real[part])
            np.matmul(vecs[part] * -np.sin(duration * vals), vecs.T, out=block.imag[part])
        yield np.where(idx < dim // 2, idx, dim - 1 - idx), h, block


class FreeStep:
    """A per-parity operator, free evolution by the `free_blocks` for ``duration``: a row c
    of parity s is gathered once into the kept buffer x = c[gather] of every block's
    ``cols``, times s on the H₁ entries (``flip``, complex so that no call casts it).  Each
    block maps its view of x into its view of the kept buffer y, the first 2^(n-1) entries,
    which list every row entry once; y gets s on its H₁ entries and is scattered into the
    row at once.  Each pass over the blocks, one per row, runs opposite to the pass before
    it, across calls too, so that it starts with the blocks still in cache: at n = 11 they
    hold 5.6 MB, more than the 2 MB L2 of each of two cores.  As each block writes its own
    slice of y, the order changes no value."""

    def __init__(self, eigensystem, duration: float):
        blocks = tuple(free_blocks(eigensystem, duration))
        self.gather = np.concatenate([cols for cols, _, _ in blocks])
        self.flip = np.concatenate([np.arange(c.size) < h for c, h, _ in blocks]) * 2.0 - 1 + 0j
        self.order = np.argsort(self.gather[:1 << (len(eigensystem) - 2)])  # y's scatter
        self.x, self.y = np.empty(self.gather.size, complex), np.empty(self.order.size, complex)
        start = np.cumsum([0] + [cols.size for cols, _, _ in blocks])
        self.parts = tuple((block, self.x[o:o + block.shape[1]], self.y[o:o + len(block)])
                           for (_, _, block), o in zip(blocks, start))

    @staticmethod
    def peak_bytes(num_spins: int) -> int:
        """Most bytes a free step holds: its pair blocks and the larger of what is held while
        the last block is built, a real temporary of its H₀ rows and its ufunc buffer, and
        what is kept after it: ``gather``, ``flip``, ``x``, ``y`` and ``order``."""
        n, own = num_spins, sum(math.comb(num_spins, k) for k in range(num_spins // 2 + 1))
        rows, half = math.comb(n - 1, n // 2) * math.comb(n, n // 2), 2**(n - 1)
        build, kept = rows + min(rows, np.getbufsize()), 5 * own + 3 * half
        return 8 * (math.comb(2 * n, n) + max(build, kept))

    def __call__(self, rows: np.ndarray, signs) -> tuple[np.ndarray, tuple]:
        out, x, y = np.empty_like(rows), self.x, self.y
        for c, s, row in zip(rows, signs, out):
            c.take(self.gather, out=x, mode="clip")  # valid indices; "raise" would buffer
            if s < 0:
                x *= self.flip
            self.parts = self.parts[::-1]  # the blocks the last pass read last come first
            for block, into, outof in self.parts:
                np.matmul(block, into, out=outof)
            if s < 0:
                y *= self.flip[:y.size]
            y.take(self.order, out=row, mode="clip")
        return out, signs


@dataclass(frozen=True, eq=False)
class Power:
    """A per-parity operator as its half-size ``blocks``: a row c of parity s becomes
    blocks[s] @ c, of parity ``parity`` · s.  A power of the spin-lock cycle operator W,
    which commutes with P, keeps the parity; a fused kick step may flip it."""

    blocks: dict
    parity: int = 1

    def __call__(self, rows: np.ndarray, signs) -> tuple[np.ndarray, tuple]:
        queue = {}
        out, signs = self.defer(rows, signs, queue)
        run_queue(queue)
        return out, signs

    def defer(self, rows: np.ndarray, signs, queue: dict) -> tuple[np.ndarray, tuple]:
        """The rows and signs this power maps ``rows`` to, its mat-vecs not yet run: each
        (row, out) pair is queued under the id of the block that reads it, for `run_queue`."""
        out = np.empty_like(rows)
        for c, s, row in zip(rows, signs, out):
            block = self.blocks[s]
            queue.setdefault(id(block), [block]).append((c, row))
        return out, signs if self.parity == 1 else tuple([self.parity * s for s in signs])


def run_queue(queue: dict):
    """Run the mat-vecs `Power.defer` queued, matrix by matrix: each block is applied to all
    of its rows back to back, while it is still in cache, one mat-vec per row."""
    for block, *pairs in queue.values():
        for c, row in pairs:
            np.matmul(block, c, out=row)


class GateLayer:
    """One 2x2 ``gate`` on every spin, applied to parity rows by its `kick_parity` ``parity``.

    Spin 0 is the most significant bit, and a P = s state has ψ[H₁] = s ψ[H₀][::-1].
    Parity ±1: the layer is g ⊗ G', G' (``halves``) on spins 1 ... n-1; it folds onto each
    row c as x = g₀₀ c + s g₀₁ c[::-1], and G' x is a row of parity ``parity`` · s.  Parity
    0: it acts on √2 ψ's halves, y₀ = Σ c_s and y₁ = (Σ s c_s)[::-1], as one 2^k x 2^(n-k)
    matrix, spin 0 and a factor 1/2 in its first half: z = (G ψ) / √2, and the new rows, of
    signs (1, -1), are z₀ ± z₁[::-1].  A folding call takes any rows, strided too: a state's,
    U±'s (`cycle_parity`) or a power's transposed columns (`fuse_kick`), and holds three
    complex128 temporaries of their size.

    The layer computes in complex128 and returns rows of ``dtype``.  A gate or a Kronecker
    half rounded to complex64 would repeat one rounding error on every spin or on many equal
    entries, an error that the state accumulates cycle after cycle: at n = 10 and tau = 0.002,
    complex64 halves drifted the norm by 1e-4 in 2000 cycles, complex64 powers by 4e-6.
    """

    def __init__(self, gate: np.ndarray, num_spins: int, parity: int, dtype=complex):
        self.gate, self.parity, self.dtype = gate, parity, np.dtype(dtype)
        k = (num_spins + 1) // 2  # the first half: spins 1 ... k - 1 folding, 0 ... k - 1 mixing
        power = lambda m: reduce(np.kron, [gate] * m, np.ones((1, 1), dtype=complex))
        self.halves = power(k) / 2 if not parity else power(k - 1), power(num_spins - k)

    def __call__(self, rows: np.ndarray, signs) -> tuple[np.ndarray, tuple]:
        g, (first, second) = self.gate, self.halves
        if self.parity:
            x = (np.asarray(signs)[:, None] * g[0, 1]) * rows[:, ::-1]  # complex128, as g
            x += g[0, 0] * rows
            z = ((first @ x.reshape(len(x), first.shape[0], -1)) @ second.T).reshape(x.shape)
            # a list, not a generator: CPython's free list keeps resized tuples
            return z.astype(self.dtype, copy=False), tuple([self.parity * s for s in signs])
        y = np.empty((2, rows.shape[1]), dtype=complex)  # √2 ψ's halves, then the new rows
        np.add.reduce(rows, axis=0, out=y[0])
        np.subtract.reduce(rows[:, ::-1], axis=0, out=y[1])  # a second row's sign is -signs[0]
        if signs[0] < 0:
            y[1] *= -1
        z = (first @ y.reshape(first.shape[0], -1) @ second.T).reshape(2, -1)
        np.add(z[0], z[1, ::-1], out=y[0])
        np.subtract(z[0], z[1, ::-1], out=y[1])
        return y.astype(self.dtype, copy=False), (1, -1)


# -- initial state ---------------------------------------------------------

def initial_state(num_spins: int, hamiltonian: Hamiltonian | None = None,
                  decay_time: float = 0.0) -> np.ndarray:
    """The P = +1 row c = (ψ₀[H₀] + ψ₀[F(H₀)]) / √2 of the all-spins-along-x state ψ₀.

    ψ₀ is 2^(-n/2) on every basis state and has P = +1, so this one row of
    2^(n-1) entries is the whole state.  A positive ``decay_time`` evolves it
    under ``hamiltonian`` first, lowering the initial polarization (free
    induction decay) without touching the subsequent dynamics; free
    evolution keeps P = +1.
    """
    if decay_time < 0:
        raise ValueError(f"decay_time must be >= 0, got {decay_time}")
    dim = 2**num_spins
    row = np.full(dim // 2, 2 / math.sqrt(dim), dtype=complex) / math.sqrt(2)
    if decay_time > 0:
        if hamiltonian is None:
            raise ValueError(f"decay_time = {decay_time} needs a hamiltonian to decay under")
        row = FreeStep(hamiltonian.eigensystem(), decay_time)(row[None], (1,))[0][0]
    return row


def _check_norm(norm: float, dtype, context: str):
    """Raise unless the squared ``norm`` of rows of ``dtype``, summed in float64, is 1 within
    the dtype's limit."""
    limit = NORM_DRIFT_LIMIT if dtype == np.complex128 else NORM_DRIFT_LIMIT_SINGLE
    drift = abs(float(norm) - 1.0)
    if drift > limit:
        raise NumericalIntegrityError(f"norm drift {drift:.3e} during {context}")


# -- readout slots ---------------------------------------------------------

def half_sample_slot(layout: MonopoleSpec | SignalTrace) -> int:
    """Readout slot nearest the half-period instant of a spec's or a trace's blocks."""
    return max(layout.slots_per_block // 2, 1)


def check_kick_layout(spec: MonopoleSpec):
    """Raise ValueError unless the half-period sample separates the blocks' kicks.

    A run that reads that sample reads a block's sign off it, so it must fall
    after the - block's kick and no later than the + block's.
    """
    h = half_sample_slot(spec)
    if not spec.kick_minus < h <= spec.kick_plus:
        raise ValueError(
            f"half-period sample (slot {h}) does not separate the two blocks; need "
            f"kick_minus ({spec.kick_minus}) < half slot <= kick_plus ({spec.kick_plus})")


# -- the propagator factory ------------------------------------------------

#: Blocks of rows (`cycle_parity`) or columns (`fuse_kick`) in which a gate layer is applied
#: to a half-size matrix in place, so that no full-size temporary is made.
LAYER_BLOCKS = 32
#: Row blocks in which `PowerChain.fill` takes a product that it keeps in a narrower dtype
#: than W's and that no later product reads, so that one block is held in W's dtype.
LEAF_BLOCKS = 4


def cycle_parity(eigensystem, spec: MonopoleSpec, sign: int) -> np.ndarray:
    """W₊ (``sign`` 1) or W₋ (-1), a parity block of the spin-lock cycle operator W = U_free · X.

    A parity block of M, which commutes with P, is M[H₀, H₀] ± M[H₀, F(H₀)], the
    half-size matrix that maps a row of that parity.  U± is scattered from the
    pair blocks of `free_blocks`, one at a time, never from a dense 2^n x 2^n
    matrix.  Then W± = U± X±, and X± = x₀₀ X' ± x₀₁ X' R is symmetric: x is, and
    the pulse X' on spins 1 ... n-1 commutes with the reversal R of the 2^(n-1)
    indices.  So row j of W± is X± applied to row j of U±, which is the x pulse's
    `GateLayer` on that row as a row of parity ``sign``: applied in place, one
    block of rows at a time.
    """
    n = len(eigensystem) - 1
    h = 1 << (n - 1)
    w = np.zeros((h, h), dtype=complex)      # U±, then W±
    for cols, k, block in free_blocks(eigensystem, spec.tau):
        if sign < 0:  # a P = -1 row reads and writes its H₁ entries negated
            block[k:] *= -1.0
            block[:, k:] *= -1.0
        w[np.ix_(cols[:len(block)], cols[:k])] = block[:, :k]
        w[np.ix_(cols[:len(block)], cols[k:])] += block[:, k:]
    pulse = GateLayer(rotation_gate("x", spec.theta_x), n, 1)
    width = -(-h // LAYER_BLOCKS)
    for j in range(0, h, width):
        w[j:j + width] = pulse(w[j:j + width], (sign,) * width)[0]
    return w


class PowerChain:
    """Addition chain building W^e for every exponent e of a set.

    Exponents are built in increasing order, each as one product W^a · W^(e-a)
    of two built powers, the largest a, when such a pair exists; otherwise as
    the product of the squares W^(2^j) of e's set bits, building only the squares
    not yet built.  So a chain never needs more products than the binary method
    with shared squares.  A lean rule squares-and-multiplies from the top bit and
    pairs the largest a without W, so W is dropped early (201 = 101 + 100, not
    200 + 1); its chain is kept if it is no worse in products and in ``peak``, the
    most matrices `fill` holds at once (the base, built powers, the identity), and
    better in one.  ``steps[i] = (e, a, b)`` computes W^e = W^a · W^b; `schedule` gives
    the order in which `fill` runs them and what it frees after each.
    """

    def __init__(self, exponents):
        self.targets = frozenset(int(e) for e in exponents)
        if any(e < 0 for e in self.targets):
            raise ValueError(f"negative exponent in {sorted(self.targets)}")
        binary, lean = self._chain(lean=False), self._chain(lean=True)
        no_worse = len(lean[0]) <= len(binary[0]) and lean[1] <= binary[1]
        better = no_worse and (len(lean[0]), lean[1]) != (len(binary[0]), binary[1])
        self.steps, self.peak = lean if better else binary

    def _chain(self, lean: bool) -> tuple[tuple, int]:
        """Steps and peak of the binary rule, or of the lean rule."""
        built, steps = {1}, []

        def product(a: int, b: int) -> int:
            if a + b not in built:
                steps.append((a + b, a, b))
                built.add(a + b)
            return a + b

        for e in sorted(self.targets - {0, 1}):
            pairs = sorted((a for a in built if e - a in built),
                           key=lambda a: (lean and 1 in (a, e - a), -a))
            if pairs:  # an e already built has one, and `product` skips it
                product(pairs[0], e - pairs[0])
            elif lean:
                partial = 1
                for j in reversed(range(e.bit_length() - 1)):
                    partial = product(partial, partial)
                    partial = product(partial, 1) if e >> j & 1 else partial
            else:
                for j in range(1, e.bit_length()):
                    product(1 << j - 1, 1 << j - 1)
                partial = 1 << e.bit_length() - 1
                for j in reversed(range(e.bit_length() - 1)):
                    partial = product(partial, 1 << j) if e >> j & 1 else partial
        return tuple(steps), self._held(self._schedule(steps, False), 16) // 16

    def schedule(self, cast: bool) -> tuple:
        """``(e, a, b, leaf, drops, casts)`` for each product, in the order `fill` runs them
        on a W whose dtype its targets keep (``cast`` False) or that it casts them from.

        ``drops`` names the powers that are no target and that no later product reads.
        Without ``cast`` the order is ``steps``, no product is a leaf and nothing is cast.
        With it, a leaf is a product that no later product reads: it is taken in
        `LEAF_BLOCKS` row blocks, each written straight into the kept dtype, so no
        complex128 copy of it is held.  ``casts`` names the other targets that no later
        product reads, cast after it.  Each run of consecutive leaves is reordered so that
        the next one frees the most complex128 bytes: W^201 = W^101 · W^100 before
        W^200 = W^100 · W^100, so W^101 is cast before W^200 is held.
        """
        return self._schedule(self.steps, cast)

    def _schedule(self, steps, cast: bool) -> tuple:
        reads = [f for _, a, b in steps for f in (a, b)]
        leaves = {e for e, _, _ in steps} - set(reads) if cast else set()
        order = []
        for leaf, run in groupby(steps, lambda step: step[0] in leaves):
            run = list(run)
            later = set(reads[2 * (len(order) + len(run)):])

            def freed(step) -> int:  # complex128 bytes an entry freed once ``step`` runs
                others = {f for other in run if other is not step for f in other[1:]}
                return sum(8 << (f not in self.targets) for f in set(step[1:]) - later - others)

            while leaf and run:
                order.append(max(run, key=freed))
                run.remove(order[-1])
            order += run
        last = {f: i for i, (_, a, b) in enumerate(order) for f in (a, b)}
        ends = [{f for f in (a, b) if last[f] == i} for i, (_, a, b) in enumerate(order)]
        return tuple((e, a, b, e in leaves, tuple(sorted(end - self.targets)),
                      tuple(sorted(end & self.targets)) if cast else ())
                     for (e, a, b), end in zip(order, ends))

    def _held(self, schedule, itemsize: int) -> int:
        """Most bytes an entry that `fill` holds at once running ``schedule`` on a complex128 W
        and keeping its targets at ``itemsize`` bytes: each matrix at its current size, a
        leaf's row block while it is taken, and a target's copy while it is cast."""
        held, peak = {1: 16}, 16
        for e, _, _, leaf, drops, casts in schedule:
            held[e] = itemsize if leaf else 16
            peak = max(peak, sum(held.values()) + leaf * 16 // LEAF_BLOCKS)
            for f in drops:
                del held[f]
            for f in casts:
                peak = max(peak, sum(held.values()) + itemsize)
                held[f] = itemsize
        if 1 not in self.targets:
            held.pop(1, None)  # dropped after its last read, or unread
        elif itemsize < 16 and not schedule:
            peak, held[1] = 16 + itemsize, itemsize
        if 0 in self.targets:
            held[0] = itemsize
        return max(peak, sum(held.values()))

    def fill(self, powers: dict, dtype=complex) -> dict:
        """Add every target power to ``powers``, which holds only the base W at key 1.

        The dict is the only reference the chain keeps to each matrix, so a
        dropped power is freed at once if the caller holds no other.  Every product
        is taken in W's dtype, and each target is kept in ``dtype``: a leaf is written
        into it block by block, and any other target is cast once no later product reads
        it, so that a cast frees its source before the next product (`schedule`).
        """
        dim, cast = powers[1].shape[0], np.dtype(dtype) != powers[1].dtype
        rows = -(-dim // LEAF_BLOCKS)
        for e, a, b, leaf, drops, casts in self.schedule(cast):
            if leaf:
                powers[e] = np.empty((dim, dim), dtype)
                for r in range(0, dim, rows):
                    powers[e][r:r + rows] = powers[a][r:r + rows] @ powers[b]
            else:
                powers[e] = powers[a] @ powers[b]
            for f in drops:
                del powers[f]
            for f in casts:
                powers[f] = powers[f].astype(dtype)
        if 1 not in self.targets:
            powers.pop(1, None)
        elif cast and not self.steps:
            powers[1] = powers[1].astype(dtype)
        if 0 in self.targets:
            powers[0] = np.eye(dim, dtype=dtype)
        return powers

    def peak_bytes(self, entries: int, itemsize: int = 16) -> int:
        """Most bytes `fill` holds at once on a complex128 W of ``entries`` entries whose
        targets it keeps at ``itemsize`` bytes an entry; ``peak`` matrices at 16."""
        return self._held(self.schedule(itemsize < 16), itemsize) * entries


def kick_layout(spec: MonopoleSpec, slots) -> dict[int, tuple]:
    """Gamma-free factors of the steps between the readout ``slots``, keyed by block sign.

    The step from slot p to slot s (p = 0 at the block start) is ``(s - p,)``,
    the plain power W^(s-p) of the spin-lock cycle operator, if the block's
    kick, pulse k + 1, lies outside (p, s]; otherwise ``(s - k, k - p)``,
    W^(s-k) · G(W^(k-p)) with G the kick's gate layer.
    """
    slots = tuple(slots)
    if slots[-1:] != (spec.slots_per_block,) or slots[0] < 1 or list(slots) != sorted(set(slots)):
        raise ValueError(f"readout slots {slots} must increase from 1 to {spec.slots_per_block}")
    intervals = tuple(zip((0, *slots), slots))
    return {sign: tuple((s - k, k - p) if p <= k < s else (s - p,) for p, s in intervals)
            for sign, k in ((1, spec.kick_plus), (-1, spec.kick_minus))}


def fuse_kick(a: np.ndarray, kick: GateLayer, sign: int, b: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Write F = a · L · b into ``out``, L the ``kick``'s layer on a P = ``sign`` row.

    F is built in `LAYER_BLOCKS` column blocks.  Block J of L · b is the transpose of the
    kick's call on the rows b[:, J].T, all of sign ``sign``, so block J reads only b[:, J]
    and ``out`` may be ``b``; the call's temporaries are counted by `fuse_kick_bytes`.
    """
    width = -(-b.shape[1] // LAYER_BLOCKS)
    for j in range(0, b.shape[1], width):
        np.matmul(a, kick(b[:, j:j + width].T, (sign,) * width)[0].T, out=out[:, j:j + width])
    return out


def fuse_kick_bytes(num_spins: int) -> int:
    """Bytes of `fuse_kick`'s temporaries on ``num_spins`` spins: three complex128 column
    blocks, in which a folding `GateLayer` computes whatever the dtype of its rows."""
    return 3 * 16 * (h := 1 << (num_spins - 1)) * -(-h // LAYER_BLOCKS)


def fusion_plan(layout: dict, parity: int) -> list[tuple]:
    """The kick steps a factory fuses in place at a kick of `kick_parity` ``parity``, ±1.

    A kick step (a, b) fuses into F_s = A_{p s} · L_s · B_s for every row sign s, with
    A = W^a, B = W^b and p = ``parity``, read from the P = p s and P = s chains, and each
    F_s is written into the storage of the B_s it consumes.  So a step fuses once no step
    left unfused reads any of its B_s; a step whose B a plain or an unfused step reads
    stays (W^b, G, W^a).  A job is ``((a, b), drops)``, in order: after it the powers
    ``drops``, (sign, exponent) keys, have no reader left.  A plain step reads its power
    in every cycle, so no job drops it.
    """
    p, signs = parity, (1,) if parity == 1 else (1, -1)
    steps = {f for block in layout.values() for f in block}
    kicks = sorted(f for f in steps if len(f) == 2)
    reads = lambda a, b: [(s, b) for s in signs] + [(p * s, a) for s in signs]
    readers = Counter((s, f[0]) for f in steps if len(f) == 1 for s in signs)
    for f in kicks:
        readers.update(reads(*f))
    plan = []
    while fusable := [f for f in kicks if all(readers[s, f[1]] == 1 for s in signs)]:
        a, b = fusable[0]
        kicks.remove((a, b))
        readers.subtract(reads(a, b))
        plan.append(((a, b), tuple((p * s, a) for s in signs if not readers[p * s, a])))
    return plan


class BlockPropagatorFactory:
    """Block propagators for one (Hamiltonian, timing, readout slots) setup.

    With W = U_free · X the spin-lock cycle operator (x pulse, then free
    evolution), the kick cycle is U_free · Y = W · X^† · Y.  Every readout step
    of a block is therefore a plain power W^e or a product A · G(B) of two
    powers, A = W^a and B = W^b, where only the gate layer G = X^† · Y depends
    on the kick angle (:func:`kick_layout` derives the exponents from the
    slots).  W commutes with the global spin flip P: ``blocks[s]`` holds the
    P = s block of every power the layout names, built by one
    :class:`PowerChain` run when first needed (P = +1 at once).  A block set
    reads the chains its rows reach: at gamma = pi and even n, where G keeps
    P = +1, the P = +1 chain alone, so such a factory never builds P = -1.

    Every product of a chain is taken in complex128, and its powers are kept in ``dtype``:
    a complex64 `PowerChain.fill` writes each leaf, a power no later product reads, into
    complex64 by row blocks and casts every other power after its last read, so that
    complex64 powers halve what the factory keeps and what a step streams.  Fusion's
    products then run in ``dtype``; the kick's gate layer computes in complex128 and hands
    on rows of ``dtype``.

    A kick that keeps P (`kick_parity` ±1) makes each kick step one fixed
    half-size matrix per row sign, built by :func:`fuse_kick`.  The first block
    set at such a kick fuses the steps of :func:`fusion_plan` in place: F_s is
    held under the key (a, b) in the storage of the B_s it consumed, and powers
    left without a reader are dropped.  Later such block sets read the same
    matrices.  The chains are then incomplete, so the factory refuses a kick
    that mixes P; a run visits the points whose kick keeps P last.  At even n
    such block sets read P = +1 alone, so fusing drops a P = -1 chain.
    """

    def __init__(self, hamiltonian: Hamiltonian, spec: MonopoleSpec, slots, dtype=complex):
        self.hamiltonian = hamiltonian
        self.spec = spec
        self.slots = tuple(slots)
        self.dtype = np.dtype(dtype)
        self.num_spins = hamiltonian.num_spins
        self.layout = kick_layout(spec, self.slots)
        self._eigensystem = hamiltonian.eigensystem()
        self.blocks: dict[int, dict] = {}
        self.fused = False
        self.parity(1)

    def parity(self, sign: int) -> dict:
        """The P = ``sign`` blocks of the layout's powers, built the first time they are asked."""
        if sign not in self.blocks:  # the chain's dict holds the only reference to W
            self.blocks[sign] = PowerChain(self._exponents(self.layout)).fill(
                {1: cycle_parity(self._eigensystem, self.spec, sign)}, self.dtype)
        return self.blocks[sign]

    @staticmethod
    def _exponents(layout) -> set[int]:
        return {e for steps in layout.values() for factors in steps for e in factors}

    @classmethod
    def peak_bytes(cls, num_spins: int, spec: MonopoleSpec, slots, parities: set,
                   itemsize: int = 16) -> int:
        """Most bytes a factory for ``spec``'s layout at ``slots`` holds at kicks of `kick_parity`
        ``parities``, its powers kept at ``itemsize`` bytes an entry: a chain's build,
        `PowerChain.peak_bytes` of half-size blocks (2 or more, while `cycle_parity` holds
        1.6), after the other chain's kept targets unless every kick keeps P = +1; or the
        first fusion, the kept targets of the chains it reads and `fuse_kick_bytes`."""
        chain = PowerChain(cls._exponents(kick_layout(spec, slots)))
        entries = 1 << 2 * num_spins - 2
        build, kept = chain.peak_bytes(entries, itemsize), len(chain.targets) * itemsize * entries
        fuse = (1 + (-1 in parities)) * kept + fuse_kick_bytes(num_spins)
        return max((parities != {1}) * kept + build, fuse * bool(parities - {0}))

    def block_set(self, gamma_y: float | None = None, include_half: bool | None = None,
                  angle_spread: float = 0.0, disorder_seed: int | None = None) -> "BlockPropagators":
        """Readout steps of both block signs at kick angle ``gamma_y`` (None: the factory's).

        A step is a :class:`Power` of the chains the rows reach: P = +1 alone if
        the kick keeps it, else both.  A plain step is (W^e,), a fused kick step
        (F,) and any other kick step (W^b, G, W^a).  The benchmark's key binds
        ``include_half``, ``angle_spread`` and ``disorder_seed`` by name; each takes its default.
        """
        if (include_half, angle_spread, disorder_seed) != (None, 0.0, None):
            raise ValueError("include_half, angle_spread and disorder_seed take their defaults")
        n = self.num_spins
        spec = replace(self.spec, gamma_y=self.spec.gamma_y if gamma_y is None else gamma_y)
        parity = kick_parity(spec.gamma_y, n)
        if self.fused and not parity:
            raise ValueError(f"a fused factory serves kicks that keep P, not {spec.gamma_y}")
        signs = (1,) if parity == 1 else (1, -1)
        if parity == 1 and not self.fused:  # no block set reads P = -1 again: free it first
            self.blocks.pop(-1, None)
        chains = {s: self.parity(s) for s in signs}  # built before the kick's layer is held
        kick = GateLayer(rotation_gate("x", spec.theta_x).conj().T
                         @ rotation_gate("y", spec.gamma_y), n, parity, self.dtype)
        if parity and not self.fused:  # F_s = A_{p s} · L_s · B_s, written over B_s
            for (a, b), drops in fusion_plan(self.layout, parity):
                for s in signs:
                    into = chains[s].pop(b)
                    chains[s][a, b] = fuse_kick(chains[parity * s][a], kick, s, into, into)
                for t, e in drops:
                    del chains[t][e]
            self.fused = True
        power = lambda key, p=1: Power({s: chains[s][key] for s in signs}, p)
        steps = {sign: tuple((power(f[0]),) if len(f) == 1
                             else (power(f, parity),) if f in chains[1]
                             else (power(f[1]), kick, power(f[0]))
                             for f in layout)
                 for sign, layout in self.layout.items()}
        return BlockPropagators(spec, self.slots, steps, n, self.dtype)


# -- the stepper -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockPropagators:
    """The readout steps of both block signs at one kick angle on ``num_spins`` spins.

    ``steps[s]`` is the block of sign ``s`` as a tuple of steps, one per
    readout slot of ``slots``: each carries the state from the previous
    readout to the one after its slot, and the last slot is the block end.  A
    step is a tuple of factors applied in turn, each mapping (rows, signs) to
    (rows, signs): b, a :class:`GateLayer`, a; or one :class:`Power`, a plain
    power or a kick step the factory fused.  How many rows a state carries
    comes from the factors it passes through, not from the block set; the rows
    are stepped in ``dtype``, the dtype of the factors.
    """

    spec: MonopoleSpec
    slots: tuple
    steps: dict
    num_spins: int
    dtype: np.dtype = np.dtype(complex)


@dataclass(frozen=True, eq=False)
class BatchSamples:
    """What `evolve_batch` recorded: ``samples[m]``, member m's Ix samples up to its stop, of
    its (stream, block set) ``members[m]``.  Each member's trace is placed by `traces`."""

    members: tuple
    samples: tuple

    @property
    def num_cycles(self) -> int:
        """Cycles stepped, summed over the members."""
        return sum((len(v) - 1) // len(p.slots) for v, (_, p) in zip(self.samples, self.members))

    def traces(self):
        """Each member's `SignalTrace`, in member order, placed one at a time, so that a
        caller that drops each trace holds one placement beside the members' samples."""
        for (stream, props), values in zip(self.members, self.samples):
            spec = props.spec
            yield SignalTrace.at_slots(
                spec, props.slots, values,
                meta={"engine": "full-blockwise", "num_spins": props.num_spins,
                      "stream_seed": stream.seed, "n_order": order_label(stream),
                      "gamma_y": spec.gamma_y, "tau": spec.tau})


def evolve_batch(members, row: np.ndarray, stop_factor: float | None = None) -> BatchSamples:
    """Evolve the P = +1 ``row`` of `initial_state` block by block under each member's stream
    and block set, recording each member's Ix after every step.

    This is the one stepping loop of every engine.  A member is one (stream, block set)
    pair, and a batch's block sets come from one factory: they read one slot tuple and one
    dtype, and share the factory's powers.  Each member's state starts as that one row,
    signs (1,); the first :class:`GateLayer` that mixes P turns it into the two rows of
    signs (1, -1).  All members take a step together, factor by factor: every
    :class:`Power` queues its mat-vecs (`Power.defer`), and `run_queue` applies each matrix
    to all rows that read it back to back, so a power shared by many members is read from
    memory once per step; a gate layer or a :class:`FreeStep` is called per member, since
    its kick is the member's own.  Per row a step costs a half-size mat-vec per Power, one
    gather, ⌊n/2⌋ + 1 pair mat-vecs and one scatter per FreeStep and an (n - 1)-spin layer
    per folding GateLayer (a mixing one is one n-spin layer); then `parity_ix` reads every
    member's Ix in one pass over all rows.  Each member's norm is checked once a cycle, from
    the same pass.  No value depends on the batch: each row goes through the same mat-vecs,
    in the same order, as in a batch of one.

    A member leaves the batch at the end of its stream, or, with ``stop_factor``, at its
    first block-end sample below ``stop_factor / e`` of its initial magnitude: the stop is
    part of how a heating lifetime is defined, as an envelope that is not monotone may cross
    1/e again later.  Each member's samples fill one array sized for its stream, trimmed at
    its stop.
    """
    members = tuple(members)
    props = [p for _, p in members]
    slots, dtype, num_spins = props[0].slots, props[0].dtype, props[0].num_spins
    if any((p.slots, p.dtype, p.num_spins) != (slots, dtype, num_spins) for p in props):
        raise ValueError("a batch's block sets must share their slots, dtype and spins")
    if row.shape != (1 << (num_spins - 1),):
        raise ValueError("state dimension does not match the propagators")
    count = len(members)
    rows, signs = [np.asarray(row, dtype=dtype)[None]] * count, [(1,)] * count
    values = [np.empty(1 + len(stream) * len(slots)) for stream, _ in members]
    ends, norms = [0] * count, np.empty(count)
    for m, x in enumerate(parity_ix(rows, signs)):
        values[m][0] = x
    # without stop_factor the target is 0, which no magnitude falls below
    targets = [0.0 if stop_factor is None else abs(v[0]) * stop_factor / math.e
               for v in values]
    symbols = [iter(stream.symbols) for stream, _ in members]
    live, i, cycle = list(range(count)), 0, 0  # i: the last sample written
    while live := [m for m in live if cycle < len(members[m][0])]:
        cycle += 1
        block_steps = [props[m].steps[int(next(symbols[m]))] for m in live]
        for t in range(len(slots)):
            # the members' d-th factors of step t, None past a member's last
            for factors in zip_longest(*[steps[t] for steps in block_steps]):
                queue = {}
                for m, factor in zip(live, factors):
                    if isinstance(factor, Power):
                        rows[m], signs[m] = factor.defer(rows[m], signs[m], queue)
                    elif factor is not None:
                        rows[m], signs[m] = factor(rows[m], signs[m])
                if queue:
                    run_queue(queue)
            i += 1
            ix = parity_ix([rows[m] for m in live], [signs[m] for m in live],
                           norms if t == len(slots) - 1 else None)
            for m, x in zip(live, ix):
                values[m][i] = x
        for m, norm in zip(live, norms):
            _check_norm(norm, dtype, f"cycle {cycle}")
            ends[m] = i
        live = [m for m, x in zip(live, ix) if not abs(x) < targets[m]]
    return BatchSamples(members, tuple(v[:end + 1] for v, end in zip(values, ends)))


def evolve_blockwise(stream: SymbolStream, props: BlockPropagators,
                     row: np.ndarray) -> SignalTrace:
    """`evolve_batch` of one member: the trace of ``stream`` under ``props`` from ``row``."""
    (trace,) = evolve_batch(((stream, props),), row).traces()
    return trace


def evolve(program: PulseProgram, hamiltonian: Hamiltonian, row: np.ndarray) -> SignalTrace:
    """The quasi-continuous readout: `evolve_blockwise` with one step per slot.

    Every slot of a block is an x pulse except the kick's, slot
    ``kick_plus + 1`` or ``kick_minus + 1``; a step is its pulse's
    :class:`GateLayer`, then one slot's :class:`FreeStep`.  The first sample is
    the pre-drive value at t = 0, then one follows each pulse's free slot.  The
    samples are exact expectation values, free of read-out noise.  ``row`` is
    the P = +1 row of `initial_state`.
    """
    spec, n = program.spec, hamiltonian.num_spins
    free = FreeStep(hamiltonian.eigensystem(), spec.tau)
    x = (GateLayer(rotation_gate("x", spec.theta_x), n, 1), free)
    kick = (GateLayer(rotation_gate("y", spec.gamma_y), n, kick_parity(spec.gamma_y, n)), free)
    slots = tuple(range(1, spec.slots_per_block + 1))
    steps = {sign: tuple(kick if slot == kick_slot + 1 else x for slot in slots)
             for sign, kick_slot in ((1, spec.kick_plus), (-1, spec.kick_minus))}
    props = BlockPropagators(spec, slots, steps, n)
    trace = evolve_blockwise(program.stream, props, row)
    trace.meta["engine"] = "full"
    return trace
