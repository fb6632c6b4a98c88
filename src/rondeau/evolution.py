"""Exact state-vector evolution of driven spin networks.

Pulses are instantaneous global rotations: layers of single-spin gates,
applied as the Kronecker products of two halves of the spins.  The dipolar
Hamiltonian conserves total Iz, so free evolution is block-diagonal in the
n + 1 magnetization sectors: its propagator is one block per sector, built
from the Hamiltonian's cached sector-wise eigendecomposition.  Readout is
the expectation value of total Ix after a step's free-evolution slot.

:func:`evolve_blockwise` is the one stepper: it applies one operator per
readout step of a :class:`BlockPropagators` set, records Ix after each,
checks the norm after every cycle and can stop early past 1/e.
:func:`evolve` is its per-pulse readout, a set whose steps are single
pulses (:class:`PulseStep`); the factory's sets step to the half-period
slot and the block end.  :meth:`SignalTrace.at_slots` is the one rule that
maps a sample's (cycle, slot) to its time, for every engine.  The
spin-lock cycle operator and its powers commute with the global spin flip,
so they are kept as their two half-size parity blocks (:class:`ParityPair`);
only a step holding the kick, which breaks that symmetry, is a dense
matrix.  The per-pulse and blockwise operators are built independently, so
each checks the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .sequences import MonopoleSpec, SymbolStream, order_label
from .spins import Hamiltonian

#: Relative norm drift beyond which the evolution is aborted.
NORM_DRIFT_LIMIT = 1e-8


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

    @property
    def num_cycles(self) -> int:
        return len(self.stream)


@dataclass(eq=False)
class SignalTrace:
    """Per-readout total-Ix record with timing metadata.

    ``pulse_index`` is the 1-based slot within the block, up to ``slots_per_block``
    (0 marks the pre-drive sample at t=0); ``cycle_index`` is the block number.  The
    engines record noise-free values; :meth:`with_noise` adds read-out noise.
    """

    times: np.ndarray
    values: np.ndarray
    cycle_index: np.ndarray
    pulse_index: np.ndarray
    block_duration: float
    num_cycles: int
    slots_per_block: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.size

    @classmethod
    def at_slots(cls, spec: MonopoleSpec, values, cycle_index, pulse_index,
                 num_cycles: int, meta: dict) -> "SignalTrace":
        """Trace of samples at (cycle l, slot) of ``spec``'s blocks: the one sample-time rule.

        A block end is at exactly (l + 1) T, which the slot sum can miss by an
        ulp; every other sample is at l T + slot tau, the pre-drive (0, 0) at t = 0.
        """
        cycle_index = np.asarray(cycle_index, dtype=np.int64)
        pulse_index = np.asarray(pulse_index, dtype=np.int64)
        T = spec.block_duration
        times = np.where(pulse_index == spec.slots_per_block, (cycle_index + 1) * T,
                         cycle_index * T + pulse_index * spec.tau)
        return cls(times=times, values=np.asarray(values, dtype=float),
                   cycle_index=cycle_index, pulse_index=pulse_index, block_duration=T,
                   num_cycles=num_cycles, slots_per_block=spec.slots_per_block, meta=meta)

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


def gate_halves(gates, num_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker products of the first ``num_spins // 2`` per-spin gates and of the rest.

    `gates` is a single 2x2 gate shared by all spins or a sequence of
    per-spin gates; spin 0 is the most significant bit of a basis index.
    """
    if np.shape(gates) == (2, 2):
        gates = [gates] * num_spins
    k = num_spins // 2
    kron = lambda part: reduce(np.kron, part, np.ones((1, 1), dtype=complex))
    return kron(gates[:k]), kron(gates[k:])


def apply_halves(state: np.ndarray, halves: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Apply the gate layer of `gate_halves` to the leading axis of `state`.

    One GEMM with the first half on the (2^k, rest) view, then the second
    half on each of its 2^k row blocks: a single GEMM for a vector, one
    batched matmul for a (dim, m) matrix.
    """
    first, second = halves
    state = np.asarray(state, dtype=complex)
    out = first @ state.reshape(first.shape[0], -1)
    if state.ndim == 1:
        out = out @ second.T
    else:
        out = second @ out.reshape(first.shape[0], second.shape[0], -1)
    return out.reshape(state.shape)


def apply_gates(state: np.ndarray, gates, num_spins: int) -> np.ndarray:
    """Apply one 2x2 gate per spin to the leading axis of `state`.

    Works on vectors (dim,) and on matrices (dim, m): trailing axes are a
    flat batch.  `gates` is a single gate shared by all spins or a list of
    per-spin gates.
    """
    return apply_halves(state, gate_halves(gates, num_spins))


def total_ix(state: np.ndarray, num_spins: int) -> float:
    """Expectation of total Ix; spin flips are index permutations."""
    total = 0.0
    for k in range(num_spins):
        v = state.reshape(2**k, 2, -1)
        total += float(np.real(np.vdot(v[:, 0, :], v[:, 1, :])))
    return total


def free_propagator(hamiltonian: Hamiltonian, duration: float) -> tuple:
    """exp(-i * duration * H) as one ``(indices, block)`` pair per total-Iz sector.

    ``block`` is V_k e^{-i duration Λ_k} V_k^† from the sector's cached
    eigendecomposition and acts on the basis states ``indices``; the
    propagator is zero between sectors.
    """
    return tuple((idx, (vecs * np.exp(-1j * duration * vals)) @ vecs.conj().T)
                 for idx, vals, vecs in hamiltonian.eigensystem())


def apply_free(blocks, state: np.ndarray) -> np.ndarray:
    """The vector ``state`` after the free step ``blocks`` of `free_propagator`.

    One small mat-vec per sector, gathered from and scattered to its indices.
    """
    out = np.empty(state.shape, dtype=complex)
    for idx, block in blocks:
        out[idx] = block @ state[idx]
    return out


# -- initial state ---------------------------------------------------------

def initial_state(num_spins: int, hamiltonian: Hamiltonian | None = None,
                  decay_time: float = 0.0) -> np.ndarray:
    """All-spins-along-x product state, optionally pre-decayed.

    A positive ``decay_time`` evolves the product state under the dipolar
    Hamiltonian first, lowering the initial polarization (free induction
    decay) without touching the subsequent dynamics.
    """
    if decay_time < 0:
        raise ValueError(f"decay_time must be >= 0, got {decay_time}")
    dim = 2**num_spins
    psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    if decay_time > 0 and hamiltonian is not None:
        psi = apply_free(free_propagator(hamiltonian, decay_time), psi)
    return psi


def _kick_gates(spec: MonopoleSpec, num_spins: int,
                angle_spread: float = 0.0, disorder_seed: int | None = None):
    """Per-spin y-kick gates, optionally with static angle inhomogeneity.

    ``angle_spread`` is the fractional full width of a uniform interval
    around gamma_y (0.018 mimics the measured pulse inhomogeneity).
    """
    if angle_spread == 0.0:
        return rotation_gate("y", spec.gamma_y)
    rng = np.random.Generator(np.random.PCG64(disorder_seed))
    angles = spec.gamma_y * (1.0 + angle_spread * rng.uniform(-0.5, 0.5, size=num_spins))
    return [rotation_gate("y", a) for a in angles]


def _check_norm(state: np.ndarray, context: str):
    drift = abs(float(np.vdot(state, state).real) - 1.0)
    if drift > NORM_DRIFT_LIMIT:
        raise NumericalIntegrityError(f"norm drift {drift:.3e} during {context}")


# -- readout slots ---------------------------------------------------------

def half_sample_slot(layout: MonopoleSpec | SignalTrace) -> int:
    """Readout slot nearest the half-period instant of a spec's or a trace's blocks."""
    return max(layout.slots_per_block // 2, 1)


def check_kick_layout(spec: MonopoleSpec):
    """Raise ValueError unless the half-period sample separates the blocks' kicks.

    Both engines read a block's sign off that sample, so it must fall after
    the - block's kick and no later than the + block's.
    """
    h = half_sample_slot(spec)
    if not spec.kick_minus < h <= spec.kick_plus:
        raise ValueError(
            f"half-period sample (slot {h}) does not separate the two blocks; need "
            f"kick_minus ({spec.kick_minus}) < half slot <= kick_plus ({spec.kick_plus})")


def readout_slots(spec: MonopoleSpec, include_half: bool) -> tuple[int, ...]:
    """Per-cycle readout slots: the half-period slot with ``include_half``, then the block end."""
    end = spec.slots_per_block
    return (half_sample_slot(spec), end) if include_half else (end,)


# -- spin-flip parity ------------------------------------------------------

def _join_parities(plus: np.ndarray, minus: np.ndarray, out: np.ndarray | None = None):
    """The rows plus + minus, then plus - minus in reverse order, into ``out``.

    This takes the P = ±1 coordinates x[H₀] + x[F(H₀)] and x[H₀] - x[F(H₀)]
    of :class:`ParityPair` back to 2x: row i of H₀ first, then row F(i) at
    position 2^n - 1 - i.
    """
    h = plus.shape[0]
    if out is None:
        out = np.empty((2 * h,) + plus.shape[1:], dtype=complex)
    np.add(plus, minus, out=out[:h])
    np.subtract(plus, minus, out=out[h:][::-1])
    return out


@dataclass(frozen=True, eq=False)
class ParityPair:
    """An operator M that commutes with the global spin flip P = Π σx, as its P = ±1 blocks.

    H₀ is the set of basis states whose spin 0 is up, the indices below
    2^(n-1), and F(i) = 2^n - 1 - i flips every spin.  P M = M P means
    M[F(i), F(j)] = M[i, j], so M is block-diagonal in the coordinates
    x[H₀] ± x[F(H₀)], with the blocks ``plus`` = M[H₀, H₀] + M[H₀, F(H₀)] and
    ``minus`` = M[H₀, H₀] - M[H₀, F(H₀)], each 2^(n-1) square.  ``pair @ x``
    applies M to the leading axis of a vector or a matrix x as two half-size
    products, half the flops of the dense product.
    """

    plus: np.ndarray
    minus: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        dim = 2 * self.plus.shape[0]
        return dim, dim

    def __matmul__(self, state: np.ndarray) -> np.ndarray:
        out = self.doubled(state)
        out *= 0.5
        return out

    def doubled(self, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """2 M x for ``x = state``, written into ``out`` if given."""
        h = self.plus.shape[0]
        top, flipped = state[:h], state[h:][::-1]
        plus = self.plus @ (top + flipped)
        return _join_parities(plus, self.minus @ (top - flipped), out)


def cycle_parities(hamiltonian: Hamiltonian, spec: MonopoleSpec) -> list[np.ndarray]:
    """[W₊, W₋], the parity blocks of the spin-lock cycle operator W = U_free · X.

    Built from the sector blocks of U_free, never from a dense 2^n x 2^n
    matrix.  With spin 0 the most significant bit, the x pulse has
    X[H₀, H₀] = x₀₀ X' and X[H₀, F(H₀)] = x₀₁ X' R, where X' is the pulse on
    the other n - 1 spins and R reverses the 2^(n-1) indices; so
    W± = U± X± = x₀₀ U± X' ± x₀₁ (U± X') R.
    """
    n = hamiltonian.num_spins
    dim, h = 1 << n, 1 << (n - 1)
    same = np.zeros((h, h), dtype=complex)      # U_free[H₀, H₀]
    flipped = np.zeros((h, h), dtype=complex)   # U_free[H₀, F(H₀)]
    for idx, block in free_propagator(hamiltonian, spec.tau):
        low = idx < h
        top = block[low]
        same[np.ix_(idx[low], idx[low])] = top[:, low]
        flipped[np.ix_(idx[low], dim - 1 - idx[~low])] = top[:, ~low]
    unpulsed = [same + flipped, np.subtract(same, flipped, out=same)]   # U₊, U₋
    del same, flipped
    x = rotation_gate("x", spec.theta_x)
    # U± X' with X' applied to the columns: X'^T on the rows of U±^T
    x_rest = gate_halves(x.T, n - 1)
    bases = []
    for sign in (1, -1):
        u_x = apply_halves(unpulsed.pop(0).T, x_rest).T
        w = x[0, 0] * u_x
        w += sign * x[0, 1] * u_x[:, ::-1]
        bases.append(w)
    return bases


class PowerChain:
    """Addition chain building W^e for every exponent e of a set.

    Exponents are built in increasing order.  Each one is a single product
    W^a · W^(e-a) of two powers already built when such a pair exists (the
    largest such a is taken).  Otherwise it is the binary method's product of
    the squares W^(2^j) of its set bits, highest first, building only the
    squares not yet built.  A chain therefore never needs more products than
    the binary method with shared squares, and far fewer when the exponents
    are sums of one another.  ``steps[i] = (e, a, b)`` computes W^e = W^a · W^b,
    and ``drops[i]`` names the powers that are no target and that no later
    step reads.
    """

    def __init__(self, exponents):
        self.targets = frozenset(int(e) for e in exponents)
        if any(e < 0 for e in self.targets):
            raise ValueError(f"negative exponent in {sorted(self.targets)}")
        built, steps = {1}, []

        def product(a: int, b: int):
            steps.append((a + b, a, b))
            built.add(a + b)

        for e in sorted(self.targets - {0}):
            if e in built:
                continue
            a = next((a for a in sorted(built, reverse=True) if e - a in built), None)
            if a is not None:
                product(a, e - a)
                continue
            for j in range(1, e.bit_length()):
                if 1 << j not in built:
                    product(1 << j - 1, 1 << j - 1)
            bits = [1 << j for j in reversed(range(e.bit_length())) if e >> j & 1]
            partial = bits[0]
            for bit in bits[1:]:
                if partial + bit not in built:
                    product(partial, bit)
                partial += bit
        self.steps = tuple(steps)
        last = {f: i for i, step in enumerate(steps) for f in step[1:]}
        self.drops = tuple(tuple(sorted({f for f in (a, b) if last[f] == i} - self.targets))
                           for i, (_, a, b) in enumerate(steps))

    @property
    def peak(self) -> int:
        """Most matrices `fill` holds at once: the base, built powers, the identity."""
        live = peak = 1
        for drop in self.drops:
            live += 1
            peak = max(peak, live)
            live -= len(drop)
        if 1 not in self.targets and not self.steps:
            live -= 1  # the base is dropped unread
        return max(peak, live + (0 in self.targets))

    def fill(self, powers: dict) -> dict:
        """Add every target power to ``powers``, which holds only the base W at key 1.

        The dict is the only reference the chain keeps to each matrix, so a
        dropped power is freed at once if the caller holds no other.
        """
        dim = powers[1].shape[0]
        for (e, a, b), drop in zip(self.steps, self.drops):
            powers[e] = powers[a] @ powers[b]
            for f in drop:
                del powers[f]
        if 1 not in self.targets:
            powers.pop(1, None)
        if 0 in self.targets:
            powers[0] = np.eye(dim, dtype=complex)
        return powers


def kick_layout(spec: MonopoleSpec, include_half: bool) -> dict[int, tuple]:
    """Gamma-free factors of every readout step of one readout mode, keyed by block sign.

    A step is ``(e,)`` for the plain power W^e of the spin-lock cycle operator,
    or ``(a, b)`` for W^a · G(W^b), with G the kick's gate layer.  Whole blocks
    are one step each; with ``include_half`` (the half-period sample) the
    kick-free half of a block is a plain power.
    """
    check_kick_layout(spec)
    n, n_plus, n_minus = spec.pulses_per_block, spec.kick_plus, spec.kick_minus
    h = half_sample_slot(spec)
    if include_half:
        return {1: ((h,), (n + 1 - n_plus, n_plus - h)),
                -1: ((h - n_minus, n_minus), (n + 1 - h,))}
    return {1: ((n + 1 - n_plus, n_plus),), -1: ((n + 1 - n_minus, n_minus),)}


class BlockPropagatorFactory:
    """Block propagators for one (Hamiltonian, timing, readout mode) setup.

    With W = U_free · X the spin-lock cycle operator (x pulse, then free
    evolution), the kick cycle is U_free · Y = W · X^† · Y.  Every readout step
    of a block is therefore a plain power W^e or a product A · G(B) of two
    powers, A = W^a and B = W^b, where only the gate layer G = X^† · Y depends
    on the kick angle (:func:`kick_layout` lists the exponents).  For the
    whole + block, A = W^(N+1-n₊) and B = W^(n₊); for the whole - block,
    A = W^(N+1-n₋) and B = W^(n₋).

    The secular dipolar Hamiltonian and the x pulse both commute with the
    global spin flip P, so W and its powers are :class:`ParityPair` s of
    2^(n-1)-square blocks (`cycle_parities`).  The factory builds every power
    that the layout of its readout mode (``include_half``) names once, by one
    :class:`PowerChain` run per parity that drops each intermediate after its
    last use: a chain product is two half-size products, a quarter of the
    dense flops.  G breaks P, so :meth:`block_set` makes each kick step a dense
    matrix, with A applied as a pair; a plain step stays a pair.  The factory
    is read-only after construction, so threads may share it.
    """

    #: Most half-size matrices `cycle_parities` holds while it builds W₊ and W₋.
    BUILD_HALVES = 5
    #: Most dense matrices a block set holds while built: one kick step kept,
    #: the next one, and per half of its columns a quarter matrix of B's
    #: columns and three quarters of temporaries.
    BLOCK_SET_MATRICES = 3

    def __init__(self, hamiltonian: Hamiltonian, spec: MonopoleSpec, include_half: bool = True):
        self.hamiltonian = hamiltonian
        self.spec = spec
        self.include_half = include_half
        self.num_spins = hamiltonian.num_spins
        self.layout = kick_layout(spec, include_half)
        chain = PowerChain(self._exponents(self.layout))
        bases = cycle_parities(hamiltonian, spec)
        plus = chain.fill({1: bases.pop(0)})
        minus = chain.fill({1: bases.pop(0)})
        self.powers = {e: ParityPair(plus[e], minus[e]) for e in plus}

    @staticmethod
    def _exponents(layout) -> set[int]:
        return {e for steps in layout.values() for factors in steps for e in factors}

    @classmethod
    def peak_matrices(cls, spec: MonopoleSpec, include_half: bool) -> float:
        """Most matrices a factory for ``spec``'s layout in one mode holds while built.

        Counted in dense 2^n x 2^n matrices, of which a half-size block is a
        quarter.  The P = -1 chain runs while the P = +1 powers are kept.
        """
        chain = PowerChain(cls._exponents(kick_layout(spec, include_half)))
        return max(cls.BUILD_HALVES, len(chain.targets) + chain.peak) / 4

    def block_set(self, gamma_y: float | None = None, include_half: bool | None = None,
                  angle_spread: float = 0.0, disorder_seed: int | None = None) -> "BlockPropagators":
        """Readout steps of both block signs for the given kick angle.

        With ``include_half`` each block is two steps, to the half-period
        slot and on to the block end; without it, one whole-block step.  The
        mode must be the factory's own; None takes it.
        """
        if include_half is None:
            include_half = self.include_half
        if include_half != self.include_half:
            raise ValueError(f"factory built for include_half={self.include_half}, "
                             f"asked for include_half={include_half}")
        if gamma_y is None:
            gamma_y = self.spec.gamma_y
        spec = replace(self.spec, gamma_y=gamma_y)
        x_inverse = rotation_gate("x", spec.theta_x).conj().T
        kick = np.matmul(x_inverse, _kick_gates(spec, self.num_spins, angle_spread, disorder_seed))
        # G for B's columns H₀, and G · P for its columns F(H₀): every gate
        # times sigma_x, its two columns swapped.  The factor 1/4 undoes the two
        # doubling joins below, exactly, being a power of 2.
        kicks = [gate_halves(gates, self.num_spins) for gates in (kick, kick[..., ::-1])]
        kicks = [(first / 4, second) for first, second in kicks]
        p = self.powers

        def step(factors):
            if len(factors) == 1:
                return p[factors[0]]
            a, b = (p[f] for f in factors)
            h = b.plus.shape[0]
            op = np.empty(b.shape, dtype=complex)
            # B's columns j in H₀ are joined from its blocks; its columns F(j), at
            # 2^n - 1 - j, are P times those, so G · P applies to the same ones.
            # Half of H₀ at a time bounds the temporaries.
            for cols in (slice(0, h // 2), slice(h // 2, h)):
                left = _join_parities(b.plus[:, cols], b.minus[:, cols])
                for halves, out in zip(kicks, (op[:, cols], op[:, ::-1][:, cols])):
                    a.doubled(apply_halves(left, halves), out)
            return op

        slots = readout_slots(spec, include_half)
        steps = {s: tuple(zip(slots, map(step, layout)))
                 for s, layout in self.layout.items()}
        return BlockPropagators(spec=spec, steps=steps)


# -- the stepper -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockPropagators:
    """The readout steps of both block signs at one kick angle.

    ``steps[s]`` is the block of sign ``s`` as a tuple of ``(slot, operator)``
    pairs: each operator carries the state from the previous readout to the
    readout after pulse slot ``slot``, and the last step ends the block at
    ``spec.slots_per_block``.  An operator is anything with ``shape`` and
    ``@``: a dense matrix for a factory step that holds the kick, a
    :class:`ParityPair` for a plain power of the cycle, or one
    :class:`PulseStep` per slot for the per-pulse readout.
    """

    spec: MonopoleSpec
    steps: dict


@dataclass(frozen=True, eq=False)
class PulseStep:
    """One pulse and its free slot: ``step @ psi`` applies the gate layer, then U_free.

    ``halves`` is the pulse's gate layer from `gate_halves`, ``blocks`` the
    free step of one slot from `free_propagator`.
    """

    halves: tuple
    blocks: tuple

    @property
    def shape(self) -> tuple[int, int]:
        dim = self.halves[0].shape[0] * self.halves[1].shape[0]
        return dim, dim

    def __matmul__(self, state: np.ndarray) -> np.ndarray:
        return apply_free(self.blocks, apply_halves(state, self.halves))


def evolve_blockwise(stream: SymbolStream, props: BlockPropagators, psi0: np.ndarray,
                     stop_factor: float | None = None) -> SignalTrace:
    """Evolve `psi0` block by block under `stream`, recording Ix after every step.

    This is the one stepping loop of every engine.  It costs one operator
    application per step of ``props``: a dense mat-vec for a kick step, two
    half-size ones for a plain step kept as a :class:`ParityPair`, a gate
    layer and the sector mat-vecs for a :class:`PulseStep`.  The state's norm
    is checked after every cycle, one vdot.  With ``stop_factor`` the run ends
    at the first block-end sample below ``stop_factor / e`` of the initial
    magnitude, since later cycles cannot move the lifetime argmin;
    ``num_cycles`` counts the cycles evolved.
    """
    spec = props.spec
    dim = props.steps[1][0][1].shape[0]
    if psi0.shape != (dim,):
        raise ValueError("state dimension does not match the propagators")
    num_spins = dim.bit_length() - 1
    psi = np.array(psi0, dtype=complex)
    values, cycle_index, pulse_index = [total_ix(psi, num_spins)], [0], [0]
    # without stop_factor the target is 0, which no magnitude falls below
    target = 0.0 if stop_factor is None else abs(values[0]) * stop_factor / math.e
    cycles = 0
    for ell, sym in enumerate(stream.symbols):
        for slot, op in props.steps[int(sym)]:
            psi = op @ psi
            values.append(total_ix(psi, num_spins))
            cycle_index.append(ell)
            pulse_index.append(slot)
        cycles = ell + 1
        _check_norm(psi, f"cycle {cycles}")
        if abs(values[-1]) < target:
            break
    return SignalTrace.at_slots(
        spec, values, cycle_index, pulse_index, num_cycles=cycles,
        meta={"engine": "full-blockwise", "num_spins": num_spins,
              "stream_seed": stream.seed, "n_order": order_label(stream),
              "gamma_y": spec.gamma_y, "tau": spec.tau})


def evolve(program: PulseProgram, hamiltonian: Hamiltonian, psi0: np.ndarray,
           angle_spread: float = 0.0, disorder_seed: int | None = None) -> SignalTrace:
    """The quasi-continuous readout: `evolve_blockwise` with one :class:`PulseStep` per slot.

    Every slot of a block is an x pulse except the kick's, slot
    ``kick_plus + 1`` or ``kick_minus + 1``.  The first sample is the
    pre-drive value at t = 0, then one follows each pulse's free slot.  The
    samples are exact expectation values, free of read-out noise.
    """
    spec, num_spins = program.spec, hamiltonian.num_spins
    blocks = free_propagator(hamiltonian, spec.tau)
    x = PulseStep(gate_halves(rotation_gate("x", spec.theta_x), num_spins), blocks)
    kick = PulseStep(gate_halves(_kick_gates(spec, num_spins, angle_spread, disorder_seed),
                                 num_spins), blocks)
    slots = range(1, spec.slots_per_block + 1)
    steps = {sign: tuple((slot, kick if slot == kick_slot + 1 else x) for slot in slots)
             for sign, kick_slot in ((1, spec.kick_plus), (-1, spec.kick_minus))}
    trace = evolve_blockwise(program.stream, BlockPropagators(spec, steps), psi0)
    trace.meta["engine"] = "full"
    return trace
