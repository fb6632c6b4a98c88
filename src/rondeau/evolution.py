"""Exact state-vector evolution of driven spin networks.

Pulses are instantaneous global rotations: layers of single-spin gates,
applied as the Kronecker products of two halves of the spins.  The dipolar
Hamiltonian conserves total Iz, so free evolution is block-diagonal in the
n + 1 magnetization sectors: its propagator is one block per sector, built
from the Hamiltonian's cached sector-wise eigendecomposition.  Readout is
the expectation value of total Ix after every pulse's free-evolution slot.

:func:`evolve` walks the unrolled pulse program one pulse at a time (full
quasi-continuous readout).  :func:`evolve_blockwise`, the one blockwise
stepper, applies a dense propagator per readout step of a
:class:`BlockPropagators` set, records stroboscopic and optionally
half-period samples, and can stop early past 1/e.  The engines are built
independently, so each checks the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .sequences import MonopoleSpec, SymbolStream, order_label
from .spins import Hamiltonian

X_PULSE = 0
Y_PULSE = 1

#: Relative norm drift beyond which the evolution is aborted.
NORM_DRIFT_LIMIT = 1e-8


class NumericalIntegrityError(RuntimeError):
    """State norm drifted beyond the allowed tolerance."""


@dataclass(frozen=True, eq=False)
class PulseProgram:
    """Fully unrolled drive: one entry per pulse, free slot of tau after each."""

    kinds: np.ndarray          # int8, X_PULSE or Y_PULSE
    times: np.ndarray          # instant each pulse is applied
    spec: MonopoleSpec
    stream: SymbolStream

    @property
    def num_pulses(self) -> int:
        return self.kinds.size

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

    def with_noise(self, readout_noise: float, noise_seed: int | None) -> "SignalTrace":
        """This trace plus Gaussian read-out noise: std ``readout_noise``, PCG64 ``noise_seed``."""
        if readout_noise <= 0.0:
            return self
        rng = np.random.Generator(np.random.PCG64(noise_seed))
        return replace(self, values=self.values + readout_noise * rng.standard_normal(len(self)))


def compile_program(stream: SymbolStream, spec: MonopoleSpec) -> PulseProgram:
    """Unroll a symbol stream into the timed pulse list.

    A +1 block is ``kick_plus`` spin-lock cycles, the y-kick with its own
    free slot, then the remaining cycles; the -1 block uses ``kick_minus``.
    """
    per_block = spec.slots_per_block
    kinds = np.zeros(len(stream) * per_block, dtype=np.int8)
    for i, sym in enumerate(stream.symbols):
        kick = spec.kick_plus if sym > 0 else spec.kick_minus
        kinds[i * per_block + kick] = Y_PULSE
    times = np.arange(kinds.size) * spec.tau
    return PulseProgram(kinds=kinds, times=times, spec=spec, stream=stream)


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


def dense_free(blocks, dim: int) -> np.ndarray:
    """The blocks of `free_propagator` scattered into one dense (dim, dim) matrix."""
    u_free = np.zeros((dim, dim), dtype=complex)
    for idx, block in blocks:
        u_free[np.ix_(idx, idx)] = block
    return u_free


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


# -- per-pulse engine ------------------------------------------------------

def evolve(program: PulseProgram, hamiltonian: Hamiltonian, psi0: np.ndarray,
           angle_spread: float = 0.0, disorder_seed: int | None = None,
           norm_check_every: int = 256) -> SignalTrace:
    """Walk the pulse program one pulse at a time, recording Ix after each.

    The first sample is the pre-drive value at t=0, then one sample per
    pulse at the end of its free-evolution slot.  The samples are exact
    expectation values, free of read-out noise.
    """
    num_spins = hamiltonian.num_spins
    if psi0.shape != (2**num_spins,):
        raise ValueError("state dimension does not match the Hamiltonian")
    spec = program.spec
    blocks = free_propagator(hamiltonian, spec.tau)
    x_halves = gate_halves(rotation_gate("x", spec.theta_x), num_spins)
    y_halves = gate_halves(_kick_gates(spec, num_spins, angle_spread, disorder_seed), num_spins)

    n = program.num_pulses
    values = np.empty(n + 1)
    psi = np.array(psi0, dtype=complex)
    values[0] = total_ix(psi, num_spins)
    for i, kind in enumerate(program.kinds):
        psi = apply_free(blocks, apply_halves(psi, x_halves if kind == X_PULSE else y_halves))
        values[i + 1] = total_ix(psi, num_spins)
        if (i + 1) % norm_check_every == 0:
            _check_norm(psi, f"pulse {i + 1}")
    if n:
        _check_norm(psi, "final state")

    times = np.concatenate([[0.0], program.times + spec.tau])
    slots = np.arange(n + 1)
    per_block = spec.slots_per_block
    cycle_index = np.maximum(slots - 1, 0) // per_block
    pulse_index = np.where(slots == 0, 0, (slots - 1) % per_block + 1)
    return SignalTrace(
        times=times, values=values, cycle_index=cycle_index,
        pulse_index=pulse_index, block_duration=spec.block_duration,
        num_cycles=program.num_cycles, slots_per_block=per_block,
        meta={"engine": "full", "num_spins": num_spins,
              "stream_seed": program.stream.seed, "n_order": order_label(program.stream),
              "gamma_y": spec.gamma_y, "tau": spec.tau},
    )


# -- blockwise engine ------------------------------------------------------

def half_sample_slot(layout: MonopoleSpec | SignalTrace) -> int:
    """Readout slot nearest the half-period instant of a spec's or a trace's blocks."""
    return max(layout.slots_per_block // 2, 1)


def readout_slots(spec: MonopoleSpec, include_half: bool) -> tuple[int, ...]:
    """Per-cycle readout slots: the half-period slot with ``include_half``, then the block end."""
    end = spec.slots_per_block
    return (half_sample_slot(spec), end) if include_half else (end,)


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
    n, n_plus, n_minus = spec.pulses_per_block, spec.kick_plus, spec.kick_minus
    h = half_sample_slot(spec)
    if not n_minus < h <= n_plus:
        raise ValueError(
            "half-period sample does not separate the two blocks; "
            "need kick_minus < half slot <= kick_plus"
        )
    if include_half:
        return {1: ((h,), (n + 1 - n_plus, n_plus - h)),
                -1: ((h - n_minus, n_minus), (n + 1 - h,))}
    return {1: ((n + 1 - n_plus, n_plus),), -1: ((n + 1 - n_minus, n_minus),)}


class BlockPropagatorFactory:
    """Dense block propagators for one (Hamiltonian, timing, readout mode) setup.

    With W = U_free · X the spin-lock cycle operator (x pulse, then free
    evolution), the kick cycle is U_free · Y = W · X^† · Y.  Every readout step
    of a block is therefore a plain power W^e or a product A · G(B) of two
    powers, A = W^a and B = W^b, where only the gate layer G = X^† · Y depends
    on the kick angle (:func:`kick_layout` lists the exponents).  For the
    whole + block, A = W^(N+1-n₊) and B = W^(n₊); for the whole - block,
    A = W^(N+1-n₋) and B = W^(n₋).

    The factory builds every power that the layout of its readout mode
    (``include_half``) names once, by one :class:`PowerChain` that drops each
    intermediate after its last use; :meth:`block_set` then costs the gate
    layers plus one dense product per block sign.  U_free is block-diagonal in
    total Iz but X mixes the sectors, so W and its powers are dense.  The
    factory is read-only after construction, so threads may share it.
    """

    def __init__(self, hamiltonian: Hamiltonian, spec: MonopoleSpec, include_half: bool = True):
        self.hamiltonian = hamiltonian
        self.spec = spec
        self.include_half = include_half
        self.num_spins = hamiltonian.num_spins
        self.layout = kick_layout(spec, include_half)
        u_free = dense_free(free_propagator(hamiltonian, spec.tau), 2**self.num_spins)
        # W = U_free · X, the pulse first: X^T applied to the rows of U_free^T
        x_halves = gate_halves(rotation_gate("x", spec.theta_x).T, self.num_spins)
        powers = {1: np.ascontiguousarray(apply_halves(u_free.T, x_halves).T)}
        del u_free
        self.powers = PowerChain(self._exponents(self.layout)).fill(powers)

    @staticmethod
    def _exponents(layout) -> set[int]:
        return {e for steps in layout.values() for factors in steps for e in factors}

    @classmethod
    def peak_matrices(cls, spec: MonopoleSpec, include_half: bool) -> int:
        """Most dense matrices a factory for ``spec``'s layout in one mode holds while built."""
        # building W holds at most three: U_free, its transposed copy and W
        return max(3, PowerChain(cls._exponents(kick_layout(spec, include_half))).peak)

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
        kick = gate_halves(np.matmul(x_inverse, _kick_gates(
            spec, self.num_spins, angle_spread, disorder_seed)), self.num_spins)
        p = self.powers

        def step(factors):
            if len(factors) == 1:
                return p[factors[0]]
            a, b = factors
            return p[a] @ apply_halves(p[b], kick)

        slots = readout_slots(spec, include_half)
        steps = {s: tuple(zip(slots, map(step, layout)))
                 for s, layout in self.layout.items()}
        return BlockPropagators(spec=spec, steps=steps)


@dataclass(frozen=True, eq=False)
class BlockPropagators:
    """Blockwise evolution of both block signs at one kick angle.

    ``steps[s]`` is the block of sign ``s`` as a tuple of ``(slot, operator)``
    pairs: each operator carries the state from the previous readout to the
    readout after pulse slot ``slot``, and the last step ends the block at
    ``spec.slots_per_block``.
    """

    spec: MonopoleSpec
    steps: dict


def evolve_blockwise(stream: SymbolStream, props: BlockPropagators, psi0: np.ndarray,
                     stop_factor: float | None = None, norm_check_every: int = 64) -> SignalTrace:
    """Evolve `psi0` block by block under `stream`, recording Ix after every step.

    Costs one dense matrix-vector product per step of ``props``: one or two
    per drive cycle.  With ``stop_factor`` the run ends at the first block-end
    sample below ``stop_factor / e`` of the initial magnitude, since later
    cycles cannot move the lifetime argmin; ``num_cycles`` counts the cycles
    evolved.
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
        if cycles % norm_check_every == 0:
            _check_norm(psi, f"cycle {cycles}")
        if abs(values[-1]) < target:
            break
    if cycles:
        _check_norm(psi, "final state")

    values = np.array(values)
    cycle_index = np.array(cycle_index, dtype=np.int64)
    pulse_index = np.array(pulse_index, dtype=np.int64)
    T = spec.block_duration
    # block ends sit on exact multiples of T, which the slot sum can miss by an ulp
    times = np.where(pulse_index == spec.slots_per_block, (cycle_index + 1) * T,
                     cycle_index * T + pulse_index * spec.tau)
    return SignalTrace(
        times=times, values=values, cycle_index=cycle_index, pulse_index=pulse_index,
        block_duration=T, num_cycles=cycles, slots_per_block=spec.slots_per_block,
        meta={"engine": "full-blockwise", "num_spins": num_spins,
              "stream_seed": stream.seed, "n_order": order_label(stream),
              "gamma_y": spec.gamma_y, "tau": spec.tau},
    )
