"""Exact state-vector evolution of driven spin networks.

Pulses are instantaneous global rotations applied as factored single-spin
gates; free evolution uses the cached dense eigendecomposition of the
dipolar Hamiltonian.  Readout is the expectation value of total Ix after
every pulse's free-evolution slot.

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

    ``pulse_index`` is the 1-based slot within the block (0 marks the
    pre-drive sample at t=0); ``cycle_index`` is the block number.
    """

    times: np.ndarray
    values: np.ndarray
    cycle_index: np.ndarray
    pulse_index: np.ndarray
    block_duration: float
    num_cycles: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.size


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


def apply_gates(state: np.ndarray, gates, num_spins: int) -> np.ndarray:
    """Apply one 2x2 gate per spin to the leading axis of `state`.

    Works on vectors (dim,) and on matrices (dim, m): trailing axes are a
    flat batch.  `gates` is a single gate shared by all spins or a list of
    per-spin gates.
    """
    if isinstance(gates, np.ndarray) and gates.shape == (2, 2):
        gates = [gates] * num_spins
    out = np.asarray(state, dtype=complex)
    trailing = out.shape[1:]
    for k, g in enumerate(gates):
        v = out.reshape(2**k, 2, -1)
        a = v[:, 0, :]
        b = v[:, 1, :]
        stacked = np.empty_like(v)
        stacked[:, 0, :] = g[0, 0] * a + g[0, 1] * b
        stacked[:, 1, :] = g[1, 0] * a + g[1, 1] * b
        out = stacked
    return out.reshape((2**num_spins,) + trailing)


def global_rotation_matrix(axis: str, angle: float, num_spins: int) -> np.ndarray:
    """Dense matrix of the factored global rotation (for small-system checks)."""
    return apply_gates(np.eye(2**num_spins, dtype=complex),
                       rotation_gate(axis, angle), num_spins)


def total_ix(state: np.ndarray, num_spins: int) -> float:
    """Expectation of total Ix; spin flips are index permutations."""
    total = 0.0
    for k in range(num_spins):
        v = state.reshape(2**k, 2, -1)
        total += float(np.real(np.vdot(v[:, 0, :], v[:, 1, :])))
    return total


def free_propagator(hamiltonian: Hamiltonian, duration: float) -> np.ndarray | None:
    """Dense exp(-i * duration * H) via the cached eigendecomposition.

    Returns None for the non-interacting system (identity propagator).
    """
    if hamiltonian.is_zero():
        return None
    eigvals, eigvecs = hamiltonian.eigensystem()
    phases = np.exp(-1j * duration * eigvals)
    return (eigvecs * phases[None, :]) @ eigvecs.conj().T


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
    if decay_time > 0 and hamiltonian is not None and not hamiltonian.is_zero():
        eigvals, eigvecs = hamiltonian.eigensystem()
        psi = eigvecs @ (np.exp(-1j * decay_time * eigvals) * (eigvecs.conj().T @ psi))
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
           readout_noise: float = 0.0, noise_seed: int | None = None,
           angle_spread: float = 0.0, disorder_seed: int | None = None,
           norm_check_every: int = 256) -> SignalTrace:
    """Walk the pulse program one pulse at a time, recording Ix after each.

    The first sample is the pre-drive value at t=0, then one sample per
    pulse at the end of its free-evolution slot.
    """
    num_spins = hamiltonian.num_spins
    if psi0.shape != (2**num_spins,):
        raise ValueError("state dimension does not match the Hamiltonian")
    spec = program.spec
    u_free = free_propagator(hamiltonian, spec.tau)
    x_gate = rotation_gate("x", spec.theta_x)
    y_gates = _kick_gates(spec, num_spins, angle_spread, disorder_seed)

    n = program.num_pulses
    values = np.empty(n + 1)
    psi = np.array(psi0, dtype=complex)
    values[0] = total_ix(psi, num_spins)
    for i, kind in enumerate(program.kinds):
        psi = apply_gates(psi, x_gate if kind == X_PULSE else y_gates, num_spins)
        if u_free is not None:
            psi = u_free @ psi
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
    if readout_noise > 0.0:
        rng = np.random.Generator(np.random.PCG64(noise_seed))
        values = values + readout_noise * rng.standard_normal(values.size)
    return SignalTrace(
        times=times, values=values, cycle_index=cycle_index,
        pulse_index=pulse_index, block_duration=spec.block_duration,
        num_cycles=program.num_cycles,
        meta={"engine": "full", "num_spins": num_spins,
              "stream_seed": program.stream.seed, "n_order": order_label(program.stream),
              "gamma_y": spec.gamma_y, "tau": spec.tau,
              "pulses_per_block": spec.pulses_per_block},
    )


# -- blockwise engine ------------------------------------------------------

def half_sample_slot(spec: MonopoleSpec) -> int:
    """Readout slot nearest the half-period instant (ties toward earlier)."""
    target = spec.slots_per_block / 2.0
    lo = math.floor(target)
    hi = lo + 1
    slot = lo if (target - lo) <= (hi - target) else hi
    return min(max(slot, 1), spec.slots_per_block)


def _matrix_powers(base: np.ndarray, exponents) -> dict[int, np.ndarray]:
    """Powers of a dense matrix sharing binary squarings across exponents."""
    exponents = sorted(set(int(e) for e in exponents))
    dim = base.shape[0]
    out = {}
    if not exponents:
        return out
    top = exponents[-1]
    squares = [base]
    while 2 ** len(squares) <= top:
        squares.append(squares[-1] @ squares[-1])
    for e in exponents:
        if e == 0:
            out[e] = np.eye(dim, dtype=complex)
            continue
        acc = None
        bit = 0
        rem = e
        while rem:
            if rem & 1:
                acc = squares[bit] if acc is None else acc @ squares[bit]
            rem >>= 1
            bit += 1
        out[e] = acc
    return out


class BlockPropagatorFactory:
    """Dense block propagators for one (Hamiltonian, timing) setup.

    Precomputes the spin-lock cycle operator and the train powers shared by
    every kick angle; :meth:`block_set` then assembles the four per-sign
    propagators for a given gamma_y with a handful of matrix products.
    """

    def __init__(self, hamiltonian: Hamiltonian, spec: MonopoleSpec):
        self.hamiltonian = hamiltonian
        self.spec = spec
        self.num_spins = hamiltonian.num_spins
        self.dim = 2**self.num_spins
        self.half_slot = half_sample_slot(spec)
        if not spec.kick_minus < self.half_slot <= spec.kick_plus:
            raise ValueError(
                "half-period sample does not separate the two blocks; "
                "need kick_minus < half slot <= kick_plus"
            )
        u_free = free_propagator(hamiltonian, spec.tau)
        if u_free is None:
            u_free = np.eye(self.dim, dtype=complex)
        self.u_free = u_free
        # spin-lock cycle operator: pulse first, then free evolution
        x_gate = rotation_gate("x", spec.theta_x)
        w = apply_gates(np.ascontiguousarray(u_free.T), x_gate.T, self.num_spins).T
        self.cycle_op = np.ascontiguousarray(w)
        n, n_plus, n_minus = spec.pulses_per_block, spec.kick_plus, spec.kick_minus
        h = self.half_slot
        self.powers = _matrix_powers(self.cycle_op, {
            h, n_plus - h, n - n_plus, n_minus, h - n_minus - 1, n + 1 - h,
        })

    def _kick_cycle(self, mat: np.ndarray, gamma_y: float,
                    angle_spread: float = 0.0, disorder_seed: int | None = None) -> np.ndarray:
        """Left-multiply `mat` by the kick cycle (y rotation + free slot)."""
        spec = replace(self.spec, gamma_y=gamma_y)
        gates = _kick_gates(spec, self.num_spins, angle_spread, disorder_seed)
        return self.u_free @ apply_gates(mat, gates, self.num_spins)

    def block_set(self, gamma_y: float | None = None, include_half: bool = True,
                  angle_spread: float = 0.0, disorder_seed: int | None = None) -> "BlockPropagators":
        """Readout steps of both block signs for the given kick angle.

        With ``include_half`` each block is two steps, to the half-period
        slot and on to the block end; without it, one whole-block step.
        """
        if gamma_y is None:
            gamma_y = self.spec.gamma_y
        spec = self.spec
        h = self.half_slot
        p = self.powers
        kick = lambda m: self._kick_cycle(m, gamma_y, angle_spread, disorder_seed)

        halves = {
            1: (p[h], p[spec.pulses_per_block - spec.kick_plus] @ kick(p[spec.kick_plus - h])),
            -1: (p[h - spec.kick_minus - 1] @ kick(p[spec.kick_minus]),
                 p[spec.pulses_per_block + 1 - h]),
        }
        end = spec.slots_per_block
        if include_half:
            steps = {s: ((h, first), (end, second)) for s, (first, second) in halves.items()}
        else:
            steps = {s: ((end, second @ first),) for s, (first, second) in halves.items()}
        return BlockPropagators(spec=replace(spec, gamma_y=gamma_y), steps=steps)


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
                     stop_factor: float | None = None,
                     readout_noise: float = 0.0, noise_seed: int | None = None,
                     norm_check_every: int = 64) -> SignalTrace:
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
    if readout_noise > 0.0:
        rng = np.random.Generator(np.random.PCG64(noise_seed))
        values = values + readout_noise * rng.standard_normal(values.size)
    return SignalTrace(
        times=times, values=values, cycle_index=cycle_index,
        pulse_index=pulse_index, block_duration=T, num_cycles=cycles,
        meta={"engine": "full-blockwise", "num_spins": num_spins,
              "stream_seed": stream.seed, "n_order": order_label(stream),
              "gamma_y": spec.gamma_y, "tau": spec.tau,
              "pulses_per_block": spec.pulses_per_block},
    )
