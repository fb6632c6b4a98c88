"""Exact state-vector evolution of driven spin networks.

Pulses are instantaneous global rotations: layers of single-spin gates,
applied as the Kronecker products of two halves of the spins.  The dipolar
Hamiltonian conserves total Iz, so free evolution is block-diagonal in the
n + 1 magnetization sectors: its propagator is one block per sector, built
from the Hamiltonian's cached sector-wise eigendecomposition.  Readout is
the expectation value of total Ix after a slot's free evolution.

A run reads every block at one increasing tuple of readout slots that ends
at the block end.  :class:`BlockPropagators` holds one operator per step
between them; :func:`evolve_blockwise`, the one stepper, applies them and
records Ix after each, and :meth:`SignalTrace.at_slots` places the samples
in time.  :func:`evolve` steps pulse by pulse (:class:`PulseStep`).  The
factory steps between any slots by the interval rule of :func:`kick_layout`:
powers of the spin-lock cycle operator, kept as their two half-size parity
blocks under the global spin flip P (:class:`ParityPair`), and for a step
holding the kick, which breaks that symmetry, two powers around the kick's
gate layer (:class:`KickStep`); at gamma = pi, one parity component
(:class:`ComponentStep`).  No 2^n x 2^n matrix is built.  The per-pulse and
blockwise operators are built independently, so each checks the other.
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
#: Largest P = -1 weight w gamma = pi steps drop: Ix moves by <= n w / 2; rounding leaves 1e-25.
PARITY_LEAK_LIMIT = 1e-20


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
        cycle_index, pulse_index = cls.slot_layout(slots, (len(values) - 1) // len(slots))
        T = spec.block_duration
        times = np.where(pulse_index == spec.slots_per_block, (cycle_index + 1) * T,
                         cycle_index * T + pulse_index * spec.tau)
        return cls(times=times, values=np.asarray(values, dtype=float), slots=slots,
                   block_duration=T, slots_per_block=spec.slots_per_block, meta=meta)

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

    A positive ``decay_time`` evolves the product state under ``hamiltonian``
    first, lowering the initial polarization (free induction decay) without
    touching the subsequent dynamics.
    """
    if decay_time < 0:
        raise ValueError(f"decay_time must be >= 0, got {decay_time}")
    dim = 2**num_spins
    psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    if decay_time > 0:
        if hamiltonian is None:
            raise ValueError(f"decay_time = {decay_time} needs a hamiltonian to decay under")
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

    A run that reads that sample reads a block's sign off it, so it must fall
    after the - block's kick and no later than the + block's.
    """
    h = half_sample_slot(spec)
    if not spec.kick_minus < h <= spec.kick_plus:
        raise ValueError(
            f"half-period sample (slot {h}) does not separate the two blocks; need "
            f"kick_minus ({spec.kick_minus}) < half slot <= kick_plus ({spec.kick_plus})")


# -- spin-flip parity ------------------------------------------------------

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
        h = self.plus.shape[0]
        top, flipped = state[:h], state[h:][::-1]
        plus, minus = self.plus @ (top + flipped), self.minus @ (top - flipped)
        # back from the P = ±1 coordinates: row i of H₀, row F(i) at 2^n - 1 - i
        out = np.empty(state.shape, dtype=complex)
        np.add(plus, minus, out=out[:h])
        np.subtract(plus, minus, out=out[h:][::-1])
        out *= 0.5
        return out


def cycle_parity(eigensystem, spec: MonopoleSpec, sign: int) -> np.ndarray:
    """W₊ (``sign`` 1) or W₋ (-1), a parity block of the spin-lock cycle operator W = U_free · X.

    Built sector by sector from the Hamiltonian's ``eigensystem``, never from
    a dense 2^n x 2^n matrix.  With spin 0 the most significant bit, the x pulse has
    X[H₀, H₀] = x₀₀ X' and X[H₀, F(H₀)] = x₀₁ X' R, where X' is the pulse on
    the other n - 1 spins and R reverses the 2^(n-1) indices; so
    W± = U± X± = x₀₀ U± X' ± x₀₁ (U± X') R.
    """
    n = len(eigensystem) - 1
    dim, h = 1 << n, 1 << (n - 1)
    same = np.zeros((h, h), dtype=complex)      # U_free[H₀, H₀]
    flipped = np.zeros((h, h), dtype=complex)   # U_free[H₀, F(H₀)]
    for idx, vals, vecs in eigensystem:
        low = idx < h
        top = ((vecs * np.exp(-1j * spec.tau * vals)) @ vecs.conj().T)[low]
        same[np.ix_(idx[low], idx[low])] = top[:, low]
        flipped[np.ix_(idx[low], dim - 1 - idx[~low])] = top[:, ~low]
    (np.add if sign > 0 else np.subtract)(same, flipped, out=same)   # U±
    del flipped
    x = rotation_gate("x", spec.theta_x)
    # U± X' with X' applied to the columns: X'^T on the rows of U±^T
    u_x = apply_halves(same.T, gate_halves(x.T, n - 1)).T
    del same
    w = x[0, 0] * u_x
    w += sign * x[0, 1] * u_x[:, ::-1]
    return w


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


class BlockPropagatorFactory:
    """Block propagators for one (Hamiltonian, timing, readout slots) setup.

    With W = U_free · X the spin-lock cycle operator (x pulse, then free
    evolution), the kick cycle is U_free · Y = W · X^† · Y.  Every readout step
    of a block is therefore a plain power W^e or a product A · G(B) of two
    powers, A = W^a and B = W^b, where only the gate layer G = X^† · Y depends
    on the kick angle (:func:`kick_layout` derives the exponents from the
    slots).  W commutes with the global spin flip P: ``blocks[s]`` holds the
    P = s block of every power the layout names, built by one
    :class:`PowerChain` run when first needed (P = +1 at once).  G breaks P,
    so :meth:`block_set` keeps a kick step as a :class:`KickStep` of
    :class:`ParityPair` powers, or at gamma = pi, where G keeps P eigenstates,
    as a :class:`ComponentStep`: an even-n factory then never builds P = -1.
    """

    #: Most half-size matrices `cycle_parity` holds while it builds one block of W.
    BUILD_HALVES = 3

    def __init__(self, hamiltonian: Hamiltonian, spec: MonopoleSpec, slots):
        self.hamiltonian = hamiltonian
        self.spec = spec
        self.slots = tuple(slots)
        self.num_spins = hamiltonian.num_spins
        self.layout = kick_layout(spec, self.slots)
        self._eigensystem = hamiltonian.eigensystem()
        self.blocks: dict[int, dict] = {}
        self.parity(1)

    def parity(self, sign: int) -> dict:
        """The P = ``sign`` blocks of the layout's powers, built the first time they are asked."""
        if sign not in self.blocks:
            base = cycle_parity(self._eigensystem, self.spec, sign)
            self.blocks[sign] = PowerChain(self._exponents(self.layout)).fill({1: base})
        return self.blocks[sign]

    @property
    def powers(self) -> dict[int, ParityPair]:
        """Every power of the layout as a :class:`ParityPair`, building P = -1 if needed."""
        return {e: ParityPair(plus, self.parity(-1)[e]) for e, plus in self.parity(1).items()}

    @staticmethod
    def _exponents(layout) -> set[int]:
        return {e for steps in layout.values() for factors in steps for e in factors}

    @classmethod
    def peak_matrices(cls, spec: MonopoleSpec, slots, chains: int = 2) -> float:
        """Most dense 2^n x 2^n matrices (a half-size block is a quarter) a factory for
        ``spec``'s layout at ``slots`` holds while it builds ``chains`` parities in turn."""
        chain = PowerChain(cls._exponents(kick_layout(spec, slots)))
        return ((chains - 1) * len(chain.targets) + max(cls.BUILD_HALVES, chain.peak)) / 4

    def block_set(self, gamma_y: float | None = None, include_half: bool | None = None,
                  angle_spread: float = 0.0, disorder_seed: int | None = None) -> "BlockPropagators":
        """Readout steps of both block signs at kick angle ``gamma_y`` (None: the factory's).

        A given ``include_half`` must name the factory's slots: the half-period
        slot and the block end, or the block end alone.
        """
        end, n = self.spec.slots_per_block, self.num_spins
        if include_half is not None and self.slots != (
                (half_sample_slot(self.spec), end) if include_half else (end,)):
            raise ValueError(f"factory built for slots {self.slots}, "
                             f"asked for include_half={include_half}")
        spec = replace(self.spec, gamma_y=self.spec.gamma_y if gamma_y is None else gamma_y)
        x_inverse = rotation_gate("x", spec.theta_x).conj().T
        kick = np.matmul(x_inverse, _kick_gates(spec, n, angle_spread, disorder_seed))
        if spec.gamma_y == math.pi and angle_spread == 0.0:
            blocks = {s: self.parity(s) for s in ((1,) if n % 2 == 0 else (1, -1))}
            power = lambda e: {s: b[e] for s, b in blocks.items()}
            step = lambda f: (ComponentStep(power(f[0])) if len(f) == 1 else ComponentStep(
                power(f[0]), power(f[1]), kick, gate_halves(kick, n - 1), n % 2 == 1))
        else:
            halves, p = gate_halves(kick, n), self.powers
            step = lambda f: p[f[0]] if len(f) == 1 else KickStep(p[f[0]], halves, p[f[1]])
        steps = {sign: tuple(map(step, layout)) for sign, layout in self.layout.items()}
        return BlockPropagators(spec, self.slots, steps)


# -- the stepper -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockPropagators:
    """The readout steps of both block signs at one kick angle.

    ``steps[s]`` is the block of sign ``s`` as a tuple of operators, one per
    readout slot of ``slots``: each carries the state from the previous
    readout to the one after its slot, and the last slot is the block end.
    An operator is anything with ``shape`` and ``@``: a :class:`ParityPair`
    (plain power), a :class:`KickStep` (a step holding the kick), a
    :class:`ComponentStep` (either, at gamma = pi) or a :class:`PulseStep`.
    """

    spec: MonopoleSpec
    slots: tuple
    steps: dict


@dataclass(frozen=True, eq=False)
class KickStep:
    """A factory step A · G(B) holding the kick: ``step @ psi`` is ``a @ G(b @ psi)``.

    ``a`` and ``b`` are the step's :class:`ParityPair` powers, ``halves`` the
    kick's gate layer G from `gate_halves`.  Nothing of size 2^n x 2^n is
    built: a step costs four half-size mat-vecs and the gate layer.
    """

    a: ParityPair
    halves: tuple
    b: ParityPair

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __matmul__(self, state: np.ndarray) -> np.ndarray:
        return self.a @ apply_halves(self.b @ state, self.halves)


@dataclass(frozen=True, eq=False)
class ComponentStep:
    """A factory step at gamma = pi on the component (c, s), c = √2 ψ[H₀], of a P = s state ψ.

    ``a`` and ``b`` map a parity to a power's block.  A plain step is (a[s] c, s); a kick step
    applies b[s], the kick folded onto H₀, (G ψ)[H₀] = G'(g₀₀ c + s g₀₁ c[::-1]) with ``gate`` g
    on spin 0 and ``rest`` G' on the others, then a[s'], s' = -s if it ``flips`` (odd n), else s.
    """

    a: dict
    b: dict | None = None
    gate: np.ndarray | None = None
    rest: tuple = ()
    flips: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return (2 * self.a[1].shape[0],) * 2

    def __matmul__(self, state: tuple[np.ndarray, int]) -> tuple[np.ndarray, int]:
        c, s = state
        if self.b is not None:
            c = self.b[s] @ c
            c = apply_halves(self.gate[0, 0] * c + s * self.gate[0, 1] * c[::-1], self.rest)
            s = -s if self.flips else s
        return self.a[s] @ c, s


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
    application per step of ``props``: two half-size mat-vecs for a
    :class:`ParityPair`, four and a gate layer for a :class:`KickStep`, half
    that on the P = +1 component of `psi0` for a :class:`ComponentStep`, a gate
    layer and the sector mat-vecs for a :class:`PulseStep`.  The norm is
    checked after every cycle, one vdot.  With ``stop_factor`` the run ends at
    the first block-end sample below ``stop_factor / e`` of the initial
    magnitude, since later cycles cannot move the lifetime argmin;
    ``num_cycles`` counts the cycles evolved.
    """
    spec = props.spec
    dim = props.steps[1][0].shape[0]
    if psi0.shape != (dim,):
        raise ValueError("state dimension does not match the propagators")
    num_spins = dim.bit_length() - 1
    psi = np.array(psi0, dtype=complex)
    read = lambda state: total_ix(state, num_spins)
    if isinstance(props.steps[1][0], ComponentStep):
        top, flipped = psi[:dim // 2], psi[dim // 2:][::-1]
        if (leak := np.vdot(top - flipped, top - flipped).real / 2) > PARITY_LEAK_LIMIT:
            raise ValueError(f"gamma = pi steps would drop a P = -1 part of weight {leak:.3e}")
        psi = (top + flipped) / math.sqrt(2), 1
        # spins 1..n-1 of a P = s state read c = √2 ψ[H₀], spin 0 reads s Re<c, c[::-1]> / 2
        read = lambda c_s: (total_ix(c_s[0], num_spins - 1)
                            + c_s[1] * float(np.vdot(c_s[0], c_s[0][::-1]).real) / 2)
    values = [read(psi)]
    # without stop_factor the target is 0, which no magnitude falls below
    target = 0.0 if stop_factor is None else abs(values[0]) * stop_factor / math.e
    for cycle, sym in enumerate(stream.symbols, start=1):
        for op in props.steps[int(sym)]:
            psi = op @ psi
            values.append(read(psi))
        _check_norm(psi[0] if isinstance(psi, tuple) else psi, f"cycle {cycle}")
        if abs(values[-1]) < target:
            break
    return SignalTrace.at_slots(
        spec, props.slots, values,
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
    slots = tuple(range(1, spec.slots_per_block + 1))
    steps = {sign: tuple(kick if slot == kick_slot + 1 else x for slot in slots)
             for sign, kick_slot in ((1, spec.kick_plus), (-1, spec.kick_minus))}
    trace = evolve_blockwise(program.stream, BlockPropagators(spec, slots, steps), psi0)
    trace.meta["engine"] = "full"
    return trace
