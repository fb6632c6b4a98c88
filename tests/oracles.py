"""Independent reference results that only the tests compare the library against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rondeau.dephasing import DephasingParams
from rondeau.evolution import rotation_gate
from rondeau.sequences import MonopoleSpec
from rondeau.spins import Hamiltonian, sector_indices


@dataclass(frozen=True, eq=False)
class EnvelopePrediction:
    """Predicted spectral envelope of an n-th order multipolar stream."""

    n_order: int
    grid: np.ndarray
    amplitude: np.ndarray


def envelope(n: int, grid: np.ndarray) -> EnvelopePrediction:
    """Spectral envelope prod_{j=1..n} [1 - cos(2**(j-1) nu)]**(1/2).

    The empty product at n=0 is the flat envelope; for small nu the
    product vanishes as nu**n.
    """
    if n < 0:
        raise ValueError(f"multipole order must be >= 0, got {n}")
    grid = np.asarray(grid, dtype=float)
    if grid.size and (grid.min() < 0 or grid.max() > math.pi + 1e-12):
        raise ValueError("frequency grid must lie in [0, pi]")
    amp = np.ones_like(grid)
    for j in range(1, n + 1):
        amp = amp * np.sqrt(np.maximum(1.0 - np.cos(2 ** (j - 1) * grid), 0.0))
    return EnvelopePrediction(n_order=n, grid=grid, amplitude=amp)


def pi_shift_mirror(amplitudes: np.ndarray) -> np.ndarray:
    """Amplitudes reindexed omega -> pi - omega on the shared grid."""
    m = amplitudes.size
    if m % 2:
        raise ValueError("pi-shift mirror needs an even number of cycles")
    return amplitudes[(m // 2 - np.arange(m)) % m]


def gates_by_spin(state: np.ndarray, gate: np.ndarray, num_spins: int) -> np.ndarray:
    """The 2x2 ``gate`` applied to each spin's own axis of `state`, one spin at a time.

    Works on vectors (dim,) and on matrices (dim, m): trailing axes are a
    flat batch.  Spin 0 is the most significant bit of a basis index.
    """
    out = np.array(state, dtype=complex)
    for k in range(num_spins):
        out = np.einsum("ij,ajb->aib", gate, out.reshape(2**k, 2, -1))
    return out.reshape(np.shape(state))


def parity_rows(psi: np.ndarray) -> np.ndarray:
    """The P = +1 and P = -1 rows c_s = (ψ[H₀] + s ψ[F(H₀)]) / √2 of the vector ``psi``.

    H₀ holds the indices below 2^(n-1) and F(i) = 2^n - 1 - i reverses them.
    """
    h = psi.shape[0] // 2
    top, flipped = psi[:h], psi[h:][::-1]
    return np.stack((top + flipped, top - flipped)) / math.sqrt(2)


def join_rows(rows: np.ndarray, signs) -> np.ndarray:
    """The vector ψ of parity ``rows`` of ``signs``: ψ[H₀] = Σ c_s / √2, ψ[F(H₀)] = Σ s c_s / √2."""
    return np.concatenate((rows.sum(axis=0), (np.asarray(signs) @ rows)[::-1])) / math.sqrt(2)


def state_vector(row: np.ndarray) -> np.ndarray:
    """The 2^n vector ψ of the P = +1 parity ``row`` that `initial_state` returns."""
    return join_rows(row[None], (1,))


def total_ix(state: np.ndarray, num_spins: int) -> float:
    """Expectation of total Ix of the vector ``state``; spin flips are index permutations."""
    total = 0.0
    for k in range(num_spins):
        v = state.reshape(2**k, 2, -1)
        total += float(np.real(np.vdot(v[:, 0, :], v[:, 1, :])))
    return total


def global_rotation_matrix(axis: str, angle: float, num_spins: int) -> np.ndarray:
    """Dense matrix of the factored global rotation (for small-system checks)."""
    return gates_by_spin(np.eye(2**num_spins, dtype=complex),
                         rotation_gate(axis, angle), num_spins)


def _pair_term_indices(num_spins: int, k: int, l: int):
    """Basis indices coupled by the flip-flop between spins k and l.

    Bit 0 of a basis index is the last spin (kron ordering); returns the
    index array where spin k is up / spin l is down and its flip partner.
    """
    dim = 1 << num_spins
    bit_k = 1 << (num_spins - 1 - k)
    bit_l = 1 << (num_spins - 1 - l)
    idx = np.arange(dim)
    mask = ((idx & bit_k) != 0) & ((idx & bit_l) == 0)
    src = idx[mask]
    dst = src ^ bit_k ^ bit_l
    return src, dst


def _diagonal(hamiltonian: Hamiltonian) -> np.ndarray:
    """H's diagonal (1/2) sum B_kl z_k z_l with z = +-1 over all 2^n basis states, pair by pair."""
    n, B = hamiltonian.num_spins, hamiltonian.couplings
    idx = np.arange(1 << n)
    z = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1)
    diag = np.zeros(1 << n)
    for k in range(n):
        for l in range(k + 1, n):
            diag += 0.5 * B[k, l] * z[:, k] * z[:, l]
    return diag


def dense_hamiltonian(hamiltonian: Hamiltonian) -> np.ndarray:
    """The whole real 2^n x 2^n secular Hamiltonian of ``hamiltonian``'s couplings,
    assembled densely with I = sigma/2 spins.

    Diagonal part (1/2) sum B_kl z_k z_l with z = +-1; flip-flop part
    -B_kl/2 between |...up,down...> and |...down,up...>.
    """
    n, B = hamiltonian.num_spins, hamiltonian.couplings
    dim = 1 << n
    H = np.zeros((dim, dim))
    H[np.arange(dim), np.arange(dim)] = _diagonal(hamiltonian)
    for k in range(n):
        for l in range(k + 1, n):
            if B[k, l] == 0.0:
                continue
            src, dst = _pair_term_indices(n, k, l)
            H[dst, src] += -0.5 * B[k, l]
            H[src, dst] += -0.5 * B[k, l]
    return H


def flat_buffer_blocks(hamiltonian: Hamiltonian) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every sector's ``(indices, block)``, all blocks views of one flat buffer.

    The whole-space build `Hamiltonian.sector_block` must equal bit for bit:
    the diagonal of all 2^n states at once, then each pair's flip-flop entries
    written through the map flat[row[i] + col[j]] of basis indices i, j.
    """
    n, B = hamiltonian.num_spins, hamiltonian.couplings
    dim = 1 << n
    sectors = sector_indices(n)
    flat = np.zeros(sum(sector.size**2 for sector in sectors))
    row, col = np.empty(dim, dtype=np.intp), np.empty(dim, dtype=np.intp)
    blocks, start = [], 0
    for sector in sectors:
        size = sector.size
        col[sector] = np.arange(size)
        row[sector] = start + size * col[sector]
        blocks.append((sector, flat[start:start + size * size].reshape(size, size)))
        start += size * size
    flat[row + col] = _diagonal(hamiltonian)
    for k in range(n):
        for l in range(k + 1, n):
            if B[k, l] == 0.0:
                continue
            src, dst = _pair_term_indices(n, k, l)
            flat[row[dst] + col[src]] = -0.5 * B[k, l]
            flat[row[src] + col[dst]] = -0.5 * B[k, l]
    return tuple(blocks)


def scattered_matrix(hamiltonian: Hamiltonian) -> np.ndarray:
    """The Hamiltonian's sector blocks scattered into one dense 2^n x 2^n matrix."""
    dim = 1 << hamiltonian.num_spins
    H = np.zeros((dim, dim))
    for idx in sector_indices(hamiltonian.num_spins):
        H[np.ix_(idx, idx)] = hamiltonian.sector_block(idx)
    return H


def zero_hamiltonian(num_spins: int) -> Hamiltonian:
    """Non-interacting reference system (all couplings off)."""
    return Hamiltonian(np.zeros((num_spins, num_spins)))


def dense_step(step, num_spins: int, signs=(1, -1)) -> np.ndarray:
    """A readout step, a tuple of factors, as a dense matrix: its action on each basis state.

    The state enters as its parity rows of ``signs``: with (1,) alone the
    matrix is the step times the projector (1 + P) / 2.
    """
    columns = []
    for state in np.eye(1 << num_spins, dtype=complex):
        rows, out = parity_rows(state)[:len(signs)], signs
        for factor in step:
            rows, out = factor(rows, out)
        columns.append(join_rows(rows, out))
    return np.array(columns).T


def dense_free_propagator(hamiltonian: Hamiltonian, duration: float) -> np.ndarray:
    """exp(-i * duration * H) as V e^{-i duration Λ} V^† from one dense eigh of the matrix."""
    eigvals, eigvecs = np.linalg.eigh(scattered_matrix(hamiltonian))
    return (eigvecs * np.exp(-1j * duration * eigvals)) @ eigvecs.conj().T


def dense_free_rows(blocks, num_spins: int) -> np.ndarray:
    """The H₀ rows of U_free, 2^(n-1) x 2^n, scattered from the `free_blocks` of a `FreeStep`.

    A block's row i is sector k's state cols[i] for i < h, and otherwise the H₀ state
    cols[i] = F(j) of sector n - k, whose row of U_free is the block's row for j read
    through the flip F, which U_free commutes with.
    """
    dim = 1 << num_spins
    rows_of = np.zeros((dim // 2, dim), dtype=complex)
    for cols, h, block in blocks:
        states = np.concatenate((cols[:h], dim - 1 - cols[h:]))
        rows_of[np.ix_(cols[:h], states)] = block[:h]
        rows_of[np.ix_(cols[h:len(block)], dim - 1 - states)] = block[h:]
    return rows_of


def sector_free_rows(eigensystem, duration: float):
    """H₀'s rows of exp(-i duration H), one ``(rows, cols, block)`` triple per total-Iz sector.

    The per-sector free step the paired `FreeStep` is checked against: ``block`` is
    V_k e^{-i duration Λ_k} V_k^T on the sector's states in H₀, ``rows``, and on all its
    states, ``cols``, which list the rows and then the F(j) of its states j in H₁.
    """
    dim = 1 << (len(eigensystem) - 1)
    for idx, vals, vecs in eigensystem:
        h = int(np.searchsorted(idx, dim // 2))
        if h:
            block = (vecs[:h] * np.exp(-1j * duration * vals)) @ vecs.T
            yield idx[:h], np.where(idx < dim // 2, idx, dim - 1 - idx), block


def sector_free_step(sectors, rows: np.ndarray, signs) -> np.ndarray:
    """The rows after the per-sector free step of `sector_free_rows`: per sector, a row c
    of parity s gathers x = (c[rows], s c[F(j)]) and gets block @ x on its rows."""
    out = np.empty_like(rows)
    for c, s, row in zip(rows, signs, out):
        for idx, cols, block in sectors:
            x = c[cols]
            x[idx.size:] *= s
            row[idx] = block @ x
    return out


def sector_cycle_parity(eigensystem, spec: MonopoleSpec, sign: int) -> np.ndarray:
    """W± of `cycle_parity` with U± scattered from the blocks of `sector_free_rows`, then
    W± = x₀₀ U± X' ± x₀₁ (U± X') R with the pulse X' on spins 1 ... n-1 by `gates_by_spin`."""
    n = len(eigensystem) - 1
    u = np.zeros((1 << (n - 1),) * 2, dtype=complex)
    for rows, cols, block in sector_free_rows(eigensystem, spec.tau):
        k = rows.size
        u[np.ix_(rows, cols[:k])] = block[:, :k]
        u[np.ix_(rows, cols[k:])] += sign * block[:, k:]
    x = rotation_gate("x", spec.theta_x)
    u_x = gates_by_spin(u.T, x.T, n - 1).T
    return x[0, 0] * u_x + sign * x[0, 1] * u_x[:, ::-1]


def dense_cycle_powers(hamiltonian: Hamiltonian, spec: MonopoleSpec, exponents) -> dict:
    """W^e for every e of ``exponents``, with W = U_free · X one dense 2^n x 2^n matrix.

    The dense chain the parity-split factory is checked against: the free step
    from one dense eigh, the x pulse as a dense rotation, numpy's matrix powers.
    """
    w = dense_free_propagator(hamiltonian, spec.tau) @ global_rotation_matrix(
        "x", spec.theta_x, hamiltonian.num_spins)
    return {e: np.linalg.matrix_power(w, e) for e in exponents}


def dense_slot_steps(hamiltonian: Hamiltonian, spec: MonopoleSpec, kick: int, slots) -> list:
    """Dense per-pulse products over each interval (p, s] of the readout ``slots``.

    Pulse j of a block is followed by its free slot, U_free · R_j, with R_j the
    y-kick for j = ``kick`` + 1 and the x pulse otherwise; the step from slot p
    to slot s (p = 0 at the block start) applies pulses p + 1, ..., s in turn.
    """
    n = hamiltonian.num_spins
    u_free = dense_free_propagator(hamiltonian, spec.tau)
    x = u_free @ global_rotation_matrix("x", spec.theta_x, n)
    y = u_free @ global_rotation_matrix("y", spec.gamma_y, n)
    steps = []
    for p, s in zip((0, *slots), slots):
        step = np.eye(1 << n, dtype=complex)
        for j in range(p + 1, s + 1):
            step = (y if j == kick + 1 else x) @ step
        steps.append(step)
    return steps


def dense_kick_gate(spec: MonopoleSpec, num_spins: int) -> np.ndarray:
    """G = X^† · Y(gamma_y), the gate layer of a kick step A · G · B, as a dense matrix."""
    return (global_rotation_matrix("x", spec.theta_x, num_spins).conj().T
            @ global_rotation_matrix("y", spec.gamma_y, num_spins))


def spin_flip(num_spins: int) -> np.ndarray:
    """The global spin flip P = prod sigma_x: basis index i goes to 2^n - 1 - i."""
    return np.eye(1 << num_spins)[::-1]


def total_iz_matrix(num_spins: int) -> np.ndarray:
    """Diagonal of the total Iz operator in the computational basis."""
    dim = 1 << num_spins
    idx = np.arange(dim)
    bits = (idx[:, None] >> np.arange(num_spins - 1, -1, -1)[None, :]) & 1
    return 0.5 * (1.0 - 2.0 * bits).sum(axis=1)


def predicted_rate(params: DephasingParams) -> float:
    """Decay rate Gamma_e = Gamma_0 + eps**2 / (2 T) from the small-angle kick factor.

    A deviation that tracks the period, eps = eps_offset + B*T, unfolds to
    Gamma_0 + eps_offset**2/(2T) + B*eps_offset + B**2 T / 2, which bends up
    again as T -> 0 whenever the calibration offset is nonzero.
    """
    eps = params.spec.epsilon
    if abs(eps) >= math.pi / 2:
        raise ValueError(f"kick deviation {eps:.3f} outside the small-angle regime")
    return params.gamma_0 + eps**2 / (2.0 * params.spec.block_duration)
