"""Disordered spin networks and the secular dipolar Hamiltonian.

Spins are placed at random in a cube under a minimum-distance and a
nearest-neighbor constraint, coupled by 1/r**3 dipolar interactions, and
assembled into the z-conserving (secular) many-body Hamiltonian
``sum_{k<l} B_kl [3 Iz_k Iz_l - I_k . I_l]`` on spin-1/2 sites.  It conserves
total Iz, so it is built one real block per total-Iz sector, a block at a time,
and only the sectors' eigensystems are kept; the dense 2^n x 2^n matrix is never
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ISOTROPIC = "isotropic"
ANGULAR = "angular"
COUPLING_MODELS = (ISOTROPIC, ANGULAR)

#: Largest spin count for which a Hamiltonian is built.
DEFAULT_SPIN_CAP = 14

#: Placement proposals per spin before giving up.
DEFAULT_PLACEMENT_BUDGET = 100_000


class PackingInfeasibleError(RuntimeError):
    """Accept-reject placement exhausted its proposal budget."""


class NormalizationError(ValueError):
    """Coupling normalization impossible (all couplings vanish)."""


def cube_edge(num_spins: int, edge_length: float | None, r_min: float, r_max: float) -> float:
    """``edge_length``, by default n**(1/3), the edge of unit number density (a spacing of
    order one); a ValueError unless 0 < r_min < r_max < edge_length."""
    edge = float(num_spins) ** (1.0 / 3.0) if edge_length is None else edge_length
    if not (0 < r_min < r_max < edge):
        raise ValueError(f"need 0 < r_min < r_max < edge_length, got {r_min}, {r_max}, {edge}")
    return edge


@dataclass(frozen=True, eq=False)
class SpinGraph:
    """Random spin positions in a cube with distance constraints satisfied."""

    positions: np.ndarray
    edge_length: float
    r_min: float
    r_max: float
    seed: int

    @property
    def num_spins(self) -> int:
        return self.positions.shape[0]

    def distances(self) -> np.ndarray:
        """Full pairwise distance matrix (zero diagonal)."""
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        return np.sqrt((diff**2).sum(axis=-1))


@dataclass(frozen=True, eq=False)
class CouplingSet:
    """Symmetric pairwise couplings normalized to a target median strength."""

    couplings: np.ndarray
    median_coupling: float
    model: str
    num_spins: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "num_spins", self.couplings.shape[0])

    @property
    def mean_coupling(self) -> float:
        iu = np.triu_indices(self.num_spins, k=1)
        return float(np.mean(np.abs(self.couplings[iu])))


def sector_indices(num_spins: int) -> tuple[np.ndarray, ...]:
    """Basis indices of each total-Iz sector, by the number k = 0..n of down spins."""
    popcount = ((np.arange(1 << num_spins)[:, None] >> np.arange(num_spins)) & 1).sum(axis=1)
    return tuple(np.flatnonzero(popcount == k) for k in range(num_spins + 1))


@dataclass(eq=False)
class Hamiltonian:
    """Secular dipolar Hamiltonian of the pair ``couplings`` B, with a lazy eigensystem.

    The Hamiltonian conserves total Iz, so it is block-diagonal in the n + 1
    sectors of `sector_indices`, every entry between sectors zero.  Only the
    couplings are kept: `sector_block` builds the real symmetric matrix on one
    sector's basis indices when asked, and `eigensystem` builds, diagonalizes
    and drops one sector block at a time, once, on first use.
    """

    couplings: np.ndarray
    _eigensystem: tuple | None = None

    @property
    def num_spins(self) -> int:
        return self.couplings.shape[0]

    def sector_block(self, indices: np.ndarray) -> np.ndarray:
        """H restricted to one sector's ascending basis ``indices``, with I = sigma/2 spins.

        Diagonal part (1/2) sum B_kl z_k z_l with z = +-1, summed pair by pair;
        flip-flop part -B_kl/2 between |...up,down...> and |...down,up...>, which
        preserves the number of down spins and so stays inside the sector.  Bit 0
        of a basis index is the last spin (kron ordering).
        """
        n, B = self.num_spins, self.couplings
        shifts = np.arange(n - 1, -1, -1)
        down = (indices[:, None] >> shifts) & 1
        z = 1.0 - 2.0 * down
        diag = np.zeros(indices.size)
        for k in range(n):
            for l in range(k + 1, n):
                diag += 0.5 * B[k, l] * z[:, k] * z[:, l]
        block = np.diag(diag)
        # every coupled pair (k, l) at once; the two basis states of a flip-flop
        # differ in two bits, so no two pairs write the same entry
        k, l = np.nonzero(np.triu(B, 1))
        src, pair = np.nonzero(down[:, k] > down[:, l])
        position = np.empty(1 << n, dtype=np.intp)
        position[indices] = np.arange(indices.size)
        dst = position[indices[src] ^ (1 << shifts[k] | 1 << shifts[l])[pair]]
        block[dst, src] = block[src, dst] = -0.5 * B[k, l][pair]
        return block

    def eigensystem(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """One-time diagonalization of each sector, cached for reuse.

        Returns ``(indices, eigvals, eigvecs)`` per sector.  P = Πσx commutes with H and
        maps sector k onto sector n - k with reversed indices, so H_{n-k} = J H_k J:
        `np.linalg.eigh` runs on the blocks of the sectors k <= n/2, each built just
        before and freed just after, and sector n - k gets sector k's eigenvalues and
        the view ``vecs_k[::-1]``.
        """
        if self._eigensystem is None:
            sectors = sector_indices(self.num_spins)
            own = [np.linalg.eigh(self.sector_block(idx))
                   for idx in sectors[:self.num_spins // 2 + 1]]
            own += [(vals, vecs[::-1]) for vals, vecs in own[:(self.num_spins + 1) // 2][::-1]]
            self._eigensystem = tuple((idx, *pair) for idx, pair in zip(sectors, own))
        return self._eigensystem

    @staticmethod
    def eigensystem_bytes(num_spins: int) -> tuple[int, int]:
        """Bytes `eigensystem` keeps, the eigenvectors and eigenvalues of the sectors k <= n/2
        and every sector's indices, and bytes it adds while built: the largest sector block."""
        sizes = [math.comb(num_spins, k) for k in range(num_spins // 2 + 1)]
        return 8 * (sum(d * d + d for d in sizes) + 2**num_spins), 8 * sizes[-1]**2


def generate_graph(num_spins: int,
                   edge_length: float | None = None,
                   r_min: float = 0.9,
                   r_max: float = 1.1,
                   seed: int = 0) -> SpinGraph:
    """Place spins one by one, accept-rejecting against both constraints.

    A proposal is accepted if it keeps at least r_min from every placed
    spin and sits within r_max of at least one of them (so no spin
    decouples from the network).  Deterministic for a fixed seed.
    """
    if num_spins < 2:
        raise ValueError(f"need at least 2 spins, got {num_spins}")
    edge_length = cube_edge(num_spins, edge_length, r_min, r_max)
    rng = np.random.Generator(np.random.PCG64(seed))
    positions = np.empty((num_spins, 3))
    positions[0] = rng.uniform(0.0, edge_length, size=3)
    for k in range(1, num_spins):
        placed = positions[:k]
        for _ in range(DEFAULT_PLACEMENT_BUDGET):
            candidate = rng.uniform(0.0, edge_length, size=3)
            dist = np.sqrt(((placed - candidate) ** 2).sum(axis=1))
            if dist.min() >= r_min and dist.min() <= r_max:
                positions[k] = candidate
                break
        else:
            raise PackingInfeasibleError(
                f"could not place spin {k} after {DEFAULT_PLACEMENT_BUDGET} proposals "
                f"(edge={edge_length:.3f}, r_min={r_min}, r_max={r_max})"
            )
    return SpinGraph(positions=positions, edge_length=edge_length,
                     r_min=r_min, r_max=r_max, seed=seed)


def compute_couplings(graph: SpinGraph, coupling_median: float = 1.0,
                      model: str = ISOTROPIC) -> CouplingSet:
    """Dipolar couplings from the graph geometry, median-normalized.

    ISOTROPIC folds the angular factor into the prefactor (B = C / r**3);
    ANGULAR keeps it explicit, B = C (3 cos**2 theta - 1) / (2 r**3) with
    theta measured from the z-axis.
    """
    if model not in COUPLING_MODELS:
        raise ValueError(f"unknown coupling model {model!r}")
    n = graph.num_spins
    dist = graph.distances()
    np.fill_diagonal(dist, np.inf)
    raw = 1.0 / dist**3
    if model == ANGULAR:
        diff = graph.positions[:, None, :] - graph.positions[None, :, :]
        with np.errstate(invalid="ignore"):
            cos_theta = diff[..., 2] / np.where(dist == np.inf, 1.0, dist)
        raw = raw * (3.0 * cos_theta**2 - 1.0) / 2.0
    np.fill_diagonal(raw, 0.0)
    iu = np.triu_indices(n, k=1)
    median_raw = float(np.median(np.abs(raw[iu])))
    # angular factors can cancel couplings to rounding error, not exact zero
    if median_raw < 1e-12 * max(1.0, float(np.abs(raw[iu]).max())):
        raise NormalizationError("couplings vanish; cannot normalize the median")
    couplings = raw * (coupling_median / median_raw)
    return CouplingSet(couplings=couplings, median_coupling=coupling_median, model=model)


def build_hamiltonian(couplings: CouplingSet) -> Hamiltonian:
    """The secular Hamiltonian of ``couplings``; a ValueError past `DEFAULT_SPIN_CAP` spins.

    Real symmetric, traceless, and commuting with total Iz by construction.
    Nothing is assembled here: `Hamiltonian` builds its sector blocks on demand.
    """
    n = couplings.num_spins
    if n > DEFAULT_SPIN_CAP:
        raise ValueError(f"{n} spins exceeds the cap of {DEFAULT_SPIN_CAP}")
    return Hamiltonian(couplings.couplings)
