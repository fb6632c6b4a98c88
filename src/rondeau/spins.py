"""Disordered spin networks and the secular dipolar Hamiltonian.

Spins are placed at random in a cube under a minimum-distance and a
nearest-neighbor constraint, coupled by 1/r**3 dipolar interactions, and
assembled into the z-conserving (secular) many-body Hamiltonian
``sum_{k<l} B_kl [3 Iz_k Iz_l - I_k . I_l]`` on spin-1/2 sites.  It conserves
total Iz, so it is built and kept as one real block per total-Iz sector; the
dense 2^n x 2^n matrix is never formed.
"""

from __future__ import annotations

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


def default_edge_length(num_spins: int) -> float:
    """Cube edge giving unit number density, i.e. spacing of order one."""
    return float(num_spins) ** (1.0 / 3.0)


def cube_edge(num_spins: int, edge_length: float | None, r_min: float, r_max: float) -> float:
    """``edge_length``, by default `default_edge_length`; a ValueError unless
    0 < r_min < r_max < edge_length."""
    edge = default_edge_length(num_spins) if edge_length is None else edge_length
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
    """Secular dipolar Hamiltonian as its total-Iz sector blocks, with a lazy eigensystem.

    The Hamiltonian conserves total Iz, so it is block-diagonal in the n + 1
    sectors of `sector_indices`: ``blocks`` holds one ``(indices, block)``
    pair per sector, the sector's basis indices and the real symmetric matrix
    restricted to them, and every entry between sectors is zero.  The
    eigendecomposition is computed once, on first use.
    """

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    num_spins: int
    _eigensystem: tuple | None = None

    def eigensystem(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """One-time diagonalization of each sector, cached for reuse.

        Returns ``(indices, eigvals, eigvecs)`` per sector.  P = Πσx commutes with H and
        maps sector k onto sector n - k with reversed indices, so H_{n-k} = J H_k J:
        `np.linalg.eigh` runs on the sectors k <= n/2, and sector n - k gets sector k's
        eigenvalues and the view ``vecs_k[::-1]``.
        """
        if self._eigensystem is None:
            own = [np.linalg.eigh(block) for _, block in self.blocks[:self.num_spins // 2 + 1]]
            own += [(vals, vecs[::-1]) for vals, vecs in own[:(self.num_spins + 1) // 2][::-1]]
            self._eigensystem = tuple((idx, *pair) for (idx, _), pair in zip(self.blocks, own))
        return self._eigensystem


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


def build_hamiltonian(couplings: CouplingSet) -> Hamiltonian:
    """Assemble the secular Hamiltonian with I = sigma/2 spins, sector by sector.

    Diagonal part (1/2) sum B_kl z_k z_l with z = +-1; flip-flop part
    -B_kl/2 between |...up,down...> and |...down,up...>, which preserves the
    number of down spins and so lands inside one sector block.  Real
    symmetric, traceless, and commuting with total Iz by construction.
    """
    n = couplings.num_spins
    if n > DEFAULT_SPIN_CAP:
        raise ValueError(f"{n} spins exceeds the cap of {DEFAULT_SPIN_CAP}")
    dim = 1 << n
    B = couplings.couplings

    idx = np.arange(dim)
    z = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1)
    diag = np.zeros(dim)
    for k in range(n):
        for l in range(k + 1, n):
            diag += 0.5 * B[k, l] * z[:, k] * z[:, l]

    # All blocks share one flat buffer: entry (i, j) of a sector, for basis
    # indices i and j, sits at flat[row[i] + col[j]].
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
    flat[row + col] = diag

    # the two basis states of a flip-flop differ in two bits, so no other
    # pair writes their entries
    for k in range(n):
        for l in range(k + 1, n):
            if B[k, l] == 0.0:
                continue
            src, dst = _pair_term_indices(n, k, l)
            flat[row[dst] + col[src]] = -0.5 * B[k, l]
            flat[row[src] + col[dst]] = -0.5 * B[k, l]
    return Hamiltonian(blocks=tuple(blocks), num_spins=n)
