import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rondeau import spins
from rondeau.spins import (ANGULAR, ISOTROPIC, CouplingSet, Hamiltonian, NormalizationError,
                           PackingInfeasibleError, SpinGraph, build_hamiltonian,
                           compute_couplings, generate_graph, sector_indices)

from conftest import traced
from oracles import (dense_hamiltonian, flat_buffer_blocks, scattered_matrix, total_iz_matrix,
                     zero_hamiltonian)


def line_graph(*zs):
    positions = np.array([[0.0, 0.0, z] for z in zs])
    return SpinGraph(positions=positions, edge_length=max(zs) + 1.0,
                     r_min=0.1, r_max=max(zs) + 1.0, seed=0)


class TestGenerateGraph:
    def test_two_spins_distance_window(self):
        graph = generate_graph(2, seed=4)
        d = np.linalg.norm(graph.positions[0] - graph.positions[1])
        assert 0.9 <= d <= 1.1

    def test_deterministic(self):
        a = generate_graph(7, seed=123)
        b = generate_graph(7, seed=123)
        assert np.array_equal(a.positions, b.positions)

    def test_fourteen_spins_default_box(self):
        # the production simulation size packs at the default density
        graph = generate_graph(14, seed=0)
        d = graph.distances()
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 0.9
        assert (d.min(axis=1) <= 1.1).all()

    @given(num_spins=st.integers(min_value=2, max_value=12),
           seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_constraints_always_hold(self, num_spins, seed):
        graph = generate_graph(num_spins, seed=seed)
        d = graph.distances()
        np.fill_diagonal(d, np.inf)
        assert d.min() >= graph.r_min
        assert (d.min(axis=1) <= graph.r_max).all()
        assert (graph.positions >= 0).all()
        assert (graph.positions <= graph.edge_length).all()

    def test_packing_infeasible_raises(self, monkeypatch):
        monkeypatch.setattr(spins, "DEFAULT_PLACEMENT_BUDGET", 200)
        with pytest.raises(PackingInfeasibleError, match="after 200 proposals"):
            generate_graph(30, edge_length=1.5, r_min=0.9, r_max=1.0, seed=0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            generate_graph(4, edge_length=1.0, r_min=1.2, r_max=1.4, seed=0)


class TestComputeCouplings:
    def test_pair_at_unit_distance_gets_target(self):
        couplings = compute_couplings(line_graph(0.0, 1.0), coupling_median=0.66)
        assert couplings.couplings[0, 1] == pytest.approx(0.66)

    def test_angular_along_z_is_isotropic(self):
        graph = line_graph(0.0, 1.0)
        iso = compute_couplings(graph, 1.0, model=ISOTROPIC)
        ang = compute_couplings(graph, 1.0, model=ANGULAR)
        assert iso.couplings[0, 1] == pytest.approx(ang.couplings[0, 1])

    def test_angular_transverse_pair_is_negative(self):
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        graph = SpinGraph(positions, edge_length=2.0, r_min=0.1, r_max=2.0, seed=0)
        ang = compute_couplings(graph, 1.0, model=ANGULAR)
        assert ang.couplings[0, 1] == pytest.approx(-1.0)

    def test_inverse_cube_law(self):
        couplings = compute_couplings(line_graph(0.0, 1.0, 3.0), 1.0)
        b = np.abs(couplings.couplings)
        assert b[0, 1] / b[1, 2] == pytest.approx(8.0)      # r = 1 vs r = 2
        assert b[0, 1] / b[0, 2] == pytest.approx(27.0)     # r = 1 vs r = 3

    @given(num_spins=st.integers(min_value=3, max_value=10),
           seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_median_normalization_exact(self, num_spins, seed):
        graph = generate_graph(num_spins, seed=seed)
        couplings = compute_couplings(graph, coupling_median=0.37)
        iu = np.triu_indices(num_spins, k=1)
        median = np.median(np.abs(couplings.couplings[iu]))
        assert median == pytest.approx(0.37, rel=1e-12)

    def test_symmetry(self):
        couplings = compute_couplings(generate_graph(6, seed=1), 1.0)
        assert np.array_equal(couplings.couplings, couplings.couplings.T)
        assert np.all(np.diag(couplings.couplings) == 0.0)

    def test_degenerate_angular_geometry_raises(self):
        # magic angle: 3 cos^2(theta) = 1 kills every coupling
        z = 1.0 / np.sqrt(3.0)
        rho = np.sqrt(1.0 - z * z)
        positions = np.array([[0.0, 0.0, 0.0], [rho, 0.0, z]])
        graph = SpinGraph(positions, edge_length=2.0, r_min=0.1, r_max=2.0, seed=0)
        with pytest.raises(NormalizationError):
            compute_couplings(graph, 1.0, model=ANGULAR)


class TestBuildHamiltonian:
    def test_two_spin_spectrum(self):
        # 4x4 diagonalization by hand: {J/2, J/2, -J, 0} for coupling J
        j = 0.66
        couplings = compute_couplings(line_graph(0.0, 1.0), coupling_median=j)
        h = build_hamiltonian(couplings)
        eigvals = np.sort(np.concatenate([np.linalg.eigvalsh(h.sector_block(idx))
                                          for idx in sector_indices(2)]))
        assert np.allclose(eigvals, [-j, 0.0, j / 2, j / 2], atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_secular_structure(self, seed):
        couplings = compute_couplings(generate_graph(5, seed=seed), 1.0)
        matrix = scattered_matrix(build_hamiltonian(couplings))
        norm = np.abs(matrix).max()
        assert np.abs(matrix - matrix.T).max() < 1e-12 * norm
        iz = total_iz_matrix(5)
        commutator = matrix * (iz[None, :] - iz[:, None])
        assert np.abs(commutator).max() < 1e-12 * norm
        assert abs(np.trace(matrix)) < 1e-12 * norm * 32

    @given(num_spins=st.integers(min_value=2, max_value=8),
           seed=st.integers(min_value=0, max_value=10**6),
           model=st.sampled_from([ISOTROPIC, ANGULAR]))
    @settings(max_examples=30, deadline=None)
    def test_blocks_equal_dense_oracle(self, num_spins, seed, model):
        couplings = compute_couplings(generate_graph(num_spins, seed=seed), 1.0, model=model)
        h = build_hamiltonian(couplings)
        dense = dense_hamiltonian(h)
        for idx in sector_indices(num_spins):
            assert np.array_equal(h.sector_block(idx), dense[np.ix_(idx, idx)])

    @pytest.mark.parametrize("num_spins", range(2, 12))
    def test_sector_build_equals_the_flat_buffer_build(self, num_spins):
        """Each sector block, and so the eigensystem, is bit for bit the one-buffer build's:
        the diagonal is summed pair by pair in the same order."""
        h = build_hamiltonian(compute_couplings(generate_graph(num_spins, seed=5), 1.0))
        blocks = flat_buffer_blocks(h)
        for (idx, block), sector in zip(blocks, sector_indices(num_spins), strict=True):
            assert np.array_equal(idx, sector)
            assert np.array_equal(h.sector_block(idx), block)
        own = [np.linalg.eigh(block) for _, block in blocks[:num_spins // 2 + 1]]
        for k, (idx, vals, vecs) in enumerate(h.eigensystem()):
            mirror = min(k, num_spins - k)
            assert np.array_equal(idx, blocks[k][0])
            assert np.array_equal(vals, own[mirror][0])
            assert np.array_equal(vecs, own[mirror][1][::1 if k == mirror else -1])

    @pytest.mark.parametrize("model", [ISOTROPIC, ANGULAR])
    def test_dense_oracle_is_zero_between_sectors(self, model):
        dense = dense_hamiltonian(build_hamiltonian(
            compute_couplings(generate_graph(6, seed=2), 1.0, model=model)))
        iz = total_iz_matrix(6)
        assert np.any(dense)
        assert np.all(dense[iz[:, None] != iz[None, :]] == 0)

    @pytest.mark.parametrize("num_spins", range(2, 10))
    def test_eigensystem_diagonalizes_every_sector(self, num_spins):
        """Sector n - k mirrors sector k: the same eigenvalues, and the reversed
        eigenvectors as a view of sector k's."""
        h = build_hamiltonian(compute_couplings(generate_graph(num_spins, seed=3), 1.0))
        system = h.eigensystem()
        for (indices, vals, vecs), sector in zip(system, sector_indices(num_spins), strict=True):
            assert np.array_equal(indices, sector)
            block = h.sector_block(sector)
            norm = np.linalg.norm(block)
            assert np.linalg.norm(block @ vecs - vecs * vals) <= 1e-12 * norm
            assert np.abs(vecs.T @ vecs - np.eye(sector.size)).max() <= 1e-12
        for k in range(num_spins + 1):
            if 2 * k != num_spins:
                assert np.shares_memory(system[k][2], system[num_spins - k][2])

    @pytest.mark.parametrize("num_spins", [8, 9, 10])
    def test_eigensystem_holds_one_sector_block_at_a_time(self, num_spins):
        """The built system keeps what `Hamiltonian.eigensystem_bytes` counts and no block;
        while it is built it adds at most one block, the largest.  The slack covers
        bookkeeping and the sector block's index temporaries."""
        couplings = compute_couplings(generate_graph(num_spins, seed=0), 1.0)
        kept, block = Hamiltonian.eigensystem_bytes(num_spins)
        slack = 16 * 1024

        def built():
            h = build_hamiltonian(couplings)
            h.eigensystem()
            return h

        _, held, peak = traced(built)
        assert kept < held <= kept + slack
        assert peak <= kept + block + slack

    def test_dimension_cap(self):
        fake = CouplingSet(couplings=np.zeros((15, 15)), median_coupling=1.0,
                           model=ISOTROPIC)
        with pytest.raises(ValueError):
            build_hamiltonian(fake)

    def test_zero_hamiltonian(self):
        h = zero_hamiltonian(4)
        assert not any(np.any(h.sector_block(idx)) for idx in sector_indices(4))
        assert sum(idx.size for idx, _, _ in h.eigensystem()) == 16
