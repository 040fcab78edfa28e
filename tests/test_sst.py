import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bethe.covers import degree_m_bethe
from bethe import sst
from bethe.errors import NumericalError, ResourceError, ValidationError
from bethe.gct import random_denfg, random_snfg
from bethe.nfg import LocalFunction, NormalFactorGraph, partition_function_exact
from bethe.perm import build_perm_nfg, perm_bethe_degree_m
from bethe.rng import Moments, seeded_rng
from bethe.sst import (
    fubini_study_sample,
    gamma_identity_check,
    num_types,
    pe_matrix,
    pe_value,
    phi_integral_mc,
    type_class_size,
    type_of,
    zbm_via_pe,
    zbm_via_sst_mc,
)

from conftest import two_node_graph


class TestTypes:
    def test_counts(self):
        assert num_types(2, 2) == 3
        assert type_class_size((1, 1)) == 2
        assert type_of((0, 0, 1), 2) == (2, 1)
        assert type_class_size((2, 1)) == 3

    def test_type_class_sizes_sum(self):
        d, M = 3, 4
        sizes = {}
        for seq in itertools.product(range(d), repeat=M):
            t = type_of(seq, d)
            sizes[t] = sizes.get(t, 0) + 1
        assert len(sizes) == num_types(d, M)
        for t, size in sizes.items():
            assert type_class_size(t) == size


class TestPe:
    def test_matrix_d2_m2(self):
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 0.5, 0.5, 0],
                [0, 0.5, 0.5, 0],
                [0, 0, 0, 1],
            ]
        )
        assert np.abs(pe_matrix(2, 2) - expected).max() < 1e-15

    def test_values(self):
        assert pe_value((0, 0), (0, 0)) == 1
        assert pe_value((0, 1), (1, 0)) == Fraction(1, 2)
        assert pe_value((0, 0), (0, 1)) == 0

    @pytest.mark.parametrize("d,M", [(2, 2), (2, 3), (3, 2)])
    def test_symmetric_idempotent_doubly_stochastic(self, d, M):
        p = pe_matrix(d, M)
        assert np.abs(p - p.T).max() < 1e-14
        assert np.abs(p @ p - p).max() < 1e-13
        assert np.abs(p.sum(axis=1) - 1).max() < 1e-13

    def test_dense_cap(self):
        with pytest.raises(ResourceError):
            pe_matrix(4, 4)


class TestZbmViaPe:
    def test_m1_is_z(self):
        g = random_snfg("fig1", seed=0)
        assert zbm_via_pe(g, 1) == pytest.approx(
            partition_function_exact(g), rel=1e-12
        )

    def test_two_node_matches_cover_enumeration(self):
        g = two_node_graph([1.0, 2.0], [3.0, 1.0])
        for M in (1, 2, 3):
            est = degree_m_bethe(g, M, "exact")
            assert zbm_via_pe(g, M) == pytest.approx(est.value, rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["snfg", "denfg"])
    def test_matches_cover_enumeration(self, seed, kind):
        maker = random_snfg if kind == "snfg" else random_denfg
        topology = ["tree3", "theta", "fig1", "fig5"][seed]
        g = maker(topology, seed=seed)
        est = degree_m_bethe(g, 2, "exact", exact_budget=10**4 + 2**6)
        assert zbm_via_pe(g, 2) == pytest.approx(est.value, rel=1e-10)

    def test_perm_graph_degree2(self):
        theta = seeded_rng(21, 0).uniform(size=(2, 2)) + 0.1
        g = build_perm_nfg(theta)
        value = zbm_via_pe(g, 2)
        expected = perm_bethe_degree_m(theta, 2, "lift").value
        assert value == pytest.approx(expected, rel=1e-10)

    def test_perm_graph_degree3_three_paths(self):
        # lifting enumeration, coefficient expansion, and the
        # type-aggregated network are fully independent algorithms
        theta = seeded_rng(22, 0).uniform(size=(2, 2)) + 0.1
        g = build_perm_nfg(theta)
        by_types = zbm_via_pe(g, 3)
        by_lift = perm_bethe_degree_m(theta, 3, "lift").value
        by_coeff = perm_bethe_degree_m(theta, 3, "coeff").value
        assert by_types == pytest.approx(by_lift, rel=1e-10)
        assert by_types == pytest.approx(by_coeff, rel=1e-10)


    @pytest.mark.parametrize("kind", ["snfg", "denfg"])
    def test_tree_equals_z_through_m8(self, kind):
        # covers of a tree are disjoint copies, so Z_B,M = Z at every M
        maker = random_snfg if kind == "snfg" else random_denfg
        g = maker("tree3", seed=3)
        z = abs(partition_function_exact(g))
        for M in range(1, 9):
            assert zbm_via_pe(g, M) == pytest.approx(z, rel=1e-10)

    def test_theta_double_edge_m4_matches_gauge_covers(self):
        g = random_denfg("theta", seed=2)
        est = degree_m_bethe(g, 4, "gauge")
        assert est.covers_evaluated == 576
        assert zbm_via_pe(g, 4) == pytest.approx(est.value, rel=1e-10)

    def test_fig1_double_edge_m5(self):
        # the lifted tables of this input would have 4^15 entries per node
        g = random_denfg("fig1", seed=160)
        value = zbm_via_pe(g, 5)
        assert 0 < value < math.inf
        assert zbm_via_pe(g, 5) == value

    def test_budget_checked_before_any_table_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("aggregated table built before the budget check")

        monkeypatch.setattr(sst, "_aggregated_node_table", refuse)
        g = random_snfg("tree3", seed=0)  # only node 1 has two edges
        with pytest.raises(ResourceError, match="node 1: .* 25 entries"):
            zbm_via_pe(g, 4, max_table_entries=10)

    def test_isolated_scalar_node_multiplies_the_value(self):
        # a node with no edge is a factor c on every cover copy, so the
        # M-fold average gains c ** M and its M-th root gains c
        g = random_snfg("theta", seed=0)
        c = 1.7
        h = NormalFactorGraph(
            kind=g.kind,
            num_nodes=g.num_nodes + 1,
            edges=g.edges,
            factors=g.factors + [LocalFunction(g.num_nodes, (), dense=np.array(c))],
        )
        for M in range(1, 5):
            want = c * zbm_via_pe(g, M)
            assert abs(zbm_via_pe(h, M) - want) <= 1e-15 * want

    def test_negative_average_raises(self):
        # weak-sense double edge: Hermitian but not PSD, Re Z = -1
        g = two_node_graph([1.0, 0.0, 0.0, -2.0], [1.0, 0.0, 0.0, 1.0], kind="denfg")
        assert partition_function_exact(g, check_strict=False) == -1
        for M in (1, 3):
            with pytest.raises(NumericalError, match="negative"):
                zbm_via_pe(g, M)
            with pytest.raises(NumericalError, match="negative"):
                degree_m_bethe(g, M, "exact")

    def test_zero_average_is_valid(self):
        g = two_node_graph([1.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 1.0], kind="denfg")
        assert zbm_via_pe(g, 1) == 0.0
        assert degree_m_bethe(g, 1, "exact").value == 0.0

    def test_degree_below_one_rejected(self):
        g = two_node_graph([1.0, 2.0], [3.0, 1.0])
        with pytest.raises(ValidationError):
            zbm_via_pe(g, 0)
        with pytest.raises(ValidationError):
            zbm_via_sst_mc(g, 0, samples=10, seed=0)
        with pytest.raises(ValidationError):
            zbm_via_sst_mc(g, 2, samples=0, seed=0)


def _ix_reference(table, steps, M):
    """The aggregated node table built with one `np.ix_` scatter-add per
    support configuration, in row-major order."""
    support = [(tuple(s), table[tuple(s)]) for s in np.argwhere(table)]
    acc = np.ones((1,) * table.ndim, dtype=table.dtype)
    for m in range(M):
        nxt = np.zeros([num_types(c, m + 1) for c in table.shape], dtype=table.dtype)
        for s, value in support:
            nxt[np.ix_(*(st[m][:, x] for st, x in zip(steps, s)))] += value * acc
        acc = nxt
    return acc


def _kernel_tables():
    """Dense, sparse and all-zero tables of degree 0 to 3, real and
    complex, with cards 2, 3 and 4 mixed on one node."""
    rng = seeded_rng(31, 0)
    for shape in [(), (3,), (2, 4), (4, 2, 3), (3, 3, 3)]:
        for dtype in (float, complex):
            dense = rng.standard_normal(shape)
            if dtype is complex:
                dense = dense + 1j * rng.standard_normal(shape)
            dense = np.asarray(dense, dtype=dtype)
            yield dense
            yield dense * (rng.uniform(size=shape) < 0.4)
            yield np.zeros(shape, dtype=dtype)


class TestAggregatedNodeTable:
    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_bit_identical_to_ix_scatter(self, M):
        for table in _kernel_tables():
            steps = [sst._type_steps(c, M)[1] for c in table.shape]
            got = sst._aggregated_node_table(table, steps, M)
            want = _ix_reference(table, steps, M)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_degree_zero_is_the_mth_power(self, M):
        # powers of 1 + i are exact in any multiplication order
        got = sst._aggregated_node_table(np.array(1 + 1j), [], M)
        assert got.shape == () and got == [1 + 1j, 2j, -2 + 2j, -4][M - 1]


class TestFubiniStudy:
    def test_unit_norm(self):
        rng = seeded_rng(1, 0)
        for d in (1, 2, 5):
            psi = fubini_study_sample(d, rng)
            assert np.abs(np.linalg.norm(psi) - 1) < 1e-14

    def test_d1_is_phase(self):
        rng = seeded_rng(2, 0)
        psi = fubini_study_sample(1, rng)
        assert abs(abs(psi[0]) - 1) < 1e-14

    def test_marginal_moment(self):
        rng = seeded_rng(3, 0)
        w = rng.standard_normal((100000, 2, 2))
        w /= np.linalg.norm(w.reshape(-1, 4), axis=1)[:, None, None]
        psi0 = w[:, 0, 0] + 1j * w[:, 0, 1]
        mean = np.abs(psi0) ** 2
        stderr = mean.std(ddof=1) / math.sqrt(len(mean))
        assert abs(mean.mean() - 0.5) <= 3 * stderr


class TestPhiIntegral:
    CASES = [
        ((0, 0), (0, 0)),
        ((0, 1), (1, 0)),
        ((0, 1), (0, 1)),
        ((0, 0), (0, 1)),
        ((0, 0), (1, 1)),
        ((1, 1), (1, 1)),
    ]

    @pytest.mark.parametrize("u,v", CASES)
    def test_matches_pe(self, u, v):
        est = phi_integral_mc(u, v, samples=10**5, seed=11, d=2)
        target = float(pe_value(u, v))
        tol = 3 * max(est.stderr, 1e-6)
        assert abs(est.mean - target) <= tol
        assert abs(est.imag_mean) <= 3 * max(est.imag_stderr, 1e-6)

    def test_bit_reproducible(self):
        a = phi_integral_mc((0, 1), (1, 0), samples=5000, seed=9, d=2)
        b = phi_integral_mc((0, 1), (1, 0), samples=5000, seed=9, d=2)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_disjoint_seeds_agree(self):
        a = phi_integral_mc((0, 1), (1, 0), samples=4 * 10**4, seed=1, d=2)
        b = phi_integral_mc((0, 1), (1, 0), samples=4 * 10**4, seed=2, d=2)
        pooled = math.hypot(a.stderr, b.stderr)
        assert abs(a.mean - b.mean) <= 6 * pooled


class TestZbmViaSstMc:
    def test_classical_two_node(self):
        g = two_node_graph([1.0, 2.0], [3.0, 1.0])
        exact = zbm_via_pe(g, 2) ** 2
        est = zbm_via_sst_mc(g, 2, samples=2 * 10**5, seed=4)
        assert abs(est.mean - exact) <= 3 * est.stderr

    def test_m1_estimates_z(self):
        g = two_node_graph([1.0, 0.5, 2.0], [1.5, 1.0, 0.2])
        z = partition_function_exact(g)
        est = zbm_via_sst_mc(g, 1, samples=2 * 10**5, seed=5)
        assert abs(est.mean - z) <= 3 * est.stderr

    def test_double_edge_two_node(self):
        g = random_denfg("tree3", seed=6)
        # restrict to a 2-node subgraph: use the theta topology instead
        g = random_denfg("theta", seed=6)
        exact = zbm_via_pe(g, 2) ** 2
        est = zbm_via_sst_mc(g, 2, samples=2 * 10**5, seed=7)
        assert abs(est.mean - exact) <= 4 * est.stderr
        assert abs(est.imag_mean) <= 4 * max(est.imag_stderr, 1e-9)


def _einsum_reference(g, M, samples, seed, symmetrize):
    """The estimator computed the plain way, on the same draws: one
    einsum per node over each whole chunk, no plan and no row blocks."""

    def integrand(psi):
        prod = np.ones(len(next(iter(psi.values()))), dtype=complex)
        for node in range(g.num_nodes):
            inc = g.incident(node)
            args = [g.factors[node].as_dense(complex), list(range(1, len(inc) + 1))]
            for axis, pos in enumerate(inc):
                vecs = psi[pos] if node == g.edges[pos].endpoints[0] else psi[pos].conj()
                args.extend([vecs, [0, axis + 1]])
            prod = prod * np.einsum(*args, [0], optimize=True) ** M
        return prod

    prefactor = math.prod(num_types(g.var_card(pos), M) for pos in range(g.num_edges))
    acc = Moments()
    for chunk_idx, start in enumerate(range(0, samples, sst.MC_CHUNK)):
        count = min(sst.MC_CHUNK, samples - start)
        rng = seeded_rng(seed, chunk_idx)
        psi = {pos: sst._fs_batch(g.var_card(pos), count, rng) for pos in range(g.num_edges)}
        vals = integrand(psi)
        if symmetrize:
            vals = (vals + integrand({pos: v.conj() for pos, v in psi.items()})) / 2.0
        acc.add(prefactor * vals)
    return acc


class TestMcKernel:
    GRAPHS = {
        "fig1-double-edge": lambda: random_denfg("fig1", seed=3),
        "fig5-classical": lambda: random_snfg("fig5", seed=4),
        "theta-double-edge": lambda: random_denfg("theta", seed=5),
        "two-node": lambda: two_node_graph([1.0, 0.5, 2.0], [1.5, 1.0, 0.2]),
    }
    # crosses a chunk boundary and, within the second chunk, a block boundary
    SAMPLES = sst.MC_CHUNK + 2049

    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_einsum_reference(self, name, symmetrize):
        g = self.GRAPHS[name]()
        est = zbm_via_sst_mc(g, 2, self.SAMPLES, seed=8, symmetrize=symmetrize)
        ref = _einsum_reference(g, 2, self.SAMPLES, 8, symmetrize)
        assert est.samples == ref.count
        assert est.mean == pytest.approx(ref.mean.real, rel=1e-13)
        assert est.stderr == pytest.approx(ref.stderr, rel=1e-13)
        assert abs(est.imag_mean - ref.mean.imag) <= 1e-13 * abs(ref.mean)

    def test_rows_capped_by_the_budget(self, monkeypatch):
        # largest table 64 entries: a budget of 6400 allows 100 rows a block
        g = random_denfg("fig1", seed=3)
        monkeypatch.setattr(sst, "MAX_TABLE_ENTRIES", 6400)
        assert sst._mc_plan(g)[1] == 100
        est = zbm_via_sst_mc(g, 2, 3000, seed=9)
        ref = _einsum_reference(g, 2, 3000, 9, False)
        assert est.mean == pytest.approx(ref.mean.real, rel=1e-13)
        assert est.stderr == pytest.approx(ref.stderr, rel=1e-13)

    def test_budget_checked_before_any_table_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense table built before the budget check")

        monkeypatch.setattr(LocalFunction, "as_dense", refuse)
        g = build_perm_nfg(np.ones((25, 25)))  # row and column tables: 2^25 entries
        with pytest.raises(ResourceError, match="node 0: .* 33554432 entries"):
            zbm_via_sst_mc(g, 2, samples=10, seed=0)

    def test_total_of_the_tables_is_budgeted(self, monkeypatch):
        g = random_denfg("fig1", seed=3)  # tables of 64, 16, 16 and 64 entries
        monkeypatch.setattr(sst, "MAX_TABLE_ENTRIES", 100)
        with pytest.raises(ResourceError, match="160 entries in all"):
            zbm_via_sst_mc(g, 2, samples=10, seed=0)

    @pytest.mark.parametrize("d", [1, 2, 4, 9])
    def test_fs_batch_bit_identical_to_norm_and_pairing(self, d):
        got = sst._fs_batch(d, 1000, seeded_rng(12, d))
        w = seeded_rng(12, d).standard_normal((1000, d, 2))
        w /= np.linalg.norm(w.reshape(1000, -1), axis=1)[:, None, None]
        want = w[..., 0] + 1j * w[..., 1]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestSymmetrization:
    def test_same_mean_zero_imag(self):
        est = phi_integral_mc((0, 1), (1, 0), samples=2 * 10**4, seed=31, d=2)
        sym = phi_integral_mc(
            (0, 1), (1, 0), samples=2 * 10**4, seed=31, d=2, symmetrize=True
        )
        assert abs(sym.mean - est.mean) <= 3 * (est.stderr + sym.stderr)
        assert sym.imag_mean == 0.0
        assert sym.stderr <= est.stderr * (1 + 1e-12)

    def test_whole_graph_flag(self):
        g = two_node_graph([1.0, 2.0], [3.0, 1.0])
        exact = zbm_via_pe(g, 2) ** 2
        sym = zbm_via_sst_mc(g, 2, samples=5 * 10**4, seed=32, symmetrize=True)
        assert abs(sym.mean - exact) <= 3 * sym.stderr
        assert abs(sym.imag_mean) <= 1e-12


class TestGammaIdentity:
    def test_k0_k1_exact(self):
        assert gamma_identity_check(0) <= 1e-12
        assert gamma_identity_check(1) <= 1e-12

    def test_through_k10(self):
        for k in range(11):
            assert gamma_identity_check(k) <= 1e-9

    def test_large_k(self):
        assert gamma_identity_check(30) <= 1e-9
