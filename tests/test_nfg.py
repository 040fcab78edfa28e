import numpy as np
import pytest

from bethe.errors import ResourceError, StructuralError
from bethe.gct import random_denfg, random_snfg
from bethe.nfg import (
    EdgeDecl,
    LocalFunction,
    NormalFactorGraph,
    enumerate_configurations,
    global_value,
    partition_function_bruteforce,
    partition_function_exact,
    table_to_choi,
    choi_to_table,
    validate_graph,
)
from bethe.perm import build_perm_nfg, perm_naive
from bethe.rng import seeded_rng

from conftest import two_node_graph


def identity_pair_table(d):
    """Double-edge table f(x, x') = [x == x'], whose Choi matrix is the
    identity."""
    table = np.zeros(d * d, dtype=complex)
    for x in range(d):
        table[x * d + x] = 1.0
    return table


class TestValidation:
    def test_identity_classical_accepted(self):
        g = two_node_graph([1.0, 1.0], [1.0, 1.0])
        report = validate_graph(g)
        assert report.ok and report.strict_sense

    def test_denfg_identity_choi_accepted(self):
        g = two_node_graph(
            identity_pair_table(2), identity_pair_table(2), kind="denfg"
        )
        report = validate_graph(g)
        assert report.ok and report.strict_sense
        assert min(report.min_eigenvalue.values()) == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        table = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)  # Choi [[0,1],[0,0]]
        g = two_node_graph(table, identity_pair_table(2), kind="denfg")
        report = validate_graph(g)
        assert not report.ok
        assert any("Hermitian" in issue for issue in report.issues)

    def test_negative_classical_flagged(self):
        g = two_node_graph([1.0, -0.5], [1.0, 1.0])
        assert not validate_graph(g).ok

    @pytest.mark.parametrize(
        "value, issue",
        [(1 + 2j, "complex values in a classical table"), (-1.0, "negative value")],
        ids=["complex", "negative"],
    )
    def test_sparse_classical_table_flagged(self, value, issue):
        g = NormalFactorGraph(
            kind="snfg",
            num_nodes=2,
            edges=[EdgeDecl(0, (0, 1), 2)],
            factors=[
                LocalFunction(0, (2,), sparse={(0,): value}),
                LocalFunction(1, (2,), dense=np.ones(2)),
            ],
        )
        report = validate_graph(g)
        assert not report.ok
        assert any(issue in text for text in report.issues)

    def test_sparse_classical_tables_not_densified(self, monkeypatch):
        g = build_perm_nfg(np.ones((13, 13)))

        def fail(self, dtype=None):
            raise AssertionError("validate_graph densified a sparse table")

        monkeypatch.setattr(LocalFunction, "as_dense", fail)
        assert validate_graph(g).ok

    def test_hermitian_but_not_psd_is_weak_sense(self):
        table = np.array([1.0, 2.0, 2.0, 1.0], dtype=complex)  # eigs 3, -1
        g = two_node_graph(table, identity_pair_table(2), kind="denfg")
        report = validate_graph(g)
        assert report.ok and not report.strict_sense

    def test_shape_mismatch_raises(self):
        with pytest.raises(StructuralError):
            two_node_graph([1.0, 1.0, 1.0], [1.0, 1.0])

    def test_edge_orientation_enforced(self):
        with pytest.raises(StructuralError):
            EdgeDecl(0, (1, 0), 2)
        with pytest.raises(StructuralError):
            EdgeDecl(0, (1, 1), 2)


class TestGlobalValue:
    def test_all_ones_factors(self):
        g = random_snfg("fig1", seed=0)
        ones = NormalFactorGraph(
            kind="snfg",
            num_nodes=g.num_nodes,
            edges=[EdgeDecl(e.id, e.endpoints, e.alphabet_size) for e in g.edges],
            factors=[
                LocalFunction(f.node, f.shape, dense=np.ones(f.shape))
                for f in g.factors
            ],
        )
        for cfg in enumerate_configurations(ones):
            assert global_value(ones, cfg) == 1.0

    def test_permutation_configuration_of_perm_graph(self):
        theta = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = build_perm_nfg(theta)
        # the identity permutation: edges (0,0) and (1,1) carry symbol 1
        cfg = [0] * 4
        cfg[0] = 1  # edge id 0 = cell (0,0)
        cfg[3] = 1  # edge id 3 = cell (1,1)
        assert global_value(g, cfg) == pytest.approx(theta[0, 0] * theta[1, 1])

    def test_single_edge_product(self):
        g = two_node_graph([2.0, 5.0], [7.0, 1.0])
        assert global_value(g, (0,)) == pytest.approx(14.0)
        assert global_value(g, (1,)) == pytest.approx(5.0)


class TestEnumeration:
    def test_binary_edge(self):
        g = two_node_graph([1.0, 1.0], [1.0, 1.0])
        assert list(enumerate_configurations(g)) == [(0,), (1,)]

    def test_double_edge_pairs(self):
        g = two_node_graph(
            identity_pair_table(2), identity_pair_table(2), kind="denfg"
        )
        assert list(enumerate_configurations(g)) == [(0,), (1,), (2,), (3,)]

    def test_lexicographic_two_edges(self):
        g = random_snfg("tree3", alphabet=2, seed=0)
        # tree3 has 2 binary edges; replace the second alphabet by 3
        edges = [EdgeDecl(0, (0, 1), 2), EdgeDecl(1, (1, 2), 3)]
        factors = [
            LocalFunction(0, (2,), dense=np.ones(2)),
            LocalFunction(1, (2, 3), dense=np.ones((2, 3))),
            LocalFunction(2, (3,), dense=np.ones(3)),
        ]
        g = NormalFactorGraph(kind="snfg", num_nodes=3, edges=edges, factors=factors)
        configs = list(enumerate_configurations(g))
        assert len(configs) == 6
        assert configs == sorted(configs)

    def test_cap(self):
        g = random_snfg("fig5", alphabet=4, seed=0)
        with pytest.raises(ResourceError):
            list(enumerate_configurations(g, cap=10))


class TestPartitionFunction:
    def test_all_ones_2x2_perm_graph(self):
        g = build_perm_nfg(np.ones((2, 2)))
        assert partition_function_exact(g) == pytest.approx(2.0)

    def test_matches_naive_permanent(self):
        rng = seeded_rng(4, 0)
        theta = rng.uniform(size=(4, 4))
        g = build_perm_nfg(theta)
        assert partition_function_exact(g) == pytest.approx(
            perm_naive(theta), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["snfg", "denfg"])
    def test_elimination_equals_bruteforce(self, seed, kind):
        make = random_snfg if kind == "snfg" else random_denfg
        topology = ["fig1", "fig5", "theta", "tree3"][seed % 4]
        g = make(topology, alphabet=2, seed=seed)
        z = partition_function_exact(g)
        zb = partition_function_bruteforce(g)
        rel = 1e-12 if kind == "snfg" else 1e-10
        assert abs(z - zb) <= rel * max(abs(zb), 1.0)

    def test_strict_sense_positivity(self):
        for seed in range(5):
            g = random_denfg("tree3", seed=seed)
            z = partition_function_exact(g)
            assert z.real >= -1e-10
            assert abs(z.imag) <= 1e-10 * (1 + abs(z))

    def test_order_invariance(self):
        g = random_snfg("fig5", alphabet=2, seed=9)
        z = partition_function_exact(g)
        for order in (
            list(range(g.num_edges)),
            list(reversed(range(g.num_edges))),
        ):
            z2 = partition_function_exact(g, order=order)
            assert abs(z2 - z) <= 1e-12 * abs(z)

    def test_memory_budget(self):
        g = random_snfg("fig5", alphabet=4, seed=1)
        with pytest.raises(ResourceError) as err:
            partition_function_exact(g, max_table_entries=8)
        assert "entries" in str(err.value)


class TestUnitAlphabet:
    def test_single_symbol_edges(self):
        from bethe.spa import spa_run

        g = NormalFactorGraph(
            kind="snfg",
            num_nodes=2,
            edges=[EdgeDecl(0, (0, 1), 1)],
            factors=[
                LocalFunction(0, (1,), dense=np.array([2.0])),
                LocalFunction(1, (1,), dense=np.array([3.0])),
            ],
        )
        assert partition_function_exact(g) == pytest.approx(6.0)
        mu, report = spa_run(g)
        assert report.converged and report.z_b_spa == pytest.approx(6.0)


class TestSparseStorage:
    def test_large_sparse_table_autoconverts(self):
        theta = np.ones((13, 13))
        g = build_perm_nfg(theta)
        # 2^13 = 8192 entries > 4096, support 13 entries < 1%
        assert all(f.is_sparse for f in g.factors)

    def test_sparse_dense_agree(self):
        theta = seeded_rng(5, 0).uniform(size=(3, 3))
        g = build_perm_nfg(theta)
        f = g.factors[0]
        dense = f.as_dense(float)
        for cfg, val in zip(*f.support()):
            assert dense[tuple(cfg)] == val


def ones_graph(num_nodes, pairs):
    """Classical graph with binary edges and all-ones tables; a node with
    no edges carries a 0-d table."""
    edges = [EdgeDecl(k, pair, 2) for k, pair in enumerate(pairs)]
    factors = []
    for node in range(num_nodes):
        shape = (2,) * sum(node in pair for pair in pairs)
        factors.append(LocalFunction(node, shape, dense=np.ones(shape)))
    return NormalFactorGraph("snfg", num_nodes, edges, factors)


class TestCycleRank:
    # (graph, edges E, nodes N, connected components C), C counted by hand
    CASES = {
        "fig1": (random_snfg("fig1", seed=0), 5, 4, 1),
        "fig5": (random_snfg("fig5", seed=0), 6, 4, 1),
        "theta": (random_snfg("theta", seed=0), 3, 2, 1),
        "tree3": (random_snfg("tree3", seed=0), 2, 3, 1),
        "two_thetas": (ones_graph(4, [(0, 1)] * 3 + [(2, 3)] * 3), 6, 4, 2),
        "isolated_node": (ones_graph(3, [(0, 1)] * 3), 3, 3, 2),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_edges_minus_nodes_plus_components(self, name):
        g, E, N, C = self.CASES[name]
        assert (g.num_edges, g.num_nodes) == (E, N)
        assert g.cycle_rank == E - N + C
        assert g.is_acyclic == (E - N + C == 0)

    def test_isolated_node_has_a_0d_table(self):
        g, *_ = self.CASES["isolated_node"]
        assert g.incident(2) == () and g.factors[2].shape == ()
        assert partition_function_exact(g) == pytest.approx(8.0)


class TestChoiViews:
    @pytest.mark.parametrize("dims", [[2], [2, 3], [2, 2, 2]])
    def test_round_trip(self, dims):
        rng = seeded_rng(4, 0)
        shape = [d * d for d in dims]
        table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        choi = table_to_choi(table, dims)
        big = int(np.prod(dims))
        assert choi.shape == (big, big)
        assert np.array_equal(choi_to_table(choi, dims), table)

    @pytest.mark.parametrize("d", [2, 3])
    def test_edge_matrix_view(self, d):
        # an edge matrix over paired symbols, rows (x, x'), columns (y, y'),
        # viewed with rows (x, y) and columns (x', y')
        rng = seeded_rng(5, d)
        m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        expected = m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        assert np.array_equal(table_to_choi(m, [d, d]), expected)

    def test_choi_matrix_is_the_table_view(self):
        g = random_denfg("fig1", alphabet=2, seed=3)
        for node in range(g.num_nodes):
            dims = [2] * len(g.incident(node))
            table = g.factors[node].as_dense(complex)
            assert np.array_equal(g.choi_matrix(node), table_to_choi(table, dims))


def test_factor_count_checked_before_endpoints():
    # the per-node lists are sized by num_nodes, which a graph document
    # sets through its largest endpoint: the factor count bounds it first
    edges = [EdgeDecl(0, (0, 1), 2), EdgeDecl(1, (1, 5), 2)]
    factors = [LocalFunction(0, (2,), dense=np.ones(2))]
    with pytest.raises(StructuralError, match="one local function per node"):
        NormalFactorGraph("snfg", 2, edges, factors)
