import numpy as np
import pytest

from bethe.covers import (
    CoverSpec,
    build_cover,
    degree_m_bethe,
    degree_m_series,
    spanning_forest,
)
from bethe.errors import ResourceError, ValidationError
from bethe.gct import random_denfg, random_snfg
from bethe.nfg import partition_function_exact
from bethe.rng import seeded_rng
from bethe.sst import zbm_via_pe

from conftest import random_tree_graph, two_node_graph


def identity_spec(g, M):
    return CoverSpec(M, tuple(tuple(range(M)) for _ in range(g.num_edges)))


class TestBuildCover:
    def test_identity_cover_is_disjoint_power(self):
        g = random_snfg("fig1", seed=0)
        z = partition_function_exact(g)
        for M in (1, 2, 3):
            cover = build_cover(g, identity_spec(g, M))
            assert cover.num_nodes == M * g.num_nodes
            assert cover.num_edges == M * g.num_edges
            assert partition_function_exact(cover) == pytest.approx(
                z**M, rel=1e-10
            )

    def test_m1_isomorphic(self):
        g = random_denfg("fig1", seed=1)
        cover = build_cover(g, identity_spec(g, 1))
        assert partition_function_exact(cover) == pytest.approx(
            partition_function_exact(g), rel=1e-12
        )

    def test_swap_cover_of_single_edge_by_hand(self):
        # one edge with vector factors a, b; the 2-cover with the swap
        # permutation is a 4-cycle alternating a and b:
        # Z = sum_{x1,x2} a(x1) b(x2) a(x2) b(x1)  (hand enumeration)
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 5.0])
        g = two_node_graph(a, b)
        cover = build_cover(g, CoverSpec(2, ((1, 0),)))
        by_hand = sum(
            a[x1] * b[x2] * a[x2] * b[x1] for x1 in range(2) for x2 in range(2)
        )
        assert partition_function_exact(cover) == pytest.approx(by_hand, rel=1e-12)

    def test_double_edges_permuted_as_units(self):
        g = random_denfg("tree3", seed=4)
        cover = build_cover(g, CoverSpec(2, ((1, 0), (0, 1))))
        assert cover.kind == "denfg"
        assert all(
            e.alphabet_size == g.edges[0].alphabet_size for e in cover.edges
        )

    def test_relabeling_invariance(self):
        # composing every edge permutation with one per-node relabeling
        # permutes cover nodes, so Z is unchanged
        g = random_snfg("fig1", seed=3)
        M = 2
        rng = seeded_rng(77, 0)
        spec = CoverSpec(
            M,
            tuple(
                tuple(int(x) for x in rng.permutation(M))
                for _ in range(g.num_edges)
            ),
        )
        relabel = {v: tuple(int(x) for x in rng.permutation(M)) for v in range(g.num_nodes)}
        perms = []
        for pos, e in enumerate(g.edges):
            i, j = e.endpoints
            sigma = spec.perms[pos]
            # new wiring: copy relabel[i][m] of i connects to relabel[j][sigma[m]]
            new_sigma = [0] * M
            for m in range(M):
                new_sigma[relabel[i][m]] = relabel[j][sigma[m]]
            perms.append(tuple(new_sigma))
        z1 = partition_function_exact(build_cover(g, spec))
        z2 = partition_function_exact(build_cover(g, CoverSpec(M, tuple(perms))))
        assert z2 == pytest.approx(z1, rel=1e-11)


class TestDegreeM:
    def test_m1_equals_z(self):
        for maker, topology in (
            (random_snfg, "fig1"),
            (random_denfg, "theta"),
        ):
            g = maker(topology, seed=5)
            est = degree_m_bethe(g, 1, "exact")
            z = partition_function_exact(g)
            assert est.value == pytest.approx(abs(z), rel=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["snfg", "denfg"])
    def test_exact_equals_gauge(self, seed, kind):
        maker = random_snfg if kind == "snfg" else random_denfg
        topology = ["tree3", "theta", "fig1", "tree3"][seed]
        g = maker(topology, seed=seed)
        exact = degree_m_bethe(g, 2, "exact")
        gauge = degree_m_bethe(g, 2, "gauge")
        assert gauge.value == pytest.approx(exact.value, rel=1e-12)
        assert gauge.covers_evaluated <= exact.covers_evaluated

    def test_gauge_matches_exact_m3_small(self):
        g = random_snfg("theta", seed=2)
        exact = degree_m_bethe(g, 3, "exact", exact_budget=10**4)
        gauge = degree_m_bethe(g, 3, "gauge")
        assert gauge.value == pytest.approx(exact.value, rel=1e-12)

    def test_mc_within_3_stderr(self):
        g = random_snfg("fig1", seed=8)
        exact = degree_m_bethe(g, 2, "exact")
        mc = degree_m_bethe(g, 2, "mc", samples=10**4, seed=42)
        assert mc.stderr is not None and mc.stderr > 0
        assert abs(mc.mean_power - exact.mean_power) <= 3 * mc.stderr

    def test_mc_deterministic_per_seed(self):
        g = random_snfg("fig1", seed=8)
        a = degree_m_bethe(g, 2, "mc", samples=256, seed=3)
        b = degree_m_bethe(g, 2, "mc", samples=256, seed=3)
        assert a.mean_power == b.mean_power

    def test_strict_sense_cover_reality(self):
        for seed in range(5):
            g = random_denfg("fig1", seed=seed)
            est = degree_m_bethe(g, 2, "gauge")
            assert est.value >= 0.0

    def test_tree_series_equals_z(self):
        g = random_tree_graph(2, kind="snfg", max_nodes=4)
        z = partition_function_exact(g)
        for est in degree_m_series(g, 3, "exact", exact_budget=10**5):
            assert est.value == pytest.approx(z, rel=1e-8)

    def test_auto_enumerates_gauge_fixed_covers(self):
        # fig1 has cycle rank 2: 6^2 gauge-fixed covers at M = 3, where
        # full enumeration would take 6^5
        g = random_snfg("fig1", seed=1)
        est = degree_m_bethe(g, 3)
        assert est.covers_evaluated == 36
        assert est.method == "gauge-fixed-enumeration"
        assert est.value == pytest.approx(zbm_via_pe(g, 3), rel=1e-12)

    def test_budget_errors(self):
        g = random_snfg("fig5", seed=0)
        with pytest.raises(ResourceError) as err:
            degree_m_bethe(g, 3, "exact", exact_budget=100)
        assert "gauge or mc" in str(err.value)
        with pytest.raises(ResourceError):
            degree_m_bethe(g, 5, "gauge", exact_budget=100)

    def test_budget_errors_name_the_way_out(self):
        g = random_snfg("fig5", seed=0)
        with pytest.raises(ResourceError, match="use gauge or mc mode"):
            degree_m_bethe(g, 3, "exact", exact_budget=100)
        with pytest.raises(ResourceError, match="use mc mode"):
            degree_m_bethe(g, 5, "gauge", exact_budget=100)

    def test_bad_degree_or_sample_count_rejected(self):
        g = random_snfg("tree3", seed=0)
        with pytest.raises(ValidationError):
            degree_m_bethe(g, 0, "exact")
        with pytest.raises(ValidationError):
            degree_m_bethe(g, 2, "mc", samples=0)

    def test_disconnected_product_rule(self):
        from bethe.nfg import EdgeDecl, LocalFunction, NormalFactorGraph

        a1, b1 = np.array([1.0, 2.0]), np.array([2.0, 1.0])
        a2, b2 = np.array([3.0, 1.0]), np.array([1.0, 1.0])
        joint = NormalFactorGraph(
            kind="snfg",
            num_nodes=4,
            edges=[EdgeDecl(0, (0, 1), 2), EdgeDecl(1, (2, 3), 2)],
            factors=[
                LocalFunction(0, (2,), dense=a1),
                LocalFunction(1, (2,), dense=b1),
                LocalFunction(2, (2,), dense=a2),
                LocalFunction(3, (2,), dense=b2),
            ],
        )
        g1 = two_node_graph(a1, b1)
        g2 = two_node_graph(a2, b2)
        for M in (2, 3):
            zj = degree_m_bethe(joint, M, "exact").mean_power
            z1 = degree_m_bethe(g1, M, "exact").mean_power
            z2 = degree_m_bethe(g2, M, "exact").mean_power
            assert zj == pytest.approx(z1 * z2, rel=1e-10)


class TestSpanningForest:
    def test_tree_uses_all_edges(self):
        g = random_snfg("tree3", seed=0)
        assert spanning_forest(g) == [0, 1]

    def test_cycle_rank_complement(self):
        g = random_snfg("fig5", seed=0)
        tree = spanning_forest(g)
        assert len(tree) == g.num_nodes - 1
        assert g.num_edges - len(tree) == g.cycle_rank

    def test_parallel_edges(self):
        g = random_snfg("theta", seed=0)
        tree = spanning_forest(g)
        assert len(tree) == 1 and g.cycle_rank == 2
