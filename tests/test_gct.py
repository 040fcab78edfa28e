import numpy as np
import pytest

from bethe.covers import degree_m_bethe
from bethe.gct import (
    GctRecord,
    TOPOLOGIES,
    check_condition,
    convergence_experiment,
    experiment_summary,
    near_product_denfg,
    random_denfg,
    random_snfg,
)
from bethe.lct import lct_transform
from bethe.nfg import partition_function_exact, validate_graph
from bethe.spa import best_fixed_point


class TestRandomGraphs:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_strict_sense_by_construction(self, topology):
        for seed in (0, 1):
            g = random_denfg(topology, seed=seed)
            report = validate_graph(g)
            assert report.ok and report.strict_sense

    def test_unit_trace(self):
        g = random_denfg("fig1", seed=3)
        for node in range(g.num_nodes):
            choi = g.choi_matrix(node)
            assert np.trace(choi).real == pytest.approx(1.0, abs=1e-12)

    def test_seeds_differ(self):
        a = random_denfg("fig1", seed=0)
        b = random_denfg("fig1", seed=1)
        assert any(
            np.abs(x.as_dense(complex) - y.as_dense(complex)).max() > 1e-6
            for x, y in zip(a.factors, b.factors)
        )

    def test_deterministic(self):
        a = random_denfg("fig5", seed=4)
        b = random_denfg("fig5", seed=4)
        for x, y in zip(a.factors, b.factors):
            assert np.array_equal(x.as_dense(complex), y.as_dense(complex))

    def test_topologies(self):
        assert random_denfg("fig1", seed=0).num_edges == 5
        assert random_denfg("fig5", seed=0).num_edges == 6
        assert random_denfg("theta", seed=0).num_edges == 3
        g = random_snfg("tree3", seed=0)
        assert g.num_edges == 2 and g.is_acyclic


class TestCheckCondition:
    def test_record_fields(self):
        g = random_denfg("fig1", seed=7)
        rec = check_condition(g, seed=7, restarts=6)
        assert rec.checkable
        assert rec.z_star > 0
        assert rec.abs_sum_product >= rec.z_star * (1 - 1e-9)
        assert rec.condition_satisfied == (1.5 * rec.z_star > rec.abs_sum_product)
        assert rec.alpha == pytest.approx(
            (rec.abs_sum_product - rec.z_star) / rec.z_star
        )

    def test_product_graph_concentrates(self):
        # edge-factorized graphs satisfy the inequality with alpha ~ 0
        g = near_product_denfg("fig1", seed=2, coupling=0.0)
        rec = check_condition(g, seed=2, restarts=4)
        assert rec.checkable and rec.condition_satisfied
        assert abs(rec.alpha) < 1e-6

    def test_single_edge_tree_concentrates(self):
        # every node has degree one, so all transformed factors vanish
        # off zero and the product of absolute masses equals the
        # pseudo-dual value exactly
        from bethe.nfg import EdgeDecl, LocalFunction, NormalFactorGraph
        from bethe.rng import seeded_rng

        rng = seeded_rng(5, 0)
        gmat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c1 = gmat @ gmat.conj().T
        gmat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c2 = gmat @ gmat.conj().T
        g = NormalFactorGraph(
            kind="denfg",
            num_nodes=2,
            edges=[EdgeDecl(0, (0, 1), 2)],
            factors=[
                LocalFunction(0, (4,), dense=c1.reshape(4)),
                LocalFunction(1, (4,), dense=c2.reshape(4)),
            ],
        )
        rec = check_condition(g, seed=1, restarts=2)
        assert rec.condition_satisfied
        assert rec.abs_sum_product == pytest.approx(rec.z_star, rel=1e-9)
        z = partition_function_exact(g)
        assert rec.z_star == pytest.approx(abs(z), rel=1e-8)

    def test_interior_tree_nodes_keep_mass(self):
        # a 3-node path keeps weight-2 mass at the middle factor, so the
        # inequality is not automatic on trees with interior nodes
        g = random_denfg("tree3", seed=3)
        rec = check_condition(g, seed=3, restarts=4)
        assert rec.checkable
        assert rec.abs_sum_product > rec.z_star * (1 + 1e-6)


class TestLowerBoundChain:
    @pytest.mark.parametrize("seed", range(3))
    def test_alpha_chain_on_satisfying_graphs(self, seed):
        g = near_product_denfg("fig1", seed=seed, coupling=0.003)
        rec = check_condition(g, seed=seed, restarts=6)
        if not (rec.checkable and rec.condition_satisfied):
            pytest.skip("coupling pushed this seed outside the condition")
        assert rec.alpha < 0.5
        bound_factor = 1 - rec.alpha / (1 - rec.alpha)
        for M in (2, 3):
            est = degree_m_bethe(g, M, "gauge")
            assert est.mean_power >= rec.z_star**M * bound_factor * (1 - 1e-8)

    def test_degree_m_commutes_with_transform(self):
        for seed in range(3):
            g = random_denfg("fig1", seed=100 + seed)
            mu, report = best_fixed_point(g, restarts=6, seed=seed, fp_tol=1e-12)
            tg = lct_transform(g, mu)
            a = degree_m_bethe(g, 2, "gauge")
            b = degree_m_bethe(tg.graph, 2, "gauge")
            assert b.value == pytest.approx(a.value, rel=1e-5)


class TestExperiment:
    def test_tree_topology_tiny_errors(self):
        records = convergence_experiment(
            n_graphs=3, topology="tree3", M_max=2, seed=11, mc_samples=50
        )
        for rec in records:
            assert rec.error is None
            for M, err in rec.relative_errors:
                assert abs(err) <= 1e-6

    def test_small_batch_summary(self):
        records = convergence_experiment(
            n_graphs=6, topology="fig1", M_max=3, seed=5, mc_samples=100
        )
        assert len(records) == 6
        summary, cdfs = experiment_summary(records)
        ms = [row["M"] for row in summary]
        assert ms == [1, 2, 3]
        means = [row["mean_abs_rel_error"] for row in summary]
        assert means == sorted(means, reverse=True)
        for M, table in cdfs.items():
            values = [v for _, v in table]
            assert values[-1] == pytest.approx(1.0)
            assert values == sorted(values)

    def test_second_topology_runs(self):
        records = convergence_experiment(
            n_graphs=3, topology="fig5", M_max=2, seed=31, mc_samples=50
        )
        summary, _ = experiment_summary(records)
        means = [row["mean_abs_rel_error"] for row in summary]
        assert len(means) == 2 and means[1] <= means[0]

    def test_m1_equals_z(self):
        records = convergence_experiment(
            n_graphs=3, topology="fig1", M_max=1, seed=23, mc_samples=50
        )
        for rec in records:
            g = random_denfg("fig1", seed=rec.seed)
            z = abs(partition_function_exact(g))
            M, value, stderr = rec.series[0]
            assert M == 1
            assert value == pytest.approx(z, rel=1e-8)

    def test_exact_series_matches_gauge_covers(self):
        # cover enumeration is independent of the type aggregation
        records = convergence_experiment(
            n_graphs=3, topology="fig1", M_max=3, seed=40, restarts=2
        )
        for rec in records:
            assert rec.error is None
            g = random_denfg("fig1", seed=rec.seed)
            for M, value, stderr in rec.series[1:]:
                assert stderr is None
                gauge = degree_m_bethe(g, M, "gauge").value
                assert value == pytest.approx(gauge, rel=1e-10)

    def test_monte_carlo_fallback_past_the_budget(self):
        # alphabet 5: a degree-3 node's M=2 aggregated table has 325^3
        # entries, past the 2^24 budget, so M=2 samples covers instead
        (rec,) = convergence_experiment(
            n_graphs=1, topology="fig1", M_max=2, seed=3, alphabet=5,
            restarts=2, mc_samples=8,
        )
        assert rec.error is None
        (_, _, exact_stderr), (_, value, stderr) = rec.series
        assert exact_stderr is None
        assert stderr is not None and stderr > 0 and value > 0

    def test_failures_recorded_not_raised(self):
        records = convergence_experiment(
            n_graphs=2, topology="fig1", M_max=1, seed=2, mc_samples=10
        )
        assert all(isinstance(r, GctRecord) for r in records)
