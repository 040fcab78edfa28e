import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethe import spa
from bethe.errors import ConvergenceError, DegenerateFixedPointError
from bethe.gct import random_denfg, random_snfg
from bethe.nfg import (
    EdgeDecl,
    LocalFunction,
    NormalFactorGraph,
    enumerate_configurations,
    global_value,
    partition_function_exact,
)
from bethe.rng import seeded_rng
from bethe.spa import (
    beliefs,
    best_fixed_point,
    bethe_free_energy,
    edge_consistency_residual,
    pseudo_dual_bethe,
    random_messages,
    spa_run,
    spa_step,
    uniform_messages,
)

from conftest import random_tree_graph


def vanishing_graph():
    """A factor that zeroes one symbol of its only edge while its neighbor
    zeroes the other: every update has a vanishing normalizer."""
    return NormalFactorGraph(
        kind="snfg",
        num_nodes=2,
        edges=[EdgeDecl(0, (0, 1), 2)],
        factors=[
            LocalFunction(0, (2,), dense=np.array([0.0, 0.0])),
            LocalFunction(1, (2,), dense=np.array([1.0, 1.0])),
        ],
    )


def power_method_graph():
    """Two nodes joined by two parallel binary edges; one factor is the
    non-diagonalizable upper-triangular matrix, the other the identity."""
    return NormalFactorGraph(
        kind="snfg",
        num_nodes=2,
        edges=[EdgeDecl(0, (0, 1), 2), EdgeDecl(1, (0, 1), 2)],
        factors=[
            LocalFunction(0, (2, 2), dense=np.array([[1.0, 1.0], [0.0, 1.0]])),
            LocalFunction(1, (2, 2), dense=np.eye(2)),
        ],
    )


class TestTrees:
    @pytest.mark.parametrize("kind", ["snfg", "denfg"])
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_on_trees(self, kind, seed):
        g = random_tree_graph(seed, kind=kind)
        mu, report = spa_run(g, fp_tol=1e-12)
        z = partition_function_exact(g)
        assert report.converged
        value = report.z_b_spa
        assert abs(value - z) <= 1e-9 * abs(z)

    def test_converges_within_diameter(self):
        # path of 3 nodes: diameter 2, so the flooding update settles
        # within diameter + 1 sweeps
        g = random_snfg("tree3", seed=3)
        mu, report = spa_run(g, fp_tol=1e-12)
        assert report.converged and report.iterations <= 3

    def test_tree_exact_from_random_initializations(self):
        from bethe.spa import random_messages
        from bethe.rng import seeded_rng

        g = random_tree_graph(21, kind="snfg")
        z = partition_function_exact(g)
        for restart in range(5):
            init = random_messages(g, seeded_rng(99, restart))
            mu, report = spa_run(g, init, fp_tol=1e-12)
            assert report.converged
            assert abs(report.z_b_spa - z) <= 1e-9 * abs(z)

    def test_tree_beliefs_match_exact_marginals(self):
        g = random_tree_graph(11, kind="snfg")
        mu, report = spa_run(g, fp_tol=1e-13)
        b = beliefs(g, mu)
        z = partition_function_exact(g)
        for node in range(g.num_nodes):
            inc = g.incident(node)
            marg = np.zeros(g.factors[node].shape)
            for cfg in enumerate_configurations(g):
                sub = tuple(cfg[p] for p in inc)
                marg[sub] += global_value(g, cfg)
            marg /= z
            assert np.abs(marg - b.node_beliefs[node]).max() < 1e-9


class TestFixedPointStructure:
    def test_uniform_factors_uniform_fixed_point(self):
        g = random_snfg("fig5", seed=0)
        flat = NormalFactorGraph(
            kind="snfg",
            num_nodes=g.num_nodes,
            edges=[EdgeDecl(e.id, e.endpoints, e.alphabet_size) for e in g.edges],
            factors=[
                LocalFunction(f.node, f.shape, dense=np.ones(f.shape))
                for f in g.factors
            ],
        )
        mu = uniform_messages(flat)
        new, _ = spa_step(flat, mu)
        assert max(np.abs(new[k] - mu[k]).max() for k in mu) < 1e-15

    def test_power_method_graph_degenerate(self):
        g = power_method_graph()
        mu = {
            (0, 0): np.array([0.0, 1.0]),
            (1, 1): np.array([0.0, 1.0]),
            (1, 0): np.array([1.0, 0.0]),
            (0, 1): np.array([1.0, 0.0]),
        }
        new, _ = spa_step(g, mu)
        assert max(np.abs(new[k] - mu[k]).max() for k in mu) == 0.0
        with pytest.raises(DegenerateFixedPointError):
            pseudo_dual_bethe(g, mu)

    def test_message_structure_preserved(self):
        for kind, maker in (("snfg", random_snfg), ("denfg", random_denfg)):
            g = maker("fig1", seed=2)
            spa_run(g, fp_tol=1e-11, debug_checks=True)

    def test_non_convergence_reported(self):
        g = random_snfg("fig5", seed=4)
        mu, report = spa_run(g, max_iters=2, fp_tol=1e-15)
        assert not report.converged and report.iterations == 2

    def test_vanishing_normalizer_rerandomizes(self):
        # the first update has kappa = 0, the escape rule re-randomizes and
        # iteration continues
        mu, report = spa_run(vanishing_graph(), max_iters=5)
        assert report.rerandomized == 5 and not report.converged


class TestPseudoDual:
    def test_scaling_invariance(self):
        g = random_snfg("fig1", seed=5)
        mu, report = spa_run(g, fp_tol=1e-12)
        base = pseudo_dual_bethe(g, mu)
        mu[(0, g.edges[0].endpoints[0])] = 7.0 * mu[(0, g.edges[0].endpoints[0])]
        assert pseudo_dual_bethe(g, mu) == pytest.approx(base, rel=1e-12)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_scaling_invariance_any_message(self, seed):
        g = random_snfg("theta", seed=seed % 7)
        mu, report = spa_run(g, fp_tol=1e-12)
        if not report.converged or report.degenerate:
            return
        base = pseudo_dual_bethe(g, mu)
        key = list(mu)[seed % len(mu)]
        mu[key] = (0.1 + (seed % 5)) * mu[key]
        assert pseudo_dual_bethe(g, mu) == pytest.approx(base, rel=1e-10)

    def test_single_cycle_dominant_eigenvalue(self):
        # two nodes joined by two parallel edges form a single cycle: the
        # partition function is the trace of the transfer matrix and the
        # pseudo-dual value its dominant eigenvalue (power-method oracle)
        rng = np.random.default_rng(3)
        f1 = rng.uniform(0.5, 1.5, size=(2, 2))
        f2 = rng.uniform(0.5, 1.5, size=(2, 2))
        g = NormalFactorGraph(
            kind="snfg",
            num_nodes=2,
            edges=[EdgeDecl(0, (0, 1), 2), EdgeDecl(1, (0, 1), 2)],
            factors=[
                LocalFunction(0, (2, 2), dense=f1),
                LocalFunction(1, (2, 2), dense=f2),
            ],
        )
        mu, report = spa_run(g, fp_tol=1e-13, max_iters=50000)
        assert report.converged
        transfer = f1 @ f2.T
        lam_max = max(np.linalg.eigvals(transfer).real)
        assert report.z_b_spa == pytest.approx(lam_max, rel=1e-9)
        assert partition_function_exact(g) == pytest.approx(
            np.trace(transfer), rel=1e-12
        )

    def test_free_energy_matches_pseudo_dual(self):
        for seed in range(4):
            g = random_snfg("fig1", seed=seed)
            mu, report = spa_run(g, fp_tol=1e-12, max_iters=30000)
            assert report.converged
            b = beliefs(g, mu)
            assert np.exp(-bethe_free_energy(g, b)) == pytest.approx(
                report.z_b_spa, rel=1e-8
            )


class TestBeliefs:
    def test_uniform(self):
        g = random_snfg("tree3", seed=0)
        flat = NormalFactorGraph(
            kind="snfg",
            num_nodes=g.num_nodes,
            edges=[EdgeDecl(e.id, e.endpoints, e.alphabet_size) for e in g.edges],
            factors=[
                LocalFunction(f.node, f.shape, dense=np.ones(f.shape))
                for f in g.factors
            ],
        )
        mu, _ = spa_run(flat, fp_tol=1e-12)
        b = beliefs(flat, mu)
        for table in b.node_beliefs:
            assert np.abs(table - 1.0 / table.size).max() < 1e-12

    @pytest.mark.parametrize("kind", ["snfg", "denfg"])
    def test_edge_consistency_at_fixed_point(self, kind):
        maker = random_snfg if kind == "snfg" else random_denfg
        g = maker("fig1", seed=6)
        mu, report = spa_run(g, fp_tol=1e-11)
        assert report.converged
        b = beliefs(g, mu)
        assert edge_consistency_residual(g, b) <= 10 * 1e-10 + 1e-10

    def test_perm_graph_beliefs_doubly_stochastic(self):
        from bethe.perm import build_perm_nfg
        from bethe.rng import seeded_rng

        theta = seeded_rng(8, 0).uniform(size=(4, 4)) + 0.1
        g = build_perm_nfg(theta)
        mu, report = spa_run(g, fp_tol=1e-12)
        assert report.converged
        b = beliefs(g, mu)
        n = 4
        gamma = np.array(
            [[b.edge_beliefs[i * n + j][1] for j in range(n)] for i in range(n)]
        )
        assert np.abs(gamma.sum(axis=0) - 1).max() < 1e-8
        assert np.abs(gamma.sum(axis=1) - 1).max() < 1e-8


class TestSupportKernel:
    def test_tiny_entry_is_not_divided_out(self):
        # every message into row node 0 is [2^-91, 1]: the product over all
        # 13 edges (2^-1092) underflows, while each message out of node 0
        # keeps 12 terms of 2^-1001 in entry 0 (entry 1 is 2^-1092 -> 0).
        # Dividing the full product by the left-out entry loses them all.
        from bethe.perm import build_perm_nfg

        g = build_perm_nfg(np.ones((13, 13)))
        mu = uniform_messages(g)
        for p in g.incident(0):
            mu[(p, 0)] = np.array([2.0**-91, 1.0])
        new, _ = spa_step(g, mu)
        assert new is not None
        assert np.array_equal(new[(0, 13)], [1.0, 0.0])

    def test_dense_and_sparse_storage_bit_identical(self):
        from bethe.perm import build_perm_nfg
        from bethe.rng import seeded_rng

        sparse = build_perm_nfg(seeded_rng(31, 0).uniform(size=(12, 12)) + 0.05)
        dense = NormalFactorGraph(
            kind="snfg",
            num_nodes=sparse.num_nodes,
            edges=sparse.edges,
            factors=[
                LocalFunction(f.node, f.shape, dense=f.as_dense(float))
                for f in sparse.factors
            ],
        )
        assert all(f.is_sparse for f in sparse.factors)
        assert not any(f.is_sparse for f in dense.factors)
        mu_s, rep_s = spa_run(sparse, fp_tol=1e-12)
        mu_d, rep_d = spa_run(dense, fp_tol=1e-12)
        assert rep_s.converged
        assert all(np.array_equal(mu_s[k], mu_d[k]) for k in mu_s)
        assert rep_s == rep_d


    def test_node_without_edges(self):
        g = NormalFactorGraph(
            kind="snfg",
            num_nodes=3,
            edges=[EdgeDecl(0, (0, 1), 2)],
            factors=[
                LocalFunction(0, (2,), dense=np.array([1.0, 2.0])),
                LocalFunction(1, (2,), dense=np.array([3.0, 1.0])),
                LocalFunction(2, (), dense=np.array(4.0)),
            ],
        )
        mu, report = spa_run(g)
        assert report.z_b_spa == pytest.approx(partition_function_exact(g))
        assert beliefs(g, mu).node_beliefs[2] == 1.0

    def test_graph_without_edges(self):
        g = NormalFactorGraph(
            kind="snfg",
            num_nodes=2,
            edges=[],
            factors=[
                LocalFunction(0, (), dense=np.array(2.0)),
                LocalFunction(1, (), dense=np.array(3.0)),
            ],
        )
        _, report = best_fixed_point(g, restarts=1)
        assert report.converged and report.z_b_spa == 6.0


class TestBestFixedPoint:
    def test_tree_restarts_agree(self):
        g = random_tree_graph(3, kind="snfg")
        mu, report = best_fixed_point(g, restarts=4, seed=1, fp_tol=1e-12)
        values = [
            c["z_b_spa"]
            for c in report.candidates
            if c["converged"] and c["z_b_spa"] is not None
        ]
        assert len(values) >= 2
        assert max(values) - min(values) <= 1e-8 * max(values)

    def test_deterministic_under_seed(self):
        g = random_snfg("fig1", seed=9)
        _, r1 = best_fixed_point(g, restarts=2, seed=5)
        _, r2 = best_fixed_point(g, restarts=2, seed=5)
        assert r1.z_b_spa == r2.z_b_spa
        assert [c["residual"] for c in r1.candidates] == [
            c["residual"] for c in r2.candidates
        ]

    @pytest.mark.parametrize(
        "g, seed",
        [(random_snfg("fig5", seed=1), 1), (random_denfg("fig1", seed=2), 2)],
        ids=["snfg-fig5", "denfg-fig1"],
    )
    def test_batched_restarts_match_single_runs(self, g, seed):
        _, report = best_fixed_point(g, seed=seed)
        for c in report.candidates:
            idx = c["restart"]
            if idx == 0:
                init = uniform_messages(g)
            else:
                init = random_messages(g, seeded_rng(seed, 2 * idx))
            _, alone = spa_run(g, init, seed=seed, rng_stream=2 * idx + 1)
            assert (c["z_b_spa"], c["residual"], c["iterations"]) == (
                alone.z_b_spa,
                alone.residual,
                alone.iterations,
            )
        # the restarts stop at different iterations within one batch
        assert len({c["iterations"] for c in report.candidates}) > 1

    def test_vanishing_normalizer_every_restart(self, monkeypatch):
        # every restart re-randomizes at every iteration, each from its own
        # Philox stream 2 * idx + 1; streams 2, 4, 6 draw the random starts
        draws = {}

        def counting(g, rng):
            stream = int(rng.bit_generator.state["state"]["key"][1])
            draws[stream] = draws.get(stream, 0) + 1
            return random_messages(g, rng)

        monkeypatch.setattr(spa, "random_messages", counting)
        with pytest.raises(ConvergenceError):
            best_fixed_point(vanishing_graph(), restarts=3, max_iters=5)
        assert draws == {1: 5, 2: 1, 3: 5, 4: 1, 5: 5, 6: 1, 7: 5}

    def test_vanishing_normalizer_gives_up(self):
        # the limit stops a start well before max_iters, unconverged
        _, report = spa_run(vanishing_graph())
        assert not report.converged
        assert report.iterations == spa.MAX_VANISHING_STEPS + 1
        assert report.rerandomized == spa.MAX_VANISHING_STEPS

    def test_step_without_support_is_float(self):
        g = vanishing_graph()
        g.factors[1] = LocalFunction(1, (2,), dense=np.zeros(2))
        layout = spa._Layout(g)
        new, vanished, _ = layout.step(layout.pack(uniform_messages(g))[None])
        assert new.dtype == float and vanished.all()

    def test_frustrated_cycle_lists_candidates(self):
        g = random_snfg("theta", seed=13)
        mu, report = best_fixed_point(g, restarts=3, seed=0)
        assert len(report.candidates) >= 1
        assert report.z_b_spa is not None
