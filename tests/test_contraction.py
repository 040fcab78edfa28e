import itertools

import numpy as np
import pytest

from bethe.contraction import contract_network, min_fill_order
from bethe.errors import ResourceError
from bethe.nfg import (
    EdgeDecl,
    LocalFunction,
    NormalFactorGraph,
    partition_function_exact,
)
from bethe.perm import build_perm_nfg
from bethe.rng import seeded_rng
from bethe.sst import zbm_via_pe


def brute_force(scopes, tensors, cards):
    variables = sorted(cards)
    total = 0.0
    for assignment in itertools.product(*(range(cards[v]) for v in variables)):
        value = 1.0
        env = dict(zip(variables, assignment))
        for scope, tensor in zip(scopes, tensors):
            value *= tensor[tuple(env[v] for v in scope)]
        total += value
    return total


def random_network(seed, n_vars=6, n_factors=5, max_card=3):
    rng = seeded_rng(seed, 7)
    cards = {v: int(rng.integers(2, max_card + 1)) for v in range(n_vars)}
    scopes = []
    tensors = []
    for _ in range(n_factors):
        k = int(rng.integers(1, 4))
        scope = tuple(
            int(v) for v in rng.choice(n_vars, size=k, replace=False)
        )
        scopes.append(scope)
        tensors.append(rng.uniform(size=tuple(cards[v] for v in scope)))
    # ensure every variable appears somewhere
    missing = set(cards) - {v for s in scopes for v in s}
    for v in missing:
        scopes.append((v,))
        tensors.append(rng.uniform(size=(cards[v],)))
    return scopes, tensors, cards


@pytest.mark.parametrize("seed", range(8))
def test_matches_brute_force(seed):
    scopes, tensors, cards = random_network(seed)
    z = contract_network(scopes, tensors, cards)
    zb = brute_force(scopes, tensors, cards)
    assert z == pytest.approx(zb, rel=1e-12)


def test_any_order_same_value(seed=3):
    scopes, tensors, cards = random_network(seed)
    base = contract_network(scopes, tensors, cards)
    variables = sorted(cards)
    for order in (variables, list(reversed(variables))):
        assert contract_network(scopes, tensors, cards, order=order) == pytest.approx(
            base, rel=1e-12
        )


def test_min_fill_covers_all_variables():
    scopes, tensors, cards = random_network(5)
    order = min_fill_order(scopes)
    assert sorted(order) == sorted({v for s in scopes for v in s})


def test_budget_enforced():
    scopes, tensors, cards = random_network(1)
    with pytest.raises(ResourceError) as err:
        contract_network(scopes, tensors, cards, max_table_entries=1)
    assert "budget" in str(err.value)


def test_complex_dtype():
    rng = seeded_rng(9, 0)
    t1 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    t2 = rng.standard_normal((3,)) + 1j * rng.standard_normal((3,))
    z = contract_network([(0, 1), (1,)], [t1, t2], {0: 2, 1: 3})
    assert z == pytest.approx((t1 @ t2).sum(), rel=1e-12)


def path_graph(n_edges, seed):
    """Path with positive tables: end vectors a, b and 2x2 matrices B_k."""
    rng = seeded_rng(seed, 3)
    edges = [EdgeDecl(k, (k, k + 1), 2) for k in range(n_edges)]
    tables = [rng.uniform(0.5, 1.5, 2)]
    tables += [rng.uniform(0.5, 1.5, (2, 2)) for _ in range(n_edges - 1)]
    tables += [rng.uniform(0.5, 1.5, 2)]
    factors = [LocalFunction(v, t.shape, dense=t) for v, t in enumerate(tables)]
    g = NormalFactorGraph(
        kind="snfg", num_nodes=n_edges + 1, edges=edges, factors=factors
    )
    return g, tables


class TestManyVariables:
    """einsum accepts integer labels only below 52; graphs with more edges
    must still contract."""

    def test_8x8_permanent_graph_reports_its_budget(self):
        # 64 edge variables; the min-fill order needs a table over 39 of
        # them, far past the budget, which is refused before allocation
        with pytest.raises(ResourceError, match="budget"):
            partition_function_exact(build_perm_nfg(np.ones((8, 8))))

    def test_zbm_via_pe_on_60_edge_path(self):
        g, tables = path_graph(60, seed=1)
        row = tables[0]
        for t in tables[1:-1]:
            row = row @ t
        z = float(row @ tables[-1])
        assert partition_function_exact(g) == pytest.approx(z, rel=1e-12)
        assert zbm_via_pe(g, 1) == pytest.approx(z, rel=1e-12)
