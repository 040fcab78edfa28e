"""Tensor-network contraction by variable elimination.

Factors are numpy arrays whose axes are labelled by integer variable
ids. Elimination follows a greedy min-fill order with a deterministic
tie-break (fewest fill edges, then lowest variable id), so repeated runs
produce identical floating-point results. A memory budget caps the size
of any intermediate table.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ResourceError

__all__ = ["MAX_TABLE_ENTRIES", "contract_network", "min_fill_order"]

MAX_TABLE_ENTRIES = 2**24  # entry budget of any table built from a graph


def min_fill_order(scopes: Sequence[tuple[int, ...]]) -> list[int]:
    """Greedy min-fill elimination order over the variables in `scopes`."""
    neighbors: dict[int, set[int]] = {}
    for scope in scopes:
        for v in scope:
            neighbors.setdefault(v, set())
        for v in scope:
            neighbors[v].update(u for u in scope if u != v)

    order = []
    remaining = set(neighbors)
    while remaining:
        best = None
        best_fill = None
        for v in sorted(remaining):
            nbrs = [u for u in neighbors[v] if u in remaining]
            fill = sum(
                1
                for a_i, a in enumerate(nbrs)
                for b in nbrs[a_i + 1 :]
                if b not in neighbors[a]
            )
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        order.append(best)
        remaining.discard(best)
        nbrs = [u for u in neighbors[best] if u in remaining]
        for a in nbrs:
            neighbors[a].update(u for u in nbrs if u != a)
            neighbors[a].discard(best)
    return order


def _multiply_and_sum(group, var, cards, max_table_entries):
    """Multiply all factors in `group` and sum out `var` via one einsum."""
    out_vars = sorted({v for scope, _ in group for v in scope if v != var})
    size = 1
    for v in out_vars:
        size *= cards[v]
    if size > max_table_entries:
        raise ResourceError(
            f"eliminating variable {var} would create a table over "
            f"{len(out_vars)} variables with {size} entries "
            f"(budget {max_table_entries})"
        )
    # einsum takes integer labels only in [0, 52): relabel this step's
    # variables in increasing order
    step_vars = sorted({v for scope, _ in group for v in scope})
    local = {v: k for k, v in enumerate(step_vars)}
    args = []
    for scope, tensor in group:
        args.append(tensor)
        args.append([local[v] for v in scope])
    args.append([local[v] for v in out_vars])
    return tuple(out_vars), np.einsum(*args, optimize=True)


def contract_network(
    scopes: Sequence[tuple[int, ...]],
    tensors: Sequence[np.ndarray],
    cards: dict[int, int],
    *,
    order: Sequence[int] | None = None,
    max_table_entries: int = MAX_TABLE_ENTRIES,
):
    """Contract the network to a scalar: sum over all variables of the
    product of all factors.

    `order`, when given, overrides the min-fill elimination order (it
    must list every variable exactly once).
    """
    if order is None:
        order = min_fill_order(scopes)
    pool = [(tuple(scope), np.asarray(t)) for scope, t in zip(scopes, tensors)]
    for var in order:
        group = [ft for ft in pool if var in ft[0]]
        if not group:
            continue
        pool = [ft for ft in pool if var not in ft[0]]
        pool.append(_multiply_and_sum(group, var, cards, max_table_entries))
    result = 1.0
    for scope, tensor in pool:
        if scope:
            raise AssertionError(f"uneliminated variables {scope}")
        result = result * tensor.item()
    return result
