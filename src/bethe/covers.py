"""Labeled degree-M graph covers and the degree-M Bethe partition function.

A cover is specified by one permutation of {0..M-1} per edge: copy m of
endpoint i connects to copy sigma_e(m) of endpoint j. Double edges are
permuted as units, so covers of double-edge graphs are double-edge
graphs of the same kind. Z_{B,M} is the M-th root of the average cover
partition function; three evaluation modes are provided (full
enumeration, enumeration with the permutations on a spanning forest
gauge-fixed to the identity, and Monte Carlo).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResourceError, ValidationError
from .nfg import (
    EdgeDecl,
    LocalFunction,
    NormalFactorGraph,
    partition_function_exact,
)
from .rng import seeded_rng

__all__ = [
    "CoverSpec",
    "DegreeMEstimate",
    "build_cover",
    "degree_m_bethe",
    "degree_m_series",
    "spanning_forest",
]

EXACT_BUDGET = 10**5
MC_SAMPLES = 2000
CHUNK = 64
COVER_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class CoverSpec:
    """Degree M and one permutation (tuple of M distinct indices) per edge,
    listed in edge order."""

    M: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        for sigma in self.perms:
            if sorted(sigma) != list(range(self.M)):
                raise ValueError(f"{sigma} is not a permutation of range({self.M})")


@dataclass
class DegreeMEstimate:
    M: int
    value: float
    method: str
    covers_evaluated: int
    mean_power: float          # average of Z over covers, before the M-th root
    stderr: float | None = None


def build_cover(g: NormalFactorGraph, spec: CoverSpec) -> NormalFactorGraph:
    """The labeled M-cover of `g` for the given permutations.

    Node (f, m) becomes index f*M + m; edge copy m of base edge e keeps
    the base alphabet and connects (f_i, m) to (f_j, sigma_e(m)). Each
    node copy carries the base node's local function unchanged (incident
    edge order is preserved by the id layout).
    """
    if len(spec.perms) != g.num_edges:
        raise ValueError("need one permutation per edge")
    M = spec.M
    edges = []
    for pos, e in enumerate(g.edges):
        i, j = e.endpoints
        sigma = spec.perms[pos]
        for m in range(M):
            edges.append(
                EdgeDecl(
                    id=pos * M + m,
                    endpoints=(i * M + m, j * M + sigma[m]),
                    alphabet_size=e.alphabet_size,
                )
            )
    factors = []
    for f in g.factors:
        for m in range(M):
            factors.append(
                LocalFunction(
                    node=f.node * M + m,
                    shape=f.shape,
                    dense=f.dense,
                    sparse=f.sparse,
                )
            )
    return NormalFactorGraph(
        kind=g.kind, num_nodes=g.num_nodes * M, edges=edges, factors=factors
    )


def spanning_forest(g: NormalFactorGraph) -> list[int]:
    """Edge positions of a BFS spanning forest, components rooted at
    their lowest node, edges explored in id order."""
    visited = [False] * g.num_nodes
    tree = []
    for root in range(g.num_nodes):
        if visited[root]:
            continue
        visited[root] = True
        frontier = [root]
        while frontier:
            nxt = []
            for node in frontier:
                for pos in g.incident(node):
                    i, j = g.edges[pos].endpoints
                    other = j if node == i else i
                    if not visited[other]:
                        visited[other] = True
                        tree.append(pos)
                        nxt.append(other)
            frontier = nxt
    return sorted(tree)


def _evaluate_specs(g, specs, max_table_entries):
    return [
        partition_function_exact(
            build_cover(g, spec),
            max_table_entries=max_table_entries,
            check_strict=False,
        )
        for spec in specs
    ]


def _reduce_mean(values):
    """Deterministic chunked accumulation: fixed-size chunk sums reduced
    in order, so the result is bit-stable for a given seed."""
    total = 0.0
    count = 0
    for start in range(0, len(values), CHUNK):
        chunk = values[start : start + CHUNK]
        total = total + np.sum(chunk)
        count += len(chunk)
    return total / count


def _finalize(g, M, zs, method):
    mean = _reduce_mean(zs)
    stderr = None
    if method == "monte-carlo" and len(zs) > 1:
        arr = np.asarray(zs)
        stderr = float(np.std(arr.real, ddof=1) / math.sqrt(len(arr)))
    if not g.is_classical:
        if abs(np.imag(mean)) > COVER_IMAG_TOL * (1.0 + abs(mean)):
            raise NumericalError(
                f"cover average has imaginary part {np.imag(mean):g}"
            )
        mean = float(np.real(mean))
    else:
        mean = float(mean)
    if mean < 0:
        raise NumericalError(f"cover average {mean:g} is negative")
    value = mean ** (1.0 / M)
    return DegreeMEstimate(
        M=M,
        value=value,
        method=method,
        covers_evaluated=len(zs),
        mean_power=mean,
        stderr=stderr,
    )


def degree_m_bethe(
    g: NormalFactorGraph,
    M: int,
    mode: str = "auto",
    *,
    seed: int = 0,
    samples: int = MC_SAMPLES,
    exact_budget: int = EXACT_BUDGET,
    max_table_entries: int = 2**24,
) -> DegreeMEstimate:
    """Z_{B,M}: the M-th root of the average partition function over all
    labeled M-covers.

    Modes: ``exact`` enumerates all (M!)^|E| covers; ``gauge`` fixes the
    identity permutation on a spanning forest and enumerates the rest
    (the average is unchanged because per-node copy relabelings preserve
    both the partition function and the uniform measure on covers —
    cross-checked against exact mode in the test suite); ``mc`` samples
    covers uniformly. ``auto`` picks the cheapest exact variant within
    budget, falling back to Monte Carlo.
    """
    if M < 1:
        raise ValidationError("M must be >= 1")
    mfact = math.factorial(M)
    n_edges = g.num_edges
    free_gauge = n_edges - len(spanning_forest(g))

    if mode == "auto":
        if mfact**n_edges <= exact_budget:
            mode = "exact"
        elif mfact**free_gauge <= exact_budget:
            mode = "gauge"
        else:
            mode = "mc"

    perms = list(itertools.permutations(range(M)))
    identity = tuple(range(M))

    if mode == "exact":
        count = mfact**n_edges
        if count > exact_budget:
            raise ResourceError(
                f"exact mode needs {count} covers (budget {exact_budget}); "
                "use gauge or mc mode"
            )
        specs = [
            CoverSpec(M, assignment)
            for assignment in itertools.product(perms, repeat=n_edges)
        ]
        zs = _evaluate_specs(g, specs, max_table_entries)
        return _finalize(g, M, zs, "exact-enumeration")

    if mode == "gauge":
        tree = set(spanning_forest(g))
        loose = [pos for pos in range(n_edges) if pos not in tree]
        count = mfact ** len(loose)
        if count > exact_budget:
            raise ResourceError(
                f"gauge-fixed mode needs {count} covers (budget {exact_budget}); "
                "use mc mode"
            )
        specs = []
        for assignment in itertools.product(perms, repeat=len(loose)):
            full = [identity] * n_edges
            for pos, sigma in zip(loose, assignment):
                full[pos] = sigma
            specs.append(CoverSpec(M, tuple(full)))
        zs = _evaluate_specs(g, specs, max_table_entries)
        return _finalize(g, M, zs, "gauge-fixed-enumeration")

    if mode == "mc":
        if samples < 1:
            raise ValidationError("samples must be >= 1")
        specs = []
        for start in range(0, samples, CHUNK):
            rng = seeded_rng(seed, start // CHUNK)
            for _ in range(min(CHUNK, samples - start)):
                specs.append(
                    CoverSpec(
                        M,
                        tuple(
                            tuple(int(x) for x in rng.permutation(M))
                            for _ in range(n_edges)
                        ),
                    )
                )
        zs = _evaluate_specs(g, specs, max_table_entries)
        return _finalize(g, M, zs, "monte-carlo")

    raise ValueError(f"unknown mode {mode!r}")


def degree_m_series(
    g: NormalFactorGraph,
    M_max: int,
    mode: str = "auto",
    *,
    seed: int = 0,
    samples: int = MC_SAMPLES,
    exact_budget: int = EXACT_BUDGET,
) -> list[DegreeMEstimate]:
    """Estimates for M = 1..M_max with one seed stream per M."""
    if M_max < 1:
        raise ValueError("M_max must be >= 1")
    return [
        degree_m_bethe(
            g,
            M,
            mode,
            seed=seed + M,
            samples=samples,
            exact_budget=exact_budget,
        )
        for M in range(1, M_max + 1)
    ]
