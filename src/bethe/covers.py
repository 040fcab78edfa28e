"""Labeled degree-M graph covers and the degree-M Bethe partition function.

A cover is specified by one permutation of {0..M-1} per edge: copy m of
endpoint i connects to copy sigma_e(m) of endpoint j. Double edges are
permuted as units, so covers of double-edge graphs are double-edge
graphs of the same kind. Z_{B,M} is the M-th root of the average cover
partition function (`degree_m_root`, shared with the type-aggregated
route in `sst`). Covers are averaged by one enumeration, which fixes the
identity on a chosen set of edges (a spanning forest in gauge mode, no
edge in exact mode), or by Monte Carlo over uniformly random covers.
Both run through one loop, `_average`, which the block-permutation
liftings of `perm.perm_bethe_degree_m` share: a lifting is an M-cover of
the permanent's graph, evaluated by its Ryser permanent instead of by
contraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import NumericalError, ResourceError, ValidationError
from .nfg import (
    EdgeDecl,
    LocalFunction,
    NormalFactorGraph,
    partition_function_exact,
    spanning_forest,
)
from .rng import Moments, seeded_rng

__all__ = [
    "CoverSpec",
    "DegreeMEstimate",
    "build_cover",
    "degree_m_bethe",
    "degree_m_root",
    "degree_m_series",
    "spanning_forest",
]

EXACT_BUDGET = 10**5
MC_SAMPLES = 2000
CHUNK = 64  # covers evaluated per accumulator update; one rng stream each
COVER_IMAG_TOL = 1e-9
_METHOD = {"exact": "exact-enumeration", "gauge": "gauge-fixed-enumeration", "mc": "monte-carlo"}


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


def degree_m_root(power, M: int) -> tuple[float, float]:
    """(real power, power ** (1/M)) for an average partition function
    over degree-M covers. An imaginary part above
    COVER_IMAG_TOL * (1 + |power|), or a real part that is negative or
    NaN, raises rather than being dropped or clamped."""
    power = complex(power)
    if abs(power.imag) > COVER_IMAG_TOL * (1.0 + abs(power)):
        raise NumericalError(f"degree-M average has imaginary part {power.imag:g}")
    power = power.real
    if not power >= 0:
        raise NumericalError(
            f"degree-M average {power:g} is not a non-negative number"
        )
    return power, power ** (1.0 / M)


def _enumerate_covers(g, M, loose):
    """The permutations (one per edge) of every cover with the identity on
    each edge outside `loose`, in itertools.product order over the loose
    edges."""
    fixed = [tuple(range(M))] * g.num_edges
    for assignment in itertools.product(
        itertools.permutations(range(M)), repeat=len(loose)
    ):
        perms = fixed.copy()
        for pos, sigma in zip(loose, assignment):
            perms[pos] = sigma
        yield tuple(perms)


def _random_covers(g, M, samples, seed):
    """The permutations (one per edge) of `samples` uniformly random
    covers, one generator stream per chunk."""
    for start in range(0, samples, CHUNK):
        rng = seeded_rng(seed, start // CHUNK)
        for _ in range(min(CHUNK, samples - start)):
            yield tuple(
                tuple(int(x) for x in rng.permutation(M)) for _ in range(g.num_edges)
            )


def _average(g, M, loose, budget, hint, samples, seed, evaluate) -> Moments:
    """Moments of the values of M-covers of `g`: every cover with the
    identity outside the edge positions `loose`, at most `budget` of them
    (past it a ResourceError says to use `hint` mode), or, when `loose`
    is None, `samples` random covers from `seed`. `evaluate` maps a list
    of up to `CHUNK` covers' permutations to their values."""
    if loose is None:
        if samples < 1:
            raise ValidationError("samples must be >= 1")
        covers = _random_covers(g, M, samples, seed)
    else:
        count = math.factorial(M) ** len(loose)
        if count > budget:
            raise ResourceError(
                f"{count} covers exceed the budget {budget}; use {hint} mode"
            )
        covers = _enumerate_covers(g, M, loose)
    acc = Moments()
    while chunk := list(itertools.islice(covers, CHUNK)):
        acc.add(evaluate(chunk))
    return acc


def degree_m_bethe(
    g: NormalFactorGraph,
    M: int,
    mode: str = "auto",
    *,
    seed: int = 0,
    samples: int = MC_SAMPLES,
    exact_budget: int = EXACT_BUDGET,
) -> DegreeMEstimate:
    """Z_{B,M}: the M-th root of the average partition function over all
    labeled M-covers.

    Modes: ``gauge`` fixes the identity permutation on a spanning forest
    and enumerates the (M!)^(cycle rank) covers left (the average is
    unchanged because per-node copy relabelings preserve both the
    partition function and the uniform measure on covers); ``exact`` is
    the same enumeration with no edge fixed, all (M!)^|E| covers, kept as
    the independent check of the gauge argument; ``mc`` samples covers
    uniformly. ``auto`` picks gauge when its count is within
    `exact_budget`, else mc. Cover values are averaged chunk by chunk
    (`rng.Moments`) and finished by `degree_m_root`.
    """
    if M < 1:
        raise ValidationError("M must be >= 1")
    if mode not in ("auto", "exact", "gauge", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    fixed = set() if mode == "exact" else set(spanning_forest(g))
    loose = [pos for pos in range(g.num_edges) if pos not in fixed]
    if mode == "auto":
        mode = "gauge" if math.factorial(M) ** len(loose) <= exact_budget else "mc"

    def values(chunk):
        graphs = [build_cover(g, CoverSpec(M, perms)) for perms in chunk]
        return [partition_function_exact(c, check_strict=False) for c in graphs]

    hint = "gauge or mc" if mode == "exact" else "mc"
    loose = None if mode == "mc" else loose
    acc = _average(g, M, loose, exact_budget, hint, samples, seed, values)
    mean_power, value = degree_m_root(acc.mean, M)
    return DegreeMEstimate(
        M=M,
        value=value,
        method=_METHOD[mode],
        covers_evaluated=acc.count,
        mean_power=mean_power,
        stderr=acc.stderr if mode == "mc" else None,
    )


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
        raise ValidationError("M_max must be >= 1")
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
