"""Random strict-sense double-edge graphs, the checkable convergence
condition, and the degree-M convergence experiment.

The condition compares 3/2 times the best pseudo-dual Bethe value found
by restarted sum-product runs against the product over nodes of the
absolute mass of the loop-calculus-transformed factors; when it holds,
the degree-M Bethe partition function converges to the pseudo-dual
value, and the experiment tracks the empirical approach for M up to 4.
Every degree-M value is exact (the type-aggregated network of
`sst.zbm_via_pe`); cover sampling is only the fallback for inputs whose
aggregated tables exceed the budget.

The best-fixed-point step is a restart heuristic; a run that misses the
maximizing fixed point biases the recorded target, which is a known
threat to validity of the experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covers import degree_m_bethe
from .errors import BetheError, DegenerateFixedPointError, ResourceError, ValidationError
from .lct import lct_transform
from .nfg import EdgeDecl, LocalFunction, NormalFactorGraph, choi_to_table
from .rng import seeded_rng
from .spa import best_fixed_point
from .sst import zbm_via_pe

__all__ = [
    "TOPOLOGIES",
    "GctRecord",
    "random_denfg",
    "random_snfg",
    "near_product_denfg",
    "check_condition",
    "convergence_experiment",
    "experiment_summary",
]

# Named presets: (node count, endpoint pairs).
TOPOLOGIES = {
    "fig1": (4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]),
    "fig5": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "theta": (2, [(0, 1), (0, 1), (0, 1)]),
    "tree3": (3, [(0, 1), (1, 2)]),
}
NEAR_PRODUCT_ALPHABET = 2
CONDITION_FP_TOL = 1e-11  # sum-product runs of `check_condition`
CONDITION_MAX_ITERS = 20000


@dataclass
class GctRecord:
    seed: int
    z_star: float | None
    abs_sum_product: float | None
    alpha: float | None
    condition_satisfied: bool | None
    checkable: bool
    series: list = field(default_factory=list)  # (M, value, stderr or None)
    relative_errors: list = field(default_factory=list)
    error: str | None = None


def random_denfg(topology: str = "fig1", alphabet: int = 2, seed: int = 0) -> NormalFactorGraph:
    """Strict-sense double-edge graph with independent random factors.

    Each node's Choi matrix is a Gram matrix of a complex standard
    Gaussian square matrix, normalized to unit trace, so it is PSD by
    construction and the graph passes the strict-sense validation for
    every seed."""
    rng = seeded_rng(seed, 0)

    def table(deg):
        dim = alphabet**deg
        gmat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        choi = gmat @ gmat.conj().T
        choi /= np.trace(choi).real
        return choi_to_table(choi, [alphabet] * deg)

    return _random_graph(topology, "denfg", alphabet, table)


def random_snfg(topology: str = "fig1", alphabet: int = 2, seed: int = 0) -> NormalFactorGraph:
    """Classical graph with independent uniform (0, 1] factor entries."""
    rng = seeded_rng(seed, 0)

    def table(deg):
        return 1.0 - rng.uniform(size=(alphabet,) * deg)  # strictly positive

    return _random_graph(topology, "snfg", alphabet, table)


def near_product_denfg(
    topology: str = "fig1",
    seed: int = 0,
    coupling: float = 0.0,
) -> NormalFactorGraph:
    """Strict-sense graph whose Choi matrices are Kronecker products of
    per-edge Gram blocks plus a `coupling`-weighted random Gram admixture.

    At coupling 0 the graph factorizes over edges, the sum-product run is
    exact and the checkable inequality holds with margin (the transformed
    factors concentrate entirely on the zero symbol); small couplings
    keep it satisfiable. The fully random ensemble essentially never
    satisfies the inequality at these sizes, so this family keeps the
    condition-satisfying branch of the experiment non-vacuous. Every edge
    has `NEAR_PRODUCT_ALPHABET` symbols."""
    alphabet = NEAR_PRODUCT_ALPHABET
    rng = seeded_rng(seed, 1)

    def table(deg):
        dim = alphabet**deg
        choi = np.ones((1, 1), dtype=complex)
        for _ in range(deg):
            gmat = rng.standard_normal((alphabet, alphabet)) + 1j * rng.standard_normal(
                (alphabet, alphabet)
            )
            block = gmat @ gmat.conj().T
            choi = np.kron(choi, block / np.trace(block).real)
        if coupling > 0:
            noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
                (dim, dim)
            )
            noise = noise @ noise.conj().T
            choi = (1 - coupling) * choi + coupling * noise / np.trace(noise).real
        choi /= np.trace(choi).real
        return choi_to_table(choi, [alphabet] * deg)

    return _random_graph(topology, "denfg", alphabet, table)


def _random_graph(topology, kind, alphabet, table):
    """The graph of a named topology with every edge over `alphabet`
    symbols; node tables come from `table(degree)`, called once per node
    in node order."""
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}; options: {sorted(TOPOLOGIES)}")
    num_nodes, pairs = TOPOLOGIES[topology]
    edges = [
        EdgeDecl(id=k, endpoints=pair, alphabet_size=alphabet)
        for k, pair in enumerate(pairs)
    ]
    factors = []
    for node in range(num_nodes):
        values = table(sum(node in pair for pair in pairs))
        factors.append(LocalFunction(node=node, shape=values.shape, dense=values))
    return NormalFactorGraph(kind=kind, num_nodes=num_nodes, edges=edges, factors=factors)


def check_condition(
    g: NormalFactorGraph,
    *,
    seed: int = 0,
    restarts: int = 16,
) -> GctRecord:
    """Evaluate the checkable inequality for one graph: find the best
    fixed point, transform, and compare 3/2 of the pseudo-dual value to
    the product of transformed-factor absolute masses."""
    try:
        mu, report = best_fixed_point(
            g,
            restarts=restarts,
            seed=seed,
            fp_tol=CONDITION_FP_TOL,
            max_iters=CONDITION_MAX_ITERS,
        )
        z_star = float(np.real(report.z_b_spa))
        tg = lct_transform(g, mu)
    except DegenerateFixedPointError as exc:
        return GctRecord(
            seed=seed,
            z_star=None,
            abs_sum_product=None,
            alpha=None,
            condition_satisfied=None,
            checkable=False,
            error=str(exc),
        )
    product = 1.0
    for f in tg.graph.factors:
        product *= float(np.abs(f.as_dense(complex)).sum())
    alpha = (product - z_star) / z_star if z_star > 0 else math.inf
    satisfied = z_star > 0 and 1.5 * z_star > product
    return GctRecord(
        seed=seed,
        z_star=z_star,
        abs_sum_product=product,
        alpha=alpha,
        condition_satisfied=satisfied,
        checkable=True,
    )


def convergence_experiment(
    n_graphs: int = 50,
    topology: str = "fig1",
    M_max: int = 4,
    seed: int = 0,
    *,
    alphabet: int = 2,
    restarts: int = 16,
    mc_samples: int = 600,
) -> list[GctRecord]:
    """Per random graph: the condition record plus the degree-M series
    for M = 1..M_max, exact from the type-aggregated network. A degree
    whose aggregated tables exceed the budget falls back to Monte Carlo
    over `mc_samples` random covers and records its standard error.
    Per-graph failures are recorded and the run continues."""
    if min(n_graphs, M_max, mc_samples) < 1:
        raise ValidationError(
            "need n_graphs, M_max and mc_samples >= 1, "
            f"got {n_graphs}, {M_max} and {mc_samples}"
        )
    records = []
    for idx in range(n_graphs):
        graph_seed = seed + idx
        g = random_denfg(topology, alphabet=alphabet, seed=graph_seed)
        record = check_condition(g, seed=graph_seed, restarts=restarts)
        try:
            for M in range(1, M_max + 1):
                try:
                    value, stderr = zbm_via_pe(g, M), None
                except ResourceError:
                    est = degree_m_bethe(
                        g, M, "mc", seed=graph_seed * 1000 + M, samples=mc_samples
                    )
                    value, stderr = est.value, est.stderr
                record.series.append((M, value, stderr))
                if record.z_star:
                    record.relative_errors.append(
                        (M, (value - record.z_star) / record.z_star)
                    )
        except BetheError as exc:
            record.error = str(exc)
        records.append(record)
    return records


def experiment_summary(records):
    """Mean/stddev of |relative error| per M, overall and restricted to
    the condition-satisfying subset, plus per-M CDF tables of the signed
    errors."""
    by_m: dict[int, list[float]] = {}
    by_m_satisfied: dict[int, list[float]] = {}
    for rec in records:
        for M, err in rec.relative_errors:
            by_m.setdefault(M, []).append(err)
            if rec.condition_satisfied:
                by_m_satisfied.setdefault(M, []).append(err)
    summary = []
    for M in sorted(by_m):
        errs = np.abs(np.array(by_m[M]))
        row = {
            "M": M,
            "graphs": len(errs),
            "mean_abs_rel_error": float(errs.mean()),
            "std_abs_rel_error": float(errs.std(ddof=1)) if len(errs) > 1 else 0.0,
        }
        sat = np.abs(np.array(by_m_satisfied.get(M, [])))
        row["satisfied_graphs"] = int(sat.size)
        row["satisfied_mean_abs_rel_error"] = (
            float(sat.mean()) if sat.size else None
        )
        summary.append(row)
    cdfs = {}
    for M in sorted(by_m):
        errs = np.sort(np.array(by_m[M]))
        cdfs[M] = [
            (float(e), (k + 1) / len(errs)) for k, e in enumerate(errs)
        ]
    return summary, cdfs
