"""Loop-calculus transform of a factor graph at a sum-product fixed point.

Every edge is rewritten through a pair of change-of-basis matrices built
from the two fixed-point messages on that edge; contracting each factor
with its incident matrices yields a graph with the same topology and
partition function whose global value concentrates at the all-zero
configuration (where it equals the pseudo-dual Bethe value) and whose
other valid configurations are supported on generalized loops.

The matrix pair on an edge must multiply to the identity; that residual
is verified numerically for every edge at construction. Constants follow
the symmetric choice: both scale factors equal Z_e^(-1/2), the diagonal
weights equal Z_e^(1/2), and the rank-one correction coefficients are
solved from the zero-symbol constraints (with a symmetric split in the
degenerate case where the zero symbol carries all edge-belief mass).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFixedPointError, NumericalError
from .nfg import (
    EdgeDecl,
    LocalFunction,
    NormalFactorGraph,
    enumerate_configurations,
    global_value,
    partition_function_exact,
    table_to_choi,
)
from . import spa as spa_mod

__all__ = [
    "EdgeTransform",
    "TransformedGraph",
    "PropertyReport",
    "lct_transform",
    "verify_lct_properties",
    "is_generalized_loop",
]

LCT_TOL = 1e-9
BETA_ONE_TOL = 1e-12
VERIFY_REL_TOL = 1e-8
VERIFY_ZERO_TOL = 1e-9
CONFIG_BUDGET = 2**20


@dataclass
class EdgeTransform:
    edge_pos: int
    m_i: np.ndarray
    m_j: np.ndarray
    constants: dict
    residual: float            # max |M_i . M_j^T - I|
    residual_transpose: float  # max |M_i^T . M_j - I| (implied identity)


@dataclass
class TransformedGraph:
    graph: NormalFactorGraph
    transforms: list[EdgeTransform]
    source: NormalFactorGraph
    messages: spa_mod.MessageVector


@dataclass
class PropertyReport:
    checks: dict = field(default_factory=dict)

    def record(self, name, residual, tol, passed=None):
        self.checks[name] = {
            "residual": residual,
            "tol": tol,
            "passed": bool(residual <= tol) if passed is None else passed,
        }

    @property
    def all_passed(self):
        return all(c["passed"] for c in self.checks.values())


def _edge_matrices(mu_i, mu_j, z_e, zeta_factor, dtype):
    """The matrix pair for one edge. Row index: original symbol; column
    index: transformed symbol; symbol 0 is the special element."""
    card = len(mu_i)
    if dtype is complex:
        # the constants are real for double-edge graphs: the edge
        # normalizer and the zero-pair message entries are real up to
        # roundoff for Hermitian PSD messages
        z_e = z_e.real
        mu_i0 = mu_i[0].real
        mu_j0 = mu_j[0].real
    else:
        mu_i0 = mu_i[0]
        mu_j0 = mu_j[0]
    zeta_i = zeta_factor / np.sqrt(z_e)
    zeta_j = 1.0 / (zeta_factor * np.sqrt(z_e))
    chi_i = chi_j = 1.0
    beta0 = mu_i0 * mu_j0 / z_e
    if abs(beta0 - 1.0) > BETA_ONE_TOL:
        delta_i = delta_j = np.sqrt(z_e)
        denom = z_e * (1.0 - beta0)
        eps_i = (mu_j0 - delta_i) / denom
        eps_j = (mu_i0 - delta_j) / denom
    else:
        # all edge-belief mass on the zero symbol: the zero-column
        # constraints pin the diagonal weights, and the rank-one
        # coefficients are split symmetrically
        delta_i = mu_j0
        delta_j = mu_i0
        eps_i = eps_j = -1.0 / (delta_i + delta_j)
    m_i = np.zeros((card, card), dtype=dtype)
    m_j = np.zeros((card, card), dtype=dtype)
    m_i[:, 0] = zeta_i * mu_i
    m_j[:, 0] = zeta_j * mu_j
    for t in range(1, card):
        m_i[0, t] = -zeta_i * chi_i * mu_j[t]
        m_j[0, t] = -zeta_j * chi_j * mu_i[t]
        for x in range(1, card):
            m_i[x, t] = zeta_i * chi_i * (
                delta_i * (x == t) + eps_i * mu_i[x] * mu_j[t]
            )
            m_j[x, t] = zeta_j * chi_j * (
                delta_j * (x == t) + eps_j * mu_j[x] * mu_i[t]
            )
    constants = {
        "zeta_i": zeta_i,
        "zeta_j": zeta_j,
        "chi_i": chi_i,
        "chi_j": chi_j,
        "delta_i": delta_i,
        "delta_j": delta_j,
        "eps_i": eps_i,
        "eps_j": eps_j,
        "beta0": beta0,
    }
    return m_i, m_j, constants


def _mode_contract(table, matrices):
    """Contract axis k of `table` with matrices[k] (rows = old symbol)."""
    out = table
    for axis, m in enumerate(matrices):
        out = np.moveaxis(np.tensordot(out, m, axes=([axis], [0])), -1, axis)
    return out


def lct_transform(
    g: NormalFactorGraph,
    mu: spa_mod.MessageVector,
    *,
    zeta_factor: float = 1.0,
) -> TransformedGraph:
    """Transform `g` at the fixed point `mu`.

    `zeta_factor` rescales the two edge scale factors against each other
    (their product is pinned); any value yields the same partition
    function. Raises when an edge normalizer is within `spa.Z_ZERO_TOL`
    of zero (no transform exists there), and when an edge's identity
    residual exceeds `LCT_TOL` times the matrices' scale.
    """
    dtype = g.dtype
    transforms = []
    per_edge_matrices: dict[int, dict[int, np.ndarray]] = {}
    for pos, e in enumerate(g.edges):
        i, j = e.endpoints
        mu_i = np.asarray(mu[(pos, i)], dtype=dtype)
        mu_j = np.asarray(mu[(pos, j)], dtype=dtype)
        z_e = (mu_i * mu_j).sum()
        if abs(z_e) <= spa_mod.Z_ZERO_TOL:
            raise DegenerateFixedPointError(
                f"edge {e.id} has vanishing normalizer; the transform "
                "does not exist at this fixed point"
            )
        m_i, m_j, constants = _edge_matrices(mu_i, mu_j, z_e, zeta_factor, dtype)
        scale = max(float(np.abs(m_i).max()), float(np.abs(m_j).max()), 1.0)
        eye = np.eye(len(mu_i))
        res = float(np.abs(m_i @ m_j.T - eye).max())
        res_t = float(np.abs(m_i.T @ m_j - eye).max())
        if res > LCT_TOL * scale:
            raise NumericalError(
                f"edge {e.id}: transform identity residual {res:g}"
            )
        transforms.append(
            EdgeTransform(
                edge_pos=pos,
                m_i=m_i,
                m_j=m_j,
                constants=constants,
                residual=res,
                residual_transpose=res_t,
            )
        )
        per_edge_matrices[pos] = {i: m_i, j: m_j}
    factors = []
    for node in range(g.num_nodes):
        inc = g.incident(node)
        table = g.factors[node].as_dense(dtype)
        mats = [per_edge_matrices[p][node] for p in inc]
        factors.append(
            LocalFunction(node=node, shape=table.shape, dense=_mode_contract(table, mats))
        )
    new_graph = NormalFactorGraph(
        kind=g.kind,
        num_nodes=g.num_nodes,
        edges=[EdgeDecl(e.id, e.endpoints, e.alphabet_size) for e in g.edges],
        factors=factors,
    )
    return TransformedGraph(
        graph=new_graph, transforms=transforms, source=g, messages=mu
    )


def is_generalized_loop(g: NormalFactorGraph, support_positions) -> bool:
    """Iterative leaf pruning on the support subgraph: the configuration
    qualifies iff pruning removes nothing (every incident node has degree
    at least two; the empty support qualifies)."""
    alive = set(support_positions)
    while True:
        degree: dict[int, int] = {}
        for pos in alive:
            for v in g.edges[pos].endpoints:
                degree[v] = degree.get(v, 0) + 1
        leaves = {v for v, d in degree.items() if d == 1}
        if not leaves:
            return bool(alive == set(support_positions))
        removed = {
            pos
            for pos in alive
            if any(v in leaves for v in g.edges[pos].endpoints)
        }
        if not removed:
            return bool(alive == set(support_positions))
        alive -= removed


def verify_lct_properties(
    g: NormalFactorGraph,
    tg: TransformedGraph,
    mu: spa_mod.MessageVector,
) -> PropertyReport:
    """Numerically verify the transform's guarantees.

    Checks: (1) unchanged partition function, (2) all-zero value equal to
    the pseudo-dual Bethe value, (3) vanishing factors at Hamming-weight-1
    arguments, (4) every non-negligible configuration supported on a
    generalized loop, (5) the loop-series identity, (6) the indicator
    message vector is a fixed point of the transformed graph, (7, double
    edge) Hermitian structure of the transformed factors and the edge
    matrices. Relative checks pass within `VERIFY_REL_TOL`, vanishing
    ones within `VERIFY_ZERO_TOL`, and (4)-(5) enumerate at most
    `CONFIG_BUDGET` configurations. Failures are recorded, never raised.
    """
    report = PropertyReport()
    gt = tg.graph

    z_src = partition_function_exact(g, check_strict=False)
    z_tr = partition_function_exact(gt, check_strict=False)
    scale = max(abs(z_src), 1e-300)
    report.record("partition_unchanged", abs(z_tr - z_src) / scale, VERIFY_REL_TOL)

    z_dual = spa_mod.pseudo_dual_bethe(g, mu)
    tables = [f.as_dense(g.dtype) for f in gt.factors]
    g0 = 1.0
    for t in tables:
        g0 = g0 * t[(0,) * t.ndim]
    report.record(
        "all_zero_equals_pseudo_dual",
        abs(g0 - z_dual) / max(abs(z_dual), 1e-300),
        VERIFY_REL_TOL,
    )

    worst = 0.0
    for t in tables:
        node_scale = max(float(np.abs(t).max()), 1e-300)
        for axis in range(t.ndim):
            idx = [0] * t.ndim
            for sym in range(1, t.shape[axis]):
                idx[axis] = sym
                worst = max(worst, abs(t[tuple(idx)]) / node_scale)
    report.record("weight_one_vanishes", worst, VERIFY_ZERO_TOL)

    gscale = max(abs(g0), 1e-300)
    loop_sum = 0.0
    non_loop_worst = 0.0
    for cfg in enumerate_configurations(gt, CONFIG_BUDGET):
        val = global_value(gt, cfg)
        support = [p for p, s in enumerate(cfg) if s != 0]
        if is_generalized_loop(gt, support):
            if support:
                loop_sum += val
        else:
            non_loop_worst = max(non_loop_worst, abs(val) / gscale)
    report.record("support_is_generalized_loop", non_loop_worst, VERIFY_ZERO_TOL)

    series = z_dual * (1.0 + loop_sum / g0)
    report.record(
        "loop_series_identity", abs(series - z_src) / scale, VERIFY_REL_TOL
    )

    indicator = {}
    for pos, e in enumerate(gt.edges):
        vec = np.zeros(gt.var_card(pos), dtype=g.dtype)
        vec[0] = 1.0
        for node in e.endpoints:
            indicator[(pos, node)] = vec.copy()
    stepped, _ = spa_mod.spa_step(gt, indicator)
    if stepped is None:
        report.record(
            "indicator_fixed_point", float("inf"), VERIFY_REL_TOL, passed=False
        )
    else:
        res = max(
            float(np.abs(stepped[k] - indicator[k]).max()) for k in indicator
        )
        report.record("indicator_fixed_point", res, VERIFY_REL_TOL)

    if not g.is_classical:
        dev = 0.0
        for node in range(gt.num_nodes):
            choi = gt.choi_matrix(node)
            dev = max(dev, float(np.abs(choi - choi.conj().T).max()))
        for tr in tg.transforms:
            d = g.edges[tr.edge_pos].alphabet_size
            for m in (tr.m_i, tr.m_j):
                choi = table_to_choi(m, [d, d])
                dev = max(dev, float(np.abs(choi - choi.conj().T).max()))
        report.record("hermitian_structure", dev, VERIFY_ZERO_TOL)

    return report

