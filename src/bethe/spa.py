"""Sum-product algorithm, fixed points, beliefs, and the pseudo-dual
Bethe partition function.

Messages are indexed by (edge position, receiving node); the message
into node v along edge e is computed at the opposite endpoint from the
messages into that endpoint. Every factor is read through its non-zero
support (`LocalFunction.support()`), whichever storage holds it: each
support point adds its value times the other incoming messages' entries,
a leave-one-out product taken as an exclusive prefix product times an
exclusive suffix product, so no message entry is ever divided out. The
flooding schedule updates every message from the previous iterate, then
normalizes each message by its sum (classical: a probability vector;
double-edge: complex entries over symbol pairs summing to one). If any
normalizer vanishes, all messages are re-randomized from the run's
seeded generator and iteration continues.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateFixedPointError,
    NumericalError,
    ValidationError,
)
from .nfg import NormalFactorGraph
from .rng import seeded_rng

__all__ = [
    "MessageVector",
    "SpaReport",
    "Beliefs",
    "uniform_messages",
    "random_messages",
    "spa_run",
    "spa_step",
    "pseudo_dual_bethe",
    "beliefs",
    "edge_beliefs",
    "bethe_free_energy",
    "best_fixed_point",
]

MessageVector = dict[tuple[int, int], np.ndarray]

FP_TOL = 1e-10
MAX_ITERS = 10000
DAMPING_CYCLIC = 0.3
Z_ZERO_TOL = 1e-13
Z_IMAG_TOL = 1e-10
NEAR_ZERO_SUM = 1e-12


@dataclass
class SpaReport:
    converged: bool
    iterations: int
    residual: float
    z_edges: list = field(default_factory=list)
    z_nodes: list = field(default_factory=list)
    z_b_spa: float | None = None
    degenerate: bool = False
    rerandomized: int = 0
    near_zero_normalizers: int = 0
    candidates: list = field(default_factory=list)


@dataclass
class Beliefs:
    node_beliefs: list
    edge_beliefs: list


def _directed_keys(g: NormalFactorGraph):
    keys = []
    for pos, e in enumerate(g.edges):
        i, j = e.endpoints
        keys.append((pos, i))
        keys.append((pos, j))
    return keys


def uniform_messages(g: NormalFactorGraph) -> MessageVector:
    dtype = float if g.is_classical else complex
    return {
        key: np.full(g.var_card(key[0]), 1.0 / g.var_card(key[0]), dtype=dtype)
        for key in _directed_keys(g)
    }


def random_messages(g: NormalFactorGraph, rng) -> MessageVector:
    """Random initialization: uniform [0,1] entries for classical graphs;
    for double-edge graphs a Gram matrix built from uniform [0,1] entries,
    which keeps the message PSD as the update rules expect."""
    out: MessageVector = {}
    for key in _directed_keys(g):
        card = g.var_card(key[0])
        if g.is_classical:
            v = rng.uniform(size=card)
            out[key] = v / v.sum()
        else:
            d = g.edges[key[0]].alphabet_size
            gmat = rng.uniform(size=(d, d))
            c = gmat @ gmat.T.conj()
            v = c.reshape(card).astype(complex)
            out[key] = v / v.sum()
    return out


def _gather(g, node, mu):
    """(idx, offsets, values, W) for the factor at `node`: incident edge b
    starts at offsets[b] in the concatenated incoming messages, and W[s, b]
    is the entry at idx[s, b] = configs[s, b] + offsets[b]."""
    f = g.factors[node]
    configs, values = f.support()
    offsets = list(itertools.accumulate(f.shape, initial=0))
    idx = configs + np.asarray(offsets[:-1], dtype=np.intp)
    msgs = [mu[(p, node)] for p in g.incident(node)]
    W = np.concatenate(msgs)[idx] if msgs else np.ones(idx.shape)
    return idx, offsets, values, W


def _node_out_messages(g, node, mu):
    """Unnormalized messages out of `node`, concatenated in incident-edge
    order, and the offsets where each edge's message starts: for each
    incident edge, the factor summed against the other incoming messages."""
    idx, offsets, values, W = _gather(g, node, mu)
    pre = np.ones_like(W)
    np.cumprod(W[:, :-1], axis=1, out=pre[:, 1:])
    suf = np.ones_like(W)
    np.cumprod(W[:, :0:-1], axis=1, out=suf[:, -2::-1])
    loo = (pre * suf * values[:, None]).ravel()
    idx = idx.ravel()
    flat = np.bincount(idx, weights=loo.real, minlength=offsets[-1])
    if np.iscomplexobj(loo):
        flat = flat + 1j * np.bincount(idx, weights=loo.imag, minlength=offsets[-1])
    return flat, offsets


def spa_step(g: NormalFactorGraph, mu: MessageVector):
    """One un-damped flooding update. Returns (new messages, count of
    near-zero normalizers); new messages is None when a normalizer
    vanished exactly."""
    new: MessageVector = {}
    near_zero = 0
    for node in range(g.num_nodes):
        flat, offsets = _node_out_messages(g, node, mu)
        kappa = np.add.reduceat(flat, offsets[:-1])
        if not kappa.all():
            return None, near_zero
        scale = np.add.reduceat(np.abs(flat), offsets[:-1])
        near_zero += int((np.abs(kappa) < NEAR_ZERO_SUM * scale).sum())
        flat = flat / np.repeat(kappa, g.factors[node].shape)
        for a, p in enumerate(g.incident(node)):
            i, j = g.edges[p].endpoints
            new[(p, j if node == i else i)] = flat[offsets[a] : offsets[a + 1]]
    return new, near_zero


def _residual(a: MessageVector, b: MessageVector) -> float:
    return max(float(np.abs(a[k] - b[k]).max()) for k in a)


def spa_run(
    g: NormalFactorGraph,
    init: MessageVector | None = None,
    *,
    damping: float | None = None,
    max_iters: int = MAX_ITERS,
    fp_tol: float = FP_TOL,
    seed: int = 0,
    rng_stream: int = 0,
    debug_checks: bool = False,
    psd_tol: float = 1e-9,
):
    """Iterate the sum-product update to a fixed point.

    Default damping is 0 on acyclic graphs and 0.3 otherwise. Returns
    the final message vector and a report; the report's `z_b_spa` is
    set only when every edge normalizer is bounded away from zero.
    """
    if damping is None:
        damping = 0.0 if g.is_acyclic else DAMPING_CYCLIC
    if not 0.0 <= damping < 1.0:
        raise ValidationError(f"damping {damping:g} must lie in [0, 1)")
    rng = seeded_rng(seed, rng_stream)
    mu = {k: np.array(v) for k, v in (init or uniform_messages(g)).items()}
    residual = float("inf")
    rerandomized = 0
    near_zero_total = 0
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        new, near_zero = spa_step(g, mu)
        near_zero_total += near_zero
        if new is None:
            mu = random_messages(g, rng)
            rerandomized += 1
            continue
        if damping > 0:
            new = {k: (1 - damping) * new[k] + damping * mu[k] for k in new}
        if debug_checks:
            _check_messages(g, new, psd_tol)
        residual = _residual(new, mu)
        mu = new
        if not all(np.isfinite(v).all() for v in mu.values()):
            raise NumericalError("non-finite message entry during SPA")
        if residual <= fp_tol:
            converged = True
            break
    report = _make_report(g, mu, converged, iterations, residual)
    report.rerandomized = rerandomized
    report.near_zero_normalizers = near_zero_total
    return mu, report


def _check_messages(g, mu, psd_tol):
    for (p, _), v in mu.items():
        if g.is_classical:
            if v.min() < -1e-12:
                raise NumericalError(f"negative classical message entry {v.min():g}")
        else:
            d = g.edges[p].alphabet_size
            c = v.reshape(d, d)
            if np.abs(c - c.conj().T).max() > psd_tol:
                raise NumericalError("message lost Hermitian structure")
            low = float(np.linalg.eigvalsh((c + c.conj().T) / 2).min())
            if low < -psd_tol:
                raise NumericalError(f"message lost PSD structure (min eig {low:g})")


def edge_normalizers(g: NormalFactorGraph, mu: MessageVector):
    out = []
    for pos, e in enumerate(g.edges):
        i, j = e.endpoints
        out.append((mu[(pos, i)] * mu[(pos, j)]).sum())
    return out


def node_normalizers(g: NormalFactorGraph, mu: MessageVector):
    out = []
    for node in range(g.num_nodes):
        _, _, values, W = _gather(g, node, mu)
        out.append((values * W.prod(axis=1)).sum())
    return out


def _make_report(g, mu, converged, iterations, residual):
    z_edges = edge_normalizers(g, mu)
    z_nodes = node_normalizers(g, mu)
    degenerate = any(abs(z) <= Z_ZERO_TOL for z in z_edges)
    z_b_spa = None
    if not degenerate:
        try:
            z_b_spa = pseudo_dual_bethe(g, mu)
        except (DegenerateFixedPointError, NumericalError):
            degenerate = True
    return SpaReport(
        converged=converged,
        iterations=iterations,
        residual=residual,
        z_edges=z_edges,
        z_nodes=z_nodes,
        z_b_spa=z_b_spa,
        degenerate=degenerate,
    )


def pseudo_dual_bethe(
    g: NormalFactorGraph,
    mu: MessageVector,
    *,
    z_zero_tol: float = Z_ZERO_TOL,
    z_imag_tol: float = Z_IMAG_TOL,
):
    """Product of node normalizers over edge normalizers at `mu`.

    Scaling-invariant in every single message. Raises when some edge
    normalizer vanishes (the value is undefined there). Double-edge
    results are real up to numerical noise; the imaginary residue is
    discarded after a tolerance check.
    """
    z_edges = edge_normalizers(g, mu)
    for pos, z_e in enumerate(z_edges):
        if abs(z_e) <= z_zero_tol:
            raise DegenerateFixedPointError(
                f"edge {g.edges[pos].id} has vanishing normalizer; the "
                "pseudo-dual Bethe value is undefined at this fixed point"
            )
    z_nodes = node_normalizers(g, mu)
    value = 1.0
    for z_f in z_nodes:
        value = value * z_f
    for z_e in z_edges:
        value = value / z_e
    if g.is_classical:
        return float(value)
    value = complex(value)
    if abs(value.imag) > z_imag_tol * (1.0 + abs(value)):
        raise NumericalError(
            f"pseudo-dual Bethe value has |imag| = {abs(value.imag):g}"
        )
    return value.real


def beliefs(g: NormalFactorGraph, mu: MessageVector) -> Beliefs:
    """Normalized node and edge beliefs induced by `mu`."""
    dtype = float if g.is_classical else complex
    node_b = []
    for node, f in enumerate(g.factors):
        _, _, values, W = _gather(g, node, mu)
        table = np.zeros(f.shape, dtype)
        flat = np.ravel_multi_index(tuple(f.support()[0].T), f.shape)
        np.put(table, flat, values * W.prod(axis=1))
        kappa = table.sum()
        if abs(kappa) <= Z_ZERO_TOL:
            raise DegenerateFixedPointError(f"zero belief normalizer at node {node}")
        node_b.append(table / kappa)
    return Beliefs(node_beliefs=node_b, edge_beliefs=edge_beliefs(g, mu))


def edge_beliefs(g: NormalFactorGraph, mu: MessageVector) -> list:
    """Normalized edge beliefs induced by `mu`, in edge order. Unlike
    `beliefs`, builds no node table."""
    out = []
    for pos, e in enumerate(g.edges):
        i, j = e.endpoints
        vec = mu[(pos, i)] * mu[(pos, j)]
        kappa = vec.sum()
        if abs(kappa) <= Z_ZERO_TOL:
            raise DegenerateFixedPointError(
                f"zero belief normalizer at edge {e.id}"
            )
        out.append(vec / kappa)
    return out


def edge_consistency_residual(g: NormalFactorGraph, b: Beliefs) -> float:
    """Max deviation between node-belief marginals and edge beliefs."""
    worst = 0.0
    for pos, e in enumerate(g.edges):
        for node in e.endpoints:
            inc = g.incident(node)
            axis = inc.index(pos)
            table = b.node_beliefs[node]
            other = tuple(a for a in range(table.ndim) if a != axis)
            marg = table.sum(axis=other) if other else table
            worst = max(worst, float(np.abs(marg - b.edge_beliefs[pos]).max()))
    return worst


def bethe_free_energy(g: NormalFactorGraph, b: Beliefs) -> float:
    """Bethe free energy of a classical belief collection, with the
    convention 0*log(0) = 0. exp(-F) equals the pseudo-dual value at any
    fixed point with strictly positive beliefs."""
    if not g.is_classical:
        raise NotImplementedError("primal Bethe free energy is classical-only")

    def xlogy(x, y):
        out = np.zeros_like(x, dtype=float)
        mask = x > 0
        out[mask] = x[mask] * np.log(y[mask])
        return out

    energy = 0.0
    entropy = 0.0
    for node in range(g.num_nodes):
        table = np.asarray(b.node_beliefs[node], dtype=float)
        f = g.factors[node].as_dense(float)
        energy -= xlogy(table, f).sum()
        entropy -= xlogy(table, table).sum()
    for vec in b.edge_beliefs:
        vec = np.asarray(vec, dtype=float)
        entropy += xlogy(vec, vec).sum()
    return energy - entropy


def best_fixed_point(
    g: NormalFactorGraph,
    *,
    restarts: int = 16,
    seed: int = 0,
    damping: float | None = None,
    max_iters: int = MAX_ITERS,
    fp_tol: float = FP_TOL,
):
    """Run the SPA from a uniform start plus `restarts` random starts and
    return the converged fixed point with the largest pseudo-dual value.

    This is a heuristic for the max over fixed points: nothing
    guarantees the maximizer is in the sample. All candidate runs are
    recorded in the returned report.
    """
    if restarts < 1:
        raise ValidationError(f"restarts {restarts} must be >= 1")
    candidates = []
    best = None
    best_residual = float("inf")
    for idx in range(restarts + 1):
        if idx == 0:
            init = uniform_messages(g)
        else:
            init = random_messages(g, seeded_rng(seed, 2 * idx))
        mu, report = spa_run(
            g,
            init,
            damping=damping,
            max_iters=max_iters,
            fp_tol=fp_tol,
            seed=seed,
            rng_stream=2 * idx + 1,
        )
        value = report.z_b_spa
        candidates.append(
            {
                "restart": idx,
                "converged": report.converged,
                "residual": report.residual,
                "z_b_spa": value,
                "degenerate": report.degenerate,
            }
        )
        best_residual = min(best_residual, report.residual)
        if report.converged and not report.degenerate and value is not None:
            score = value.real if isinstance(value, complex) else value
            if best is None or score > best[0]:
                best = (score, mu, report)
    if best is None:
        if any(c["converged"] for c in candidates):
            raise DegenerateFixedPointError(
                "every converged fixed point has a vanishing edge normalizer"
            )
        raise ConvergenceError(
            f"no SPA restart converged (best residual {best_residual:g})",
            residual=best_residual,
        )
    _, mu, report = best
    report.candidates = candidates
    return mu, report
