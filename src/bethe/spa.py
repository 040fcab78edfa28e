"""Sum-product algorithm, fixed points, beliefs, and the pseudo-dual
Bethe partition function.

A message runs along one edge into one of its endpoints; it is a vector
over the edge's alphabet (classical: a probability vector) or over its
symbol pairs (double-edge: complex entries summing to one). Each call
compiles the graph's message layout once (`_Layout`): every directed
message owns a fixed slice of one flat axis of length L, the messages
into a node lying next to each other in the order of its incident edges,
and a batch of R message vectors is one array X[R, L]. The dict
`MessageVector`, keyed by (edge position, receiving node), is only the
public view, packed into and unpacked from that axis at the boundaries.

One flooding step updates every message from the previous iterate.
Every factor is read through its non-zero support
(`LocalFunction.support()`), whichever storage holds it: a gather index
picks, for each support point, the entries of the incoming messages, and
each outgoing entry adds the point's value times the other incoming
entries, a leave-one-out product taken as an exclusive prefix product
times an exclusive suffix product, so no message entry is ever divided
out. One `bincount` per real/imaginary part sums these into the sending
node's slots, restart r's bins offset by r*L so that each restart sums
in the order it would alone; each message is normalized by its sum and
moved to the receiving slot of its edge.

`spa_run` iterates one message vector and `best_fixed_point` steps all
its restarts together. Each restart keeps its own active flag, iteration
count and residual, and stops on its own; if a normalizer of its step
vanishes, it re-randomizes its messages from its own seeded stream and
iterates on; a restart whose normalizers vanish on more than
`MAX_VANISHING_STEPS` consecutive steps stops there, not converged.
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
from .nfg import PSD_TOL, Z_IMAG_TOL, NormalFactorGraph
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
NEAR_ZERO_SUM = 1e-12
MAX_VANISHING_STEPS = 5  # re-randomizations in a row before a start gives up


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
    return {
        key: np.full(g.var_card(key[0]), 1.0 / g.var_card(key[0]), dtype=g.dtype)
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


class _Layout:
    """The flat message axis of one graph, compiled for batches of up to
    `rows` message vectors.

    Slot k is the message `keys[k]` = (edge position, receiving node) and
    spans `starts[k] : starts[k] + sizes[k]`; keys run over nodes and,
    within a node, over its incident edges, so the messages into a node
    are contiguous in its factor's axis order. `nodes[v]` is
    (gather [S, k], values [S]): support point s of node v reads entry
    `x[gather[s, b]]` of the message along its b-th edge. `groups` stacks
    the transposed gathers [k, S] of all nodes with k edges, `bins` sends
    each leave-one-out term of a batch to its sending slot (the gather
    index itself, offset by r*L in row r), and `swap` moves a sending
    slot's entries to the receiving slot of the same edge.
    """

    def __init__(self, g: NormalFactorGraph, rows: int = 1):
        self.g = g
        self.keys = [(p, v) for v in range(g.num_nodes) for p in g.incident(v)]
        self.sizes = np.array([g.var_card(p) for p, _ in self.keys], dtype=np.intp)
        bounds = list(itertools.accumulate(self.sizes, initial=0))
        self.L = bounds[-1]
        self.starts = np.array(bounds[:-1], dtype=np.intp)
        self.slot = {key: k for k, key in enumerate(self.keys)}
        self.seg_node = np.array([v for _, v in self.keys], dtype=np.intp)

        def span(key):
            k = self.slot[key]
            return np.arange(bounds[k], bounds[k + 1])

        self.swap = np.empty(self.L, dtype=np.intp)
        by_size: dict[int, list] = {}
        for pos, e in enumerate(g.edges):
            a, b = span((pos, e.endpoints[0])), span((pos, e.endpoints[1]))
            self.swap[a], self.swap[b] = b, a
            by_size.setdefault(len(a), []).append((pos, a, b))
        # edges grouped by message size: (positions, spans at i, spans at j)
        self.edge_groups = [tuple(map(np.array, zip(*grp))) for grp in by_size.values()]

        self.nodes = []
        by_arity: dict[int, list] = {}
        for v, f in enumerate(g.factors):
            configs, values = f.support()
            inc = g.incident(v)
            base = self.starts[self.slot[(inc[0], v)]] if inc else 0
            offsets = itertools.accumulate(f.shape[:-1], initial=base)
            gather = configs + np.fromiter(offsets, dtype=np.intp, count=len(inc))
            self.nodes.append((gather, values))
            if inc:
                by_arity.setdefault(len(inc), []).append((gather, values))
        self.groups = [
            (np.concatenate(gs).T.copy(), np.concatenate(vs))
            for gs, vs in (zip(*grp) for grp in by_arity.values())
        ]
        dest = np.concatenate(
            [np.empty(0, np.intp)] + [gather.ravel() for gather, _ in self.groups]
        )
        self.bins = (dest + self.L * np.arange(rows)[:, None]).ravel()

    def pack(self, mu: MessageVector) -> np.ndarray:
        # the empty head sets the least dtype and packs a graph without edges
        return np.concatenate([np.empty(0, self.g.dtype)] + [mu[k] for k in self.keys])

    def unpack(self, x: np.ndarray) -> MessageVector:
        out: MessageVector = {}
        for key in _directed_keys(self.g):
            k = self.slot[key]
            out[key] = x[self.starts[k] : self.starts[k] + self.sizes[k]]
        return out

    def step(self, X: np.ndarray):
        """One un-damped flooding update of every row of X[n, L], n <= rows.

        Returns the new rows, a flag per row whose step met a vanishing
        normalizer (its new row is meaningless), and per row the count of
        near-zero normalizers at the nodes before its first vanishing one.
        """
        n = len(X)
        if not self.L:
            return X.copy(), np.zeros(n, dtype=bool), np.zeros(n, dtype=int)
        terms = []
        for gather, values in self.groups:
            W = X.take(gather, axis=1)
            k = W.shape[1]
            pre = np.empty_like(W)
            suf = np.empty_like(W)
            pre[:, 0] = suf[:, -1] = 1
            if k > 1:
                pre[:, 1] = W[:, 0]
                suf[:, -2] = W[:, -1]
            for b in range(2, k):
                np.multiply(pre[:, b - 1], W[:, b - 1], out=pre[:, b])
                np.multiply(suf[:, -b], W[:, -b], out=suf[:, -b - 1])
            terms.append((pre * suf * values).reshape(n, -1))
        loo = np.concatenate(terms, axis=1).ravel()
        bins = self.bins[: loo.size]
        # with no support point at all, bincount would return integers
        flat = np.bincount(bins, weights=loo.real, minlength=n * self.L).astype(
            float, copy=False
        )
        if np.iscomplexobj(loo):
            flat = flat + 1j * np.bincount(bins, weights=loo.imag, minlength=n * self.L)
        flat = flat.reshape(n, self.L)
        kappa = np.add.reduceat(flat, self.starts, axis=1)
        scale = np.add.reduceat(np.abs(flat), self.starts, axis=1)
        near = np.abs(kappa) < NEAR_ZERO_SUM * scale
        vanished = ~kappa.all(axis=1)
        if vanished.any():
            first = self.seg_node[np.argmax(kappa == 0, axis=1)]
            near &= self.seg_node < np.where(vanished, first, self.g.num_nodes)[:, None]
            kappa[vanished] = 1  # such rows are discarded; keep the division quiet
        flat /= np.repeat(kappa, self.sizes, axis=1)
        return flat.take(self.swap, axis=1), vanished, near.sum(axis=1)

    def normalizers(self, X: np.ndarray):
        """Edge normalizers [n, E] and node normalizers [n, N] of every row
        of X[n, L]; each entry is summed as for a single message vector."""
        n = len(X)
        z_edges = np.empty((n, self.g.num_edges), dtype=X.dtype)
        for positions, a, b in self.edge_groups:
            z_edges[:, positions] = (X.take(a, axis=1) * X.take(b, axis=1)).sum(axis=2)
        z_nodes = np.empty((n, self.g.num_nodes), dtype=X.dtype)
        # row by row: `x[gather]` keeps the memory order of the support, so
        # the products and sums of one row do not depend on the others
        for r, x in enumerate(X):
            z_nodes[r] = [
                (values * x[gather].prod(axis=1)).sum() for gather, values in self.nodes
            ]
        return z_edges, z_nodes

    def check(self, X: np.ndarray):
        """Raise unless every message in X[n, L] keeps its structure:
        non-negative (classical) or a Hermitian PSD matrix within
        `nfg.PSD_TOL` (double-edge)."""
        if self.g.is_classical:
            if X.size and X.min() < -1e-12:
                raise NumericalError(f"negative classical message entry {X.min():g}")
            return
        for _, a, b in self.edge_groups:
            d = int(round(np.sqrt(a.shape[1])))
            c = X.take(np.concatenate([a, b]).reshape(-1, d, d), axis=1)
            ch = np.swapaxes(c, -1, -2).conj()
            if np.abs(c - ch).max() > PSD_TOL:
                raise NumericalError("message lost Hermitian structure")
            low = float(np.linalg.eigvalsh((c + ch) / 2).min())
            if low < -PSD_TOL:
                raise NumericalError(f"message lost PSD structure (min eig {low:g})")


def spa_step(g: NormalFactorGraph, mu: MessageVector):
    """One un-damped flooding update. Returns (new messages, count of
    near-zero normalizers); new messages is None when a normalizer
    vanished exactly."""
    layout = _Layout(g)
    new, vanished, near = layout.step(layout.pack(mu)[None])
    if vanished[0]:
        return None, int(near[0])
    return layout.unpack(new[0]), int(near[0])


def _run_batch(
    layout,
    X,
    *,
    seed,
    streams,
    damping,
    max_iters,
    fp_tol,
    debug_checks=False,
):
    """Iterate every row of X[R, L] in place to a fixed point; row r
    re-randomizes from stream `streams[r]`. Returns one report per row."""
    g = layout.g
    if damping is None:
        damping = 0.0 if g.is_acyclic else DAMPING_CYCLIC
    if not 0.0 <= damping < 1.0:
        raise ValidationError(f"damping {damping:g} must lie in [0, 1)")
    if not 0.0 <= fp_tol < np.inf:
        raise ValidationError(f"tolerance {fp_tol:g} must be finite and >= 0")
    R = len(X)
    # a row stops once it converged or its normalizers vanished on more
    # than MAX_VANISHING_STEPS consecutive steps
    running = np.ones(R, dtype=bool)
    vanishing = np.zeros(R, dtype=int)
    iterations = np.zeros(R, dtype=int)
    residual = np.full(R, np.inf)
    rerandomized = np.zeros(R, dtype=int)
    near_zero = np.zeros(R, dtype=int)
    rngs = [seeded_rng(seed, stream) for stream in streams]
    for it in range(1, max_iters + 1):
        active = np.flatnonzero(running)
        if not active.size:
            break
        old = X[active]
        new, vanished, near = layout.step(old)
        iterations[active] = it
        near_zero[active] += near
        vanishing[active] = np.where(vanished, vanishing[active] + 1, 0)
        if vanished.any():
            for r in active[vanished]:
                if vanishing[r] > MAX_VANISHING_STEPS:
                    running[r] = False
                    continue
                X[r] = layout.pack(random_messages(g, rngs[r]))
                rerandomized[r] += 1
            active, old, new = active[~vanished], old[~vanished], new[~vanished]
        if damping > 0:
            new = (1 - damping) * new + damping * old
        if debug_checks:
            layout.check(new)
        res = np.abs(new - old).max(axis=1, initial=0.0)
        X[active] = new
        residual[active] = res
        if not np.isfinite(new).all():
            raise NumericalError("non-finite message entry during SPA")
        running[active[res <= fp_tol]] = False
    z_edges, z_nodes = layout.normalizers(X)
    reports = []
    for r in range(R):
        ze, zn = list(z_edges[r]), list(z_nodes[r])
        try:
            z_b_spa, degenerate = _pseudo_dual(g, zn, ze), False
        except (DegenerateFixedPointError, NumericalError):
            z_b_spa, degenerate = None, True
        reports.append(
            SpaReport(
                converged=bool(not running[r] and vanishing[r] <= MAX_VANISHING_STEPS),
                iterations=int(iterations[r]),
                residual=float(residual[r]),
                z_edges=ze,
                z_nodes=zn,
                z_b_spa=z_b_spa,
                degenerate=degenerate,
                rerandomized=int(rerandomized[r]),
                near_zero_normalizers=int(near_zero[r]),
            )
        )
    return reports


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
):
    """Iterate the sum-product update to a fixed point.

    Default damping is 0 on acyclic graphs and 0.3 otherwise. Returns
    the final message vector and a report; the report's `z_b_spa` is
    set only when every edge normalizer is bounded away from zero.
    """
    layout = _Layout(g)
    X = layout.pack(init or uniform_messages(g))[None]
    (report,) = _run_batch(
        layout,
        X,
        seed=seed,
        streams=[rng_stream],
        damping=damping,
        max_iters=max_iters,
        fp_tol=fp_tol,
        debug_checks=debug_checks,
    )
    return layout.unpack(X[0]), report


def _pseudo_dual(g, z_nodes, z_edges):
    """`pseudo_dual_bethe` from the normalizers of one message vector."""
    for pos, z_e in enumerate(z_edges):
        if abs(z_e) <= Z_ZERO_TOL:
            raise DegenerateFixedPointError(
                f"edge {g.edges[pos].id} has vanishing normalizer; the "
                "pseudo-dual Bethe value is undefined at this fixed point"
            )
    value = 1.0
    for z_f in z_nodes:
        value = value * z_f
    for z_e in z_edges:
        value = value / z_e
    if g.is_classical:
        return float(value)
    value = complex(value)
    if abs(value.imag) > Z_IMAG_TOL * (1.0 + abs(value)):
        raise NumericalError(
            f"pseudo-dual Bethe value has |imag| = {abs(value.imag):g}"
        )
    return value.real


def pseudo_dual_bethe(g: NormalFactorGraph, mu: MessageVector):
    """Product of node normalizers over edge normalizers at `mu`.

    Scaling-invariant in every single message. Raises when some edge
    normalizer is within `Z_ZERO_TOL` of zero (the value is undefined
    there). Double-edge results are real up to numerical noise; the
    imaginary residue is discarded once it is within `Z_IMAG_TOL`
    relative.
    """
    layout = _Layout(g)
    z_edges, z_nodes = layout.normalizers(layout.pack(mu)[None])
    return _pseudo_dual(g, list(z_nodes[0]), list(z_edges[0]))


def beliefs(g: NormalFactorGraph, mu: MessageVector) -> Beliefs:
    """Normalized node and edge beliefs induced by `mu`."""
    layout = _Layout(g)
    x = layout.pack(mu)
    node_b = []
    for node, f in enumerate(g.factors):
        gather, values = layout.nodes[node]
        table = np.zeros(f.shape, layout.g.dtype)
        flat = np.ravel_multi_index(tuple(f.support()[0].T), f.shape)
        np.put(table, flat, values * x[gather].prod(axis=1))
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

    The restarts are stepped together as one batch; restart `idx` starts
    from `random_messages(g, seeded_rng(seed, 2 * idx))` and re-randomizes
    from stream `2 * idx + 1`, so each ends exactly as it would alone.
    This is a heuristic for the max over fixed points: nothing
    guarantees the maximizer is in the sample. All candidate runs are
    recorded in the returned report.
    """
    if restarts < 1:
        raise ValidationError(f"restarts {restarts} must be >= 1")
    layout = _Layout(g, rows=restarts + 1)
    inits = [uniform_messages(g)] + [
        random_messages(g, seeded_rng(seed, 2 * idx)) for idx in range(1, restarts + 1)
    ]
    X = np.stack([layout.pack(mu) for mu in inits])
    reports = _run_batch(
        layout,
        X,
        seed=seed,
        streams=[2 * idx + 1 for idx in range(restarts + 1)],
        damping=damping,
        max_iters=max_iters,
        fp_tol=fp_tol,
    )
    candidates = []
    best = None
    for idx, report in enumerate(reports):
        value = report.z_b_spa
        candidates.append(
            {
                "restart": idx,
                "converged": report.converged,
                "residual": report.residual,
                "z_b_spa": value,
                "degenerate": report.degenerate,
                "iterations": report.iterations,
                "rerandomized": report.rerandomized,
            }
        )
        if report.converged and not report.degenerate and value is not None:
            if best is None or value > reports[best].z_b_spa:
                best = idx
    if best is None:
        if any(c["converged"] for c in candidates):
            raise DegenerateFixedPointError(
                "every converged fixed point has a vanishing edge normalizer"
            )
        best_residual = min(report.residual for report in reports)
        raise ConvergenceError(
            f"no SPA restart converged (best residual {best_residual:g})",
            residual=best_residual,
        )
    report = reports[best]
    report.candidates = candidates
    return layout.unpack(X[best]), report
