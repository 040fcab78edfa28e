"""Normal factor graphs with variables on edges and factors on nodes.

Two kinds are supported. Classical graphs ("snfg") carry non-negative
real tables. Double-edge graphs ("denfg") carry complex tables over
paired symbols: the variable of edge `e` with alphabet size `d` ranges
over the d*d pairs (x, x'), stored as the single index x*d + x'. A
double-edge table, read as a matrix with unprimed row multi-index and
primed column multi-index, is its Choi matrix; strict-sense graphs have
every Choi matrix Hermitian PSD, weak-sense only Hermitian.

Every edge joins exactly two distinct nodes (i, j) with i < j. Half
edges are out of scope: terminate them with a constant-1 factor before
building the graph.

This module owns the structural facts every other module reads off a
graph: the spanning forest (and from it the cycle rank and acyclicity),
the Choi view of a double-edge table and its inverse, the dtype of a
graph's tables, and, through `contraction.MAX_TABLE_ENTRIES`, the entry
budget of any table built from them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .contraction import MAX_TABLE_ENTRIES, contract_network
from .errors import NumericalError, ResourceError, StructuralError

__all__ = [
    "EdgeDecl",
    "LocalFunction",
    "NormalFactorGraph",
    "ValidationReport",
    "validate_graph",
    "global_value",
    "partition_function_exact",
    "enumerate_configurations",
    "partition_function_bruteforce",
]

HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-9
Z_IMAG_TOL = 1e-10
ENUMERATION_CAP = 10**6

# Dense tables beyond this size with sparse-enough support are kept sparse.
SPARSE_ENTRY_THRESHOLD = 4096
SPARSE_SUPPORT_FRACTION = 0.01


@dataclass(frozen=True)
class EdgeDecl:
    """A full edge: identifier, ordered endpoints (i < j), alphabet size."""

    id: int
    endpoints: tuple[int, int]
    alphabet_size: int

    def __post_init__(self):
        i, j = self.endpoints
        if i == j:
            raise StructuralError(f"edge {self.id}: endpoints must be distinct")
        if not i < j:
            raise StructuralError(f"edge {self.id}: endpoints must satisfy i < j")
        if self.alphabet_size < 1:
            raise StructuralError(f"edge {self.id}: alphabet size must be >= 1")


class LocalFunction:
    """Value table of one node over its incident edge variables.

    The table axes follow the node's incident edges sorted by edge id.
    Either a dense array or a sparse mapping {configuration: value} is
    stored; sparse is preferred automatically for large, mostly-zero
    tables (the permanent graph's row/column factors have n support
    points out of 2^n). Either way, `support()` gives the same arrays.
    """

    __slots__ = ("node", "shape", "dense", "sparse", "_support")

    def __init__(self, node, shape, dense=None, sparse=None):
        self.node = node
        self.shape = tuple(int(s) for s in shape)
        if (dense is None) == (sparse is None):
            raise StructuralError("exactly one of dense/sparse is required")
        if dense is not None:
            dense = np.asarray(dense)
            if dense.shape != self.shape:
                raise StructuralError(
                    f"node {node}: table shape {dense.shape} does not match "
                    f"incident alphabets {self.shape}"
                )
            size = dense.size
            if size > SPARSE_ENTRY_THRESHOLD:
                nnz = int(np.count_nonzero(dense))
                if nnz <= SPARSE_SUPPORT_FRACTION * size:
                    sparse = {
                        tuple(int(c) for c in cfg): dense[cfg]
                        for cfg in zip(*np.nonzero(dense))
                    }
                    dense = None
        if sparse is not None:
            for cfg in sparse:
                if len(cfg) != len(self.shape) or any(
                    not 0 <= c < s for c, s in zip(cfg, self.shape)
                ):
                    raise StructuralError(f"node {node}: bad sparse config {cfg}")
        self.dense = dense
        self.sparse = dict(sparse) if sparse is not None else None
        self._support = None

    @property
    def is_sparse(self):
        return self.dense is None

    def as_dense(self, dtype=None):
        if self.dense is not None:
            return self.dense if dtype is None else self.dense.astype(dtype)
        out = np.zeros(self.shape, dtype=dtype or complex)
        for cfg, val in self.sparse.items():
            out[cfg] = val
        return out

    def value(self, cfg):
        if self.dense is not None:
            return self.dense[tuple(cfg)]
        return self.sparse.get(tuple(cfg), 0.0)

    def support(self):
        """Non-zero support as (configs [S, k] intp, values [S]), in
        row-major configuration order whichever storage holds the table.
        Computed on first use and kept on the factor."""
        if self._support is None:
            if self.sparse is not None:
                items = sorted((c, v) for c, v in self.sparse.items() if v != 0)
                configs = np.array([cfg for cfg, _ in items], dtype=np.intp)
                configs = configs.reshape(len(items), len(self.shape))
                values = np.array([val for _, val in items])
            else:
                configs = np.argwhere(self.dense)
                values = self.dense[self.dense != 0]
            self._support = (configs, values)
        return self._support


@dataclass
class NormalFactorGraph:
    """kind, node count, edges (kept sorted by id), one factor per node."""

    kind: str
    num_nodes: int
    edges: list[EdgeDecl]
    factors: list[LocalFunction]
    _incident: list[tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("snfg", "denfg"):
            raise StructuralError(f"unknown graph kind {self.kind!r}")
        # checked before anything is sized by num_nodes
        if len(self.factors) != self.num_nodes:
            raise StructuralError("need exactly one local function per node")
        self.edges = sorted(self.edges, key=lambda e: e.id)
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise StructuralError("duplicate edge ids")
        incident: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for pos, e in enumerate(self.edges):
            for v in e.endpoints:
                if not 0 <= v < self.num_nodes:
                    raise StructuralError(f"edge {e.id}: endpoint {v} out of range")
                incident[v].append(pos)
        self._incident = [tuple(lst) for lst in incident]
        by_node = sorted(self.factors, key=lambda f: f.node)
        if [f.node for f in by_node] != list(range(self.num_nodes)):
            raise StructuralError("factor node ids must cover 0..num_nodes-1")
        self.factors = by_node
        for f in self.factors:
            expected = tuple(self.var_card(p) for p in self._incident[f.node])
            if f.shape != expected:
                raise StructuralError(
                    f"node {f.node}: table shape {f.shape} does not match "
                    f"incident alphabets {expected}"
                )

    # -- structure ---------------------------------------------------------

    @property
    def is_classical(self):
        return self.kind == "snfg"

    @property
    def dtype(self):
        """The dtype of every table of the graph."""
        return float if self.is_classical else complex

    @property
    def num_edges(self):
        return len(self.edges)

    def incident(self, node):
        """Edge positions incident on `node`, sorted by edge id."""
        return self._incident[node]

    def var_card(self, pos):
        d = self.edges[pos].alphabet_size
        return d if self.is_classical else d * d

    def var_cards(self):
        return [self.var_card(p) for p in range(self.num_edges)]

    def edge_pair(self, pos, symbol):
        """Decode a double-edge symbol index into its (x, x') pair."""
        d = self.edges[pos].alphabet_size
        return divmod(int(symbol), d)

    @property
    def cycle_rank(self):
        return self.num_edges - len(spanning_forest(self))

    @property
    def is_acyclic(self):
        return self.cycle_rank == 0

    # -- local function views ----------------------------------------------

    def choi_matrix(self, node):
        """Choi matrix of a double-edge factor: rows indexed by the
        unprimed multi-index, columns by the primed one, lexicographic
        over incident edges in declared order."""
        if self.is_classical:
            raise StructuralError("Choi matrices exist only for double-edge graphs")
        dims = [self.edges[p].alphabet_size for p in self.incident(node)]
        return table_to_choi(self.factors[node].as_dense(complex), dims)


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


def table_to_choi(table, dims) -> np.ndarray:
    """Choi view of a table over paired symbols, one axis of d*d pairs
    (x, x') per entry d of `dims`: rows indexed by the unprimed halves,
    columns by the primed halves, both lexicographic in axis order."""
    k = len(dims)
    split = table.reshape([d for d in dims for _ in (0, 1)])
    perm = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))
    return split.transpose(perm).reshape(math.prod(dims), -1)


def choi_to_table(choi, dims) -> np.ndarray:
    """The inverse of `table_to_choi`: axes are per-edge symbol pairs."""
    k = len(dims)
    split = choi.reshape(list(dims) * 2)
    perm = [a for pair in zip(range(k), range(k, 2 * k)) for a in pair]
    return split.transpose(perm).reshape([d * d for d in dims])


@dataclass
class ValidationReport:
    ok: bool
    strict_sense: bool
    issues: list[str]
    hermitian_deviation: dict[int, float]
    min_eigenvalue: dict[int, float]


def validate_graph(g: NormalFactorGraph) -> ValidationReport:
    """Check value-level invariants: non-negativity for classical tables,
    Hermitian (and, strict-sense, PSD) Choi matrices for double-edge ones.

    Structural invariants are enforced at construction; this reports the
    numeric ones without raising. A Choi matrix counts as Hermitian
    within `HERMITIAN_TOL`, and as PSD when no eigenvalue lies below
    `-PSD_TOL` times the larger of 1 and its trace.
    """
    issues = []          # violations of validity (shape/negativity/Hermitian)
    psd_issues = []      # violations of strict sense only
    herm_dev: dict[int, float] = {}
    min_eig: dict[int, float] = {}
    if g.is_classical:
        for f in g.factors:
            _, values = f.support()
            if np.iscomplexobj(values):
                issues.append(f"node {f.node}: complex values in a classical table")
            elif values.size and values.min() < 0:
                issues.append(f"node {f.node}: negative value {values.min():g}")
    else:
        for node in range(g.num_nodes):
            choi = g.choi_matrix(node)
            dev = float(np.abs(choi - choi.conj().T).max()) if choi.size else 0.0
            herm_dev[node] = dev
            if dev > HERMITIAN_TOL:
                issues.append(f"node {node}: Hermitian deviation {dev:g}")
                continue
            herm = (choi + choi.conj().T) / 2
            eigs = np.linalg.eigvalsh(herm)
            low = float(eigs.min()) if eigs.size else 0.0
            min_eig[node] = low
            scale = max(1.0, abs(float(np.trace(herm).real)))
            if low < -PSD_TOL * scale:
                psd_issues.append(
                    f"node {node}: Choi matrix not PSD (min eig {low:g})"
                )
    return ValidationReport(
        ok=not issues,
        strict_sense=not issues and not psd_issues,
        issues=issues + psd_issues,
        hermitian_deviation=herm_dev,
        min_eigenvalue=min_eig,
    )


def is_strict_sense(g: NormalFactorGraph) -> bool:
    return validate_graph(g).strict_sense


def global_value(g: NormalFactorGraph, config):
    """Product of local-function values at the configuration (one symbol
    index per edge, in edge order)."""
    if len(config) != g.num_edges:
        raise StructuralError("configuration length must equal the edge count")
    result = 1.0
    for f in g.factors:
        sub = tuple(int(config[p]) for p in g.incident(f.node))
        result = result * f.value(sub)
        if result == 0:
            return result
    return result


def enumerate_configurations(g: NormalFactorGraph, cap: int = ENUMERATION_CAP):
    """All configurations in lexicographic order over edges as declared."""
    cards = g.var_cards()
    total = math.prod(cards) if cards else 1
    if total > cap:
        raise ResourceError(
            f"{total} configurations exceed the enumeration cap {cap}"
        )
    return itertools.product(*(range(c) for c in cards))


def partition_function_bruteforce(g: NormalFactorGraph):
    """Configuration-sum oracle over at most `ENUMERATION_CAP`
    configurations; use only on small graphs."""
    return sum(global_value(g, cfg) for cfg in enumerate_configurations(g))


def partition_function_exact(
    g: NormalFactorGraph,
    *,
    order=None,
    max_table_entries: int = MAX_TABLE_ENTRIES,
    check_strict: bool | None = None,
):
    """Z(N) by variable elimination (greedy min-fill, deterministic ties).

    Classical graphs return a float; double-edge graphs return a complex
    number. For strict-sense double-edge graphs the result must be real
    non-negative up to `Z_IMAG_TOL`; violations raise NumericalError.
    `check_strict=None` tests strictness on demand, True/False forces it.
    """
    cards = {pos: g.var_card(pos) for pos in range(g.num_edges)}
    scopes = [g.incident(f.node) for f in g.factors]
    tensors = [f.as_dense(g.dtype) for f in g.factors]
    z = contract_network(
        scopes, tensors, cards, order=order, max_table_entries=max_table_entries
    )
    if g.is_classical:
        return float(z)
    z = complex(z)
    strict = is_strict_sense(g) if check_strict is None else check_strict
    if strict:
        bound = Z_IMAG_TOL * (1.0 + abs(z))
        if abs(z.imag) > bound:
            raise NumericalError(
                f"strict-sense graph with |Im Z| = {abs(z.imag):g} > {bound:g}"
            )
        if z.real < -Z_IMAG_TOL:
            raise NumericalError(f"strict-sense graph with Re Z = {z.real:g} < 0")
    return z
