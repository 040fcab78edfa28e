"""Symmetric-subspace route to the degree-M cover average.

The average over all M-covers factorizes edge-by-edge through the
permutation-average operator P_e, which is block-constant on type
classes: P_e(u, v) = 1/|class| when u and v share a symbol composition,
else 0. Contracting the type-aggregated network gives the M-th power of
the degree-M Bethe partition function exactly; its node tables are
built one cover copy at a time (method of types), never as M-fold lifts.
Each copy step adds, per support configuration s of the node, the
current table times f(s) into the next level's flat table at the
destinations sum_a offset_a[s_a]: precomputed per-axis successor
indices times the axis's row-major stride. A step costs
(#support) * prod_a T_m(c_a) operations, with T_m(c) = num_types(c, m).
Replacing P_e by its integral representation over uniformly random
complex unit vectors gives an unbiased Monte Carlo estimator of the
same quantity. The estimator densifies each node table once per call,
after checking its size against `MAX_TABLE_ENTRIES`, and evaluates the
integrand `MC_BLOCK` samples at a time: one matrix product against the
last incident edge's vectors, then one batched contraction per further
edge. Its cost is dominated by drawing the unit vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .contraction import MAX_TABLE_ENTRIES, contract_network
from .covers import degree_m_root
from .errors import ResourceError, ValidationError
from .nfg import NormalFactorGraph
from .rng import Moments, seeded_rng

__all__ = [
    "type_of",
    "type_class_size",
    "num_types",
    "pe_value",
    "pe_matrix",
    "zbm_via_pe",
    "fubini_study_sample",
    "phi_integral_mc",
    "zbm_via_sst_mc",
    "gamma_identity_check",
    "McEstimate",
]

PE_DENSE_CAP = 64  # largest d^M for which P_e may be materialized densely
MC_CHUNK = 1 << 14  # samples per generator stream and per Moments update
MC_BLOCK = 1 << 11  # samples per integrand evaluation


@dataclass
class McEstimate:
    """Real and imaginary parts of a Monte Carlo mean with their standard
    errors (None below two samples)."""

    mean: float
    stderr: float | None
    samples: int
    imag_mean: float = 0.0
    imag_stderr: float | None = 0.0


def _estimate(acc: Moments) -> McEstimate:
    mean = complex(acc.mean)
    return McEstimate(
        mean=mean.real,
        stderr=acc.stderr,
        samples=acc.count,
        imag_mean=mean.imag,
        imag_stderr=acc.imag_stderr,
    )


# -- types ------------------------------------------------------------------


def type_of(seq, d: int) -> tuple[int, ...]:
    """Symbol counts of a sequence over alphabet range(d)."""
    counts = [0] * d
    for s in seq:
        if not 0 <= s < d:
            raise ValueError(f"symbol {s} outside range({d})")
        counts[s] += 1
    return tuple(counts)


def type_class_size(counts) -> int:
    """Number of sequences with the given symbol counts: the multinomial."""
    M = sum(counts)
    size = math.factorial(M)
    for c in counts:
        size //= math.factorial(c)
    return size


def num_types(d: int, M: int) -> int:
    """Number of compositions of M into d labelled non-negative parts."""
    return math.comb(d + M - 1, M)


def pe_value(u, v) -> Fraction:
    """Permutation-average operator entry for two length-M sequences."""
    if len(u) != len(v):
        raise ValueError("sequences must have equal length")
    d = max(itertools.chain(u, v), default=0) + 1
    tu = type_of(u, d)
    if tu != type_of(v, d):
        return Fraction(0)
    return Fraction(1, type_class_size(tu))


def _type_steps(d: int, M: int):
    """Types of length-M sequences over range(d), grown one copy at a time.

    Returns the class sizes of the level-M types and, for each level
    m < M, the successor table [num_types(d, m), d] whose entry (k, s)
    is the index at level m + 1 of type k with one more copy of symbol s.
    Every level lists its types in lexicographic order."""
    level = [(0,) * d]
    steps = []
    for _ in range(M):
        grown = [[t[:s] + (t[s] + 1,) + t[s + 1 :] for s in range(d)] for t in level]
        level = sorted({t for row in grown for t in row})
        index = {t: k for k, t in enumerate(level)}
        steps.append(np.array([[index[t] for t in row] for row in grown], dtype=np.intp))
    sizes = np.array([type_class_size(t) for t in level], dtype=float)
    return sizes, steps


def pe_matrix(d: int, M: int) -> np.ndarray:
    """Dense d^M x d^M matrix of the permutation-average operator."""
    if d**M > PE_DENSE_CAP:
        raise ResourceError(
            f"d^M = {d ** M} exceeds the dense materialization cap {PE_DENSE_CAP}"
        )
    sizes, steps = _type_steps(d, M)
    # type index of every sequence, in itertools.product order
    idx = np.zeros(1, dtype=np.intp)
    for step in steps:
        idx = step[idx].reshape(-1)
    return (idx[:, None] == idx) / sizes[idx][:, None]


# -- exact degree-M value via the type aggregation ---------------------------


def _aggregated_node_table(table, steps, M):
    """Sum of the M-fold product table over each combination of per-edge
    types, built copy by copy: A_0 = 1 and
    A_{m+1}[t] = sum_s table[s] * A_m[t - e_s].

    For a fixed configuration s the map t -> t + e_s is injective on every
    axis, so each scatter-add touches distinct entries. Its destinations
    are flat indices: the broadcast sum over axes a of the successor
    column `steps[a][m][:, s_a]` times axis a's row-major stride at level
    m + 1. A step costs (#support) * prod_a T_m(c_a). The configurations
    are added in row-major order, each as one gather-add-scatter, so every
    entry is the same sum in the same order as when the multi-dimensional
    table is indexed with `np.ix_`: the result is bit-identical to that
    form. A 0-d table gives `table ** M`."""
    support = [(tuple(s), table[tuple(s)]) for s in np.argwhere(table)]
    k = table.ndim
    acc = np.ones((1,) * k, dtype=table.dtype)
    for m in range(M):
        shape = [num_types(c, m + 1) for c in table.shape]
        # offsets[a][x]: flat offset along axis a of each level-m type plus x
        offsets = [
            (st[m] * math.prod(shape[a + 1 :])).T.reshape(
                (c,) + (1,) * a + (-1,) + (1,) * (k - 1 - a)
            )
            for a, (st, c) in enumerate(zip(steps, table.shape))
        ]
        nxt = np.zeros(math.prod(shape), dtype=table.dtype)
        for s, value in support:
            nxt[sum(off[x] for off, x in zip(offsets, s))] += value * acc
        acc = nxt.reshape(shape)
    return acc


def zbm_via_pe(
    g: NormalFactorGraph, M: int, *, max_table_entries: int = MAX_TABLE_ENTRIES
) -> float:
    """Degree-M Bethe partition function from the type-aggregated
    average-cover network (exact; no cover enumeration).

    Each node's table is aggregated to one type variable per incident
    edge (see `_aggregated_node_table`), each edge contributes its
    inverse class sizes, and the resulting network (same topology as
    `g`) is eliminated exactly. Every aggregated table is checked against
    `max_table_entries` before any is built.
    """
    if M < 1:
        raise ValidationError("M must be >= 1")
    cards = {pos: num_types(g.var_card(pos), M) for pos in range(g.num_edges)}
    scopes = [g.incident(node) for node in range(g.num_nodes)]
    for node, inc in enumerate(scopes):
        size = math.prod(cards[pos] for pos in inc)
        if size > max_table_entries:
            raise ResourceError(
                f"node {node}: type-aggregated table with {size} entries "
                f"exceeds the budget {max_table_entries}"
            )
    type_tables = {c: _type_steps(c, M) for c in set(g.var_cards())}
    tensors = [
        _aggregated_node_table(
            g.factors[node].as_dense(g.dtype),
            [type_tables[g.var_card(pos)][1] for pos in inc],
            M,
        )
        for node, inc in enumerate(scopes)
    ]
    # attach each edge's inverse class sizes at its lower endpoint
    for pos, e in enumerate(g.edges):
        node = e.endpoints[0]
        axis = scopes[node].index(pos)
        shape = [1] * tensors[node].ndim
        shape[axis] = cards[pos]
        sizes, _ = type_tables[g.var_card(pos)]
        tensors[node] = tensors[node] * (1.0 / sizes).reshape(shape)
    power = contract_network(scopes, tensors, cards, max_table_entries=max_table_entries)
    return degree_m_root(power, M)[1]


# -- Fubini-Study sampling and the Monte Carlo estimators --------------------


def fubini_study_sample(d: int, rng) -> np.ndarray:
    """One uniformly random complex unit vector of dimension d, built by
    normalizing 2d independent standard normals and pairing them into
    real/imaginary parts."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _fs_batch(d, 1, rng)[0]


def _fs_batch(d, count, rng):
    """[count, d] uniformly random complex unit vectors: 2d standard
    normals per row, normalized as `np.linalg.norm` would (without its
    overhead), then read in place as real/imaginary pairs."""
    w = rng.standard_normal((count, d, 2))
    flat = w.reshape(count, -1)
    w /= np.sqrt(np.add.reduce(flat * flat, axis=1))[:, None, None]
    return w.view(complex)[..., 0]


def phi_integral_mc(
    u,
    v,
    samples: int,
    seed: int,
    *,
    d: int | None = None,
    symmetrize: bool = False,
) -> McEstimate:
    """Monte Carlo estimate of the unit-vector integral representation of
    the permutation-average entry at (u, v).

    The integrand is |types| * prod psi(u_m) * prod conj(psi(v_m)) under
    the uniform unit-sphere measure; its mean equals `pe_value(u, v)`.
    Sampling is chunked with one generator stream per chunk, so results
    are reproducible independently of chunk scheduling.

    `symmetrize` averages each draw with its complex conjugate — an exact
    symmetry of the measure — which zeroes the imaginary part pointwise
    and removes the antisymmetric variance component. (Averaging over
    reorderings of the copies would change nothing: the copy products are
    permutation-invariant as written.)
    """
    if len(u) != len(v):
        raise ValueError("sequences must have equal length")
    if samples < 1000:
        raise ValueError("need at least 1000 samples for a usable error bar")
    M = len(u)
    if d is None:
        d = max(itertools.chain(u, v), default=0) + 1
    b = num_types(d, M)
    u = np.asarray(u)
    v = np.asarray(v)
    acc = Moments()
    for chunk_idx, start in enumerate(range(0, samples, MC_CHUNK)):
        count = min(MC_CHUNK, samples - start)
        psi = _fs_batch(d, count, seeded_rng(seed, chunk_idx))
        vals = b * psi[:, u].prod(axis=1) * psi[:, v].conj().prod(axis=1)
        if symmetrize:
            flipped = b * psi[:, u].conj().prod(axis=1) * psi[:, v].prod(axis=1)
            vals = (vals + flipped) / 2.0
        acc.add(vals)
    return _estimate(acc)


def _mc_plan(g: NormalFactorGraph):
    """Per node: its dense complex table as a [c_last, rest] matrix over
    its last incident edge, its incident edge positions, and whether each
    enters conjugated (at its upper endpoint). Each table, and all of them
    together, are checked against `MAX_TABLE_ENTRIES` before any is
    built. Also returns the rows per block, capped so that no
    [rows, rest] intermediate exceeds the budget either."""
    sizes = [math.prod(map(g.var_card, g.incident(node))) for node in range(g.num_nodes)]
    for node, size in enumerate(sizes):
        if size > MAX_TABLE_ENTRIES:
            raise ResourceError(
                f"node {node}: dense table with {size} entries exceeds "
                f"the budget {MAX_TABLE_ENTRIES}"
            )
    if sum(sizes) > MAX_TABLE_ENTRIES:
        raise ResourceError(
            f"dense tables with {sum(sizes)} entries in all exceed "
            f"the budget {MAX_TABLE_ENTRIES}"
        )
    plan = []
    for node in range(g.num_nodes):
        inc = g.incident(node)
        table = g.factors[node].as_dense(complex)
        conj = [node != g.edges[pos].endpoints[0] for pos in inc]
        plan.append((table.reshape(-1, table.shape[-1]).T, inc, conj))
    return plan, min(MC_BLOCK, MAX_TABLE_ENTRIES // max(sizes, default=1))


def _integrand(plan, psi, rows, M, flip):
    """prod over nodes of z_node ** M for one block of `rows` samples,
    where z_node contracts the node's table with its edges' vectors.
    `psi[pos]` holds the block's vectors of edge pos and their conjugates;
    each node takes the conjugates where the plan says so, or where it
    does not if `flip`."""
    prod = np.ones(rows, dtype=complex)
    for matrix, inc, conj in plan:
        vecs = [psi[pos][c != flip] for pos, c in zip(inc, conj)]
        z_node = vecs[-1] @ matrix
        for v in reversed(vecs[:-1]):
            z_node = np.einsum("zrs,zs->zr", z_node.reshape(rows, -1, v.shape[1]), v)
        prod *= z_node.reshape(-1) ** M
    return prod


def zbm_via_sst_mc(
    g: NormalFactorGraph, M: int, samples: int, seed: int, *, symmetrize: bool = False
) -> McEstimate:
    """Monte Carlo estimate of the M-th power of the degree-M Bethe
    partition function via the unit-vector integral. The returned mean
    estimates zbm_via_pe(g, M) ** M; the imaginary residue of the raw
    average is reported as a sanity statistic. `symmetrize` averages each
    draw with its conjugate (see phi_integral_mc).

    Each node's table is densified once per call, after every table has
    been checked against `MAX_TABLE_ENTRIES`. Each chunk of `MC_CHUNK`
    samples draws its vectors from its own generator stream, edge by
    edge, and is evaluated `MC_BLOCK` rows at a time (fewer if a table is
    so large that a block's intermediate would exceed the budget)."""
    if M < 1:
        raise ValidationError("M must be >= 1")
    if samples < 1:
        raise ValidationError("need at least one sample")
    plan, rows = _mc_plan(g)
    prefactor = 1.0
    for pos in range(g.num_edges):
        prefactor *= num_types(g.var_card(pos), M)

    acc = Moments()
    for chunk_idx, start in enumerate(range(0, samples, MC_CHUNK)):
        count = min(MC_CHUNK, samples - start)
        rng = seeded_rng(seed, chunk_idx)
        psi = {
            pos: _fs_batch(g.var_card(pos), count, rng)
            for pos in range(g.num_edges)
        }
        vals = np.empty(count, dtype=complex)
        for lo in range(0, count, rows):
            part = slice(lo, min(lo + rows, count))
            block = {pos: (v[part], v[part].conj()) for pos, v in psi.items()}
            n = part.stop - lo
            vals[part] = _integrand(plan, block, n, M, False)
            if symmetrize:
                vals[part] = (vals[part] + _integrand(plan, block, n, M, True)) / 2.0
        acc.add(prefactor * vals)
    return _estimate(acc)


def gamma_identity_check(k: int) -> float:
    """Relative residual of the half-integer Gamma convolution
    sum_l C(k,l) Gamma(l+1/2) Gamma(k-l+1/2) = pi * k!, evaluated in
    log space."""
    if not 0 <= k <= 30:
        raise ValueError("k must lie in [0, 30]")
    terms = [
        math.lgamma(k + 1)
        - math.lgamma(ell + 1)
        - math.lgamma(k - ell + 1)
        + math.lgamma(ell + 0.5)
        + math.lgamma(k - ell + 0.5)
        for ell in range(k + 1)
    ]
    peak = max(terms)
    lhs_log = peak + math.log(sum(math.exp(t - peak) for t in terms))
    rhs_log = math.log(math.pi) + math.lgamma(k + 1)
    return abs(math.expm1(lhs_log - rhs_log))
