"""Permanents of non-negative matrices and their graphical-model
approximations: exact (inclusion-exclusion), Bethe (sum-product on the
bipartite row/column graph), scaled Sinkhorn (matrix scaling), the
degree-M refinements of both, and the closed-form degree-2 ratio.

The standing assumption on every input matrix is that some permutation
hits strictly positive entries; matrices violating it are rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import coeffs, covers, spa
from .errors import (
    ConvergenceError,
    NumericalError,
    ResourceError,
    ScalingFailureError,
    ValidationError,
)
from .nfg import EdgeDecl, LocalFunction, NormalFactorGraph

__all__ = [
    "PermResult",
    "check_matrix",
    "perm_exact",
    "perm_naive",
    "build_perm_nfg",
    "perm_bethe",
    "sinkhorn_scale",
    "perm_sinkhorn_scaled",
    "perm_bethe_degree_m",
    "perm_sinkhorn_degree_m",
    "perm_ratio_degree2",
    "cycle_count",
]

RYSER_CAP = 24
NAIVE_CAP = 9
PAIR_CAP = 7  # largest n for the pair-of-permutations sum of perm_ratio_degree2
# far above covers.EXACT_BUDGET: a lifting's Ryser permanent costs
# microseconds where a contracted cover costs milliseconds
LIFT_BUDGET = 10**6
SINKHORN_TOL = 1e-12
SINKHORN_MAX_ITERS = 10**5
BETHE_FP_TOL = 1e-11
BETHE_MAX_ITERS = 20000
DS_TOL = 1e-7  # largest row/column-sum deviation of the edge-belief matrix
CONSISTENCY_REL = 1e-7  # free-energy value against the pseudo-dual value
CROSSCHECK_REL = 1e-10  # Kronecker permanent against the coefficient sum


@dataclass
class PermResult:
    value: float
    method: str
    aux: dict = field(default_factory=dict)


def check_matrix(theta) -> np.ndarray:
    """Validate a square, finite, non-negative matrix with at least one
    supporting permutation (positive diagonal after column permutation).
    Every public function that takes a matrix runs this once."""
    # imported here so that importing the library does not load scipy.sparse
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ValidationError("matrix must be square")
    if not np.isfinite(theta).all():
        raise ValidationError("matrix has a NaN or infinite entry")
    if theta.size and theta.min() < 0:
        raise ValidationError(f"negative entry {theta.min():g}")
    n = theta.shape[0]
    if n == 0:
        raise ValidationError("matrix must be non-empty")
    match = maximum_bipartite_matching(csr_matrix(theta > 0), perm_type="column")
    if (match < 0).any():
        raise ValidationError(
            "standing assumption violated: no permutation with positive weight"
        )
    return theta


def perm_exact(a) -> float:
    """Permanent by inclusion-exclusion over column subsets, O(2^n * n)
    (`coeffs.perm_float`), for n up to `RYSER_CAP`. Signed entries are
    allowed; NaN and infinite ones are not."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValidationError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has a NaN or infinite entry")
    if n > RYSER_CAP:
        raise ResourceError(f"n = {n} exceeds the inclusion-exclusion cap {RYSER_CAP}")
    return _ryser(a)


def _ryser(a):
    """`coeffs.perm_float` of a matrix or stack. A non-negative input has
    no negative permanent: a negative sum means cancellation swamped a
    permanent below the rounding of the larger terms."""
    value = coeffs.perm_float(a)
    if np.any(value < 0) and a.min() >= 0:
        raise NumericalError(
            f"inclusion-exclusion gave {np.min(value):g} for a non-negative matrix; "
            "its permanent is below the rounding error"
        )
    return value


_PERM_CACHE: dict[int, np.ndarray] = {}


def perm_naive(a) -> float:
    """Permutation-sum oracle, O(n!), for n up to `NAIVE_CAP`."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n > NAIVE_CAP:
        raise ResourceError(f"n = {n} exceeds the naive cap {NAIVE_CAP}")
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(itertools.permutations(range(n))))
    perms = _PERM_CACHE[n]
    return float(a[np.arange(n), perms].prod(axis=1).sum())


def build_perm_nfg(theta) -> NormalFactorGraph:
    """Bipartite graph whose partition function is perm(theta): one node
    per row and per column, a binary edge per cell, each factor supported
    on the unit indicator rows with value sqrt(theta)."""
    return _perm_nfg(check_matrix(theta))


def _perm_nfg(theta):
    n = theta.shape[0]
    edges = [
        EdgeDecl(id=i * n + j, endpoints=(i, n + j), alphabet_size=2)
        for i in range(n)
        for j in range(n)
    ]
    factors = []
    # rows are nodes 0..n-1, columns n..2n-1; each node's edges run in the
    # order of the other side's index
    for node, cells in enumerate(np.vstack([theta, theta.T])):
        support = {
            tuple(int(k == m) for k in range(n)): math.sqrt(x)
            for m, x in enumerate(cells)
            if x > 0
        }
        factors.append(LocalFunction(node=node, shape=(2,) * n, sparse=support))
    return NormalFactorGraph(kind="snfg", num_nodes=2 * n, edges=edges, factors=factors)


def perm_bethe(theta, *, seed: int = 0) -> PermResult:
    """Bethe approximation via the sum-product fixed point.

    Runs the SPA on the permanent graph to `BETHE_FP_TOL` within
    `BETHE_MAX_ITERS` steps, reads the doubly stochastic matrix off the
    edge beliefs (row and column sums within `DS_TOL` of 1), and evaluates
    exp(-F) with the Bethe free energy of that matrix. The result must
    agree with the pseudo-dual value at the same fixed point within
    `CONSISTENCY_REL` relative. Damping is `spa.DAMPING_CYCLIC` for
    n >= 2, where the graph has cycles. No 2^n row or column belief table
    is built.
    """
    theta = check_matrix(theta)
    n = theta.shape[0]
    g = _perm_nfg(theta)
    mu, report = spa.spa_run(
        g, max_iters=BETHE_MAX_ITERS, fp_tol=BETHE_FP_TOL, seed=seed
    )
    if not report.converged:
        raise ConvergenceError(
            f"SPA did not converge (residual {report.residual:g})",
            residual=report.residual,
        )
    edge_b = spa.edge_beliefs(g, mu)
    gamma = np.array([[edge_b[i * n + j][1] for j in range(n)] for i in range(n)])
    # cells outside the support carry exactly zero belief at the fixed
    # point; damping leaves a vanishing residue there, which we drop
    gamma = np.where(theta > 0, np.clip(gamma, 0.0, 1.0), 0.0)
    dev = max(
        float(np.abs(gamma.sum(axis=1) - 1).max()),
        float(np.abs(gamma.sum(axis=0) - 1).max()),
    )
    if dev > DS_TOL:
        raise NumericalError(f"edge-belief matrix off doubly stochastic by {dev:g}")
    value = math.exp(-coeffs.f_bethe(theta, gamma))
    dual = report.z_b_spa
    if dual is None or abs(value - dual) > CONSISTENCY_REL * max(abs(value), 1e-300):
        raise NumericalError(
            f"free-energy value {value:g} disagrees with pseudo-dual {dual}"
        )
    return PermResult(
        value=value,
        method="bethe-spa",
        aux={"gamma": gamma, "spa_report": report, "pseudo_dual": dual},
    )


def sinkhorn_scale(theta):
    """Alternate row/column normalization until the scaled matrix is
    doubly stochastic within `SINKHORN_TOL`, for at most
    `SINKHORN_MAX_ITERS` rounds. Returns (gamma, r, c, iterations)."""
    return _sinkhorn(check_matrix(theta))


def _sinkhorn(theta):
    n = theta.shape[0]
    r = np.ones(n)
    c = np.ones(n)
    deviation = float("inf")
    for it in range(1, SINKHORN_MAX_ITERS + 1):
        # every row/column has a positive entry, so the divisors stay positive
        r = 1.0 / (theta @ c)
        c = 1.0 / (theta.T @ r)
        scaled = r[:, None] * theta * c[None, :]
        deviation = max(
            float(np.abs(scaled.sum(axis=1) - 1).max()),
            float(np.abs(scaled.sum(axis=0) - 1).max()),
        )
        if deviation <= SINKHORN_TOL:
            return scaled, r, c, it
    raise ScalingFailureError(
        f"matrix scaling stalled after {SINKHORN_MAX_ITERS} iterations "
        f"(deviation {deviation:g})",
        residual=deviation,
    )


def perm_sinkhorn_scaled(theta) -> PermResult:
    """Scaled Sinkhorn approximation: exp(-F) at the scaled matrix, where
    the entropy term is -n - sum g*log(g)."""
    theta = check_matrix(theta)
    gamma, r, c, iterations = _sinkhorn(theta)
    value = math.exp(-coeffs.f_scaled_sinkhorn(theta, gamma))
    return PermResult(
        value=value,
        method="scaled-sinkhorn",
        aux={"gamma": gamma, "row_scaling": r, "col_scaling": c, "iterations": iterations},
    )


# -- degree-M refinements --------------------------------------------------


def _lifted_matrices(theta, blocks):
    """Liftings of theta, [B, nM, nM], one per stack entry of block
    permutations blocks[b, i*n + j] (the permutation of block (i, j))."""
    n = theta.shape[0]
    B, _, M = blocks.shape
    onehot = blocks.reshape(B, n, n, M, 1) == np.arange(M)  # [b, i, j, row, col]
    lifted = theta[:, :, None, None] * onehot
    return lifted.transpose(0, 1, 3, 2, 4).reshape(B, n * M, n * M)


def _mth_root(power, M):
    """The M-th root of an average lifted permanent. check_matrix gives
    every lifting a positive permutation, so power <= 0 is rounding noise."""
    if not power > 0:
        raise NumericalError(
            f"lifted permanent average {power:g} is not positive; "
            "the permanent is below the rounding error"
        )
    return power ** (1.0 / M)


def _coeff_sum(theta, M, coefficient):
    """Log-domain sum of theta^(M*gamma) * coefficient(gamma) over the
    scaled doubly stochastic matrices supported on theta. Every weight is
    a positive product of factorial ratios; the sum is formed as scipy's
    logsumexp forms it, without importing scipy.special."""
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    support = theta > 0
    log_theta = np.where(support, np.log(np.where(support, theta, 1.0)), 0.0)
    logs = []
    weights = []
    for gm in coeffs.enumerate_gamma(n, M, support=support):
        k = np.array(gm.counts, dtype=float)
        logs.append(float((k * log_theta).sum()))
        weights.append(float(coefficient(gm)))
    if not logs:
        return 0.0
    logs, weights = np.array(logs), np.array(weights)
    top = logs.max()
    at_top = logs == top
    m = (weights * at_top).sum()
    s = np.where(at_top, 0.0, weights * np.exp(logs - top)).sum() / m
    return math.exp(np.log1p(s) + np.log(m) + top)


def perm_bethe_degree_m(
    theta,
    M: int,
    mode: str = "auto",
    *,
    seed: int = 0,
    samples: int = 2000,
) -> PermResult:
    """Degree-M Bethe permanent: the M-th root of the average permanent
    over all block-permutation liftings.

    A lifting is an M-cover of `build_perm_nfg(theta)`, its block (i, j)
    the permutation of edge i*n + j, and its permanent is that cover's
    partition function. ``lift`` and ``mc`` average through the covers
    module's loop, one Ryser call per chunk of stacked liftings: ``lift``
    enumerates all (M!)^(n^2) liftings, at most `LIFT_BUDGET`, with no
    edge fixed; ``mc`` samples `samples` random ones. ``coeff`` evaluates
    the equivalent coefficient expansion (exact, and usually far cheaper).
    ``auto`` = coeff.
    """
    theta = check_matrix(theta)
    if M < 1:
        raise ValidationError("M must be >= 1")
    if mode == "auto":
        mode = "coeff"
    if mode == "coeff":
        power = _coeff_sum(theta, M, coeffs.coeff_bethe)
        return PermResult(
            value=_mth_root(power, M),
            method="degree-m-bethe-coeff",
            aux={"power": power},
        )
    if mode not in ("lift", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    g = _perm_nfg(theta)
    loose = range(g.num_edges) if mode == "lift" else None

    def values(chunk):
        return _ryser(_lifted_matrices(theta, np.array(chunk)))

    acc = covers._average(g, M, loose, LIFT_BUDGET, "coeff or mc", samples, seed, values)
    power = acc.mean
    if mode == "lift":
        aux = {"power": power, "liftings": acc.count}
    else:
        aux = {"power": power, "stderr": acc.stderr, "samples": samples}
    return PermResult(
        value=_mth_root(power, M), method=f"degree-m-bethe-{mode}", aux=aux
    )


def perm_sinkhorn_degree_m(theta, M: int, *, crosscheck: str = "auto") -> PermResult:
    """Degree-M scaled Sinkhorn permanent: the M-th root of the permanent
    of theta Kronecker the MxM all-(1/M) matrix.

    When cheap, the coefficient expansion is evaluated as an independent
    cross-check of the same value, which must agree within
    `CROSSCHECK_REL` relative.
    """
    theta = check_matrix(theta)
    n = theta.shape[0]
    if M < 1:
        raise ValidationError("M must be >= 1")
    if n * M > RYSER_CAP:
        raise ResourceError(f"lifted size {n * M} exceeds the cap {RYSER_CAP}")
    u = np.full((M, M), 1.0 / M)
    lifted = np.kron(np.asarray(theta, dtype=float), u)
    power = perm_exact(lifted)
    aux = {"power": power}
    if crosscheck == "always" or (crosscheck == "auto" and n <= 3 and M <= 4):
        other = _coeff_sum(theta, M, coeffs.coeff_scaled_sinkhorn)
        aux["coeff_power"] = other
        # the inclusion-exclusion sum cancels down from terms of size
        # ~ prod(row sums), so grant an absolute floor at that scale
        floor = 1e-13 * float(np.prod(lifted.sum(axis=1))) if n * M else 0.0
        if abs(other - power) > CROSSCHECK_REL * abs(power) + floor:
            raise NumericalError(
                f"Kronecker value {power:g} disagrees with coefficient sum {other:g}"
            )
    return PermResult(
        value=_mth_root(power, M), method="degree-m-scaled-sinkhorn", aux=aux
    )


# -- degree-2 closed form ----------------------------------------------------


def cycle_count(sigma1, sigma2) -> int:
    """Number of cycles of length > 1 of sigma1 composed with the inverse
    of sigma2."""
    n = len(sigma1)
    inv2 = [0] * n
    for i, v in enumerate(sigma2):
        inv2[v] = i
    tau = [sigma1[inv2[i]] for i in range(n)]
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = tau[i]
            length += 1
        if length > 1:
            count += 1
    return count


def perm_ratio_degree2(theta) -> float:
    """perm / degree-2 Bethe permanent from the pair-of-permutations sum:
    the inverse square root of E[2^(-cycles)] under the matrix-induced
    permutation distribution, for n up to `PAIR_CAP`."""
    theta = check_matrix(theta)
    n = theta.shape[0]
    if n > PAIR_CAP:
        raise ResourceError(f"n = {n} exceeds the pair-enumeration cap {PAIR_CAP}")
    perms = list(itertools.permutations(range(n)))
    weights = np.array([float(np.prod(theta[np.arange(n), p])) for p in perms])
    total_weight = weights.sum()
    if total_weight <= 0:
        raise ValidationError("matrix permanent is zero")
    probs = weights / total_weight
    acc = 0.0
    for i1, s1 in enumerate(perms):
        if probs[i1] == 0:
            continue
        for i2, s2 in enumerate(perms):
            if probs[i2] == 0:
                continue
            acc += probs[i1] * probs[i2] * 2.0 ** (-cycle_count(s1, s2))
    return acc ** -0.5
