"""Coefficient families for the expansions of perm^M, the degree-M Bethe
permanent^M, and the degree-M scaled Sinkhorn permanent^M over scaled
doubly stochastic integer matrices, together with their peel-one-
permutation recursions, the fractional-support reduction, and the
entropy functions that give the large-M exponents.

A matrix gamma with row and column sums 1 and entries in (1/M)*Z is
stored as its integer count matrix K = M*gamma. Counting coefficients
are exact big integers; the Bethe and scaled Sinkhorn coefficients are
exact rationals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ResourceError, ValidationError

__all__ = [
    "GammaMatrix",
    "FractionalSupport",
    "enumerate_gamma",
    "enumerate_support_perms",
    "peel",
    "coeff_count",
    "coeff_count_direct",
    "coeff_bethe",
    "coeff_bethe_recursive",
    "coeff_scaled_sinkhorn",
    "coeff_scaled_sinkhorn_recursive",
    "chi",
    "fractional_support",
    "perm_float",
    "h_bethe",
    "h_scaled_sinkhorn",
    "h_gibbs_2x2",
    "u_average_energy",
    "f_bethe",
    "f_scaled_sinkhorn",
    "pascal_triangles",
]

DIRECT_BUDGET = 10**7
ENUM_BUDGET = 10**7
FRACTIONAL_ATOL = 1e-12  # entries within this of 0 or 1 count as integral
TERM_CHUNK = 1 << 16  # Ryser terms per numpy step, bounding its memory


@dataclass(frozen=True)
class GammaMatrix:
    """Integer matrix K with all row and column sums equal to M; the
    represented doubly stochastic matrix is K/M."""

    counts: tuple[tuple[int, ...], ...]
    M: int

    def __post_init__(self):
        n = len(self.counts)
        if any(len(row) != n for row in self.counts):
            raise ValueError("count matrix must be square")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        for row in self.counts:
            if any(k < 0 or k > self.M for k in row):
                raise ValueError("entries must lie in [0, M]")
            if sum(row) != self.M:
                raise ValueError(f"row sum {sum(row)} != {self.M}")
        for j in range(n):
            col = sum(row[j] for row in self.counts)
            if col != self.M:
                raise ValueError(f"column sum {col} != {self.M}")

    @property
    def n(self):
        return len(self.counts)

    def gamma(self) -> np.ndarray:
        return np.array(self.counts, dtype=float) / self.M

    @staticmethod
    def from_array(k, M):
        return GammaMatrix(tuple(tuple(int(x) for x in row) for row in k), M)


def enumerate_gamma(n, M, support=None):
    """All integer matrices with row/column sums M, lexicographic in the
    flattened entries. `support` (boolean matrix) forces zeros outside it.
    Raises ValidationError at once unless n, M >= 1, and ResourceError
    past `ENUM_BUDGET` matrices."""
    if n < 1 or M < 1:
        raise ValidationError(f"need n >= 1 and M >= 1, got n = {n}, M = {M}")
    if support is not None:
        support = [[bool(x) for x in row] for row in support]
    produced = 0
    col_left = [M] * n
    rows: list[tuple[int, ...]] = []

    def fill_row(i):
        nonlocal produced
        if i == n:
            if all(c == 0 for c in col_left):
                produced += 1
                if produced > ENUM_BUDGET:
                    raise ResourceError(
                        f"more than {ENUM_BUDGET} matrices with row/column sums {M}"
                    )
                yield GammaMatrix(tuple(rows), M)
            return
        remaining_rows = n - i - 1
        for row in _row_fills(i, 0, M, [], remaining_rows):
            rows.append(row)
            yield from fill_row(i + 1)
            rows.pop()

    def _row_fills(i, j, left, acc, remaining_rows):
        if j == n:
            if left == 0:
                yield tuple(acc)
            return
        hi = min(left, col_left[j])
        if support is not None and not support[i][j]:
            hi = 0
        # a column must still be fillable by the rows below
        for v in range(hi + 1):
            if col_left[j] - v > remaining_rows * M:
                continue
            col_left[j] -= v
            acc.append(v)
            yield from _row_fills(i, j + 1, left - v, acc, remaining_rows)
            acc.pop()
            col_left[j] += v

    return fill_row(0)


def enumerate_support_perms(gm: GammaMatrix):
    """Permutations sigma with K[i, sigma(i)] > 0 for every row i."""
    n = gm.n
    counts = gm.counts
    out = []
    used = [False] * n
    pick = [0] * n

    def rec(i):
        if i == n:
            out.append(tuple(pick))
            return
        for j in range(n):
            if not used[j] and counts[i][j] > 0:
                used[j] = True
                pick[i] = j
                rec(i + 1)
                used[j] = False

    rec(0)
    return out


def peel(gm: GammaMatrix, sigma) -> GammaMatrix:
    """Remove one permutation from the decomposition: K - P_sigma with
    row/column sums M-1. `sigma` must hit positive entries only."""
    if gm.M < 2:
        raise ValueError("peeling requires M >= 2")
    n = gm.n
    if any(gm.counts[i][sigma[i]] <= 0 for i in range(n)):
        raise ValueError("sigma is not supported on the matrix")
    new = [list(row) for row in gm.counts]
    for i in range(n):
        new[i][sigma[i]] -= 1
    return GammaMatrix(tuple(tuple(row) for row in new), gm.M - 1)


# -- the three coefficient families --------------------------------------


def coeff_count(gm: GammaMatrix) -> int:
    """Number of ordered M-tuples of permutations averaging to the matrix.
    Computed by the peel-one recursion with memoization."""
    return _count_rec(gm.counts, gm.M)


@lru_cache(maxsize=None)
def _count_rec(counts, M):
    gm = GammaMatrix(counts, M)
    perms = enumerate_support_perms(gm)
    if M == 1:
        return len(perms)  # 1 when K is a permutation matrix, else 0
    total = 0
    for sigma in perms:
        total += _count_rec(peel(gm, sigma).counts, M - 1)
    return total


def coeff_count_direct(gm: GammaMatrix) -> int:
    """Brute-force count over all tuples in S_n^M, at most `DIRECT_BUDGET`
    of them; cross-check oracle."""
    n, M = gm.n, gm.M
    if math.factorial(n) ** M > DIRECT_BUDGET:
        raise ResourceError("direct enumeration over S_n^M exceeds budget")
    target = gm.counts
    count = 0
    for tup in itertools.product(itertools.permutations(range(n)), repeat=M):
        acc = [[0] * n for _ in range(n)]
        for sigma in tup:
            for i in range(n):
                acc[i][sigma[i]] += 1
        if tuple(tuple(row) for row in acc) == target:
            count += 1
    return count


def coeff_bethe(gm: GammaMatrix) -> Fraction:
    """(M!)^(2n - n^2) * prod (M - K_ij)! / K_ij!  (exact rational)."""
    n, M = gm.n, gm.M
    value = Fraction(math.factorial(M)) ** (2 * n - n * n)
    for row in gm.counts:
        for k in row:
            value *= Fraction(math.factorial(M - k), math.factorial(k))
    return value


def coeff_scaled_sinkhorn(gm: GammaMatrix) -> Fraction:
    """M^(-nM) * (M!)^(2n) / prod K_ij!  (exact rational)."""
    n, M = gm.n, gm.M
    value = Fraction(math.factorial(M)) ** (2 * n) / Fraction(M) ** (n * M)
    for row in gm.counts:
        for k in row:
            value /= math.factorial(k)
    return value


def chi(M: int) -> float:
    """(M/(M-1))^(M-1); equals 2 at M=2 and increases towards e."""
    if M < 2:
        raise ValueError("chi is defined for M >= 2")
    return (M / (M - 1.0)) ** (M - 1)


def coeff_bethe_recursive(gm: GammaMatrix) -> float:
    """Peel-one recursion; divides by the permanent of the reduced
    fractional-support matrix at every level. Reproduces the closed form
    to floating precision."""
    return _bethe_rec(gm.counts, gm.M)


@lru_cache(maxsize=None)
def _bethe_rec(counts, M):
    gm = GammaMatrix(counts, M)
    perms = enumerate_support_perms(gm)
    if M == 1:
        return 1.0 if perms else 0.0
    fs = fractional_support(gm.gamma())
    total = 0.0
    for sigma in perms:
        total += _bethe_rec(peel(gm, sigma).counts, M - 1)
    return total / fs.perm_hat


def coeff_scaled_sinkhorn_recursive(gm: GammaMatrix) -> float:
    """Peel-one recursion with the chi(M)^n * perm(gamma) divisor."""
    return _scs_rec(gm.counts, gm.M)


@lru_cache(maxsize=None)
def _scs_rec(counts, M):
    gm = GammaMatrix(counts, M)
    perms = enumerate_support_perms(gm)
    if M == 1:
        return 1.0 if perms else 0.0
    total = 0.0
    for sigma in perms:
        total += _scs_rec(peel(gm, sigma).counts, M - 1)
    return total / (chi(M) ** gm.n * perm_float(gm.gamma()))


# -- fractional support ---------------------------------------------------


@dataclass(frozen=True)
class FractionalSupport:
    """Rows/columns holding fractional entries (0-based), the reduced
    doubly stochastic block, and its rescaled version whose permanent
    drives the Bethe-coefficient recursion."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    r: int
    gamma_rc: np.ndarray
    gamma_hat: np.ndarray
    perm_hat: float


def fractional_support(gamma) -> FractionalSupport:
    gamma = np.asarray(gamma, dtype=float)
    frac = (gamma > FRACTIONAL_ATOL) & (gamma < 1 - FRACTIONAL_ATOL)
    rows = tuple(int(i) for i in np.nonzero(frac.any(axis=1))[0])
    cols = tuple(int(j) for j in np.nonzero(frac.any(axis=0))[0])
    r = len(rows)
    if r == 0:
        empty = np.zeros((0, 0))
        return FractionalSupport(rows, cols, 0, empty, empty, 1.0)
    block = gamma[np.ix_(rows, cols)]
    denom = np.prod(1.0 - block) ** (1.0 / r)
    hat = block * (1.0 - block) / denom
    return FractionalSupport(rows, cols, r, block, hat, perm_float(hat))


def _subset_row_sums(cols):
    """Row sums of every column subset of a stack [B, n, k], as [B, n, 2^k]
    with subset bit j standing for column j, and the subset signs
    (-1)^|S| as [2^k]."""
    sums = np.zeros(cols.shape[:2] + (1,))
    sign = np.ones(1)
    for j in range(cols.shape[2]):
        sums = np.concatenate([sums, sums + cols[:, :, j, None]], axis=-1)
        sign = np.concatenate([sign, -sign])
    return sums, sign


def perm_float(a):
    """Permanent by Ryser's inclusion-exclusion, O(2^n * n), of a matrix
    [n, n] (a float) or a stack [B, n, n] (an array). A column subset
    L | R of the two column halves has the row sums left[L] + right[R].
    Terms are summed TERM_CHUNK at a time in an order fixed by n alone,
    so a stack gets the same bits as one call per matrix."""
    a = np.asarray(a, dtype=float)
    batch = a if a.ndim == 3 else a[None]
    n = a.shape[-1]
    half = n // 2
    step_b = max(1, TERM_CHUNK >> n)  # matrices per step
    step_r = max(1, TERM_CHUNK >> half)  # right subsets per step
    out = np.empty(len(batch))
    for b in range(0, len(batch), step_b):
        left, left_sign = _subset_row_sums(batch[b : b + step_b, :, :half])
        right, right_sign = _subset_row_sums(batch[b : b + step_b, :, half:])
        inner = np.empty((len(left), right.shape[-1]))
        for r in range(0, right.shape[-1], step_r):
            part = right[:, :, r : r + step_r, None]
            terms = left_sign
            for i in range(n):
                terms = terms * (part[:, i] + left[:, i, None, :])
            inner[:, r : r + step_r] = terms.sum(axis=-1)
        out[b : b + step_b] = (inner * right_sign).sum(axis=-1)
    if n % 2:
        out = -out
    return float(out[0]) if a.ndim == 2 else out


# -- entropy / free-energy functions --------------------------------------


def _xlogx(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    mask = v > 0
    out[mask] = v[mask] * np.log(v[mask])
    return out


def h_bethe(gamma) -> float:
    """-sum g*log(g) + sum (1-g)*log(1-g); identically 0 for n = 2."""
    gamma = np.asarray(gamma, dtype=float)
    return float(-_xlogx(gamma).sum() + _xlogx(1.0 - gamma).sum())


def h_scaled_sinkhorn(gamma) -> float:
    """-n - sum g*log(g)."""
    gamma = np.asarray(gamma, dtype=float)
    return float(-gamma.shape[0] - _xlogx(gamma).sum())


def h_gibbs_2x2(gamma) -> float:
    """Max-entropy exponent for 2x2 doubly stochastic matrices: the
    decomposition into the two permutation matrices is unique, so this
    is the binary entropy of the off-diagonal weight."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (2, 2):
        raise ValueError("closed form available for n = 2 only")
    p = float(gamma[0, 1])
    return float(-_xlogx([p]).sum() - _xlogx([1.0 - p]).sum())


def u_average_energy(theta, gamma) -> float:
    """-sum gamma*log(theta); requires support(gamma) within support(theta)."""
    theta = np.asarray(theta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    mask = gamma > 0
    if np.any(theta[mask] <= 0):
        raise ValueError("gamma puts weight where theta vanishes")
    return float(-(gamma[mask] * np.log(theta[mask])).sum())


def f_bethe(theta, gamma) -> float:
    return u_average_energy(theta, gamma) - h_bethe(gamma)


def f_scaled_sinkhorn(theta, gamma) -> float:
    return u_average_energy(theta, gamma) - h_scaled_sinkhorn(gamma)


# -- n = 2 triangle tables -------------------------------------------------


def pascal_triangles(max_M: int):
    """Rows (M, k1, k2, C, C_B, C_scS) for the 2x2 matrices
    [[k1, k2], [k2, k1]] / M, k1 + k2 = M, M = 0..max_M. The M = 0 row is
    the formal unit seed that makes the recursions close."""
    if max_M < 0:
        raise ValidationError(f"need max_M >= 0, got {max_M}")
    rows = [(0, 0, 0, 1, Fraction(1), Fraction(1))]
    for M in range(1, max_M + 1):
        for k2 in range(M + 1):
            k1 = M - k2
            gm = GammaMatrix(((k1, k2), (k2, k1)), M)
            rows.append(
                (M, k1, k2, coeff_count(gm), coeff_bethe(gm), coeff_scaled_sinkhorn(gm))
            )
    return rows
