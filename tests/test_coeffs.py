import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bethe.coeffs import (
    GammaMatrix,
    chi,
    coeff_bethe,
    coeff_bethe_recursive,
    coeff_count,
    coeff_count_direct,
    coeff_scaled_sinkhorn,
    coeff_scaled_sinkhorn_recursive,
    enumerate_gamma,
    enumerate_support_perms,
    f_bethe,
    fractional_support,
    h_bethe,
    h_gibbs_2x2,
    h_scaled_sinkhorn,
    pascal_triangles,
    peel,
    perm_float,
    u_average_energy,
)
from bethe.errors import ValidationError
from bethe.perm import cycle_count
from bethe.rng import seeded_rng


def gamma2(k1, k2):
    return GammaMatrix(((k1, k2), (k2, k1)), k1 + k2)


def perm_pair_matrix(sigma1, sigma2, n):
    counts = [[0] * n for _ in range(n)]
    for i in range(n):
        counts[i][sigma1[i]] += 1
        counts[i][sigma2[i]] += 1
    return GammaMatrix(tuple(tuple(r) for r in counts), 2)


class TestEnumeration:
    @pytest.mark.parametrize("n, M", [(-1, 3), (0, 3), (2, 0), (2, -2)])
    def test_bad_size_rejected_at_call(self, n, M):
        with pytest.raises(ValidationError):
            enumerate_gamma(n, M)  # before any matrix is drawn

    def test_n2_counts(self):
        for M in (1, 2, 3, 5):
            assert sum(1 for _ in enumerate_gamma(2, M)) == M + 1

    def test_32_bruteforce(self):
        expected = 0
        for flat in itertools.product(range(3), repeat=9):
            k = np.array(flat).reshape(3, 3)
            if (k.sum(axis=0) == 2).all() and (k.sum(axis=1) == 2).all():
                expected += 1
        got = list(enumerate_gamma(3, 2))
        assert len(got) == expected == 21

    def test_support_mask(self):
        mask = np.ones((2, 2), dtype=bool)
        mask[0, 1] = False
        out = list(enumerate_gamma(2, 2, support=mask))
        assert len(out) == 1
        assert out[0].counts == ((2, 0), (0, 2))

    def test_lexicographic_unique(self):
        flat = [tuple(k for row in gm.counts for k in row) for gm in enumerate_gamma(3, 2)]
        assert flat == sorted(flat) and len(set(flat)) == len(flat)


class TestCountCoefficient:
    def test_triangle_values(self):
        assert coeff_count(gamma2(1, 2)) == 3
        assert coeff_count(gamma2(1, 1)) == 2
        assert coeff_count(gamma2(2, 0)) == 1

    @pytest.mark.parametrize("n,M", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_recursion_equals_direct(self, n, M):
        for gm in enumerate_gamma(n, M):
            assert coeff_count(gm) == coeff_count_direct(gm)

    def test_pair_of_permutations_cycle_formula(self):
        for n in (2, 3, 4):
            for sigma1 in itertools.permutations(range(n)):
                for sigma2 in itertools.permutations(range(n)):
                    gm = perm_pair_matrix(sigma1, sigma2, n)
                    assert coeff_count(gm) == 2 ** cycle_count(sigma1, sigma2)
                    assert coeff_bethe(gm) == 1


class TestBetheCoefficient:
    def test_m1_is_one(self):
        for gm in enumerate_gamma(3, 1):
            assert coeff_bethe(gm) == 1

    def test_n2_all_ones_through_m3(self):
        for M in (1, 2, 3):
            for k2 in range(M + 1):
                assert coeff_bethe(gamma2(M - k2, k2)) == 1

    @pytest.mark.parametrize("n,M", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_recursion_reproduces_closed_form(self, n, M):
        for gm in enumerate_gamma(n, M):
            closed = float(coeff_bethe(gm))
            assert coeff_bethe_recursive(gm) == pytest.approx(closed, rel=1e-12)


class TestScaledSinkhornCoefficient:
    def test_triangle_values(self):
        assert coeff_scaled_sinkhorn(gamma2(2, 0)) == Fraction(1, 4)
        assert coeff_scaled_sinkhorn(gamma2(2, 1)) == Fraction(4, 9)
        assert coeff_scaled_sinkhorn(gamma2(1, 1)) == 1
        assert coeff_scaled_sinkhorn(gamma2(3, 0)) == Fraction(4, 81)

    def test_chi(self):
        assert chi(2) == 2.0
        assert chi(10) < math.e < 2.8
        values = [chi(M) for M in range(2, 30)]
        assert values == sorted(values)

    @pytest.mark.parametrize("n,M", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_recursion_reproduces_closed_form(self, n, M):
        for gm in enumerate_gamma(n, M):
            closed = float(coeff_scaled_sinkhorn(gm))
            assert coeff_scaled_sinkhorn_recursive(gm) == pytest.approx(
                closed, rel=1e-12
            )

    def test_count_recursion_identity(self):
        # C_M(gamma) = sum over supported permutations of C_{M-1}(peel)
        for gm in enumerate_gamma(3, 3):
            total = sum(
                coeff_count(peel(gm, sigma))
                for sigma in enumerate_support_perms(gm)
            )
            assert total == coeff_count(gm)


class TestBounds:
    @pytest.mark.parametrize("n,M", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_coefficient_ratio_bounds(self, n, M):
        for gm in enumerate_gamma(n, M):
            c = coeff_count(gm)
            cb = coeff_bethe(gm)
            cs = coeff_scaled_sinkhorn(gm)
            ratio_b = c / cb
            assert 1 - 1e-12 <= ratio_b <= (2 ** (n / 2)) ** (M - 1) * (1 + 1e-12)
            ratio_s = float(Fraction(c) / cs)
            lo = (M**M / math.factorial(M)) ** n * (
                math.factorial(n) / n**n
            ) ** (M - 1)
            hi = (M**M / math.factorial(M)) ** n
            assert lo * (1 - 1e-12) <= ratio_s <= hi * (1 + 1e-12)

    def test_van_der_waerden_on_enumerated_gammas(self):
        for n, M in [(2, 3), (3, 2), (3, 3)]:
            for gm in enumerate_gamma(n, M):
                p = perm_float(gm.gamma())
                assert math.factorial(n) / n**n - 1e-12 <= p <= 1 + 1e-12


class TestFractionalSupport:
    def test_worked_example(self):
        gamma = np.array(
            [[3, 0, 0, 0], [0, 0, 3, 0], [0, 1, 0, 2], [0, 2, 0, 1]]
        ) / 3.0
        fs = fractional_support(gamma)
        # rows/cols are 0-based; the worked values are {3,4} and {2,4} 1-based
        assert {i + 1 for i in fs.rows} == {3, 4}
        assert {j + 1 for j in fs.cols} == {2, 4}
        assert fs.r == 2
        assert np.abs(fs.gamma_hat - 1.0).max() < 1e-12
        assert fs.perm_hat == pytest.approx(2.0, rel=1e-12)

    def test_permutation_matrix(self):
        fs = fractional_support(np.eye(3))
        assert fs.rows == () and fs.cols == () and fs.r == 0
        assert fs.perm_hat == 1.0

    def test_half_j2(self):
        fs = fractional_support(np.full((2, 2), 0.5))
        assert fs.rows == (0, 1) and fs.cols == (0, 1)
        assert np.abs(fs.gamma_hat - 1.0).max() < 1e-12
        assert fs.perm_hat == pytest.approx(2.0)

    def test_r_never_one(self):
        rng = seeded_rng(30, 0)
        from bethe.perm import sinkhorn_scale

        for k in range(20):
            theta = rng.uniform(size=(4, 4)) + 0.05
            gamma, *_ = sinkhorn_scale(theta)
            assert fractional_support(gamma).r != 1

    def test_gamma_hat_permanent_bounds(self):
        # doubly stochastic inputs give 1 <= perm(gamma_hat) <= 2^(n/2)
        for gm in enumerate_gamma(3, 3):
            fs = fractional_support(gm.gamma())
            if fs.r:
                assert 1 - 1e-9 <= fs.perm_hat <= 2 ** (3 / 2) + 1e-9


class TestPeel:
    def test_worked_example_first_choice(self):
        gm = GammaMatrix(((3, 0, 0, 0), (0, 0, 3, 0), (0, 1, 0, 2), (0, 2, 0, 1)), 3)
        out = peel(gm, (0, 2, 1, 3))
        assert out.M == 2
        assert out.counts == ((2, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (0, 2, 0, 0))

    def test_worked_example_second_choice(self):
        gm = GammaMatrix(((3, 0, 0, 0), (0, 0, 3, 0), (0, 1, 0, 2), (0, 2, 0, 1)), 3)
        out = peel(gm, (0, 2, 3, 1))
        assert out.counts == ((2, 0, 0, 0), (0, 0, 2, 0), (0, 1, 0, 1), (0, 1, 0, 1))

    def test_m2_pair_peel(self):
        gm = perm_pair_matrix((0, 1, 2), (1, 2, 0), 3)
        out = peel(gm, (0, 1, 2))
        assert out.M == 1
        assert out.counts == ((0, 1, 0), (0, 0, 1), (1, 0, 0))

    def test_unsupported_sigma_rejected(self):
        gm = gamma2(2, 0)
        with pytest.raises(ValueError):
            peel(gm, (1, 0))


class TestEntropies:
    def test_permutation_matrix(self):
        eye = np.eye(3)
        assert h_bethe(eye) == 0.0
        theta = np.diag([2.0, 3.0, 4.0])
        assert f_bethe(theta, eye) == pytest.approx(u_average_energy(theta, eye))

    def test_h_bethe_vanishes_for_2x2(self):
        for a in (0.1, 0.25, 0.5, 0.9):
            gamma = np.array([[a, 1 - a], [1 - a, a]])
            assert abs(h_bethe(gamma)) < 1e-14

    def test_scaled_sinkhorn_uniform(self):
        n = 3
        gamma = np.full((n, n), 1.0 / n)
        assert h_scaled_sinkhorn(gamma) == pytest.approx(-n + n * math.log(n))

    def test_h_gibbs_2x2_binomial_limit(self):
        # log C(M, k)/M approaches the binary entropy of k/M
        p = 0.25
        gamma = np.array([[1 - p, p], [p, 1 - p]])
        target = h_gibbs_2x2(gamma)
        errs = []
        for M in (8, 32, 128, 512):
            k = int(M * p)
            errs.append(abs(math.log(math.comb(M, k)) / M - target))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.01

    def test_asymptotic_rates(self):
        # |log C_X / M - H_X| -> 0 along M in {4, 8, 16, 32} at fixed
        # off-diagonal fraction 1/4
        p = 0.25
        gamma = np.array([[1 - p, p], [p, 1 - p]])
        diffs_c, diffs_b, diffs_s = [], [], []
        for M in (4, 8, 16, 32):
            k2 = int(M * p)
            gm = gamma2(M - k2, k2)
            diffs_c.append(
                abs(math.log(coeff_count(gm)) / M - h_gibbs_2x2(gamma))
            )
            diffs_b.append(
                abs(
                    math.log(float(coeff_bethe(gm))) / M - h_bethe(gamma)
                )
            )
            diffs_s.append(
                abs(
                    math.log(float(coeff_scaled_sinkhorn(gm))) / M
                    - h_scaled_sinkhorn(gamma)
                )
            )
        assert diffs_c[-1] < diffs_c[0]
        # the Bethe diff is identically zero for n = 2 (both sides vanish)
        assert all(d < 1e-12 for d in diffs_b)
        assert diffs_s == sorted(diffs_s, reverse=True)
        assert diffs_s[-1] < 0.2


class TestPascalTriangles:
    def test_figure_regression(self):
        rows = {(M, k1, k2): (c, cb, cs) for M, k1, k2, c, cb, cs in pascal_triangles(3)}
        assert rows[(3, 1, 2)][0] == 3
        assert rows[(2, 1, 1)][0] == 2
        assert all(rows[key][1] == 1 for key in rows)
        assert rows[(2, 2, 0)][2] == Fraction(1, 4)
        assert rows[(3, 2, 1)][2] == Fraction(4, 9)
        assert rows[(2, 1, 1)][2] == 1
        assert rows[(3, 3, 0)][2] == Fraction(4, 81)
        assert rows[(0, 0, 0)] == (1, Fraction(1), Fraction(1))

    def test_negative_degree_rejected(self):
        assert len(pascal_triangles(0)) == 1
        with pytest.raises(ValidationError):
            pascal_triangles(-1)
