import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethe import perm as perm_module
from bethe.coeffs import perm_float
from bethe.covers import degree_m_bethe
from bethe.errors import NumericalError, ResourceError, ValidationError
from bethe.nfg import partition_function_exact
from bethe.perm import (
    build_perm_nfg,
    check_matrix,
    cycle_count,
    perm_bethe,
    perm_bethe_degree_m,
    perm_exact,
    perm_naive,
    perm_ratio_degree2,
    perm_sinkhorn_degree_m,
    perm_sinkhorn_scaled,
    sinkhorn_scale,
)
from bethe.rng import seeded_rng


class TestExact:
    def test_identity(self):
        for n in (1, 3, 5):
            assert perm_exact(np.eye(n)) == pytest.approx(1.0)

    def test_all_ones(self):
        assert perm_exact(np.ones((3, 3))) == pytest.approx(6.0)

    def test_hand_2x2(self):
        assert perm_exact(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(10.0)

    def test_matches_naive(self):
        rng = seeded_rng(1, 0)
        for n in range(2, 9):
            a = rng.uniform(size=(n, n))
            assert perm_exact(a) == pytest.approx(perm_naive(a), rel=1e-12)

    def test_all_ones_factorial(self):
        # the inclusion-exclusion terms reach n^n against a sum of n!, so
        # cancellation loses digits as n grows
        for n in range(1, 21):
            assert perm_exact(np.ones((n, n))) == pytest.approx(
                math.factorial(n), rel=1e-6
            )

    def test_batch_bit_identical_to_single_calls(self):
        stack = seeded_rng(2, 0).uniform(size=(300, 7, 7))
        values = perm_float(stack)
        assert values.shape == (300,)
        assert [float(v) for v in values] == [perm_float(a) for a in stack]
        assert list(perm_float(stack[5:8])) == list(values[5:8])

    def test_negative_sum_of_nonnegative_matrix_raises(self):
        # true permanent 1e-25, far below the rounding of terms of size 1
        with pytest.raises(NumericalError):
            perm_exact(np.triu(np.ones((5, 5)), 1) + 1e-5 * np.eye(5))

    def test_cap(self):
        with pytest.raises(ResourceError):
            perm_exact(np.ones((25, 25)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_rejected(self, entry):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            perm_exact(np.array([[1.0, entry], [2.0, 3.0]]))

    def test_signed_entries_allowed(self):
        assert perm_exact(np.array([[1.0, -2.0], [2.0, 3.0]])) == -1.0

    @given(st.floats(min_value=0.1, max_value=8.0), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity_and_permutation_invariance(self, alpha, seed):
        rng = seeded_rng(seed, 3)
        n = 4
        a = rng.uniform(size=(n, n))
        base = perm_exact(a)
        assert perm_exact(alpha * a) == pytest.approx(alpha**n * base, rel=1e-10)
        p = rng.permutation(n)
        assert perm_exact(a[p, :]) == pytest.approx(base, rel=1e-10)
        assert perm_exact(a[:, p]) == pytest.approx(base, rel=1e-10)


class TestMatrixChecks:
    def test_zero_matrix_rejected(self):
        with pytest.raises(ValidationError):
            check_matrix(np.zeros((2, 2)))

    def test_zero_row_rejected(self):
        with pytest.raises(ValidationError):
            check_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            check_matrix(np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_structural_zero_ok_with_support(self):
        check_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, entry):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            check_matrix(np.array([[1.0, entry], [2.0, 3.0]]))

    def test_runs_once_per_public_call(self, monkeypatch):
        calls = []

        def counted(theta):
            calls.append(1)
            return check_matrix(theta)

        monkeypatch.setattr(perm_module, "check_matrix", counted)
        theta = np.array([[1.0, 2.0], [3.0, 4.0]])
        public_calls = {
            "build_perm_nfg": lambda: perm_module.build_perm_nfg(theta),
            "perm_bethe": lambda: perm_module.perm_bethe(theta),
            "sinkhorn_scale": lambda: perm_module.sinkhorn_scale(theta),
            "perm_sinkhorn_scaled": lambda: perm_module.perm_sinkhorn_scaled(theta),
            "degree_m coeff": lambda: perm_module.perm_bethe_degree_m(theta, 2, "coeff"),
            "degree_m lift": lambda: perm_module.perm_bethe_degree_m(theta, 2, "lift"),
            "degree_m mc": lambda: perm_module.perm_bethe_degree_m(
                theta, 2, "mc", samples=10
            ),
            "perm_sinkhorn_degree_m": lambda: perm_module.perm_sinkhorn_degree_m(theta, 2),
            "perm_ratio_degree2": lambda: perm_module.perm_ratio_degree2(theta),
        }
        for name, call in public_calls.items():
            calls.clear()
            call()
            assert len(calls) == 1, name


class TestPermGraph:
    def test_z_equals_permanent(self):
        rng = seeded_rng(3, 0)
        for n in (2, 3, 4, 5):
            theta = rng.uniform(size=(n, n)) + 0.01
            g = build_perm_nfg(theta)
            assert partition_function_exact(g) == pytest.approx(
                perm_exact(theta), rel=1e-10
            )

    def test_structure(self):
        g = build_perm_nfg(np.ones((3, 3)))
        assert g.num_nodes == 6 and g.num_edges == 9
        assert all(e.alphabet_size == 2 for e in g.edges)


class TestBethe:
    def test_diagonal_ratio_one(self):
        theta = np.diag([1.0, 2.0, 3.0, 0.5])
        res = perm_bethe(theta)
        assert perm_exact(theta) / res.value == pytest.approx(1.0, rel=1e-9)

    def test_block_worst_case(self):
        theta = np.kron(np.eye(2), np.ones((2, 2)))
        res = perm_bethe(theta)
        assert perm_exact(theta) / res.value == pytest.approx(4.0, rel=1e-4)

    def test_gurvits_bounds_random(self):
        rng = seeded_rng(6, 0)
        for k in range(100):
            n = 2 + k % 4  # n <= 5
            theta = rng.uniform(size=(n, n)) + 0.05
            res = perm_bethe(theta)
            ratio = perm_exact(theta) / res.value
            assert 1.0 - 1e-7 <= ratio <= 2 ** (n / 2) * (1 + 1e-7)

    def test_all_ones_n26_closed_form(self):
        # the 2^26-entry row/column tables are never built
        n = 26
        expected = n**n * ((n - 1) / n) ** (n * (n - 1))
        assert perm_bethe(np.ones((n, n))).value == pytest.approx(expected, rel=1e-8)

    def test_gamma_doubly_stochastic(self):
        theta = seeded_rng(7, 0).uniform(size=(4, 4)) + 0.05
        res = perm_bethe(theta)
        gamma = res.aux["gamma"]
        assert np.abs(gamma.sum(axis=0) - 1).max() < 1e-7
        assert np.abs(gamma.sum(axis=1) - 1).max() < 1e-7


class TestScaledSinkhorn:
    def test_all_ones(self):
        for n in (2, 3, 4):
            theta = np.ones((n, n))
            res = perm_sinkhorn_scaled(theta)
            gamma = res.aux["gamma"]
            assert np.abs(gamma - 1.0 / n).max() < 1e-10
            expected = math.e**n * math.factorial(n) / n**n
            assert perm_exact(theta) / res.value == pytest.approx(expected, rel=1e-9)

    def test_diagonal(self):
        theta = np.diag([1.0, 3.0, 0.25])
        res = perm_sinkhorn_scaled(theta)
        assert perm_exact(theta) / res.value == pytest.approx(math.e**3, rel=1e-9)

    def test_bounds_random(self):
        rng = seeded_rng(8, 0)
        for k in range(100):
            n = 2 + k % 4
            theta = rng.uniform(size=(n, n)) + 0.05
            res = perm_sinkhorn_scaled(theta)
            ratio = perm_exact(theta) / res.value
            lo = math.e**n * math.factorial(n) / n**n
            assert lo * (1 - 1e-7) <= ratio <= math.e**n * (1 + 1e-7)

    def test_scaling_reaches_tolerance(self):
        theta = seeded_rng(9, 0).uniform(size=(5, 5)) + 0.01
        gamma, r, c, iters = sinkhorn_scale(theta)
        assert np.abs(gamma.sum(axis=0) - 1).max() <= 1e-12
        assert np.abs(gamma.sum(axis=1) - 1).max() <= 1e-12
        assert np.abs(r[:, None] * theta * c[None, :] - gamma).max() < 1e-12


class TestDegreeM:
    def test_m1_is_permanent(self):
        theta = seeded_rng(10, 0).uniform(size=(3, 3)) + 0.1
        assert perm_bethe_degree_m(theta, 1, "coeff").value == pytest.approx(
            perm_exact(theta), rel=1e-12
        )
        assert perm_bethe_degree_m(theta, 1, "lift").value == pytest.approx(
            perm_exact(theta), rel=1e-12
        )
        assert perm_sinkhorn_degree_m(theta, 1).value == pytest.approx(
            perm_exact(theta), rel=1e-12
        )

    def test_lift_equals_coeff(self):
        rng = seeded_rng(11, 0)
        cases = [(2, 2), (2, 3), (3, 2)]
        for n, M in cases:
            theta = rng.uniform(size=(n, n)) + 0.05
            a = perm_bethe_degree_m(theta, M, "lift")
            c = perm_bethe_degree_m(theta, M, "coeff")
            assert a.value == pytest.approx(c.value, rel=1e-12)

    @pytest.mark.parametrize("n, M", [(2, 2), (2, 3)])
    def test_lift_power_is_the_cover_average(self, n, M):
        # a lifting is an M-cover of the permanent graph, its permanent
        # that cover's partition function
        theta = seeded_rng(18, n * 10 + M).uniform(size=(n, n)) + 0.05
        lift = perm_bethe_degree_m(theta, M, "lift").aux["power"]
        cover = degree_m_bethe(build_perm_nfg(theta), M, "gauge").mean_power
        assert lift == pytest.approx(cover, rel=1e-12)

    def test_kron_equals_coeff(self):
        rng = seeded_rng(12, 0)
        for n, M in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            theta = rng.uniform(size=(n, n)) + 0.05
            res = perm_sinkhorn_degree_m(theta, M, crosscheck="always")
            assert res.aux["coeff_power"] == pytest.approx(
                res.aux["power"], rel=1e-10
            )

    def test_diagonal_ratios(self):
        theta = np.diag([1.0, 2.0, 0.5, 3.0, 1.5])
        p = perm_exact(theta)
        for M in (1, 2, 3, 4):
            rb = p / perm_bethe_degree_m(theta, M, "coeff").value
            assert rb == pytest.approx(1.0, rel=1e-9)
            rs = p / perm_sinkhorn_degree_m(theta, M).value
            n = 5
            assert rs == pytest.approx(
                M**n / math.factorial(M) ** (n / M), rel=1e-9
            )

    def test_bound_pairs_on_random_matrices(self):
        rng = seeded_rng(13, 0)
        for n in (2, 3):
            for M in (1, 2, 3):
                for _ in range(40):
                    theta = rng.uniform(size=(n, n)) + 0.05
                    p = perm_exact(theta)
                    rb = p / perm_bethe_degree_m(theta, M, "coeff").value
                    assert 1 - 1e-9 <= rb <= (2 ** (n / 2)) ** ((M - 1) / M) * (
                        1 + 1e-9
                    )
                    rs = p / perm_sinkhorn_degree_m(theta, M).value
                    lo = (
                        M**n
                        / math.factorial(M) ** (n / M)
                        * (math.factorial(n) / n**n) ** ((M - 1) / M)
                    )
                    hi = M**n / math.factorial(M) ** (n / M)
                    assert lo * (1 - 1e-9) <= rs <= hi * (1 + 1e-9)

    def test_mc_mode_consistent(self):
        theta = seeded_rng(14, 0).uniform(size=(2, 2)) + 0.1
        exact = perm_bethe_degree_m(theta, 2, "lift")
        mc = perm_bethe_degree_m(theta, 2, "mc", samples=4000, seed=5)
        assert abs(mc.aux["power"] - exact.aux["power"]) <= 3 * mc.aux["stderr"]

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize(
        "n, M", [(n, M) for n in (3, 4, 5) for M in (2, 3, 4)]  # nM <= RYSER_CAP
    )
    def test_tiny_permanent_raises_or_stays_positive(self, n, M, eps):
        # perm = eps^n, so the lifted permanents sit below the rounding
        # of the inclusion-exclusion terms; no result may be clamped to 0
        theta = np.triu(np.ones((n, n)), 1) + eps * np.eye(n)
        calls = [lambda: perm_sinkhorn_degree_m(theta, M)]
        if n * M <= 6:
            calls.append(lambda: perm_bethe_degree_m(theta, M, "lift"))
        if n * M <= 8:
            calls.append(lambda: perm_bethe_degree_m(theta, M, "mc", samples=64))
        for call in calls:
            try:
                value = call().value
            except NumericalError:
                continue
            assert value > 0

    def test_mc_needs_a_sample(self):
        with pytest.raises(ValidationError):
            perm_bethe_degree_m(np.ones((2, 2)), 2, "mc", samples=0)

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValidationError):
            perm_bethe_degree_m(np.ones((2, 2)), 0)
        with pytest.raises(ValidationError):
            perm_sinkhorn_degree_m(np.ones((2, 2)), 0)

    def test_lift_budget(self):
        with pytest.raises(ResourceError):
            perm_bethe_degree_m(np.ones((3, 3)), 3, "lift")

    def test_lift_budget_names_the_way_out(self):
        with pytest.raises(ResourceError, match="use coeff or mc mode"):
            perm_bethe_degree_m(np.ones((3, 3)), 3, "lift")

    def test_degree_sum_bound_m1_case(self):
        # perm^M1 * (perm_B_M2)^M2 bounds (perm_B_{M1+M2})^(M1+M2) for M1=1
        rng = seeded_rng(15, 0)
        for n in (2, 3):
            for m2 in (1, 2):
                theta = rng.uniform(size=(n, n)) + 0.05
                p = perm_exact(theta)
                left = perm_bethe_degree_m(theta, m2 + 1, "coeff").aux["power"]
                right = p * perm_bethe_degree_m(theta, m2, "coeff").aux["power"]
                assert left <= right * (1 + 1e-10)
                assert right <= left * 2 ** (n / 2) * (1 + 1e-10)

    def test_degree_sum_monotonicity_logged(self, capsys):
        # general (M1, M2) monotonicity is conjectural: record outcomes,
        # assert nothing
        rng = seeded_rng(17, 0)
        with capsys.disabled():
            for m1, m2 in [(2, 1), (2, 2)]:
                theta = rng.uniform(size=(2, 2)) + 0.05
                whole = perm_bethe_degree_m(theta, m1 + m2, "coeff").aux["power"]
                split = (
                    perm_bethe_degree_m(theta, m1, "coeff").aux["power"]
                    * perm_bethe_degree_m(theta, m2, "coeff").aux["power"]
                )
                print(
                    f"degree-sum monotonicity M1={m1} M2={m2}: "
                    f"whole {whole:.6g} {'<=' if whole <= split else '>'} split {split:.6g}"
                )


class TestDegree2Ratio:
    def test_footnote_cycle_count(self):
        sigma = (0, 1, 3, 2, 5, 6, 4)  # (1)(2)(34)(567) in 0-based form
        identity = tuple(range(7))
        assert cycle_count(sigma, identity) == 2

    def test_equal_permutations_no_cycles(self):
        sigma = (2, 0, 1)
        assert cycle_count(sigma, sigma) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_degree2_lifting(self, n):
        theta = seeded_rng(16 + n, 0).uniform(size=(n, n)) + 0.05
        ratio = perm_ratio_degree2(theta)
        direct = perm_exact(theta) / perm_bethe_degree_m(theta, 2, "lift").value
        assert ratio == pytest.approx(direct, rel=1e-10)

    def test_cap(self):
        with pytest.raises(ResourceError):
            perm_ratio_degree2(np.ones((8, 8)))
