import numpy as np
import pytest

from bethe.rng import Moments, seeded_rng
from bethe.sst import zbm_via_sst_mc

from conftest import two_node_graph


def samples(kind, n=1000):
    rng = seeded_rng(5, 0)
    x = 3.0 + rng.standard_normal(n)
    if kind == "complex":
        x = x + 1j * (rng.standard_normal(n) - 0.5)
    return x


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_moments_match_one_shot(kind, chunk):
    x = samples(kind)
    acc = Moments()
    for start in range(0, len(x), chunk):
        acc.add(x[start : start + chunk])
    n = len(x)
    assert acc.count == n
    assert isinstance(acc.mean, complex) == (kind == "complex")
    assert acc.mean == pytest.approx(x.mean(), rel=1e-14)
    assert acc.stderr == pytest.approx(np.sqrt(np.var(x.real, ddof=1) / n), rel=1e-12)
    imag_var = np.var(x.imag, ddof=1) if kind == "complex" else 0.0
    assert acc.imag_stderr == pytest.approx(np.sqrt(imag_var / n), rel=1e-12)


def test_moments_single_sample_has_no_stderr():
    acc = Moments()
    acc.add([2.5])
    assert acc.mean == 2.5
    assert acc.stderr is None and acc.imag_stderr is None


def test_sst_mc_single_sample_has_no_stderr():
    est = zbm_via_sst_mc(two_node_graph([1.0, 2.0], [3.0, 1.0]), 1, 1, seed=0)
    assert est.samples == 1
    assert est.stderr is None and est.imag_stderr is None
