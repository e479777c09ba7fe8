"""Gauss-Legendre rules from Newton's method on the Legendre recurrence."""

import math

import numpy as np
import pytest

from riscov._quad import IntegrationError, _gauss_legendre, gauss_legendre_01, refined

SIZES = (1, 2, 5, 48, 384, 768)


@pytest.mark.parametrize("k", SIZES)
def test_rule_integrates_polynomials_exactly(k):
    """sum w t^i is 1/(i+1), the integral over (0, 1), for every i <= 2k-1."""
    t, w = gauss_legendre_01(k)
    i = np.arange(2 * k)
    got = (w * t ** i[:, None]).sum(axis=1)
    np.testing.assert_allclose(got, 1.0 / (i + 1), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("k", SIZES)
def test_rule_matches_numpy_leggauss(k):
    """Nodes within 4 ulp of numpy's eigenvalue rule; weights within 1e-9
    relative, since leggauss's own end weights are off by up to 8.6e-10 at
    k = 768 (checked against a 40-digit evaluation)."""
    nodes, weights = _gauss_legendre(k)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(k)
    assert np.all(np.abs(nodes - ref_nodes) <= 4 * np.spacing(np.abs(ref_nodes)))
    np.testing.assert_allclose(weights, ref_weights, rtol=1e-9, atol=0.0)
    assert np.all(np.diff(nodes) > 0)


def test_rule_is_cached_and_read_only():
    t, w = gauss_legendre_01(48)
    assert gauss_legendre_01(48)[0] is t
    assert not t.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("coarse, fine", [(1.0, math.nan), (math.nan, 1.0), (math.nan, math.nan),
                                          (1.0, math.inf), (math.inf, math.inf)])
def test_refined_rejects_non_finite_values(coarse, fine):
    with pytest.raises(IntegrationError, match="probe"):
        refined(coarse, fine, "probe", 1e-9, floor=1.0)


def test_refined_returns_the_fine_value():
    assert refined(1.0, 1.0 + 1e-12, "probe", 1e-9) == 1.0 + 1e-12
    with pytest.raises(IntegrationError):
        refined(1.0, 1.0 + 1e-6, "probe", 1e-9)
