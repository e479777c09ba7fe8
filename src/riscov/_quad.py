"""Shared quadrature helpers used by the analytic modules."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class IntegrationError(RuntimeError):
    """A numerical integral failed its convergence check."""


def refined(coarse, fine, what: str, rel: float, floor: float = 0.0, abs_tol: float = 0.0):
    """`fine` if both values are finite and |fine - coarse| <= abs_tol +
    rel*max(|fine|, floor), else raise."""
    if not (math.isfinite(coarse) and math.isfinite(fine)
            and abs(fine - coarse) <= abs_tol + rel * max(abs(fine), floor)):
        raise IntegrationError(f"{what} did not converge: {coarse} vs {fine}")
    return fine


def _legendre(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_k(x) and P_k'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, k + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, k * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on (-1, 1).

    The k // 2 positive roots of P_k come from Newton's method on the
    recurrence, started at Tricomi's asymptotic guesses (Hale & Townsend,
    SIAM J. Sci. Comput. 2013), and their weights from 2/((1 - x^2) P_k'^2);
    the rule is symmetric about 0, which is a root when k is odd.
    """
    i = np.arange(1, k // 2 + 1)
    x = (1.0 - (k - 1) / (8.0 * k**3)) * np.cos(np.pi * (4 * i - 1) / (4 * k + 2))
    for _ in range(10):  # three steps suffice from these guesses
        p, dp = _legendre(k, x)
        step = p / dp
        x = x - step
        # the error squares each step, so after a relative step of 1e-12
        # what is left, about (k * 1e-12)^2, is below rounding
        if np.all(np.abs(step) <= 1e-12 * x):
            break
    else:
        raise IntegrationError(f"Gauss-Legendre nodes for k={k} did not converge")
    x = np.append(x, np.zeros(k % 2))  # descending, then 0 for odd k
    w = 2.0 / ((1.0 - x) * (1.0 + x) * _legendre(k, x)[1] ** 2)
    return np.concatenate((-x, x[::-1][k % 2:])), np.concatenate((w, w[::-1][k % 2:]))


@lru_cache(maxsize=16)
def gauss_legendre_01(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights shifted to (0, 1), read-only."""
    nodes, weights = _gauss_legendre(k)
    t, w = 0.5 * (nodes + 1.0), 0.5 * weights
    t.flags.writeable = w.flags.writeable = False
    return t, w


def halfline_nodes(k: int, scale, lower=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals over (lower, inf).

    Uses r = lower + scale*t/(1-t) with Gauss-Legendre points t in (0, 1);
    ``scale`` should match the integrand's decay length.  Array ``scale`` or
    ``lower`` give one rule per element, with the node axis first.
    """
    t, w = gauss_legendre_01(k)
    extra = (1,) * max(np.ndim(scale), np.ndim(lower))
    t, w = t.reshape(-1, *extra), w.reshape(-1, *extra)
    r = lower + scale * t / (1.0 - t)
    jac = scale / (1.0 - t) ** 2
    return r, w * jac


def log_halfline_nodes(k_log: int, k: int, lower: float, scale) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights over (lower, inf), lower > 0: ``k_log`` Gauss-Legendre
    nodes in ln r up to ``scale``, where an r^-alpha integrand keeps its mass,
    and `halfline_nodes` beyond; array ``scale`` gives one rule per element."""
    t, w = (a.reshape(-1, *(1,) * np.ndim(scale)) for a in gauss_legendre_01(k_log))
    lo, hi = math.log(lower), np.log(scale)
    r = np.exp(lo + (hi - lo) * t)
    r_out, w_out = halfline_nodes(k, scale, scale)
    return np.concatenate([r, r_out]), np.concatenate([(hi - lo) * w * r, w_out])


def fold_circle(nodes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One node of each (v, 2*pi - v) pair, node i and node n-1-i, of a rule on
    (0, 2*pi) at the pair's weight, and the node at pi of an odd rule: the
    full rule's sum, to rounding, for an integrand that sees v via cos v."""
    half, odd = divmod(len(nodes), 2)
    return nodes[:half + odd], np.append(2.0 * weights[:half], weights[half:half + odd])


def tan_halfline_nodes(q: int, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-based nodes for (0, inf) via the x = tan(pi/4*(t+1)) map."""
    idx = np.arange(1, q + 1)
    ct = np.cos((2.0 * idx - 1.0) * np.pi / (2.0 * q))
    st = np.sin((2.0 * idx - 1.0) * np.pi / (2.0 * q))
    arg = 0.25 * np.pi * ct + 0.25 * np.pi
    x = np.tan(arg)
    w = np.pi**2 * st / (4.0 * q * np.cos(arg) ** 2)
    return scale * x, scale * w
