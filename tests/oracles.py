"""Independent oracles used to derive expected test values.

Everything here is deliberately implemented without billiardlab and, where
the checked code path uses scipy, without that scipy routine either.
"""

from __future__ import annotations

import math

import numpy as np


def bessel_j_series(order: float, x: float, max_terms: int = 400) -> float:
    """J_order(x) by the ascending power series (adequate for small x/order)."""
    half = 0.5 * x
    term = half**order / math.gamma(order + 1.0)
    total = term
    for j in range(1, max_terms):
        term *= -(half * half) / (j * (order + j))
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return total


def bessel_zero_by_bisection(order: float, index: int) -> float:
    """index-th positive zero of J_order via sign scan + bisection on the series."""
    x = 1e-9 + max(0.0, order)
    step = 0.05
    found = 0
    f_prev = bessel_j_series(order, x)
    while x < 300.0:
        x_next = x + step
        f_next = bessel_j_series(order, x_next)
        if f_prev * f_next < 0.0:
            found += 1
            if found == index:
                a, b, fa = x, x_next, f_prev
                for _ in range(200):
                    mid = 0.5 * (a + b)
                    fm = bessel_j_series(order, mid)
                    if fa * fm <= 0.0:
                        b = mid
                    else:
                        a, fa = mid, fm
                    if b - a < 1e-15 * mid:
                        break
                return 0.5 * (a + b)
        x, f_prev = x_next, f_next
    raise RuntimeError("zero not found in scan range")


def delta3_window_direct(levels: np.ndarray, start: float, length: float, n_grid: int = 20001) -> float:
    """Rigidity integrand for one window by brute-force quadrature.

    Builds the local staircase on a fine grid, finds the best straight line
    by least squares on that grid and integrates the squared deviation with
    the trapezoid rule.
    """
    e = np.linspace(start, start + length, n_grid)
    staircase = np.searchsorted(levels, e, side="right").astype(float)
    design = np.column_stack([np.ones_like(e), e])
    coeff, *_ = np.linalg.lstsq(design, staircase, rcond=None)
    dev = (staircase - design @ coeff) ** 2
    return float(np.trapezoid(dev, e) / length)


def number_variance_direct(levels: np.ndarray, length: float, starts: np.ndarray) -> float:
    counts = np.array(
        [np.sum((levels >= a) & (levels < a + length)) for a in starts], dtype=float
    )
    return float(np.mean((counts - length) ** 2))


def ecdf_ks(samples: np.ndarray, cdf) -> float:
    """Exact Kolmogorov-Smirnov statistic of samples against a cdf callable."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    f = cdf(s)
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(f - i / n)), np.max(np.abs(f - (i - 1) / n))))


def point_scatterer_roots_by_eigvalsh(k: np.ndarray, w: np.ndarray, coupling: float, k_max: float) -> np.ndarray:
    """Perturbed wavevectors in (0, k_max] from a dense symmetric eigensolver.

    With K0 = sum_n w_n E_n/(1 + E_n^2) - 1/coupling, the secular equation
    sum_n w_n [1/(E - E_n) + E_n/(1 + E_n^2)] = 1/coupling says that E is an
    eigenvalue of diag(E_n) - sqrt(w) sqrt(w)^T / K0.
    """
    E = np.asarray(k, dtype=float) ** 2
    w = np.asarray(w, dtype=float)
    k0 = np.sum(w * E / (1.0 + E * E)) - (0.0 if math.isinf(coupling) else 1.0 / coupling)
    z = np.sqrt(w)
    lam = np.linalg.eigvalsh(np.diag(E) - np.outer(z, z) / k0)
    return np.sqrt(lam[(lam > 0.0) & (lam <= k_max * k_max)])
