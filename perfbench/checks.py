"""Correctness checks on billiardlab's outputs, written without its code paths.

Each check returns a list of failure messages; an empty list means the
output passed.  The checks run outside the timed region.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def weyl_staircase(k: np.ndarray, area: float, perimeter: float, constant: float, tol: float) -> list[str]:
    """Level count against the Weyl staircase.

    ``constant`` is the corner and curvature term, not a fit to ``k``.  For a
    complete spectrum the fluctuating part n - N_Weyl(k_n) averages to zero;
    each missing level shifts that average by -1 from its position on.  The
    check looks at the top fifth of the levels, where a loss anywhere below
    shows in full.
    """
    n = np.arange(1, k.size + 1) - 0.5
    smooth = area / (4.0 * math.pi) * k**2 - perimeter / (4.0 * math.pi) * k + constant
    top = (n - smooth)[-max(k.size // 5, 1) :]
    mean = float(top.mean())
    if abs(mean) > tol:
        return [f"staircase: mean of n - N_Weyl over the top fifth is {mean:.3f}, beyond +-{tol}"]
    return []


def bessel_zero_residuals(orders, zeros, rel_tol: float = 1e-12, dps: int = 40) -> list[str]:
    """Relative error of each zero from one mpmath Newton step, J_nu(z)/J_{nu+1}(z).

    At a zero J'_nu = -J_{nu+1}, so |J_nu(z) / J_{nu+1}(z)| / z is the relative
    distance from z to the true zero to first order.
    """
    out = []
    with mpmath.workdps(dps):
        for nu, z in zip(orders, zeros):
            j = mpmath.besselj(nu, z)
            jp = mpmath.besselj(nu + 1, z)
            rel = float(abs(j / jp)) / z
            if not rel <= rel_tol:
                out.append(f"zero of J_{nu:g} at {z!r}: relative error {rel:.2e} > {rel_tol:g}")
    return out


def roots_per_gap(base_k: np.ndarray, weights: np.ndarray, perturbed_k: np.ndarray, k_max: float):
    """Count the perturbed levels inside every gap between active poles below k_max^2.

    Returns ``(skipped, doubled)``: gaps holding no level and gaps holding
    more than one.  Levels of inactive modes (zero weight) are unshifted and
    sit exactly on their pole, so they are excluded first.
    """
    E = base_k**2
    active = weights > 0.0
    Ea = E[active]
    Ea = Ea[Ea <= k_max * k_max]
    roots = perturbed_k**2
    roots = roots[~np.isin(roots, E[~active])]
    per_gap = np.searchsorted(roots, Ea[1:], side="left") - np.searchsorted(roots, Ea[:-1], side="right")
    return int(np.sum(per_gap == 0)), int(np.sum(per_gap > 1))


def interlacing_count(n_base_below: int, n_perturbed: int) -> list[str]:
    """A rank-one perturbation moves the count below any k by at most one."""
    if abs(n_perturbed - n_base_below) > 1:
        return [f"perturbed spectrum has {n_perturbed} levels, base has {n_base_below} below k_max"]
    return []


def direct_number_variance(seq: np.ndarray, L: float, stride_fraction: float = 0.25) -> float:
    """Sigma^2(L) by counting the levels of every window one window at a time."""
    stride = stride_fraction * L
    span = seq[-1] - seq[0]
    total = 0.0
    n_windows = int(math.floor((span - L) / stride)) + 1
    for j in range(n_windows):
        a = seq[0] + stride * j
        count = int(np.count_nonzero((seq >= a) & (seq < a + L)))
        total += (count - L) ** 2
    return total / n_windows


def number_variance_points(seq: np.ndarray, lengths, values, rel_tol: float = 1e-12) -> list[str]:
    out = []
    for L, got in zip(lengths, values):
        want = direct_number_variance(seq, L)
        if not abs(got - want) <= rel_tol * max(abs(want), 1e-300):
            out.append(f"Sigma^2({L:g}) = {got!r}, direct window count gives {want!r}")
    return out


def match_poles(true_centers, true_widths, fitted_centers):
    """Pair each true pole with the nearest fitted centre within Gamma/2.

    Returns ``(matched, used, center_errors)``: the number of true poles
    recovered, the number of fitted centres that recovered one, and
    |delta f| / Gamma of every recovered pole.
    """
    fitted = np.sort(np.asarray(fitted_centers, dtype=float))
    taken = np.zeros(fitted.size, dtype=bool)
    errors = []
    for c, w in sorted(zip(true_centers, true_widths)):
        if fitted.size == 0:
            break
        i = int(np.searchsorted(fitted, c))
        best = None
        for j in (i - 1, i):
            if 0 <= j < fitted.size and not taken[j] and abs(fitted[j] - c) <= 0.5 * w:
                if best is None or abs(fitted[j] - c) < abs(fitted[best] - c):
                    best = j
        if best is not None:
            taken[best] = True
            errors.append(abs(fitted[best] - c) / w)
    return len(errors), int(taken.sum()), errors
