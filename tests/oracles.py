"""Independent oracles used to derive expected test values.

Everything here is deliberately implemented without billiardlab and, where
the checked code path uses scipy, without that scipy routine either.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import least_squares


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


def _frozen_window_starts(seq: np.ndarray, L: float, stride: float) -> np.ndarray:
    span = seq[-1] - seq[0]
    if span <= L:
        return np.empty(0)
    n_windows = int(math.floor((span - L) / stride)) + 1
    return seq[0] + stride * np.arange(n_windows)


def number_variance_frozen(sequences, lengths, stride_fraction: float = 0.25):
    """Sigma^2(L) one (L, sequence) pair at a time: the reference for the window sweep.

    Returns the ordinate and the window count per L.  This is the per-L loop
    the sweep replaced, kept verbatim (minus validation and warnings) because
    the sweep must reproduce it bit for bit.
    """
    lengths = np.asarray(lengths, dtype=float)
    ordinate = np.empty(lengths.size)
    n_windows = np.zeros(lengths.size, dtype=int)
    for j, L in enumerate(lengths):
        sq_sum = 0.0
        total = 0
        for seq in sequences:
            starts = _frozen_window_starts(seq, L, stride_fraction * L)
            if starts.size == 0:
                continue
            counts = np.searchsorted(seq, starts + L, side="left") - np.searchsorted(
                seq, starts, side="left"
            )
            sq_sum += float(np.sum((counts - L) ** 2))
            total += starts.size
        ordinate[j] = sq_sum / total
        n_windows[j] = total
    return ordinate, n_windows


def _frozen_delta3_windows(seq: np.ndarray, L: float, stride: float) -> np.ndarray:
    starts = _frozen_window_starts(seq, L, stride)
    if starts.size == 0:
        return np.empty(0)
    lo = np.searchsorted(seq, starts, side="left")
    hi = np.searchsorted(seq, starts + L, side="left")
    m = (hi - lo).astype(float)
    p1 = np.concatenate([[0.0], np.cumsum(seq)])
    p2 = np.concatenate([[0.0], np.cumsum(seq**2)])
    p3 = np.concatenate([[0.0], np.cumsum(np.arange(1, seq.size + 1) * seq)])
    c = starts + 0.5 * L
    sum_e = p1[hi] - p1[lo]
    sum_e2 = p2[hi] - p2[lo]
    sum_je = (p3[hi] - p3[lo]) - lo * sum_e
    sum_u = sum_e - m * c
    sum_u2 = sum_e2 - 2.0 * c * sum_e + m * c**2
    sum_ju = sum_je - c * 0.5 * m * (m + 1.0)
    i1 = 0.5 * m * L - sum_u
    i2 = 0.5 * (0.25 * m * L**2 - sum_u2)
    i3 = 0.5 * m**2 * L - 2.0 * sum_ju + sum_u
    a = i1 / L
    b = 12.0 * i2 / L**3
    return i3 / L - a**2 - (L**2 / 12.0) * b**2


def dyson_mehta_frozen(sequences, lengths, stride_fraction: float = 0.25):
    """Delta3(L) one (L, sequence) pair at a time: the reference for the window sweep.

    Returns the ordinate and the window count per L, as
    :func:`number_variance_frozen` does.
    """
    lengths = np.asarray(lengths, dtype=float)
    ordinate = np.empty(lengths.size)
    n_windows = np.zeros(lengths.size, dtype=int)
    for j, L in enumerate(lengths):
        acc = 0.0
        total = 0
        for seq in sequences:
            vals = _frozen_delta3_windows(seq, L, stride_fraction * L)
            acc += float(vals.sum())
            total += vals.size
        ordinate[j] = acc / total
        n_windows[j] = total
    return ordinate, n_windows


def goe_dense_unfolded(rng: np.random.Generator, n_levels: int) -> np.ndarray:
    """Central half of a dense GOE spectrum of dimension 2*n_levels, unfolded.

    H = (A + A^T)/sqrt(2) with A an N x N matrix of N(0, s^2) entries,
    s^2 = 1/(4N): off-diagonal variance s^2, diagonal 2 s^2, semicircle
    radius 1.  Eigenvalues by numpy's dense solver; the central half is
    mapped through the integrated semicircle density.
    """
    n = 2 * n_levels
    a = rng.normal(0.0, 1.0 / math.sqrt(4.0 * n), (n, n))
    eig = np.linalg.eigvalsh((a + a.T) / math.sqrt(2.0))
    x = np.clip(eig[n_levels // 2 : n_levels // 2 + n_levels], -1.0, 1.0)
    return n / 2.0 + n * (x * np.sqrt(1.0 - x * x) + np.arcsin(x)) / math.pi


def sided_values_frozen(grid: np.ndarray, absc: np.ndarray, ordv: np.ndarray):
    """Left and right limits of a monotone curve: the knot-table version, verbatim.

    The reference for the two-searchsorted version, which must reproduce it
    bit for bit.  Repeated abscissa values encode jumps; outside the support
    the curve is clamped to its terminal values.
    """
    ux, first = np.unique(absc, return_index=True)
    last = np.searchsorted(absc, ux, side="right") - 1
    lo_v = ordv[first]
    hi_v = ordv[last]
    lo = np.empty(grid.size)
    hi = np.empty(grid.size)
    pos = np.searchsorted(ux, grid, side="left")
    on_knot = (pos < ux.size) & (np.take(ux, pos, mode="clip") == grid)
    below = grid < ux[0]
    above = grid > ux[-1]
    inside = ~(on_knot | below | above)
    lo[below] = hi[below] = lo_v[0]
    lo[above] = hi[above] = hi_v[-1]
    lo[on_knot] = lo_v[pos[on_knot]]
    hi[on_knot] = hi_v[pos[on_knot]]
    if np.any(inside):
        j = pos[inside]
        t = (grid[inside] - ux[j - 1]) / (ux[j] - ux[j - 1])
        val = hi_v[j - 1] + t * (lo_v[j] - hi_v[j - 1])
        lo[inside] = hi[inside] = val
    return lo, hi


def ks_distance_frozen(absc_a, ord_a, absc_b, ord_b) -> float:
    """Sup-norm distance of two monotone curves through :func:`sided_values_frozen`."""
    grid = np.union1d(absc_a, absc_b)
    a_lo, a_hi = sided_values_frozen(grid, absc_a, ord_a)
    b_lo, b_hi = sided_values_frozen(grid, absc_b, ord_b)
    return float(max(np.max(np.abs(a_lo - b_lo)), np.max(np.abs(a_hi - b_hi))))


def step_curve_frozen(sorted_samples: np.ndarray):
    """Abscissa and ordinate of the empirical cdf with both corners at every jump, verbatim."""
    s = sorted_samples
    n = s.size
    lo = (np.arange(n)) / n
    hi = (np.arange(n) + 1.0) / n
    abscissa = np.repeat(s, 2)
    ordinate = np.column_stack([lo, hi]).ravel()
    return abscissa, ordinate


def spacing_ks_frozen(spacings: np.ndarray, cdf, rescale: bool = True) -> float:
    """KS statistic of spacings against a cdf callable: the own-formula version, verbatim.

    The model check and the empty-input error are left out; ``cdf`` stands
    for the model's cumulative.
    """
    s = np.asarray(spacings, dtype=float)
    if rescale:
        s = s / s.mean()
    s = np.sort(s)
    cdf = cdf(s)
    i = np.arange(1, s.size + 1)
    return float(
        max(np.max(np.abs(cdf - i / s.size)), np.max(np.abs(cdf - (i - 1) / s.size)))
    )


def semi_poisson_delta3(L: float) -> float:
    """Closed-form semi-Poisson Delta3(L), from Sigma^2(L) = L/2 + (1 - e^(-4L))/8.

    It loses digits to cancellation below L ~ 0.1 (4e-9 relative at L = 0.01).
    """
    return (
        L / 30.0 + 1.0 / 16.0 - 1.0 / (16.0 * L) + 1.0 / (32.0 * L**2)
        + (3.0 / (512.0 * L**4)) * math.expm1(-4.0 * L)
        + math.exp(-4.0 * L) * (1.0 / (64.0 * L**2) + 3.0 / (128.0 * L**3))
    )


def semi_poisson_delta3_kernel_mp(L: float, dps: int = 30) -> float:
    """Semi-Poisson Delta3(L) by mpmath quadrature of the kernel integral.

    (2/L^4) int_0^L (L^3 - 2 L^2 r + r^3) Sigma^2(r) dr with
    Sigma^2(r) = r/2 + (1 - e^(-4r))/8, split where e^(-4r) has decayed
    so that the quadrature resolves its curvature; the closed form is not used.
    The kernel is divided by L^4 before integrating: mpmath's error target is
    absolute, and the bare integral (~L^5 / 15) falls below it for L ~ 1e-6.
    """
    import mpmath

    with mpmath.workdps(dps):
        x = mpmath.mpf(L)
        sigma2 = lambda r: r / 2 + (1 - mpmath.exp(-4 * r)) / 8
        kernel = lambda r: (x**3 - 2 * x**2 * r + r**3) / x**4 * sigma2(r)
        breaks = [0] + [b for b in (0.25, 1, 4, 16, 64, 256, 1024) if b < x] + [x]
        return float(2 * mpmath.quad(kernel, breaks))


def minpack_window_fit(trace, cluster, half_width=5.0):
    """The window fit of one cluster by MINPACK's Levenberg-Marquardt.

    Same window, start and parametrisation (centre, amplitude, log-width per
    pole, then the complex background) as ``fit_resonances``; the model is
    written in real arithmetic and the Jacobian is left to finite differences.
    """
    lo = min(g.center - half_width * g.width for g in cluster)
    hi = max(g.center + half_width * g.width for g in cluster)
    sel = (trace.frequencies >= lo) & (trace.frequencies <= hi)
    origin = trace.frequencies[sel][0]
    x = trace.frequencies[sel] - origin
    target = np.concatenate([trace.values[sel].real, trace.values[sel].imag])

    def residual(q):
        re = np.full(x.size, q[-2])
        im = np.full(x.size, q[-1])
        for c, a, w in q[:-2].reshape(-1, 3):
            g = math.exp(w)
            d = (x - c) ** 2 + 0.25 * g * g
            re -= 0.5 * a * g / d
            im -= a * (x - c) / d
        return np.concatenate([re, im]) - target

    q0 = np.array([v for g in cluster for v in (g.center - origin, g.amplitude, math.log(g.width))] + [0.0, 0.0])
    q = least_squares(residual, q0, method="lm", x_scale="jac", xtol=1e-14, ftol=1e-14, gtol=1e-14).x
    return [(origin + c, math.exp(w), abs(a)) for c, a, w in q[:-2].reshape(-1, 3)]


def strength_samples_frozen(resonances):
    """(y, z) per resonance by the per-index running-mean loop, verbatim minus the warning."""
    res = sorted(resonances, key=lambda r: r.center)
    y = np.array([r.amplitude**2 for r in res])
    y = y[y > 0.0]
    samples = []
    for i in range(y.size):
        lo = max(0, min(i - 5, y.size - 10))
        window = y[lo : lo + 10] if y.size >= 10 else y
        local_mean = float(window.mean())
        samples.append((float(y[i]), float(np.log10(y[i] / local_mean))))
    return samples


def missing_level_scan_frozen(k: np.ndarray, n_weyl: np.ndarray, window: int):
    """(position, index, step) per drop by the run-scanning loop, verbatim; ``n_weyl`` is N_Weyl(k)."""
    fluc = np.arange(1, k.size + 1) - n_weyl
    csum = np.concatenate([[0.0], np.cumsum(fluc)])
    centers = np.arange(window, k.size - window + 1)
    ahead = (csum[centers + window] - csum[centers]) / window
    behind = (csum[centers] - csum[centers - window]) / window
    drop = ahead - behind
    hits = drop <= -0.7
    reports = []
    i = 0
    while i < hits.size:
        if not hits[i]:
            i += 1
            continue
        j = i
        while j < hits.size and hits[j]:
            j += 1
        best = i + int(np.argmin(drop[i:j]))
        idx = int(centers[best])
        reports.append((float(k[idx]), idx, float(drop[best])))
        i = j
    return reports


def overlap_components(lo, hi) -> set[frozenset[int]]:
    """Connected components of closed intervals [lo_i, hi_i], two joined when they share a point."""
    parent = list(range(len(lo)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(lo)):
        for j in range(i):
            if lo[i] <= hi[j] and lo[j] <= hi[i]:
                parent[root(i)] = root(j)
    groups: dict[int, set[int]] = {}
    for i in range(len(lo)):
        groups.setdefault(root(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}
