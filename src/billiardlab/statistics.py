"""Short- and long-range spectral fluctuation measures of an
:class:`~billiardlab.unfolding.UnfoldedSpectrum` (levels at unit mean spacing).

The window rule of Sigma^2(L) and Delta3(L): windows of length L start at
a sequence's first level and slide by L/4 while they fit.  Every sequence
needs at least 2*max(L) levels and a span above max(L), or
InvalidArgumentError is raised, so every L has a window in every sequence.
The windows of all sequences pool with equal weight.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidArgumentError, QualityWarning
from .unfolding import UnfoldedSpectrum
from .validation import as_float_array, check_ascending, check_positive

__all__ = [
    "StatCurve",
    "spacing_distribution",
    "cumulative_spacing",
    "number_variance",
    "dyson_mehta",
    "ks_distance",
]


@dataclass
class StatCurve:
    """A sampled statistic with optional counts; finite, 1-D, the abscissa ascending (repeated knots are jumps)."""

    abscissa: np.ndarray
    ordinate: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        self.abscissa = as_float_array(self.abscissa, "abscissa")
        self.ordinate = as_float_array(self.ordinate, "ordinate")
        if self.abscissa.shape != self.ordinate.shape:
            raise InvalidArgumentError("abscissa and ordinate must have equal length")
        check_ascending(self.abscissa, "abscissa", strict=False)
        if self.counts is not None:
            self.counts = np.asarray(self.counts)
            if self.counts.shape != self.abscissa.shape:
                raise InvalidArgumentError("counts must match the abscissa length")


def spacing_distribution(u: UnfoldedSpectrum, bin_width: float = 0.1) -> StatCurve:
    """Histogram estimate of the nearest-neighbour spacing density P(s).

    Spacings are pooled within sequences only.  The returned ordinate is a
    density normalised to unit area; ``counts`` holds the bin occupancies.
    Bin centres are returned as abscissa.
    """
    bin_width = check_positive(bin_width, "bin_width")
    s = u.spacings()
    n_bins = max(1, math.ceil(s.max() / bin_width))
    n_bins += bin_width * n_bins < s.max()  # the quotient can round down to an edge one ulp short
    edges = bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(s, bins=edges)
    density = counts / (s.size * bin_width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return StatCurve(centers, density, counts)


def _step_curve(sorted_samples: np.ndarray) -> StatCurve:
    """Empirical cdf of sorted samples with both corner points at every jump."""
    steps = np.arange(sorted_samples.size + 1.0) / sorted_samples.size
    return StatCurve(np.repeat(sorted_samples, 2), np.column_stack([steps[:-1], steps[1:]]).ravel())


def cumulative_spacing(u: UnfoldedSpectrum) -> StatCurve:
    """Empirical cumulative I(s) of the pooled spacings.

    The step function is returned with both corner points at every jump so
    that a sup-norm comparison against a reference curve recovers the exact
    Kolmogorov-Smirnov statistic.
    """
    return _step_curve(np.sort(u.spacings()))


# Windows swept at once: few enough that the heap keeps a piece's temporaries
# between calls instead of handing them back to the OS to be faulted in anew.
# An L with more windows is swept in pieces into one buffer of its values.
_SWEEP_BUDGET = 2**12
_STRIDE_FRACTION = 0.25  # the window stride over L (module docstring)


def _window_lengths(u: UnfoldedSpectrum, lengths) -> np.ndarray:
    """The lengths, checked against the window rule (module docstring)."""
    lengths = as_float_array(lengths, "lengths")
    check_ascending(lengths, "lengths", strict=False)
    if lengths.size == 0 or np.any(lengths <= 0.0):
        raise InvalidArgumentError("window lengths (at least one) must be positive")
    L_max = lengths.max()
    for i, seq in enumerate(u.sequences):
        if seq.size < 2 * L_max or seq[-1] - seq[0] <= L_max:
            raise InvalidArgumentError(f"sequences[{i}] needs 2*max(L) levels and a span above max(L) = {L_max}")
    return lengths


def _window_sums(sequences, lengths: np.ndarray, statistic):
    """Per L: sums of a per-window statistic and of the level counts, and the window count.

    The windows follow the module's window rule for lengths that
    ``_window_lengths`` accepts.  ``statistic(seq, lengths)`` returns
    ``values(starts, lo, hi, L, j)``, a value per window from its start,
    levels [lo, hi), L and its index j.  All L are laid end to end and located
    by one searchsorted pair; each L is summed by its own np.add.reduce
    (np.sum) over its slice, then across sequences.
    """
    strides = _STRIDE_FRACTION * lengths
    sums, count_sums = np.zeros(lengths.size), np.zeros(lengths.size)
    n_windows = np.zeros(lengths.size, dtype=int)
    for seq in sequences:
        span = seq[-1] - seq[0]
        n = (np.floor((span - lengths) / strides) + 1.0).astype(int)
        bounds = np.concatenate([[0], np.cumsum(n)])
        values = statistic(seq, lengths)
        first = 0
        while first < lengths.size:
            base = bounds[first]
            last = max(first + 1, int(np.searchsorted(bounds, base + _SWEEP_BUDGET, side="right")) - 1)
            vals = np.empty(bounds[last] - base)
            for a in range(base, bounds[last], _SWEEP_BUDGET):
                b = min(a + _SWEEP_BUDGET, bounds[last])
                j = np.repeat(np.arange(first, last), np.diff(np.clip(bounds[first : last + 1], a, b)))
                starts = strides[j] * (np.arange(a, b) - bounds[j]) + seq[0]
                L = lengths[j]
                lo = np.searchsorted(seq, starts, side="left")
                hi = np.searchsorted(seq, starts + L, side="left")
                vals[a - base : b - base] = values(starts, lo, hi, L, j)
                count_sums += np.bincount(j, weights=hi - lo, minlength=lengths.size)
            for i in range(first, last):
                sums[i] += float(np.add.reduce(vals[bounds[i] - base : bounds[i + 1] - base]))
            first = last
        n_windows += n
    return sums, count_sums, n_windows


def _sigma2_statistic(seq: np.ndarray, lengths: np.ndarray):
    return lambda starts, lo, hi, L, j: (hi - lo - L) ** 2


def number_variance(u: UnfoldedSpectrum, lengths) -> StatCurve:
    """Number variance Sigma^2(L) = <(N(L) - L)^2> over the module's window rule.

    One :class:`QualityWarning` names every L whose mean count is off L by
    more than 5% of L and more than z standard errors, sqrt(var(N) L / span)
    with span summed over the sequences (windows of one L are independent
    about once per L): correct spans, off by sqrt(levels), pass.  z is
    Bonferroni's bound for the K lengths, -ndtri(ndtr(-3) / K), 3 for one
    length and 4.0 for 40, so a whole call warns on a correct sequence about
    as often as one two-sided 3-sigma test, 0.27% of the time.
    """
    lengths = _window_lengths(u, lengths)
    sq_sums, count_sums, n_windows = _window_sums(u.sequences, lengths, _sigma2_statistic)
    curve = StatCurve(lengths, sq_sums / n_windows, n_windows)
    deviation = np.abs(count_sums / n_windows - lengths)
    span = sum(seq[-1] - seq[0] for seq in u.sequences)
    standard_error = np.sqrt(np.maximum(curve.ordinate - deviation**2, 0.0) * lengths / span)
    z = -ndtri(ndtr(-3.0) / lengths.size)
    bad = (deviation > 0.05 * lengths) & (deviation > z * standard_error)
    if np.any(bad):
        named = ", ".join(f"{L:g}" for L in lengths[bad])
        message = f"mean window count deviates from L by more than 5% and {z:.2g} standard errors at L = {named}"
        warnings.warn(message, QualityWarning, stacklevel=2)
    return curve


def _delta3_statistic(seq: np.ndarray, lengths: np.ndarray):
    """Exact least-squares staircase deviation of every window.

    Within a window [x, x+L] centred at c the staircase (counted locally)
    is piecewise constant, so the integrals entering the linear fit reduce
    to telescoped sums over the level positions u_j = eps_j - c:

        I1 = int N du     = m L/2     - sum u_j
        I2 = int N u du   = (m L^2/4  - sum u_j^2) / 2
        I3 = int N^2 du   = m^2 L/2   - 2 sum j u_j + sum u_j

    and Delta3 = I3/L - (I1/L)^2 - (L^2/12) (12 I2 / L^3)^2.
    """
    p1 = np.concatenate([[0.0], np.cumsum(seq)])
    p2 = np.concatenate([[0.0], np.cumsum(seq**2)])
    p3 = np.concatenate([[0.0], np.cumsum(np.arange(1, seq.size + 1) * seq)])
    squares = np.array([L**2 for L in lengths])  # scalar powers: array powers differ in the last bit
    cubes = np.array([L**3 for L in lengths])
    def values(starts, lo, hi, L, j):
        # intermediates are inlined or deleted early: live piece-sized arrays cost time
        m = (hi - lo).astype(float)
        c = starts + 0.5 * L
        sum_e = p1[hi] - p1[lo]
        sum_u = sum_e - m * c
        sum_u2 = (p2[hi] - p2[lo]) - 2.0 * c * sum_e + m * c**2
        # rank-weighted sum with ranks restarting at 1 inside each window
        sum_ju = (p3[hi] - p3[lo]) - lo * sum_e - c * 0.5 * m * (m + 1.0)
        del c, sum_e
        i3 = 0.5 * m**2 * L - 2.0 * sum_ju + sum_u
        a = (0.5 * m * L - sum_u) / L
        b = 12.0 * (0.5 * (0.25 * m * squares[j] - sum_u2)) / cubes[j]
        del m, sum_u, sum_u2, sum_ju
        return i3 / L - a**2 - (squares[j] / 12.0) * b**2

    return values


def dyson_mehta(u: UnfoldedSpectrum, lengths) -> StatCurve:
    """Spectral rigidity Delta3(L): least-squares deviation of the staircase.

    Per window the minimising straight line is obtained in closed form
    from the piecewise-analytic integrals of the staircase; the quadratic
    deviation is averaged over the windows of the module's window rule.
    """
    lengths = _window_lengths(u, lengths)
    sums, _, n_windows = _window_sums(u.sequences, lengths, _delta3_statistic)
    return StatCurve(lengths, sums / n_windows, n_windows)


def _sided_values(grid: np.ndarray, absc: np.ndarray, ordv: np.ndarray):
    """Left and right limits of a monotone curve at every grid point.

    The curve is piecewise linear; repeated abscissa values encode jumps
    (as produced by :func:`cumulative_spacing`).  Outside the support the
    curve is clamped to its terminal values.
    """
    right = np.searchsorted(absc, grid, side="right") - 1  # last knot at or below
    left = np.searchsorted(absc, grid, side="left")  # first knot at or above
    lo = ordv[np.minimum(left, absc.size - 1)]
    hi = ordv[np.maximum(right, 0)]
    between = (left > right) & (right >= 0) & (left < absc.size)
    r, k = right[between], left[between]
    t = (grid[between] - absc[r]) / (absc[k] - absc[r])
    lo[between] = hi[between] = hi[between] + t * (lo[between] - hi[between])
    return lo, hi


def ks_distance(empirical: StatCurve, reference: StatCurve) -> float:
    """Sup-norm distance between two cumulative curves.

    Both curves must be cumulatives: non-empty, with an ordinate monotone
    to within 1e-12 (a :class:`StatCurve` is finite by construction).  Both
    are linear between their knots, repeated abscissa points encoding jumps,
    so the supremum sits at a one-sided limit on a knot: comparing the
    one-sided limits of each curve over the union of the two grids gives it
    exactly.
    """
    for name, curve in (("empirical", empirical), ("reference", reference)):
        o = curve.ordinate
        if o.size == 0 or np.any(np.diff(o) < -1e-12):
            raise InvalidArgumentError(f"{name} curve is empty or not monotone, not a cumulative")
    grid = np.union1d(empirical.abscissa, reference.abscissa)
    e_lo, e_hi = _sided_values(grid, empirical.abscissa, empirical.ordinate)
    r_lo, r_hi = _sided_values(grid, reference.abscissa, reference.ordinate)
    return float(max(np.max(np.abs(e_lo - r_lo)), np.max(np.abs(e_hi - r_hi))))
