"""Complex Breit-Wigner resonance extraction and strength statistics.

Scattering-matrix elements near isolated or weakly overlapping resonances
follow

    S_ba(f) = delta_ba - i * sqrt(G_na * G_nb) / (f - f_n + i*G_n/2)

summed over resonances, with partial widths entering only through the
amplitude sqrt(G_na*G_nb) and the total width G_n.  Fitting this form to
complex traces yields centres, widths and amplitudes; the squared
amplitudes ("strengths") probe the distribution of wavefunction
components, which for chaotic wavefunctions follows the K0 law of a
product of two squared Gaussian variables.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import k0 as bessel_k0

from .errors import InvalidArgumentError, QualityWarning
from .statistics import StatCurve
from .validation import as_complex_array, as_float_array, check_ascending, check_positive

__all__ = [
    "ComplexTrace",
    "Resonance",
    "FitReport",
    "ResonanceSet",
    "StrengthSample",
    "breit_wigner_model",
    "detect_peaks",
    "fit_resonances",
    "strength_samples",
    "k0_strength_pdf",
]


@dataclass
class ComplexTrace:
    """One scattering-matrix element sampled on an ascending frequency grid."""

    frequencies: np.ndarray
    values: np.ndarray
    channel: tuple[int, int] = (1, 2)

    def __post_init__(self):
        self.frequencies = as_float_array(self.frequencies, "frequencies")
        self.values = as_complex_array(self.values, "values")
        if self.frequencies.size != self.values.size:
            raise InvalidArgumentError("frequencies and values must have equal length")
        check_ascending(self.frequencies, "frequencies")

    def __len__(self) -> int:
        return self.frequencies.size

    @property
    def is_diagonal(self) -> bool:
        return self.channel[0] == self.channel[1]


@dataclass
class Resonance:
    """One resonance: centre, total width, amplitude sqrt(G_a*G_b), and the fit's errors (NaN if unfitted)."""

    center: float
    width: float
    amplitude: float
    center_error: float = float("nan")
    width_error: float = float("nan")
    amplitude_error: float = float("nan")
    converged: bool = True

    def __post_init__(self):
        check_positive(self.width, "width")
        if not (math.isfinite(self.center) and 0.0 <= self.amplitude < math.inf):
            raise InvalidArgumentError(f"need finite center, amplitude >= 0; got {self.center!r}, {self.amplitude!r}")


@dataclass
class FitReport:
    """Diagnostics of one window fit (one cluster of resonances)."""

    converged: bool
    iterations: int
    cost_history: list[float] = field(repr=False, default_factory=list)
    message: str = ""
    background: complex = 0.0


@dataclass
class ResonanceSet:
    resonances: list[Resonance]
    reports: list[FitReport] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.resonances)

    @property
    def centers(self) -> np.ndarray:
        return np.array([r.center for r in self.resonances])

    @property
    def widths(self) -> np.ndarray:
        return np.array([r.width for r in self.resonances])


def breit_wigner_model(resonances, diagonal: bool, frequencies, background: complex = 0.0) -> ComplexTrace:
    """The multi-resonance complex Breit-Wigner sum, as channel (1, 1) if ``diagonal`` else (1, 2)."""
    f = as_float_array(frequencies, "frequencies")
    s = np.full(f.shape, (1.0 if diagonal else 0.0) + complex(background), dtype=complex)
    for r in resonances:
        check_positive(r.width, "width")
        s -= 1j * r.amplitude / (f - r.center + 0.5j * r.width)
    return ComplexTrace(f, s, (1, 1) if diagonal else (1, 2))


# ----------------------------------------------------------------------
# Peak detection
# ----------------------------------------------------------------------

# Prominence floor in units of the noise sigma per quadrature: pure complex
# noise reaches 4.8-5.4 sigma over 300k samples (seeds 0-9).
_NOISE_PROMINENCE = 8.0
_JUMPS = 16  # pointer-jumping passes of the side walks before block extrema finish the rest
_GATHER = 1 << 18  # samples the width search gathers per round, at most (or 16 per peak, if more)


def _extrema(d: np.ndarray, into: np.ndarray) -> np.ndarray:
    """Midpoints of the runs of equal samples entered by a step where ``into`` holds and left by one where it fails.

    ``d`` is the signal's np.diff.  With ``into = d > 0`` these are scipy's local maxima: a run is a peak when the
    runs on both sides are lower, so no run that touches either end is one, and a plateau's index is
    (first + last) // 2.  With ``into = d < 0`` they are the local minima.
    """
    runs = np.flatnonzero(into[:-1] & ~into[1:]) + 1
    flat = np.flatnonzero(d[runs] == 0.0)
    if flat.size:  # a plateau ends at the next nonzero step, which must exist and leave it the other way
        steps = np.flatnonzero(d)
        k = np.searchsorted(steps, runs[flat])
        last = steps[np.minimum(k, steps.size - 1)]
        runs[flat] = (runs[flat] + last) // 2
        runs = np.delete(runs, flat[(k == steps.size) | into[last]])
    return runs


def _block_levels(n: int) -> list[int]:
    """Offsets of the levels of aligned blocks over n (even) entries: level k holds blocks of 2**k, padded to even."""
    offsets = [0]
    while n > 1:
        n += n & 1
        offsets.append(offsets[-1] + n)
        n //= 2
    return offsets


def _fill_blocks(buf: np.ndarray, offsets: list[int], op, pad: float) -> None:
    """Write each level of ``buf`` above level 0 as ``op`` of pairs of the level below, padded with ``pad``."""
    for lo, mid, hi in zip(offsets, offsets[1:], offsets[2:] + [offsets[-1] + 1]):
        half = mid + (mid - lo) // 2
        op(buf[lo:mid:2], buf[lo + 1 : mid : 2], out=buf[mid:half])
        buf[half:hi] = pad


def _finish_walks(walk, ptr, low, maxima, minima, offsets) -> None:
    """Finish the side walks ``walk`` over aligned blocks, O(log n) steps each, lowering ``low`` in place.

    Going left from ``ptr``, a walk takes in every block whose maximum is at most its own height, climbing to the
    parent block whenever the next one is a right child.  At the first block holding a higher entry it descends,
    taking in each right child that holds none, down to that entry.
    """
    _fill_blocks(maxima, offsets, np.maximum, -np.inf)
    _fill_blocks(minima, offsets, np.minimum, np.inf)
    offsets = np.array(offsets)
    h, i, cur = maxima[walk], ptr[walk], low[walk]
    level = np.zeros_like(i)
    down = np.zeros(walk.size, bool)
    while walk.size:
        at = offsets[level - down] + np.where(down, 2 * i + 1, i)  # the block (level, i), or its right child
        clear = maxima[at] <= h
        cur = np.where(clear, np.minimum(cur, minima[at]), cur)
        up = clear & ~down
        j = np.maximum(i - 1, 0)
        ones = np.frexp((j + 1) & -(j + 1))[1] - 1  # trailing one bits of j: the levels to climb
        level = np.where(up, level + ones, level - down)
        i = np.where(up, j >> ones, np.where(down, 2 * i + 1 - clear, i))
        down |= ~clear
        end = down & (level == 0)
        low[walk[end]] = cur[end]
        go = ~end
        walk, h, i, cur, level, down = walk[go], h[go], i[go], cur[go], level[go], down[go]


def _prominences(heights: np.ndarray, bottoms: np.ndarray, threshold: float):
    """The prominences of peaks of ``heights``, and the indices of those >= ``threshold`` (> 0).

    bottoms[j] is the lowest sample between peaks j-1 and j (bottoms[0] before the first peak, bottoms[m] after the
    last).  scipy takes the minimum of the signal over (L, p] and [p, R), L and R the nearest samples strictly
    higher than the peak p, and the prominence is its height less the larger of the two.  Both ranges are unions of
    whole gaps between peaks, ending at the nearest strictly higher peak, so each side walks the bottoms until such
    a peak.  All sides walk at once in one array [inf, heights, inf, heights reversed], whose infinite entries end
    every walk; the right side of peak j is entry 2m+1-j, and the other side of entry w is n-w.

    A walk takes the range and the pointer of the peak it reaches (pointer jumping).  A peak is dropped as soon as
    one side ends less than ``threshold`` below it, which removes almost every noise peak in the first passes.
    Walks left after ``_JUMPS`` passes finish on block extrema, since walks that cross ended ones advance one peak
    per pass.  The cost is O(m) per pass and O(log m) per finished walk, O(m log m) at most for m peaks.
    """
    m = heights.size
    n = 2 * m + 2
    offsets = _block_levels(n)
    maxima, minima = np.empty(offsets[-1] + 1), np.empty(offsets[-1] + 1)  # level 0 now, the blocks if needed
    inf = np.array([np.inf])
    top = np.concatenate((inf, heights, inf, heights[::-1]), out=maxima[:n])
    low = np.concatenate((-inf, bottoms[:-1], -inf, bottoms[:0:-1]), out=minima[:n]).copy()
    ptr = np.arange(-1, n - 1)
    ended = np.empty(n, bool)
    ended[0] = True
    np.greater(top[:-1], top[1:], out=ended[1:])
    ended[m + 1] = True
    dead = ended & (top - low < threshold)
    live = np.ones(n, bool)
    live[1:] = ~(dead[1:] | dead[:0:-1])
    walk = np.flatnonzero(~ended & live)
    for _ in range(_JUMPS):
        if not walk.size:
            break
        q = ptr[walk]
        h = top[walk]
        cur = np.minimum(low[walk], low[q])
        low[walk] = cur
        ptr[walk] = nxt = ptr[q]
        ended = top[nxt] > h
        dead = walk[ended & (h - cur < threshold)]
        live[dead] = live[n - dead] = False
        walk = walk[~ended]
        walk = walk[live[walk]]
    if walk.size:
        _finish_walks(walk, ptr, low, maxima, minima, offsets)
    prominence = heights - np.maximum(low[1 : m + 1], low[: m + 1 : -1])
    return prominence, np.flatnonzero(live[1 : m + 1] & (threshold <= prominence))


def _crossings(x: np.ndarray, start: np.ndarray, level: np.ndarray, step: int) -> np.ndarray:
    """The nearest index to each ``start``, going by ``step``, where ``x`` is at most ``level``, which must exist.

    Windows double from 16 samples, so each search costs O(its distance), as scipy's own walk does.
    """
    out = np.empty(start.size, np.intp)
    todo = np.arange(start.size)
    k, w = 0, 16
    while todo.size:
        idx = np.clip(start[todo, None] + step * np.arange(k, k + w), 0, x.size - 1)
        hit = x[idx] <= level[todo, None]
        found = hit.any(axis=1)
        out[todo[found]] = start[todo[found]] + step * (k + hit[found].argmax(axis=1))
        todo = todo[~found]
        k += w
        w = min(2 * w, max(16, _GATHER // max(todo.size, 1)))
    return out


def _find_peaks(x: np.ndarray, prominence: float, width: float):
    """Peak indices, prominences and widths, bitwise equal to ``scipy.signal.find_peaks(x, prominence=prominence,
    width=width)`` for a finite float signal and ``prominence`` > 0.

    Peaks are scipy's local maxima (:func:`_extrema`), kept when their prominence (:func:`_prominences`) is at
    least ``prominence`` and then their width at least ``width``.  The width is scipy's at half prominence:
    from the peak it walks out to the first sample at most h = x[p] - prominence/2 on each side, and interpolates
    linearly where that sample is below h.  scipy bounds the walk by the bases, the side minima, but those are at
    most h, so the first such sample is never beyond them.  Cost: O(n) for the extrema, O(m log m) for the
    prominences of m local maxima and O(width) per kept peak, against scipy's O(n + the sum of the side ranges).
    """
    d = np.diff(x)
    peaks = _extrema(d, d > 0.0)
    if not peaks.size:
        return peaks, np.empty(0), np.empty(0)
    valleys = _extrema(d, d < 0.0)  # one between each two peaks; the lowest samples at the ends are added
    inner = valleys[np.searchsorted(valleys, peaks[0]) : np.searchsorted(valleys, peaks[-1])]
    bottoms = np.concatenate(([x[: peaks[0]].min()], x[inner], [x[peaks[-1] :].min()]))
    prominences, keep = _prominences(x[peaks], bottoms, prominence)
    peaks, prominences = peaks[keep], prominences[keep]
    height = x[peaks] - prominences * 0.5
    left, right = _crossings(x, peaks, height, -1), _crossings(x, peaks, height, 1)
    xl, xr = x[left], x[right]
    left_ip, widths = left.astype(float), right.astype(float)
    below = xl < height
    left_ip[below] += (height[below] - xl[below]) / (x[left[below] + 1] - xl[below])
    below = xr < height
    widths[below] -= (height[below] - xr[below]) / (x[right[below] - 1] - xr[below])
    widths -= left_ip
    keep = width <= widths
    return peaks[keep], prominences[keep], widths[keep]


def detect_peaks(trace: ComplexTrace, prominence: float) -> list[Resonance]:
    """Initial resonance guesses from the modulus of a trace on a uniform grid.

    The guesses are unfitted :class:`Resonance` records (their errors are
    NaN).  Off-diagonal elements show peaks of |S|; diagonal elements show
    dips of |S_aa|.  The width guess comes from the half-prominence crossing:
    for the modulus of an isolated pole the full width at half maximum equals
    sqrt(3)*G off the diagonal and G for a shallow reflection dip.  Widths
    are converted from samples to Hz with the mean step, so every step must
    equal it to 1e-6 relative.

    The noise sigma per quadrature is estimated from the differenced trace,
    sigma = median|diff(S)| / (1.1774 * sqrt(2)) (the median of a Rayleigh
    variable with sigma*sqrt(2) per quadrature).  A peak is kept when its
    prominence reaches max(``prominence``, 8 sigma) and it is at least 2
    samples wide at half prominence, so noise spikes are dropped.

    A peak is a run of equal samples of the signal (|S|, or -|S| on the
    diagonal) with a lower run on each side, at the run's middle sample
    ((first + last) // 2); its prominence is its height less the higher of
    the lowest samples on each side before a strictly higher sample (or the
    end).  The indices, prominences and widths equal those of
    ``scipy.signal.find_peaks(signal, prominence=..., width=2.0)`` bitwise,
    which tests/test_resonance.py checks against scipy.
    """
    if len(trace) <= 10:
        raise InvalidArgumentError("trace must be longer than 10 samples")
    prominence = check_positive(prominence, "prominence")
    f = trace.frequencies
    step = (f[-1] - f[0]) / (len(trace) - 1)
    if np.any(np.abs(np.diff(f) - step) > 1e-6 * step):
        raise InvalidArgumentError("detect_peaks needs a uniform frequency grid")
    sigma = float(np.median(np.abs(np.diff(trace.values)))) / (1.1774 * math.sqrt(2.0))
    mag = np.abs(trace.values)
    signal = -mag if trace.is_diagonal else mag
    idx, prominences, widths = _find_peaks(signal, max(prominence, _NOISE_PROMINENCE * sigma), 2.0)
    gamma = widths * step / (1.0 if trace.is_diagonal else math.sqrt(3.0))
    amplitude = 0.5 * (prominences if trace.is_diagonal else mag[idx]) * gamma
    return [Resonance(float(c), float(g), float(a)) for c, g, a in zip(f[idx], gamma, amplitude)]


# ----------------------------------------------------------------------
# Damped least-squares fit
# ----------------------------------------------------------------------

# Steps under this fraction of every standard error only polish below the noise: going on
# to ``_TOL`` takes 1.5x the iterations on 50/200-pole traces and moves values < 2e-4 of one.
_SE_STEP = 1e-3
_TOL = 1e-8  # relative step that ends exact fits, whose standard errors vanish
_MAX_ITER = 200  # accepted steps per window fit
_WINDOW_HALF_WIDTH = 5.0  # half-width of a guess's fit window, in guessed widths


def _bw_model(params: np.ndarray, f: np.ndarray, delta: float):
    """Model values and the (R, M) inverse denominators for the packed parameters.

    Layout: [f_1, a_1, w_1, ..., f_R, a_R, w_R, bg_re, bg_im], read as the (R, 3) rows (centre, amplitude,
    log-width) of ``params[:-2].reshape(-1, 3)``, with the width reparametrised as G = exp(w) to keep it positive.
    """
    triples = params[:-2].reshape(-1, 3)
    inv = np.reciprocal(f - triples[:, :1] + 0.5j * np.exp(triples[:, 2:]))
    s = -1j * (triples[:, 1] @ inv) + (delta + params[-2] + 1j * params[-1])
    return s, inv


def _bw_jacobian(params: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Complex Jacobian as contiguous (P, M) rows, one per parameter, in the layout of ``_bw_model``."""
    triples = params[:-2].reshape(-1, 3)
    amplitude = triples[:, 1:2]
    inv2 = inv * inv
    jac = np.empty((params.size, inv.shape[1]), dtype=complex)
    rows = jac[:-2].reshape(-1, 3, inv.shape[1])
    rows[:, 0] = -1j * amplitude * inv2
    rows[:, 1] = -1j * inv
    rows[:, 2] = (-0.5 * np.exp(triples[:, 2:])) * amplitude * inv2
    jac[-2] = 1.0
    jac[-1] = 1j
    return jac


def _lm_minimise(p0, f, data, delta):
    """Damped least-squares on the joint real/imaginary residual; returns ``(p, errors, report)``.

    Levenberg damping, scaled by the normal-matrix diagonal N_ii, grows on every rejected step and shrinks after an
    accepted one, so the accepted cost sequence is nonincreasing.  Every log-width is clipped to [log(sample step),
    log(window span)].  The fit stops after an accepted step below ``_SE_STEP`` of every parameter's standard error
    sqrt(sigma^2 / N_ii), sigma^2 = cost/dof (never looser than the true one, since 1/N_ii <= (N^-1)_ii), or below
    ``_TOL`` relative to every parameter (to max|S| for the background, which may be 0), which ends exact fits.
    ``errors`` are sqrt(sigma^2 (N^-1)_ii), NaN where N is singular or the variance is not positive, with N formed
    at the start of the last iteration: before the last accepted step, or at the final p on a damping overflow.
    """
    span = f[-1] - f[0]
    bounds = (math.log(span / (f.size - 1)), math.log(span))

    def evaluate(p):
        """``p`` with its log-widths clipped in place, the model's 1/(f - pole) terms, the residual and the cost."""
        np.clip(p[2:-2:3], *bounds, out=p[2:-2:3])
        s, inv = _bw_model(p, f, delta)
        residual = s - data
        return p, inv, residual, float(np.vdot(residual, residual).real)

    p, inv, residual, cost = evaluate(np.asarray(p0, dtype=float).copy())
    history = [cost]
    dof = max(2 * f.size - p.size, 1)
    step_scale = np.full(p.size, np.abs(data).max())  # ``_TOL`` scale; the background's stays max|S|
    mu = 1e-3
    ok, message = False, "reached max_iter"
    for _ in range(_MAX_ITER):
        jv = _bw_jacobian(p, inv).view(float)
        normal = jv @ jv.T
        gradient = jv @ residual.view(float)
        info = normal.diagonal().copy()
        scale = np.where(info > 0.0, info, 1.0)
        while mu <= 1e15:
            damped = normal.copy()
            damped.flat[:: p.size + 1] += mu * scale
            try:
                trial = evaluate(p + np.linalg.solve(damped, -gradient))  # (p, inv, residual, cost)
            except np.linalg.LinAlgError:
                mu *= 5.0
                continue
            if trial[3] <= cost:
                break
            mu *= 5.0
        else:
            message = "damping overflow: no descent direction found"
            break
        step = trial[0] - p
        step_scale[:-2] = np.abs(p[:-2]) + 1e-300
        rel_step = float(np.max(np.abs(step) / step_scale))
        p, inv, residual, cost = trial
        history.append(cost)
        mu = max(mu / 3.0, 1e-14)
        if rel_step < _TOL:
            ok, message = True, "converged: relative step below tol"
            break
        if np.all(step * step * info < _SE_STEP**2 * cost / dof):
            ok, message = True, f"converged: step below {_SE_STEP:g} standard errors"
            break
    try:
        variance = cost / dof * np.diag(np.linalg.inv(normal))
    except np.linalg.LinAlgError:
        variance = np.full(p.size, np.nan)
    errors = np.sqrt(np.where(variance > 0.0, variance, np.nan))
    return p, errors, FitReport(ok, len(history) - 1, history, message, complex(p[-2], p[-1]))


def _cluster_guesses(guesses, half_width: float):
    """Connected groups of guesses whose +-half_width*G windows overlap or touch, as (group, lo, hi) in centre order.

    Each window holds its centre, so a group ends where every window so far ends before every later one begins,
    and there the running max ``hi`` and reverse running min ``lo`` are the group's own span [lo, hi].
    """
    order = np.argsort([g.center for g in guesses])
    center = np.array([guesses[i].center for i in order])
    width = np.array([guesses[i].width for i in order])
    hi = np.maximum.accumulate(center + half_width * width)
    lo = np.minimum.accumulate((center - half_width * width)[::-1])[::-1]
    ends = np.r_[0, np.flatnonzero(hi[:-1] < lo[1:]) + 1, order.size]
    return [([guesses[i] for i in order[a:b]], lo[a], hi[b - 1]) for a, b in zip(ends[:-1], ends[1:])]


def fit_resonances(trace: ComplexTrace, guesses) -> ResonanceSet:
    """Fit the complex Breit-Wigner form to a trace around each guess.

    ``guesses`` are :class:`Resonance` records, as from :func:`detect_peaks`.
    Guesses whose windows (5 guessed widths either side) overlap or touch are
    fitted jointly; each window carries its own complex constant background
    accounting for the tails of neighbouring resonances.  The squared
    modulus of (model - data) is minimised jointly over real and imaginary
    parts by ``_lm_minimise``, which states the width clip, the stopping
    rules (``_SE_STEP``, ``_TOL`` and ``_MAX_ITER``) and the standard errors;
    ``FitReport.message`` names the rule that stopped each window.

    A fit that does not converge is returned flagged
    (``Resonance.converged = False``) together with diagnostics in the
    report list, never silently dropped.
    """
    guesses = list(guesses)
    if not guesses:
        raise InvalidArgumentError("need at least one guess")
    delta = 1.0 if trace.is_diagonal else 0.0
    f = trace.frequencies
    resonances: list[Resonance] = []
    reports: list[FitReport] = []
    for cluster, lo, hi in _cluster_guesses(guesses, _WINDOW_HALF_WIDTH):
        i0, i1 = np.searchsorted(f, lo, "left"), np.searchsorted(f, hi, "right")
        if i1 - i0 < 8 * len(cluster):
            raise InvalidArgumentError(f"window [{lo:g}, {hi:g}] holds {i1 - i0} samples; need >= 8 per resonance")
        p0 = np.array([x for g in cluster for x in (g.center, g.amplitude, math.log(g.width))] + [0.0, 0.0])
        p, err, report = _lm_minimise(p0, f[i0:i1], trace.values[i0:i1], delta)
        for (c, a, w), (c_err, a_err, w_err) in zip(p[:-2].reshape(-1, 3), err[:-2].reshape(-1, 3)):
            gamma = math.exp(w)
            resonances.append(Resonance(center=c, width=gamma, amplitude=abs(a), center_error=c_err,
                                        width_error=gamma * w_err, amplitude_error=a_err, converged=report.converged))
        reports.append(report)
    order = np.argsort([r.center for r in resonances])
    return ResonanceSet([resonances[i] for i in order], reports)


# ----------------------------------------------------------------------
# Strengths
# ----------------------------------------------------------------------

_NEIGHBORHOOD = 10  # resonances in the running local mean of the strengths

@dataclass(frozen=True)
class StrengthSample:
    """One resonance strength y = G_a*G_b and its log-relative value z."""

    y: float
    z: float


def strength_samples(resonances) -> list[StrengthSample]:
    """Strengths y = amplitude^2 normalised by a running local mean.

    The local mean <y> runs over 10 consecutive resonances in centre order,
    5 below to 4 above each, shifted inward at the ends (all of them if
    fewer than 10), and z = log10(y/<y>).  The local normalisation makes z
    invariant under any global rescaling of the amplitudes.  Zero amplitudes
    carry no strength information and are dropped with a :class:`QualityWarning`.
    """
    res = sorted(resonances, key=lambda r: r.center)
    y = np.array([r.amplitude**2 for r in res])
    keep = y > 0.0
    if not np.all(keep):
        warnings.warn(f"dropping {int(np.sum(~keep))} zero-amplitude resonances", QualityWarning, stacklevel=2)
        y = y[keep]
    if y.size == 0:
        return []
    n = min(_NEIGHBORHOOD, y.size)
    means = sliding_window_view(y, n).mean(axis=1)
    z = np.log10(y / means[np.clip(np.arange(y.size) - _NEIGHBORHOOD // 2, 0, y.size - n)])
    return [StrengthSample(float(a), float(b)) for a, b in zip(y, z)]


def k0_strength_pdf(z_grid) -> StatCurve:
    """Density of z = log10(y/<y>) for the K0 strength law.

    With u = 10^z the density is P(z) = ln(10) * sqrt(u) * K0(sqrt(u)) / pi,
    the change of variables of P(y) = K0(sqrt(y))/(pi*sqrt(y)) at unit
    mean strength.  z is clipped at 600, where 10^(z/2) is finite and P(z) is 0 (as beyond z = 5.75); P(z) is
    0, its limit to within 3e-321, where K0(sqrt(u)) is inf: below z = -647.2 and at the smallest subnormal.
    """
    z = as_float_array(z_grid, "z_grid")
    root_u = np.power(10.0, 0.5 * np.minimum(z, 600.0))
    k0_root_u = bessel_k0(root_u)
    pdf = np.multiply(math.log(10.0) / math.pi * root_u, k0_root_u,
                      out=np.zeros_like(root_u), where=np.isfinite(k0_root_u))
    return StatCurve(z, pdf)
