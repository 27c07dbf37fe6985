"""Reference fluctuation models: Poisson, GOE and semi-Poisson.

Closed forms for the spacing distribution P(s), its cumulative I(s), the
number variance Sigma^2(L) and the rigidity Delta3(L), plus random
generators producing unfolded reference sequences for Monte Carlo.
``reference_curve`` is the one entry to every curve: models are spelled
exactly as in ``MODELS`` and statistics as ``"P"``, ``"I"``, ``"sigma2"``
or ``"delta3"``, with no aliases.

The GOE long-range forms are the standard large-L logarithmic
approximations:

    Sigma^2(L) = (2/pi^2) [ln(2 pi L) + gamma + 1 - pi^2/8]
    Delta3(L)  = (1/pi^2) [ln(2 pi L) + gamma - 5/4 - pi^2/8]

They fail at short windows.  Against the exact GOE curves (Mehta, Random
Matrices, 3rd ed. (2004), ch. 16) Sigma^2 is 4% low at L = 0.5 and within
1% from L = 1 on, but Delta3 is -0.0070 against 0.0605 at L = 1, and 38%
low at L = 2, 10% at L = 5 and 4% at L = 10.  ROADMAP.md ("Exact GOE
Sigma^2 and Delta3") gives the measurement and the exact forms to use.

The semi-Poisson Delta3 follows from Sigma^2(L) = L/2 + (1 - e^(-4L))/8
through the kernel

    Delta3(L) = (2/L^4) * int_0^L (L^3 - 2 L^2 r + r^3) Sigma^2(r) dr.

Its elementary closed form is used for L >= 1; below L = 1 its terms
cancel, so a fixed 16-node Gauss-Legendre rule in t = r/L integrates the
kernel.  Against mpmath quadrature of the kernel, both branches are within
1e-13 relative on [1e-6, 40] (``test_semi_poisson_delta3_both_branches_against_mpmath``)
and the closed form within 1e-12 on [1000, 5000]
(``test_semi_poisson_delta3_long_windows_against_mpmath``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import InvalidArgumentError
from .statistics import StatCurve, _step_curve, ks_distance
from .unfolding import UnfoldedSpectrum
from .validation import as_float_array, check_count

__all__ = [
    "MODELS",
    "spacing_pdf",
    "spacing_cdf",
    "reference_curve",
    "generate_reference_sequence",
    "spacing_ks",
]

MODELS = ("poisson", "goe", "semi-poisson")

_EULER_GAMMA = float(np.euler_gamma)


def _check_model(model: str) -> None:
    if model not in MODELS:
        raise InvalidArgumentError(f"unknown model {model!r}; expected one of {MODELS}")


def spacing_pdf(model: str, s) -> np.ndarray:
    """P(s) for unit mean spacing: e^-s, Wigner surmise or 4 s e^-2s; s is clipped at 1e3 (P is 0 beyond s = 746)."""
    _check_model(model)
    s = np.minimum(np.asarray(s, dtype=float), 1e3)
    if model == "poisson":
        return np.exp(-s)
    if model == "goe":
        return 0.5 * math.pi * s * np.exp(-0.25 * math.pi * s**2)
    return 4.0 * s * np.exp(-2.0 * s)


def spacing_cdf(model: str, s) -> np.ndarray:
    """I(s), the cumulative of :func:`spacing_pdf`; s is clipped at 1e3 (I is 1 beyond s = 38)."""
    _check_model(model)
    s = np.minimum(np.asarray(s, dtype=float), 1e3)
    if model == "poisson":
        return 1.0 - np.exp(-s)
    if model == "goe":
        return 1.0 - np.exp(-0.25 * math.pi * s**2)
    return 1.0 - (1.0 + 2.0 * s) * np.exp(-2.0 * s)


def _sigma2(model: str, L: np.ndarray) -> np.ndarray:
    if model == "poisson":
        return L.copy()
    if model == "goe":
        return (2.0 / math.pi**2) * (
            np.log(2.0 * math.pi * L) + _EULER_GAMMA + 1.0 - math.pi**2 / 8.0
        )
    return 0.5 * L - 0.125 * np.expm1(-4.0 * L)


def _delta3(model: str, L: np.ndarray) -> np.ndarray:
    if model == "poisson":
        return L / 15.0
    if model == "goe":
        return (1.0 / math.pi**2) * (
            np.log(2.0 * math.pi * L) + _EULER_GAMMA - 1.25 - math.pi**2 / 8.0
        )
    x = np.where(L < 1.0, 1.0, L)
    out = (
        x / 30.0 + 1.0 / 16.0 - 1.0 / (16.0 * x) + 1.0 / (32.0 * x**2) + 3.0 / (512.0 * x**4) * np.expm1(-4.0 * x)
        + np.exp(-4.0 * x) * (1.0 / (64.0 * x**2) + 3.0 / (128.0 * x**3))
    )
    x_gl, w_gl = np.polynomial.legendre.leggauss(16)  # Delta3 = 2 int_0^1 (1 - 2t + t^3) Sigma^2(L t) dt
    t = 0.5 * (1.0 + x_gl)  # [-1, 1] -> [0, 1]; the Jacobian 1/2 cancels the factor 2
    out[L < 1.0] = np.sum(w_gl * (1.0 - 2.0 * t + t**3) * _sigma2(model, L[L < 1.0, None] * t), axis=1)
    return out


_CURVES = {"P": spacing_pdf, "I": spacing_cdf, "sigma2": _sigma2, "delta3": _delta3}


def reference_curve(model: str, statistic: str, grid) -> StatCurve:
    """Closed-form reference curve of one model and statistic on ``grid``.

    ``model`` is one of ``MODELS`` and ``statistic`` one of ``"P"``
    (spacing density), ``"I"`` (cumulative spacings), ``"sigma2"`` (number
    variance) or ``"delta3"`` (rigidity), spelled exactly so.  Spacing
    grids must be >= 0 and window lengths > 0.
    """
    _check_model(model)
    if statistic not in tuple(_CURVES):
        raise InvalidArgumentError(f"unknown statistic {statistic!r}; expected one of {tuple(_CURVES)}")
    grid = as_float_array(grid, "grid")
    if np.any(grid < 0.0) or (statistic in ("sigma2", "delta3") and np.any(grid == 0.0)):
        raise InvalidArgumentError("spacing grids must be >= 0 and the lengths L of Sigma^2 and Delta3 > 0")
    return StatCurve(grid, _CURVES[statistic](model, grid))


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def _semicircle_counting(eigenvalues: np.ndarray, n: int) -> np.ndarray:
    """Integrated semicircle density of radius 1: expected number of levels below E."""
    e = np.clip(eigenvalues, -1.0, 1.0)
    return n * (0.5 + (e * np.sqrt(1.0 - e**2) + np.arcsin(e)) / math.pi)


def generate_reference_sequence(model: str, n_levels: int, seed=None, sequences: int = 1) -> UnfoldedSpectrum:
    """Random unfolded sequences following one of the reference models.

    poisson, semi-poisson
        Renewal processes: cumulative sums of gaps that are each the mean
        of a unit exponentials, a = 1 for Poisson and a = 2 for
        semi-Poisson.  The gaps are Gamma(a)/a with unit mean, so P(s) is
        e^-s and 4 s e^-2s exactly in distribution (semi-Poisson is every
        second level of a Poisson sequence, rescaled by 2).
    goe
        Eigenvalues of the tridiagonal GOE model of Dumitriu and Edelman
        (J. Math. Phys. 43, 5830 (2002)) of dimension N = 2*n_levels:
        diagonal N(0, 2 sigma^2), off-diagonal sigma * chi_k, k = N-1, ..., 1,
        sigma^2 = 1/(4N).  LAPACK's sterf computes all N (selecting an index
        range is slower); the central half is kept and unfolded with the
        integrated semicircle law of radius 1.
    """
    _check_model(model)
    n_levels = check_count(n_levels, "n_levels", 2)
    sequences = check_count(sequences, "sequences", 1)
    rng = np.random.default_rng(seed)
    out: list[np.ndarray] = []
    for _ in range(sequences):
        if model == "goe":
            central = _goe_eigenvalues(rng, 2 * n_levels)[n_levels // 2 : n_levels // 2 + n_levels]
            out.append(_semicircle_counting(central, 2 * n_levels))
        else:
            a = 2 if model == "semi-poisson" else 1
            out.append(np.cumsum(rng.exponential(1.0, (n_levels, a)).sum(axis=1) / a))
    return UnfoldedSpectrum(out)


def _goe_eigenvalues(rng: np.random.Generator, n_dim: int) -> np.ndarray:
    """All eigenvalues, ascending, of a GOE matrix with semicircle radius 1."""
    sd = 1.0 / math.sqrt(4.0 * n_dim)
    diagonal = rng.normal(0.0, math.sqrt(2.0) * sd, n_dim)
    off_diagonal = sd * np.sqrt(rng.chisquare(np.arange(n_dim - 1, 0, -1)))
    return eigvalsh_tridiagonal(diagonal, off_diagonal, lapack_driver="sterf")


def spacing_ks(u: UnfoldedSpectrum, model: str) -> float:
    """Exact KS statistic of the pooled spacings, rescaled, against a model cdf.

    :func:`~billiardlab.statistics.ks_distance` of their step curve against
    the model cdf sampled at the spacings.  The spacings are divided by
    their sample mean first, which compares the shape of the distribution
    independently of small unfolding imperfections.  The statistic of the
    spacings as they are is ``ks_distance(cumulative_spacing(u),
    reference_curve(model, "I", np.sort(u.spacings())))``.  Spacings that
    are all zero have no mean to divide by and raise InvalidArgumentError.
    """
    s = u.spacings()
    mean = s.mean()
    if mean == 0.0:
        raise InvalidArgumentError("zero mean spacing: all levels are equal, so the spacings cannot be rescaled")
    s = np.sort(s / mean)
    return ks_distance(_step_curve(s), StatCurve(s, spacing_cdf(model, s)))
