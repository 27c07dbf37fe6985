"""Reference fluctuation models: Poisson, GOE and semi-Poisson.

Closed forms for the spacing distribution P(s), its cumulative I(s), the
number variance Sigma^2(L) and the rigidity Delta3(L), plus random
generators producing unfolded reference sequences for Monte Carlo.

The GOE long-range forms are the standard large-L logarithmic
approximations, accurate at the percent level for L >~ 1:

    Sigma^2(L) = (2/pi^2) [ln(2 pi L) + gamma + 1 - pi^2/8]
    Delta3(L)  = (1/pi^2) [ln(2 pi L) + gamma - 5/4 - pi^2/8]

The semi-Poisson Delta3 follows from Sigma^2(L) = L/2 + (1 - e^(-4L))/8
through the kernel

    Delta3(L) = (2/L^4) * int_0^L (L^3 - 2 L^2 r + r^3) Sigma^2(r) dr.

Its elementary closed form is used for L >= 1 (within 5e-16 relative up to
L = 5000, where quadrature drifted to 2e-6); below L = 1 its terms cancel
(2e-14 relative near L = 0.3, 4e-9 at 0.01), so the kernel is integrated by
quadrature there (within 4e-15).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal

from .errors import InvalidArgumentError
from .statistics import StatCurve, _step_curve, ks_distance
from .unfolding import UnfoldedSpectrum
from .validation import as_float_array

__all__ = [
    "MODELS",
    "spacing_pdf",
    "spacing_cdf",
    "sigma2_curve",
    "delta3_curve",
    "reference_curve",
    "generate_reference_sequence",
    "spacing_ks",
    "semicircle_counting",
]

MODELS = ("poisson", "goe", "semi-poisson")

_EULER_GAMMA = float(np.euler_gamma)


def _check_model(model: str) -> str:
    model = str(model).lower().replace("_", "-")
    if model == "wigner":
        model = "goe"
    if model not in MODELS:
        raise InvalidArgumentError(f"unknown model {model!r}; expected one of {MODELS}")
    return model


def spacing_pdf(model: str, s) -> np.ndarray:
    """P(s) for unit mean spacing: e^-s, Wigner surmise, or 4 s e^-2s."""
    model = _check_model(model)
    s = np.asarray(s, dtype=float)
    if model == "poisson":
        return np.exp(-s)
    if model == "goe":
        return 0.5 * math.pi * s * np.exp(-0.25 * math.pi * s**2)
    return 4.0 * s * np.exp(-2.0 * s)


def spacing_cdf(model: str, s) -> np.ndarray:
    """I(s), the cumulative of :func:`spacing_pdf`."""
    model = _check_model(model)
    s = np.asarray(s, dtype=float)
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
    return 0.5 * L + 0.125 * (1.0 - np.exp(-4.0 * L))


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
    kernel = lambda r, x: (x**3 - 2.0 * x**2 * r + r**3) * _sigma2(model, np.asarray(r))
    out[L < 1.0] = [2.0 * quad(kernel, 0.0, v, args=(v,), limit=200)[0] / v**4 for v in L[L < 1.0]]
    return out


def _long_range_curve(formula, model: str, lengths) -> StatCurve:
    model = _check_model(model)
    L = as_float_array(lengths, "lengths")
    if np.any(L <= 0.0):
        raise InvalidArgumentError("Sigma^2 and Delta3 require positive lengths L")
    return StatCurve(L, formula(model, L))


def sigma2_curve(model: str, lengths) -> StatCurve:
    return _long_range_curve(_sigma2, model, lengths)


def delta3_curve(model: str, lengths) -> StatCurve:
    return _long_range_curve(_delta3, model, lengths)


_STATISTICS = {
    "p": lambda m, g: StatCurve(g, spacing_pdf(m, g)),
    "i": lambda m, g: StatCurve(g, spacing_cdf(m, g)),
    "sigma2": lambda m, g: sigma2_curve(m, g),
    "delta3": lambda m, g: delta3_curve(m, g),
}

_STATISTIC_ALIASES = {"σ²": "sigma2", "Σ²": "sigma2", "δ3": "delta3", "Δ3": "delta3"}


def reference_curve(model: str, statistic: str, grid) -> StatCurve:
    """Closed-form reference curve for one model and statistic.

    ``statistic`` is one of ``P`` (spacing density), ``I`` (cumulative
    spacings), ``sigma2`` (number variance) or ``delta3`` (rigidity);
    the unicode spellings of the latter two are accepted.
    """
    model = _check_model(model)
    key = _STATISTIC_ALIASES.get(str(statistic), str(statistic).lower())
    if key not in _STATISTICS:
        raise InvalidArgumentError(f"unknown statistic {statistic!r}")
    grid = as_float_array(grid, "grid")
    if key in ("p", "i") and np.any(grid < 0.0):
        raise InvalidArgumentError("spacing statistics require s >= 0")
    return _STATISTICS[key](model, grid)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def semicircle_counting(eigenvalues: np.ndarray, n: int, radius: float) -> np.ndarray:
    """Integrated semicircle density: expected number of levels below E."""
    e = np.clip(eigenvalues / radius, -1.0, 1.0)
    return n * (0.5 + (e * np.sqrt(1.0 - e**2) + np.arcsin(e)) / math.pi)


def generate_reference_sequence(model: str, n_levels: int, seed=None, sequences: int = 1) -> UnfoldedSpectrum:
    """Random unfolded sequences following one of the reference models.

    poisson
        Cumulative sums of unit-mean exponential gaps.
    semi-poisson
        Every second level of a Poisson sequence, spacings rescaled by the
        exact factor 2 (the construction reproduces P(s) = 4 s e^-2s
        exactly in distribution).
    goe
        Eigenvalues of the tridiagonal GOE model of Dumitriu and Edelman
        (J. Math. Phys. 43, 5830 (2002)) of dimension N = 2*n_levels:
        diagonal N(0, 2 sigma^2), off-diagonal sigma * chi_k, k = N-1, ..., 1,
        sigma^2 = 1/(4N).  LAPACK's sterf computes all N (selecting an index
        range is slower); the central half is kept and unfolded with the
        integrated semicircle law of radius 1.
    """
    model = _check_model(model)
    n_levels = int(n_levels)
    if n_levels < 2:
        raise InvalidArgumentError("n_levels must be >= 2")
    sequences = int(sequences)
    if sequences < 1:
        raise InvalidArgumentError("sequences must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[np.ndarray] = []
    for _ in range(sequences):
        if model == "poisson":
            out.append(np.cumsum(rng.exponential(1.0, n_levels)))
        elif model == "semi-poisson":
            gaps = rng.exponential(1.0, 2 * n_levels).reshape(n_levels, 2).sum(axis=1)
            out.append(np.cumsum(0.5 * gaps))
        else:
            central = _goe_eigenvalues(rng, 2 * n_levels)[n_levels // 2 : n_levels // 2 + n_levels]
            out.append(semicircle_counting(central, 2 * n_levels, 1.0))
    return UnfoldedSpectrum(out, provenance=f"{model} reference")


def _goe_eigenvalues(rng: np.random.Generator, n_dim: int) -> np.ndarray:
    """All eigenvalues, ascending, of a GOE matrix with semicircle radius 1."""
    sd = 1.0 / math.sqrt(4.0 * n_dim)
    diagonal = rng.normal(0.0, math.sqrt(2.0) * sd, n_dim)
    off_diagonal = sd * np.sqrt(rng.chisquare(np.arange(n_dim - 1, 0, -1)))
    return eigvalsh_tridiagonal(diagonal, off_diagonal, lapack_driver="sterf")


def spacing_ks(u: UnfoldedSpectrum, model: str, rescale: bool = True) -> float:
    """Exact KS statistic of the pooled spacings against a model cdf.

    :func:`~billiardlab.statistics.ks_distance` of their step curve against
    the model cdf sampled at the spacings.  With ``rescale`` the spacings are
    divided by their sample mean first, which compares the shape of the
    distribution independently of small unfolding imperfections.
    """
    model = _check_model(model)
    s = u.spacings()
    if s.size == 0:
        raise InvalidArgumentError("no spacings available")
    if rescale:
        s = s / s.mean()
    s = np.sort(s)
    return ks_distance(_step_curve(s), StatCurve(s, spacing_cdf(model, s)))
