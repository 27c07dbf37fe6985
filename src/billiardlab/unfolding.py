"""Unfolding, sequence splitting and missing-level detection."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .billiard import WavevectorSpectrum, WeylParams, weyl_count
from .errors import InvalidArgumentError, QualityWarning
from .validation import as_float_array

__all__ = [
    "UnfoldedSpectrum",
    "unfold",
    "split_sequences",
    "missing_level_scan",
    "MissingLevel",
]


@dataclass
class UnfoldedSpectrum:
    """Dimensionless levels with unit mean spacing, split into complete sequences.

    Spacing statistics are always computed within sequences, never across a
    split, so incomplete stretches of a measured spectrum can be excised
    without biasing the small-spacing end of the distributions.
    """

    sequences: list[np.ndarray]

    def __post_init__(self):
        cleaned = []
        for i, seq in enumerate(self.sequences):
            seq = as_float_array(seq, f"sequences[{i}]")
            if seq.size and np.any(np.diff(seq) < 0.0):
                raise InvalidArgumentError(f"sequences[{i}] must be ascending")
            cleaned.append(seq)
        self.sequences = cleaned

    def __len__(self) -> int:
        return int(sum(seq.size for seq in self.sequences))

    def spacings(self) -> np.ndarray:
        """Pooled nearest-neighbour spacings, never across sequence cuts."""
        parts = [np.diff(seq) for seq in self.sequences if seq.size >= 2]
        if not parts:
            return np.empty(0)
        return np.concatenate(parts)

    def mean_spacing(self) -> float:
        s = self.spacings()
        return float(s.mean()) if s.size else float("nan")


def unfold(spectrum: WavevectorSpectrum | np.ndarray, params: WeylParams) -> UnfoldedSpectrum:
    """Map eigen-wavevectors to dimensionless levels eps_n = N_Weyl(k_n).

    ``spectrum`` is a :class:`WavevectorSpectrum` or a 1-D array of
    ascending wavevectors; the result holds one sequence.  Warns
    (:class:`QualityWarning`) when the pooled mean spacing deviates from 1
    by more than 2%, which indicates Weyl parameters inconsistent with the
    spectrum.
    """
    values = spectrum.values if isinstance(spectrum, WavevectorSpectrum) else spectrum
    values = as_float_array(values, "spectrum")
    if values.size == 0:
        raise InvalidArgumentError("cannot unfold an empty spectrum")
    eps = weyl_count(values, params)
    u = UnfoldedSpectrum([np.asarray(eps)])
    if values.size >= 2:
        mean = u.mean_spacing()
        if not (0.98 <= mean <= 1.02):
            warnings.warn(
                f"unfolded mean spacing {mean:.4f} deviates from 1 by more than 2%",
                QualityWarning,
                stacklevel=2,
            )
    return u


def split_sequences(u: UnfoldedSpectrum, cuts) -> UnfoldedSpectrum:
    """Split sequences at the given level positions (dimensionless units).

    Every cut must fall strictly inside one of the sequences.  Levels are
    preserved; only the pairing of neighbours across a cut is removed.
    """
    cuts = np.atleast_1d(np.asarray(cuts, dtype=float))
    sequences = [seq.copy() for seq in u.sequences]
    for cut in cuts:
        for i, seq in enumerate(sequences):
            if seq.size >= 2 and seq[0] < cut < seq[-1]:
                j = int(np.searchsorted(seq, cut))
                sequences[i : i + 1] = [seq[:j], seq[j:]]
                break
        else:
            raise InvalidArgumentError(f"cut position {cut} is not inside any sequence")
    return UnfoldedSpectrum(sequences)


@dataclass(frozen=True)
class MissingLevel:
    """One detected staircase drop: position (same units as the input levels),
    nearest level index, and the estimated step size (negative for a loss)."""

    position: float
    index: int
    step: float


def missing_level_scan(
    values, params: WeylParams, window: int = 20
) -> list[MissingLevel]:
    """Locate missing levels from drops of the fluctuating counting function.

    Computes N_fluc(k_n) = n - N_Weyl(k_n) and compares its running mean
    over ``window`` levels on both sides of every position.  A drop of at
    least 0.7 between adjacent plateaus is reported; a single missing level
    produces a step near -1, and deletions closer together than the window
    merge into one report with step near -2.
    """
    k = as_float_array(values, "values")
    window = int(window)
    if window < 1:
        raise InvalidArgumentError("window must be >= 1")
    if k.size < 3 * window:
        raise InvalidArgumentError("need at least 3*window levels")
    n = np.arange(1, k.size + 1)
    fluc = n - weyl_count(k, params)
    csum = np.concatenate([[0.0], np.cumsum(fluc)])
    centers = np.arange(window, k.size - window + 1)
    ahead = (csum[centers + window] - csum[centers]) / window
    behind = (csum[centers] - csum[centers - window]) / window
    drop = ahead - behind
    hits = drop <= -0.7
    reports: list[MissingLevel] = []
    i = 0
    while i < hits.size:
        if not hits[i]:
            i += 1
            continue
        j = i
        while j < hits.size and hits[j]:
            j += 1
        run = slice(i, j)
        best = i + int(np.argmin(drop[run]))
        idx = int(centers[best])
        reports.append(MissingLevel(position=float(k[idx]), index=idx, step=float(drop[best])))
        i = j
    return reports
