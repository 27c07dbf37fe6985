"""Every public constructor and entry point rejects invalid input with
InvalidArgumentError, from the check that names the fault."""

import math

import numpy as np
import pytest

from billiardlab.billiard import (
    SectorGeometry,
    WavevectorSpectrum,
    WeylParams,
    bessel_order_zeros,
    point_scatterer_spectrum,
    sector_eigenvalues,
)
from billiardlab.errors import InvalidArgumentError
from billiardlab.reference import generate_reference_sequence
from billiardlab.resonance import ComplexTrace
from billiardlab.statistics import StatCurve
from billiardlab.unfolding import missing_level_scan
from billiardlab.validation import as_float_array, check_ascending, check_count, check_positive, is_real

_BASE = WavevectorSpectrum([1.0, 2.0, 3.0])

# name: (call, the message it must raise)
_REJECTED = {
    "nan-in-float-array": (lambda: as_float_array([1.0, math.nan], "x"), "non-finite"),
    "inf-in-float-array": (lambda: as_float_array([-math.inf, 1.0], "x"), "non-finite"),
    "2-d-float-array": (lambda: as_float_array(np.zeros((2, 2)), "x"), "1-dimensional"),
    "0-d-float-array": (lambda: as_float_array(1.0, "x"), "1-dimensional"),
    "nan-in-ascending-check": (lambda: check_ascending(np.array([0.0, math.nan, 2.0]), "x", False), "x must be ascending"),
    "nan-in-strictly-ascending-check": (
        lambda: check_ascending(np.array([0.0, math.nan, 2.0]), "x"),
        "x must be strictly ascending",
    ),
    "zero-spectrum-value": (lambda: WavevectorSpectrum([0.0, 1.0]), "positive"),
    "negative-spectrum-value": (lambda: WavevectorSpectrum([-1.0, 1.0]), "positive"),
    "labels-of-wrong-length": (lambda: WavevectorSpectrum([1.0, 2.0], labels=[(1, 1)]), "length of values"),
    "bessel_next-of-wrong-length": (
        lambda: WavevectorSpectrum([1.0, 2.0], [(1, 1), (1, 2)], [0.1, 0.2, 0.3]),
        "length of values",
    ),
    "zero-sector-angle": (lambda: SectorGeometry(1.0, 0.0), "angle"),
    "full-turn-sector-angle": (lambda: SectorGeometry(1.0, 2.0 * math.pi), "angle"),
    "negative-sector-angle": (lambda: SectorGeometry(1.0, -0.5), "angle"),
    "negative-mode-intensity": (
        lambda: point_scatterer_spectrum(_BASE, [0.1, -0.1, 0.1], 1.0, 1.0),
        "mode_intensities must be nonnegative",
    ),
    "zero-reference-sequences": (
        lambda: generate_reference_sequence("poisson", 10, seed=1, sequences=0),
        "sequences must be >= 1",
    ),
    "zero-scan-window": (
        lambda: missing_level_scan(np.arange(1.0, 11.0), WeylParams(1.0, 1.0), window=0),
        "window must be >= 1",
    ),
    # a count that is not an integer is rejected, never truncated
    "fractional-scan-window": (
        lambda: missing_level_scan(np.arange(1.0, 11.0), WeylParams(1.0, 1.0), window=2.5),
        "window must be >= 1",
    ),
    "fractional-zero-count": (lambda: bessel_order_zeros(1.0, 3.9), "count must be >= 1"),
    "string-reference-length": (
        lambda: generate_reference_sequence("poisson", "3", seed=1),
        "n_levels must be >= 2",
    ),
    "fractional-reference-sequences": (
        lambda: generate_reference_sequence("poisson", 10, seed=1, sequences=2.5),
        "sequences must be >= 1",
    ),
    # text and booleans are not numbers, whichever checker takes them
    "string-k-max": (
        lambda: sector_eigenvalues(SectorGeometry(0.8, math.pi / 3), "40"),
        "k_max must be a finite positive number",
    ),
    "boolean-sector-radius": (lambda: SectorGeometry(True, 1.0), "radius must be a finite positive number"),
    "string-sector-angle": (lambda: SectorGeometry(1.0, "1.0"), "angle must be a finite positive number"),
    "numpy-boolean-positive": (lambda: check_positive(np.True_, "x"), "x must be a finite positive number"),
    "numpy-boolean-count": (lambda: check_count(np.True_, "n", 1), "n must be >= 1"),
    "boolean-reference-sequences": (
        lambda: generate_reference_sequence("poisson", 10, seed=1, sequences=True),
        "sequences must be >= 1",
    ),
    "string-coupling": (lambda: point_scatterer_spectrum(_BASE, [0.1, 0.1, 0.1], "5", 1.0), "coupling must be nonzero"),
    "boolean-coupling": (lambda: point_scatterer_spectrum(_BASE, [0.1, 0.1, 0.1], True, 1.0), "coupling must be nonzero"),
    "string-bessel-order": (lambda: bessel_order_zeros("2", 3), "order must be finite and >= 0"),
    "boolean-bessel-order": (lambda: bessel_order_zeros(True, 3), "order must be finite and >= 0"),
    "trace-lengths-differ": (lambda: ComplexTrace([1.0, 2.0], [1.0 + 0.0j]), "equal length"),
    "curve-abscissa-and-ordinate-differ": (lambda: StatCurve([0.0, 1.0], [0.0]), "equal length"),
    "curve-abscissa-and-counts-differ": (
        lambda: StatCurve([0.0, 1.0], [0.0, 1.0], counts=[3]),
        "counts must match",
    ),
}


@pytest.mark.parametrize("call, message", _REJECTED.values(), ids=_REJECTED.keys())
def test_invalid_input_rejected(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()


@pytest.mark.parametrize("x", [2, 2.5, np.float64(2.5), np.float32(2.5), np.int64(2), np.array(2.5)])
def test_numbers_and_0d_arrays_accepted(x):
    assert check_positive(x, "x") == float(x)


@pytest.mark.parametrize("x", [2, np.float64(2.0), np.int64(2), np.array(2.0)])
def test_numbers_and_0d_arrays_accepted_as_coupling_and_order(x):
    # the two scalars that may be negative or zero follow the same type rule, ``is_real``
    assert is_real(x) and is_real(-x)
    want = point_scatterer_spectrum(_BASE, [0.1, 0.1, 0.1], 2.0, 2.5).values
    np.testing.assert_array_equal(point_scatterer_spectrum(_BASE, [0.1, 0.1, 0.1], x, 2.5).values, want)
    np.testing.assert_array_equal(bessel_order_zeros(x, 3), bessel_order_zeros(2.0, 3))


@pytest.mark.parametrize("x", [3, np.int64(3), np.uint8(3), np.array(3)])
def test_integers_accepted_as_counts(x):
    assert check_count(x, "n", 1) == 3
