import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0

from billiardlab.errors import QualityWarning
from billiardlab.resonance import (
    Resonance,
    k0_strength_pdf,
    strength_samples,
)


def make_resonances(amplitudes):
    return [Resonance(1e9 + 5e6 * i, 1e6, a) for i, a in enumerate(amplitudes)]


class TestStrengthSamples:
    def test_equal_amplitudes_give_zero_z(self):
        samples = strength_samples(make_resonances(np.full(30, 2.0e5)))
        assert all(s.z == pytest.approx(0.0, abs=1e-14) for s in samples)

    def test_global_rescaling_leaves_z_unchanged(self):
        rng = np.random.default_rng(5)
        amps = rng.uniform(0.1, 1.0, 50)
        z1 = [s.z for s in strength_samples(make_resonances(amps))]
        z2 = [s.z for s in strength_samples(make_resonances(100.0 * amps))]
        np.testing.assert_allclose(z1, z2, atol=1e-12)

    def test_zero_amplitude_dropped_with_warning(self):
        amps = np.ones(20)
        amps[3] = 0.0
        with pytest.warns(UserWarning):
            samples = strength_samples(make_resonances(amps))
        assert len(samples) == 19

    def test_zero_amplitude_warning_is_quality_warning(self):
        with pytest.warns(QualityWarning, match="zero-amplitude"):
            strength_samples(make_resonances([1.0, 0.0, 2.0]))

    def test_local_normalisation_window(self):
        # a slowly varying secular trend is divided out by the local mean
        n = 200
        trend = np.exp(np.linspace(0.0, 3.0, n))
        samples = strength_samples(make_resonances(np.sqrt(trend)))
        z = np.array([s.z for s in samples])
        assert np.max(np.abs(z)) < 0.1


class TestK0Pdf:
    def test_normalisation(self):
        val, _ = quad(
            lambda z: float(k0_strength_pdf([z]).ordinate[0]), -60.0, 8.0, limit=300
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_mean_strength_is_one(self):
        val, _ = quad(
            lambda z: 10.0**z * float(k0_strength_pdf([z]).ordinate[0]),
            -12.0,
            8.0,
            limit=400,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_monte_carlo_products_of_squared_normals(self):
        # independent sampling oracle: y = g1^2 g2^2 with g ~ N(0,1); the
        # z histogram must match the transformed K0 curve to < 0.01 sup
        rng = np.random.default_rng(97)
        n = 1_000_000
        y = (rng.standard_normal(n) * rng.standard_normal(n)) ** 2
        z = np.log10(y / y.mean())
        width = 0.1
        edges = np.arange(-6.0, 3.0 + width, width)
        hist, _ = np.histogram(z, bins=edges, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        curve = k0_strength_pdf(centers)
        assert np.max(np.abs(hist - curve.ordinate)) < 0.01
