import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from billiardlab.errors import InvalidArgumentError
from billiardlab.reference import (
    MODELS,
    _goe_eigenvalues,
    delta3_curve,
    generate_reference_sequence,
    reference_curve,
    sigma2_curve,
    spacing_cdf,
    spacing_ks,
    spacing_pdf,
)
from billiardlab.statistics import dyson_mehta, number_variance
from billiardlab.unfolding import UnfoldedSpectrum

from oracles import (
    ecdf_ks,
    goe_dense_unfolded,
    semi_poisson_delta3,
    semi_poisson_delta3_kernel_mp,
    spacing_ks_frozen,
)


class TestClosedForms:
    def test_poisson_delta3_is_l_over_15(self):
        curve = reference_curve("poisson", "delta3", [15.0])
        assert curve.ordinate[0] == pytest.approx(1.0)

    def test_wigner_pdf_mode(self):
        s = np.linspace(0.01, 3.0, 100_000)
        p = spacing_pdf("goe", s)
        assert s[np.argmax(p)] == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-4)

    def test_semi_poisson_sigma2_slope_half(self):
        big = sigma2_curve("semi-poisson", [100.0, 101.0])
        slope = big.ordinate[1] - big.ordinate[0]
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_semi_poisson_sigma2_at_ten(self):
        assert sigma2_curve("semi-poisson", [10.0]).ordinate[0] == pytest.approx(5.125)

    def test_semi_poisson_delta3_kernel_vs_poisson_identity(self):
        # the same kernel applied to sigma2 = L must return L/15; the
        # semi-poisson value then sits between picket-fence and Poisson
        d = delta3_curve("semi-poisson", [12.0]).ordinate[0]
        assert 1.0 / 12.0 < d < 12.0 / 15.0

    def test_semi_poisson_delta3_closed_form(self):
        L = np.geomspace(0.25, 500.0, 60)
        expected = [semi_poisson_delta3(x) for x in L]
        np.testing.assert_allclose(delta3_curve("semi-poisson", L).ordinate, expected, rtol=1e-12)

    def test_semi_poisson_delta3_long_windows_against_mpmath(self):
        # adaptive quad drifted to ~2e-6 relative here without warning
        L = [1000.0, 2000.0, 5000.0]
        expected = [semi_poisson_delta3_kernel_mp(x) for x in L]
        np.testing.assert_allclose(delta3_curve("semi-poisson", L).ordinate, expected, rtol=1e-12)

    def test_semi_poisson_delta3_both_branches_against_mpmath(self):
        L = [0.01, 0.1, 0.3, 0.5, 0.999, 1.0, 1.5, 3.0, 40.0]
        expected = [semi_poisson_delta3_kernel_mp(x) for x in L]
        np.testing.assert_allclose(delta3_curve("semi-poisson", L).ordinate, expected, rtol=1e-13)

    def test_aliases_accepted(self):
        a = reference_curve("goe", "Σ²", [5.0]).ordinate[0]
        b = reference_curve("goe", "sigma2", [5.0]).ordinate[0]
        assert a == b

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidArgumentError):
            reference_curve("gue", "P", [1.0])

    def test_unknown_statistic_rejected(self):
        with pytest.raises(InvalidArgumentError):
            reference_curve("poisson", "form-factor", [1.0])

    def test_negative_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            reference_curve("poisson", "sigma2", [-1.0])

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("curve", [sigma2_curve, delta3_curve])
    @pytest.mark.parametrize("L", [0.0, -1.0])
    def test_nonpositive_lengths_rejected(self, model, curve, L):
        with pytest.raises(InvalidArgumentError):
            curve(model, [L, 2.0])


class TestGenerators:
    def test_poisson_spacing_variance(self):
        u = generate_reference_sequence("poisson", 10_000, seed=41)
        s = u.spacings()
        assert s.mean() == pytest.approx(1.0, abs=0.02)
        assert s.var() == pytest.approx(1.0, abs=0.05)

    def test_semi_poisson_spacing_moments(self):
        u = generate_reference_sequence("semi-poisson", 10_000, seed=43)
        s = u.spacings()
        assert s.mean() == pytest.approx(1.0, abs=0.02)
        assert s.var() == pytest.approx(0.5, abs=0.03)

    def test_semi_poisson_ks_to_law(self):
        u = generate_reference_sequence("semi-poisson", 10_000, seed=47)
        ks = ecdf_ks(u.spacings(), lambda s: 1.0 - (1.0 + 2.0 * s) * np.exp(-2.0 * s))
        assert ks < 0.02

    def test_goe_ks_to_wigner(self):
        # pooled over 20 sequences: seeds 0-199 give a median of 0.0106 and at
        # most 0.0167; semi-Poisson gives >= 0.083, GUE-like spacings >= 0.061
        u = generate_reference_sequence("goe", 500, seed=53, sequences=20)
        assert spacing_ks(u, "goe") < 0.02

    def test_goe_mean_spacing_unity(self):
        u = generate_reference_sequence("goe", 500, seed=59)
        assert u.mean_spacing() == pytest.approx(1.0, abs=0.02)

    def test_multiple_sequences(self):
        u = generate_reference_sequence("poisson", 100, seed=61, sequences=7)
        assert len(u.sequences) == 7
        assert len(u) == 700

    def test_determinism(self):
        a = generate_reference_sequence("goe", 50, seed=67)
        b = generate_reference_sequence("goe", 50, seed=67)
        np.testing.assert_array_equal(a.sequences[0], b.sequences[0])

    def test_too_few_levels_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generate_reference_sequence("poisson", 1, seed=1)


class TestReferenceAgainstSampled:
    def test_goe_sigma2_matches_monte_carlo(self):
        # 50 GOE matrices of dimension 1000, central quarter of each spectrum
        u = generate_reference_sequence("goe", 250, seed=71, sequences=50)
        mc = number_variance(u, [10.0]).ordinate[0]
        closed = sigma2_curve("goe", [10.0]).ordinate[0]
        assert mc == pytest.approx(closed, rel=0.05)

    def test_goe_delta3_matches_monte_carlo(self):
        u = generate_reference_sequence("goe", 250, seed=73, sequences=30)
        mc = dyson_mehta(u, [15.0]).ordinate[0]
        closed = delta3_curve("goe", [15.0]).ordinate[0]
        assert mc == pytest.approx(closed, rel=0.08)

    def test_poisson_sigma2_convergence(self):
        u = generate_reference_sequence("poisson", 500, seed=79, sequences=100)
        mc = number_variance(u, [10.0]).ordinate[0]
        assert mc == pytest.approx(10.0, rel=0.05)


class TestGoeAgainstDenseOracle:
    def test_spacings_match_dense_goe(self):
        # pooled unfolded spacings of 150 tridiagonal and 150 dense spectra;
        # the same tridiagonal model at beta = 2 (GUE) gives p ~ 1e-7 here
        tridiagonal = generate_reference_sequence("goe", 100, seed=83, sequences=150).spacings()
        rng = np.random.default_rng(89)
        dense = np.concatenate([np.diff(goe_dense_unfolded(rng, 100)) for _ in range(150)])
        assert ks_2samp(tridiagonal, dense).pvalue > 1e-3

    def test_mean_trace_of_square(self):
        # E[tr H^2] = n (n+1) sigma^2 = (n+1)/4 at sigma^2 = 1/(4n), with
        # variance 4 n (n+1) sigma^4 = (n+1)/(4n) per matrix
        n, matrices = 200, 400
        rng = np.random.default_rng(97)
        trace = np.array([np.sum(_goe_eigenvalues(rng, n) ** 2) for _ in range(matrices)])
        standard_error = math.sqrt((n + 1) / (4.0 * n) / matrices)
        assert abs(trace.mean() - (n + 1) / 4.0) < 4.0 * standard_error


def ks_inputs():
    """Generated spectra of 1-3 sequences, and one with tied spacings."""
    spectra = [
        generate_reference_sequence(model, 120, seed=300 + 10 * k + sequences, sequences=sequences)
        for k, model in enumerate(MODELS)
        for sequences in (1, 2, 3)
    ]
    return spectra + [UnfoldedSpectrum([np.array([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 6.5, 7.0])])]


class TestSpacingKs:
    """spacing_ks through ks_distance against its own former formula."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("rescale", [True, False])
    def test_bitwise_frozen_and_ecdf_oracle(self, model, rescale):
        cdf = lambda s: spacing_cdf(model, s)
        for u in ks_inputs():
            ks = spacing_ks(u, model, rescale=rescale)
            assert ks == spacing_ks_frozen(u.spacings(), cdf, rescale)
            s = u.spacings() / u.spacings().mean() if rescale else u.spacings()
            assert ks == pytest.approx(ecdf_ks(s, cdf), abs=1e-15)

    def test_no_spacings_rejected(self):
        with pytest.raises(InvalidArgumentError, match="no spacings"):
            spacing_ks(UnfoldedSpectrum([np.array([1.0])]), "goe")
