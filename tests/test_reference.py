import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from billiardlab.errors import InvalidArgumentError
from billiardlab.reference import (
    MODELS,
    _goe_eigenvalues,
    generate_reference_sequence,
    reference_curve,
    spacing_cdf,
    spacing_ks,
    spacing_pdf,
)
from billiardlab.statistics import cumulative_spacing, dyson_mehta, ks_distance, number_variance
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
        big = reference_curve("semi-poisson", "sigma2", [100.0, 101.0])
        slope = big.ordinate[1] - big.ordinate[0]
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_semi_poisson_sigma2_at_ten(self):
        assert reference_curve("semi-poisson", "sigma2", [10.0]).ordinate[0] == pytest.approx(5.125)

    def test_semi_poisson_delta3_kernel_vs_poisson_identity(self):
        # the same kernel applied to sigma2 = L must return L/15; the
        # semi-poisson value then sits between picket-fence and Poisson
        d = reference_curve("semi-poisson", "delta3", [12.0]).ordinate[0]
        assert 1.0 / 12.0 < d < 12.0 / 15.0

    def test_semi_poisson_delta3_closed_form(self):
        L = np.geomspace(0.25, 500.0, 60)
        expected = [semi_poisson_delta3(x) for x in L]
        np.testing.assert_allclose(reference_curve("semi-poisson", "delta3", L).ordinate, expected, rtol=1e-12)

    def test_semi_poisson_delta3_long_windows_against_mpmath(self):
        # measured 2.2e-16 at most; adaptive quad drifted to ~2e-6 relative here without warning
        L = [1000.0, 2000.0, 5000.0]
        expected = [semi_poisson_delta3_kernel_mp(x) for x in L]
        np.testing.assert_allclose(reference_curve("semi-poisson", "delta3", L).ordinate, expected, rtol=1e-12)

    def test_semi_poisson_delta3_both_branches_against_mpmath(self):
        # measured 8.9e-16 at most on the Gauss-Legendre branch (L < 1) and 2.2e-16 on the
        # closed form; adaptive quad was off 1e-11 at L = 1e-6
        L = [1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.999, 1.0, 1.5, 3.0, 40.0]
        expected = [semi_poisson_delta3_kernel_mp(x) for x in L]
        np.testing.assert_allclose(reference_curve("semi-poisson", "delta3", L).ordinate, expected, rtol=1e-13)

    def test_semi_poisson_sigma2_small_lengths_against_mpmath(self):
        # 1 - e^(-4L) cancels below L ~ 1e-4 (7e-12 relative at 1e-6); expm1 does not
        L = [1e-6, 1e-5, 1e-4]
        with mpmath.workdps(40):
            expected = [float(mpmath.mpf(x) / 2 + (1 - mpmath.exp(-4 * mpmath.mpf(x))) / 8) for x in L]
        np.testing.assert_allclose(reference_curve("semi-poisson", "sigma2", L).ordinate, expected, rtol=1e-14)

    @pytest.mark.parametrize("model", MODELS)
    def test_spacing_pdf_normalised_with_unit_mean(self, model):
        pdf = lambda s: float(spacing_pdf(model, s))
        assert quad(pdf, 0.0, math.inf)[0] == pytest.approx(1.0, abs=1e-12)
        assert quad(lambda s: s * pdf(s), 0.0, math.inf)[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_spacing_cdf_is_running_integral_of_pdf(self, model):
        s = [0.05, 0.3, 1.0, 2.5, 6.0]
        running = [quad(lambda t: float(spacing_pdf(model, t)), 0.0, x)[0] for x in s]
        np.testing.assert_allclose(spacing_cdf(model, s), running, rtol=1e-12)

    def test_poisson_sigma2_is_l(self):
        L = np.array([1e-6, 0.5, 1.0, 7.25, 100.0])
        assert np.array_equal(reference_curve("poisson", "sigma2", L).ordinate, L)

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidArgumentError):
            reference_curve("gue", "P", [1.0])

    def test_unknown_statistic_rejected(self):
        with pytest.raises(InvalidArgumentError):
            reference_curve("poisson", "form-factor", [1.0])

    @pytest.mark.parametrize(
        "model, statistic",
        [("GOE", "P"), ("wigner", "P"), ("semi_poisson", "I"), ("goe", "p"), ("goe", "Σ²"), ("goe", "Delta3")],
    )
    def test_only_exact_spellings_accepted(self, model, statistic):
        with pytest.raises(InvalidArgumentError):
            reference_curve(model, statistic, [1.0])

    def test_negative_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            reference_curve("poisson", "sigma2", [-1.0])

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("statistic", ["sigma2", "delta3"], ids=lambda s: f"{s}_curve")
    @pytest.mark.parametrize("L", [0.0, -1.0])
    def test_nonpositive_lengths_rejected(self, model, statistic, L):
        with pytest.raises(InvalidArgumentError):
            reference_curve(model, statistic, [L, 2.0])


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
        closed = reference_curve("goe", "sigma2", [10.0]).ordinate[0]
        assert mc == pytest.approx(closed, rel=0.05)

    def test_goe_delta3_matches_monte_carlo(self):
        u = generate_reference_sequence("goe", 250, seed=73, sequences=30)
        mc = dyson_mehta(u, [15.0]).ordinate[0]
        closed = reference_curve("goe", "delta3", [15.0]).ordinate[0]
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
    def test_bitwise_frozen_and_ecdf_oracle(self, model):
        cdf = lambda s: spacing_cdf(model, s)
        for u in ks_inputs():
            ks = spacing_ks(u, model)
            assert ks == spacing_ks_frozen(u.spacings(), cdf)
            assert ks == pytest.approx(ecdf_ks(u.spacings() / u.spacings().mean(), cdf), abs=1e-15)

    @pytest.mark.parametrize("model", MODELS)
    def test_unrescaled_through_public_path(self, model):
        # the recipe in spacing_ks's docstring gives what rescale=False returned
        cdf = lambda s: spacing_cdf(model, s)
        for u in ks_inputs():
            ks = ks_distance(cumulative_spacing(u), reference_curve(model, "I", np.sort(u.spacings())))
            assert ks == spacing_ks_frozen(u.spacings(), cdf, rescale=False)
            assert ks == pytest.approx(ecdf_ks(u.spacings(), cdf), abs=1e-15)

    def test_zero_mean_spacing_rejected(self):
        # equal levels are a valid unfolded spectrum, but 0/0 has no shape to compare
        with pytest.raises(InvalidArgumentError, match="zero mean spacing"):
            spacing_ks(UnfoldedSpectrum([np.zeros(5)]), "goe")

    def test_no_spacings_rejected(self):
        with pytest.raises(InvalidArgumentError, match="no spacings"):
            spacing_ks(UnfoldedSpectrum([np.array([1.0])]), "goe")

    def test_unknown_model_rejected(self):
        # spacing_cdf checks the model; spacing_ks does not check it again
        with pytest.raises(InvalidArgumentError, match="unknown model"):
            spacing_ks(generate_reference_sequence("poisson", 50, seed=1), "gue")
