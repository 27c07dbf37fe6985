import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from billiardlab import resonance
from billiardlab.errors import InvalidArgumentError
from billiardlab.resonance import (
    ComplexTrace,
    Resonance,
    _cluster_guesses,
    breit_wigner_model,
    detect_peaks,
    fit_resonances,
)

from oracles import minpack_window_fit, overlap_components


def synth_resonances(rng, n, f_start=3.0e9, width_lo=0.8e6, width_hi=1.2e6):
    """Resonances with spacings of 3-10 widths, reproducible via rng."""
    widths = rng.uniform(width_lo, width_hi, n)
    spacings = rng.uniform(3.0, 10.0, n) * widths
    centers = f_start + np.cumsum(spacings)
    amps = rng.uniform(0.05e6, 0.3e6, n)
    return [Resonance(c, w, a) for c, w, a in zip(centers, widths, amps)]


class TestModel:
    def test_on_resonance_modulus(self):
        r = Resonance(center=1e9, width=2e6, amplitude=0.5e6)
        trace = breit_wigner_model([r], diagonal=False, frequencies=[1e9])
        assert abs(trace.values[0]) == pytest.approx(r.amplitude / (r.width / 2.0), rel=1e-14)

    def test_zero_amplitude_gives_identity(self):
        f = np.linspace(0.9e9, 1.1e9, 101)
        r = Resonance(1e9, 1e6, 0.0)
        off = breit_wigner_model([r], diagonal=False, frequencies=f)
        np.testing.assert_array_equal(off.values, 0.0)
        diag = breit_wigner_model([r], diagonal=True, frequencies=f)
        np.testing.assert_array_equal(diag.values, 1.0)

    def test_two_separated_resonances_peak_positions(self):
        f = np.linspace(0.99e9, 1.06e9, 7001)
        rs = [Resonance(1.00e9, 1e6, 0.3e6), Resonance(1.05e9, 1e6, 0.3e6)]
        trace = breit_wigner_model(rs, diagonal=False, frequencies=f)
        mag = np.abs(trace.values)
        step = f[1] - f[0]
        for r in rs:
            i = np.argmin(np.abs(f - r.center))
            window = mag[max(0, i - 50) : i + 51]
            assert mag.max() * 0.5 < window.max()
            assert abs(f[max(0, i - 50) + np.argmax(window)] - r.center) <= step


class TestResonanceRecord:
    @pytest.mark.parametrize(
        "center, amplitude",
        [(math.nan, 0.2e6), (math.inf, 0.2e6), (1e9, math.nan), (1e9, math.inf), (1e9, -1.0), (math.nan, math.nan)],
        ids=["nan center", "inf center", "nan amplitude", "inf amplitude", "negative amplitude", "both nan"],
    )
    def test_non_finite_or_negative_rejected(self, center, amplitude):
        with pytest.raises(InvalidArgumentError):
            Resonance(center, 1e6, amplitude)


class TestDetectPeaks:
    def test_single_resonance(self):
        r = Resonance(1e9, 1e6, 0.2e6)
        f = np.linspace(0.98e9, 1.02e9, 2001)
        trace = breit_wigner_model([r], diagonal=False, frequencies=f)
        guesses = detect_peaks(trace, prominence=0.05)
        assert len(guesses) == 1
        assert abs(guesses[0].center - r.center) < r.width
        assert guesses[0].width == pytest.approx(r.width, rel=0.5)

    def test_flat_trace_empty(self):
        f = np.linspace(1e9, 2e9, 500)
        trace = ComplexTrace(f, np.full(f.size, 0.3 + 0.1j))
        assert detect_peaks(trace, prominence=0.01) == []

    def test_two_resonances_five_widths_apart(self):
        w = 1e6
        rs = [Resonance(1e9, w, 0.3e6), Resonance(1e9 + 5 * w, w, 0.3e6)]
        f = np.linspace(1e9 - 10 * w, 1e9 + 15 * w, 4001)
        trace = breit_wigner_model(rs, diagonal=False, frequencies=f)
        guesses = detect_peaks(trace, prominence=0.05)
        assert len(guesses) == 2

    def test_diagonal_dips(self):
        rs = [Resonance(1e9, 1e6, 0.2e6)]
        f = np.linspace(0.98e9, 1.02e9, 2001)
        trace = breit_wigner_model(rs, diagonal=True, frequencies=f)
        assert trace.is_diagonal
        guesses = detect_peaks(trace, prominence=0.05)
        assert len(guesses) == 1
        assert abs(guesses[0].center - 1e9) < 1e6

    def test_guesses_are_unfitted_records(self):
        f = np.linspace(0.98e9, 1.02e9, 2001)
        guesses = detect_peaks(breit_wigner_model([Resonance(1e9, 1e6, 0.2e6)], False, f), prominence=0.05)
        assert all(isinstance(g, Resonance) and math.isnan(g.center_error) for g in guesses)

    def test_non_uniform_grid_rejected(self):
        # 95 kHz steps below 0.999 GHz and 5 kHz above: one mean step would guess 1.76 MHz for a 1 MHz pole
        f = np.concatenate([np.arange(0.98e9, 0.999e9, 95e3), np.arange(0.999e9, 1.02e9, 5e3)])
        trace = breit_wigner_model([Resonance(1e9, 1e6, 0.2e6)], False, f)
        with pytest.raises(InvalidArgumentError, match="uniform"):
            detect_peaks(trace, prominence=0.05)

    def test_arange_grid_accepted(self):
        f = np.arange(2.98e9, 3.02e9, 1e4)
        trace = breit_wigner_model([Resonance(3e9, 1e6, 0.2e6)], False, f)
        [guess] = detect_peaks(trace, prominence=0.05)
        assert guess.width == pytest.approx(1e6, rel=0.1)

    def test_short_trace_rejected(self):
        f = np.linspace(1e9, 1.01e9, 10)
        trace = ComplexTrace(f, np.zeros(10, complex))
        with pytest.raises(InvalidArgumentError):
            detect_peaks(trace, prominence=0.1)


class TestFit:
    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(42)
        truth = synth_resonances(rng, 10)
        f0 = truth[0].center - 2e7
        f1 = truth[-1].center + 2e7
        f = np.linspace(f0, f1, 8000)
        trace = breit_wigner_model(truth, diagonal=False, frequencies=f)
        guesses = detect_peaks(trace, prominence=0.02)
        assert len(guesses) == 10
        fitted = fit_resonances(trace, guesses)
        assert len(fitted) == 10
        true_centers = np.sort([r.center for r in truth])
        true_widths = np.array([r.width for r in truth])[np.argsort([r.center for r in truth])]
        np.testing.assert_allclose(fitted.centers, true_centers, rtol=1e-6)
        np.testing.assert_allclose(fitted.widths, true_widths, rtol=1e-4)
        assert all(r.converged for r in fitted.resonances)

    def test_cost_monotone_over_accepted_steps(self):
        rng = np.random.default_rng(3)
        truth = synth_resonances(rng, 4)
        f = np.linspace(truth[0].center - 2e7, truth[-1].center + 2e7, 4000)
        trace = breit_wigner_model(truth, diagonal=False, frequencies=f)
        noise = 0.002 * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
        noisy = ComplexTrace(f, trace.values + noise, trace.channel)
        fitted = fit_resonances(noisy, detect_peaks(noisy, prominence=0.02))
        for report in fitted.reports:
            h = report.cost_history
            assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))

    def test_noisy_centers_within_gamma_over_fifty(self):
        rng = np.random.default_rng(7)
        truth = synth_resonances(rng, 10)
        f = np.linspace(truth[0].center - 2e7, truth[-1].center + 2e7, 6000)
        clean = breit_wigner_model(truth, diagonal=False, frequencies=f)
        peak = np.abs(clean.values).max()
        guesses = detect_peaks(clean, prominence=0.02)
        true_centers = np.sort([r.center for r in truth])
        order = np.argsort([r.center for r in truth])
        true_widths = np.array([r.width for r in truth])[order]
        worst = 0.0
        for _ in range(100):
            noise = (
                0.01
                * peak
                / math.sqrt(2.0)
                * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
            )
            noisy = ComplexTrace(f, clean.values + noise, clean.channel)
            fitted = fit_resonances(noisy, guesses)
            err = np.max(np.abs(fitted.centers - true_centers) / true_widths)
            worst = max(worst, err)
        assert worst < 1.0 / 50.0

    def test_weakly_overlapping_pair(self):
        # two resonances spaced by one width: the joint fit resolves both
        w = 1e6
        truth = [Resonance(1.0e9, w, 0.25e6), Resonance(1.0e9 + w, w, 0.20e6)]
        f = np.linspace(1.0e9 - 15 * w, 1.0e9 + 16 * w, 4000)
        trace = breit_wigner_model(truth, diagonal=False, frequencies=f)
        guesses = [
            Resonance(1.0e9 - 0.2 * w, 0.8 * w, 0.2e6),
            Resonance(1.0e9 + 1.3 * w, 1.2 * w, 0.2e6),
        ]
        fitted = fit_resonances(trace, guesses)
        assert len(fitted) == 2
        assert abs(fitted.centers[0] - 1.0e9) < w / 10.0
        assert abs(fitted.centers[1] - (1.0e9 + w)) < w / 10.0

    def test_background_recovered(self):
        truth = [Resonance(1e9, 1e6, 0.2e6)]
        f = np.linspace(0.99e9, 1.01e9, 2000)
        bg = 0.05 - 0.02j
        trace = breit_wigner_model(truth, diagonal=False, frequencies=f, background=bg)
        fitted = fit_resonances(trace, detect_peaks(trace, prominence=0.05))
        assert fitted.reports[0].background == pytest.approx(bg, abs=1e-6)

    def test_uncertainties_reported_on_noisy_fit(self):
        rng = np.random.default_rng(11)
        truth = [Resonance(1e9, 1e6, 0.2e6)]
        f = np.linspace(0.99e9, 1.01e9, 2000)
        clean = breit_wigner_model(truth, diagonal=False, frequencies=f)
        noise = 0.01 * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
        noisy = ComplexTrace(f, clean.values + noise)
        fitted = fit_resonances(noisy, detect_peaks(noisy, prominence=0.05))
        r = fitted.resonances[0]
        assert math.isfinite(r.center_error) and r.center_error > 0.0
        assert math.isfinite(r.width_error) and r.width_error > 0.0

    def test_no_guesses_rejected(self):
        f = np.linspace(1e9, 1.1e9, 200)
        trace = ComplexTrace(f, np.zeros(f.size, complex))
        with pytest.raises(InvalidArgumentError):
            fit_resonances(trace, [])

    def test_sparse_window_rejected(self):
        truth = [Resonance(1e9, 1e6, 0.2e6)]
        f = np.linspace(0.9e9, 1.1e9, 60)  # ~3 samples across the window
        trace = breit_wigner_model(truth, diagonal=False, frequencies=f)
        with pytest.raises(InvalidArgumentError):
            fit_resonances(trace, [Resonance(1e9, 1e6, 0.2e6)])


class TestClusterGuesses:
    """The centre-order cuts against a brute-force grouping of overlapping windows."""

    @settings(max_examples=200, deadline=None)
    @given(
        windows=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 4)), min_size=1, max_size=25),
        half_width=st.sampled_from([0.5, 1.0, 2.0, 5.0]),
    )
    # the wider window at centre 11 reaches back over the narrow one to the window at 0
    @example(windows=[(0, 1), (11, 1), (11, 2)], half_width=5.0)
    def test_components_of_overlapping_windows(self, windows, half_width):
        # integer centres and widths make touching windows (lo_i == hi_j) frequent
        guesses = [Resonance(float(c), float(w), 0.0) for c, w in windows]
        clusters = _cluster_guesses(guesses, half_width)
        index = {id(g): i for i, g in enumerate(guesses)}
        lo = [g.center - half_width * g.width for g in guesses]
        hi = [g.center + half_width * g.width for g in guesses]
        assert {frozenset(index[id(g)] for g in c) for c, _, _ in clusters} == overlap_components(lo, hi)
        # the returned span is the min and max of the group's own windows: fit_resonances fits on it
        for c, c_lo, c_hi in clusters:
            assert (c_lo, c_hi) == (min(lo[index[id(g)]] for g in c), max(hi[index[id(g)]] for g in c))
        centers = [g.center for c, _, _ in clusters for g in c]
        assert len(centers) == len(guesses) and centers == sorted(centers)


def spaced_trace(rng, n, noise, step=1e4):
    """An off-diagonal trace with n poles of width 0.8-1.2 MHz, every fourth pair 6-9 widths apart.

    The others sit 12-16 widths apart, so the guesses form isolated windows and
    joint pairs; the noise is complex Gaussian with ``noise`` per quadrature.
    """
    widths = rng.uniform(0.8e6, 1.2e6, n)
    spacing = np.where(np.arange(n) % 4 == 1, rng.uniform(6.0, 9.0, n), rng.uniform(12.0, 16.0, n))
    centers = 3.0e9 + np.cumsum(spacing * widths)
    amps = rng.uniform(0.05e6, 0.3e6, n)
    f = np.arange(centers[0] - 2e7, centers[-1] + 2e7, step)
    clean = breit_wigner_model([Resonance(c, w, a) for c, w, a in zip(centers, widths, amps)], False, f)
    values = clean.values + noise * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
    return ComplexTrace(f, values)


def in_standard_errors(fitted, other):
    """Largest |difference| of centre, width and amplitude in the fit's standard errors."""
    return max(
        max(abs(r.center - c) / r.center_error, abs(r.width - w) / r.width_error, abs(r.amplitude - a) / r.amplitude_error)
        for r, (c, w, a) in zip(fitted, other)
    )


class TestFitOracle:
    @pytest.mark.parametrize("noise", [0.0, 0.002])
    def test_agrees_with_minpack(self, noise):
        rng = np.random.default_rng(5)
        trace = spaced_trace(rng, 16, noise)
        guesses = detect_peaks(trace, prominence=0.01)
        clusters = [c for c, _, _ in _cluster_guesses(guesses, 5.0)][:12]
        assert len(clusters) == 12 and any(len(c) == 2 for c in clusters)
        worst = 0.0
        for cluster in clusters:
            fitted = fit_resonances(trace, cluster)
            assert all(r.converged for r in fitted.resonances)
            worst = max(worst, in_standard_errors(fitted.resonances, minpack_window_fit(trace, cluster)))
        assert worst < 1e-2

    @pytest.mark.parametrize("noise", [0.0, 0.002])
    def test_continuing_to_tol_stays_within_standard_errors(self, noise, monkeypatch):
        rng = np.random.default_rng(6)
        trace = spaced_trace(rng, 16, noise)
        guesses = detect_peaks(trace, prominence=0.01)
        stopped = fit_resonances(trace, guesses)
        assert all("standard errors" in r.message for r in stopped.reports)
        monkeypatch.setattr(resonance, "_SE_STEP", 0.0)
        continued = fit_resonances(trace, guesses)
        assert all("tol" in r.message for r in continued.reports)
        assert sum(r.iterations for r in continued.reports) > sum(r.iterations for r in stopped.reports)
        other = [(r.center, r.width, r.amplitude) for r in continued.resonances]
        assert in_standard_errors(stopped.resonances, other) < 1e-3


class TestRobustness:
    @pytest.mark.parametrize("seed", range(20))
    def test_pure_noise_gives_no_guesses(self, seed):
        rng = np.random.default_rng(seed)
        sigma = 0.002
        f = 3e9 + 1e4 * np.arange(50_000)
        trace = ComplexTrace(f, sigma * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size)))
        assert detect_peaks(trace, prominence=5.0 * sigma) == []

    def test_one_sample_outlier_is_not_a_guess(self):
        rng = np.random.default_rng(4)
        f = np.linspace(0.99e9, 1.01e9, 2000)
        clean = breit_wigner_model([Resonance(1e9, 1e6, 0.2e6)], False, f)
        values = clean.values + 0.002 * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
        values[300] += 0.5
        guesses = detect_peaks(ComplexTrace(f, values), prominence=0.05)
        assert len(guesses) == 1 and abs(guesses[0].center - 1e9) < 1e6

    @pytest.mark.parametrize("seed", range(5))
    def test_one_sample_spike_guess_is_bounded_not_raised(self, seed):
        rng = np.random.default_rng(seed)
        f = np.linspace(0.99e9, 1.01e9, 2000)
        step = f[1] - f[0]
        values = 0.01 * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
        i = 1000
        values[i] += 0.1
        fitted = fit_resonances(ComplexTrace(f, values), [Resonance(f[i], step, 0.05 * step)])
        r = fitted.resonances[0]
        report = fitted.reports[0]
        assert step * (1.0 - 1e-12) <= r.width
        assert r.converged == report.converged
        assert report.message

    def test_trial_widths_stay_inside_window_bounds(self, monkeypatch):
        f = np.linspace(0.99e9, 1.01e9, 2000)
        step = f[1] - f[0]
        rng = np.random.default_rng(2)
        trace = ComplexTrace(f, 0.01 * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size)))
        seen = []
        original = resonance._bw_model

        def spy(params, freqs, delta):
            seen.append((np.exp(params[2:-2:3]), freqs[-1] - freqs[0]))
            return original(params, freqs, delta)

        monkeypatch.setattr(resonance, "_bw_model", spy)
        fit_resonances(trace, [Resonance(1e9, 2.0 * step, 1e3), Resonance(1e9 + 3 * step, step, 1e3)])
        assert seen
        for widths, span in seen:
            assert np.all(widths >= step * (1.0 - 1e-12)) and np.all(widths <= span * (1.0 + 1e-12))


class TestStoppingRules:
    def test_exact_model_stops_on_relative_step(self):
        f = np.linspace(0.99e9, 1.01e9, 2000)
        trace = breit_wigner_model([Resonance(1e9, 1e6, 0.2e6)], False, f, background=0.05 - 0.02j)
        fitted = fit_resonances(trace, detect_peaks(trace, prominence=0.05))
        assert fitted.reports[0].converged
        assert "relative step below tol" in fitted.reports[0].message

    @pytest.mark.parametrize("background", [0.0, 1e-3, 0.01, 0.1])
    def test_real_background_stops_on_relative_step(self, background):
        # the imaginary background is 0, so its step is measured against max|S|, not against itself;
        # after a step below tol = 1e-8 the LM contraction (~1e-3 per iteration) leaves < 1e-11
        truth = Resonance(1e9, 1e6, 0.2e6)
        trace = breit_wigner_model([truth], False, np.linspace(0.99e9, 1.01e9, 2000), background=background)
        fitted = fit_resonances(trace, detect_peaks(trace, prominence=0.05))
        report, r = fitted.reports[0], fitted.resonances[0]
        assert report.message == "converged: relative step below tol"
        assert report.iterations <= 8
        np.testing.assert_allclose([r.center, r.width, r.amplitude], [truth.center, truth.width, truth.amplitude],
                                   rtol=1e-11)

    def test_noisy_window_stops_on_standard_errors(self):
        rng = np.random.default_rng(11)
        f = np.linspace(0.99e9, 1.01e9, 2000)
        clean = breit_wigner_model([Resonance(1e9, 1e6, 0.2e6)], False, f)
        noisy = ComplexTrace(f, clean.values + 0.01 * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size)))
        fitted = fit_resonances(noisy, detect_peaks(noisy, prominence=0.05))
        assert fitted.reports[0].converged
        assert "standard errors" in fitted.reports[0].message

    def test_damping_overflow_is_reported(self, monkeypatch):
        # no solve succeeds, so no step is tried: the damping grows past its cap and the fit returns flagged
        def no_solution(a, b):
            raise np.linalg.LinAlgError("singular matrix")

        f = np.linspace(0.99e9, 1.01e9, 2000)
        trace = breit_wigner_model([Resonance(1e9, 1e6, 0.2e6)], False, f, background=0.05 - 0.02j)
        guesses = detect_peaks(trace, prominence=0.05)
        monkeypatch.setattr(resonance.np.linalg, "solve", no_solution)
        fitted = fit_resonances(trace, guesses)
        report = fitted.reports[0]
        assert not report.converged and not fitted.resonances[0].converged and report.iterations == 0
        assert report.message == "damping overflow: no descent direction found"

    def test_singular_normal_matrix_gives_nan_errors(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("singular matrix")

        f = np.linspace(0.99e9, 1.01e9, 2000)
        trace = breit_wigner_model([Resonance(1e9, 1e6, 0.2e6)], False, f, background=0.05 - 0.02j)
        monkeypatch.setattr(resonance.np.linalg, "inv", singular)
        fitted = fit_resonances(trace, detect_peaks(trace, prominence=0.05))
        r = fitted.resonances[0]
        assert fitted.reports[0].converged and r.converged
        assert math.isnan(r.center_error) and math.isnan(r.width_error) and math.isnan(r.amplitude_error)

    def test_max_iter_is_reported(self, monkeypatch):
        f = np.linspace(0.99e9, 1.01e9, 2000)
        trace = breit_wigner_model([Resonance(1e9, 1e6, 0.2e6)], False, f, background=0.05 - 0.02j)
        monkeypatch.setattr(resonance, "_MAX_ITER", 1)
        fitted = fit_resonances(trace, detect_peaks(trace, prominence=0.05))
        assert not fitted.reports[0].converged and not fitted.resonances[0].converged
        assert fitted.reports[0].message == "reached max_iter"
