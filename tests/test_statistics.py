import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from billiardlab import statistics
from billiardlab.errors import InvalidArgumentError, QualityWarning
from billiardlab.reference import generate_reference_sequence, spacing_cdf
from billiardlab.statistics import (
    StatCurve,
    _delta3_statistic,
    _sided_values,
    _sigma2_statistic,
    _window_sums,
    cumulative_spacing,
    dyson_mehta,
    ks_distance,
    number_variance,
    spacing_distribution,
)
from billiardlab.unfolding import UnfoldedSpectrum

from oracles import (
    delta3_window_direct,
    dyson_mehta_frozen,
    ecdf_ks,
    ks_distance_frozen,
    number_variance_direct,
    number_variance_frozen,
    sided_values_frozen,
    step_curve_frozen,
)


def picket(n):
    return UnfoldedSpectrum([np.arange(1.0, n + 1.0)])


class TestSpacingDistribution:
    def test_density_normalised(self):
        u = generate_reference_sequence("poisson", 5000, seed=1)
        curve = spacing_distribution(u, bin_width=0.1)
        area = np.sum(curve.ordinate) * 0.1
        assert area == pytest.approx(1.0, abs=1e-12)

    def test_poisson_cumulative_at_one(self):
        u = generate_reference_sequence("poisson", 10_000, seed=2)
        s = np.sort(u.spacings())
        i_at_1 = np.searchsorted(s, 1.0) / s.size
        assert i_at_1 == pytest.approx(1.0 - math.exp(-1.0), abs=0.01)

    def test_semi_poisson_cumulative_at_half(self):
        u = generate_reference_sequence("semi-poisson", 10_000, seed=3)
        s = np.sort(u.spacings())
        i_at_half = np.searchsorted(s, 0.5) / s.size
        assert i_at_half == pytest.approx(1.0 - 2.0 * math.exp(-1.0), abs=0.02)

    def test_no_spacings_across_splits(self):
        u = UnfoldedSpectrum([np.array([0.0, 1.0]), np.array([100.0, 101.0])])
        assert spacing_distribution(u, bin_width=0.5).counts.sum() == 2

    def test_degenerate_levels_single_bin(self):
        u = UnfoldedSpectrum([np.zeros(5)])
        curve = spacing_distribution(u, bin_width=0.1)
        assert curve.counts.sum() == 4
        assert curve.ordinate[0] * 0.1 == pytest.approx(1.0)

    def test_short_sequence_rejected(self):
        with pytest.raises(InvalidArgumentError):
            spacing_distribution(UnfoldedSpectrum([np.array([1.0])]))

    def test_largest_spacing_one_ulp_above_an_edge_kept(self):
        # 7.500000000000001 / 0.1 rounds down to 75 bins, whose last edge 7.5 is one ulp short
        u = UnfoldedSpectrum([np.array([0.0, 0.5]), np.array([0.0, 7.500000000000001])])
        curve = spacing_distribution(u, bin_width=0.1)
        assert curve.counts.sum() == 2
        assert np.sum(curve.ordinate) * 0.1 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bin_width", [math.nan, math.inf])
    def test_non_finite_bin_width_rejected(self, bin_width):
        with pytest.raises(InvalidArgumentError, match="bin_width"):
            spacing_distribution(UnfoldedSpectrum([np.array([0.0, 1.0, 2.5])]), bin_width=bin_width)

    @pytest.mark.parametrize("measure", [spacing_distribution, cumulative_spacing])
    def test_no_sequences_rejected(self, measure):
        with pytest.raises(InvalidArgumentError, match="no sequences"):
            measure(UnfoldedSpectrum([]))


class TestCumulativeSpacing:
    def test_matches_exact_ks_helper(self):
        u = generate_reference_sequence("poisson", 500, seed=7)
        curve = cumulative_spacing(u)
        grid = np.linspace(0.0, 10.0, 4001)
        ref = StatCurve(grid, np.asarray(spacing_cdf("poisson", grid)))
        via_curves = ks_distance(curve, ref)
        direct = ecdf_ks(u.spacings(), lambda s: 1.0 - np.exp(-s))
        assert via_curves == pytest.approx(direct, abs=2e-4)


class TestNumberVariance:
    def test_poisson_scale(self):
        u = generate_reference_sequence("poisson", 10_000, seed=11)
        curve = number_variance(u, [10.0])
        assert curve.ordinate[0] == pytest.approx(10.0, abs=1.0)

    def test_picket_fence_bound(self):
        u = picket(3000)
        lengths = np.arange(0.5, 20.5, 0.5)
        curve = number_variance(u, lengths)
        assert np.all(curve.ordinate <= 0.2501)

    def test_semi_poisson_closed_form_at_ten(self):
        u = generate_reference_sequence("semi-poisson", 10_000, seed=13)
        curve = number_variance(u, [10.0])
        assert curve.ordinate[0] == pytest.approx(5.125, abs=0.5)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(5)
        seq = np.cumsum(rng.exponential(1.0, 400))
        u = UnfoldedSpectrum([seq])
        L = 7.0
        curve = number_variance(u, [L])
        starts = seq[0] + (L / 4.0) * np.arange(
            int(math.floor((seq[-1] - seq[0] - L) / (L / 4.0))) + 1
        )
        assert curve.ordinate[0] == pytest.approx(
            number_variance_direct(seq, L, starts), rel=1e-12
        )

    def test_window_longer_than_span_rejected(self):
        u = picket(50)
        with pytest.raises(InvalidArgumentError):
            number_variance(u, [100.0])


class TestDysonMehta:
    def test_picket_fence_asymptote(self):
        u = picket(3000)
        curve = dyson_mehta(u, [20.0])
        assert curve.ordinate[0] == pytest.approx(1.0 / 12.0, rel=0.05)

    def test_poisson_ensemble(self):
        u = generate_reference_sequence("poisson", 500, seed=17, sequences=200)
        curve = dyson_mehta(u, [15.0])
        assert curve.ordinate[0] == pytest.approx(1.0, abs=0.1)

    def test_matches_direct_integration_oracle(self):
        rng = np.random.default_rng(23)
        seq = np.cumsum(rng.exponential(1.0, 120))
        u = UnfoldedSpectrum([seq])
        L = 9.0
        curve = dyson_mehta(u, [L])
        stride = L / 4.0
        n_windows = int(math.floor((seq[-1] - seq[0] - L) / stride)) + 1
        starts = seq[0] + stride * np.arange(n_windows)
        direct = np.mean([delta3_window_direct(seq, a, L) for a in starts])
        assert curve.ordinate[0] == pytest.approx(direct, rel=1e-4)

    def test_nonnegative_and_nondecreasing_on_average(self):
        u = generate_reference_sequence("poisson", 2000, seed=29, sequences=5)
        lengths = np.arange(2.0, 16.0, 2.0)
        curve = dyson_mehta(u, lengths)
        assert np.all(curve.ordinate >= 0.0)
        # monotone up to small statistical wiggles
        assert np.all(np.diff(curve.ordinate) > -0.05)


class TestKsDistance:
    def test_identical_curves(self):
        grid = np.linspace(0.0, 5.0, 100)
        c = StatCurve(grid, np.asarray(spacing_cdf("poisson", grid)))
        assert ks_distance(c, c) == 0.0

    def test_poisson_vs_wigner_frozen_value(self):
        # sup_s |(1 - e^-s) - (1 - e^(-pi s^2/4))| = 0.215726 at s = 0.4729,
        # frozen from an independent dense-grid scan
        grid = np.linspace(0.0, 12.0, 200_001)
        p = StatCurve(grid, np.asarray(spacing_cdf("poisson", grid)))
        w = StatCurve(grid, np.asarray(spacing_cdf("goe", grid)))
        assert ks_distance(p, w) == pytest.approx(0.2157258, abs=1e-6)

    def test_poisson_sample_close_to_poisson_reference(self):
        u = generate_reference_sequence("poisson", 10_000, seed=31)
        grid = np.linspace(0.0, 15.0, 30_001)
        ref = StatCurve(grid, np.asarray(spacing_cdf("poisson", grid)))
        assert ks_distance(cumulative_spacing(u), ref) < 0.02

    def test_non_monotone_rejected(self):
        grid = np.linspace(0.0, 1.0, 10)
        good = StatCurve(grid, grid)
        bad = StatCurve(grid, np.sin(6.0 * grid))
        with pytest.raises(InvalidArgumentError):
            ks_distance(good, bad)

    @pytest.mark.parametrize(
        "absc, ordv",
        [([0.0, 1.0, 2.0], [0.0, math.nan, 1.0]), ([0.0], [math.nan]), ([0.0, 1.0], [0.0, math.inf])],
        ids=["inner-nan", "lone-nan", "inf"],
    )
    @pytest.mark.parametrize("bad_side", [0, 1])
    def test_non_finite_ordinate_rejected(self, absc, ordv, bad_side):
        # NaN compares False with any bound, so a monotonicity check alone lets it through
        curves = [StatCurve([0.0, 2.0], [0.0, 1.0]), StatCurve([0.0, 2.0], [0.0, 1.0])]
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            curves[bad_side] = StatCurve(absc, ordv)
            ks_distance(*curves)

    def test_nan_abscissa_rejected_when_built(self):
        # NaN passes any sign test on np.diff, so this curve once reached ks_distance and gave 0.5
        with pytest.raises(InvalidArgumentError, match="abscissa contains non-finite"):
            ks_distance(StatCurve([0.0, math.nan, 2.0], [0.0, 0.5, 1.0]), StatCurve([0.0, 2.0], [0.0, 1.0]))

    @pytest.mark.parametrize("empty_side", [0, 1])
    def test_empty_curve_rejected(self, empty_side):
        curves = [StatCurve([0.0, 1.0], [0.0, 1.0]), StatCurve([0.0, 1.0], [0.0, 1.0])]
        curves[empty_side] = StatCurve(np.empty(0), np.empty(0))
        with pytest.raises(InvalidArgumentError, match="empty"):
            ks_distance(*curves)


@st.composite
def monotone_curves(draw):
    """Piecewise-linear monotone curve; repeated knots (jumps) are likely."""
    knots = draw(st.lists(st.integers(0, 15), min_size=1, max_size=25))
    absc = np.sort(np.array(knots, dtype=float)) * draw(st.floats(0.05, 4.0))
    ordv = np.sort(draw(arrays(float, absc.size, elements=st.floats(-2.0, 2.0))))
    return absc, ordv


class TestSidedValuesAgainstFrozen:
    """Two searchsorted passes against the knot-table version, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        curve=monotone_curves(),
        points=st.lists(st.floats(-10.0, 70.0), max_size=40),
        on_knots=st.lists(st.integers(0, 24), max_size=10),
    )
    def test_one_sided_limits(self, curve, points, on_knots):
        absc, ordv = curve
        # grid points off the knots, reaching past both ends of the support, and on knots
        grid = np.concatenate([np.array(points), absc[np.array(on_knots, dtype=int) % absc.size]])
        lo, hi = _sided_values(grid, absc, ordv)
        frozen_lo, frozen_hi = sided_values_frozen(grid, absc, ordv)
        assert np.array_equal(lo, frozen_lo) and np.array_equal(hi, frozen_hi)

    @settings(max_examples=100, deadline=None)
    @given(a=monotone_curves(), b=monotone_curves())
    def test_ks_distance_of_random_curves(self, a, b):
        assert ks_distance(StatCurve(*a), StatCurve(*b)) == ks_distance_frozen(*a, *b)

    def test_poisson_vs_wigner_pair(self):
        grid = np.linspace(0.0, 12.0, 200_001)
        p, w = spacing_cdf("poisson", grid), spacing_cdf("goe", grid)
        assert ks_distance(StatCurve(grid, p), StatCurve(grid, w)) == ks_distance_frozen(grid, p, grid, w)

    @pytest.mark.parametrize("model", ["poisson", "goe", "semi-poisson"])
    def test_step_curve_against_gridded_reference(self, model):
        u = generate_reference_sequence(model, 229, seed=37, sequences=3)
        curve = cumulative_spacing(u)
        absc, ordv = step_curve_frozen(np.sort(u.spacings()))
        assert np.array_equal(curve.abscissa, absc) and np.array_equal(curve.ordinate, ordv)
        grid = np.linspace(0.0, 6.0, 601)
        ref = spacing_cdf(model, grid)
        assert ks_distance(curve, StatCurve(grid, ref)) == ks_distance_frozen(absc, ordv, grid, ref)


L_GRID = np.arange(0.5, 20.5, 0.5)


def unequal_sequences():
    rng = np.random.default_rng(101)
    # 1200 levels at L = 0.3 make about 16000 windows: more than one piece
    return [np.cumsum(rng.exponential(1.0, n)) for n in (90, 230, 400, 1200)]


def assert_sweep_matches_frozen(sequences, lengths, stride_fraction):
    for statistic, frozen in ((_sigma2_statistic, number_variance_frozen), (_delta3_statistic, dyson_mehta_frozen)):
        sums, _, n_windows = _window_sums(sequences, lengths, statistic)
        ordinate, frozen_windows = frozen(sequences, lengths, stride_fraction)
        assert np.array_equal(n_windows, frozen_windows)
        assert np.array_equal(sums / n_windows, ordinate)


class TestWindowSweep:
    """The window sweep against the per-(L, sequence) loops, bit for bit."""

    def test_public_functions_on_unequal_sequences(self):
        sequences = unequal_sequences()
        u = UnfoldedSpectrum(sequences)
        lengths = np.array([0.3, 0.5, 0.5, 1.7, 7.0, 7.0, 12.25, 30.0, 44.9])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QualityWarning)
            s2 = number_variance(u, lengths)
        d3 = dyson_mehta(u, lengths)
        for curve, frozen in ((s2, number_variance_frozen), (d3, dyson_mehta_frozen)):
            ordinate, n_windows = frozen(sequences, lengths)
            assert np.array_equal(curve.ordinate, ordinate)
            assert np.array_equal(curve.counts, n_windows)

    @pytest.mark.parametrize("stride_fraction", [0.25, 0.4])
    def test_unsorted_and_repeated_lengths(self, stride_fraction, monkeypatch):
        monkeypatch.setattr(statistics, "_STRIDE_FRACTION", stride_fraction)
        lengths = np.array([7.0, 0.5, 20.0, 0.3, 0.5, 3.3, 44.0, 7.0])
        assert_sweep_matches_frozen(unequal_sequences(), lengths, stride_fraction)

    @pytest.mark.parametrize("statistic", [number_variance, dyson_mehta])
    def test_unsorted_lengths_rejected_before_sweep(self, statistic, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the sweep ran on unsorted lengths")

        monkeypatch.setattr(statistics, "_window_sums", unreachable)
        with pytest.raises(InvalidArgumentError, match="ascending"):
            statistic(picket(100), [5.0, 2.0, 2.0])

    @pytest.mark.parametrize("statistic", [number_variance, dyson_mehta])
    @pytest.mark.parametrize("lengths", [[], [0.0, 5.0], [-5.0]])
    def test_invalid_windows_rejected(self, statistic, lengths):
        with pytest.raises(InvalidArgumentError):
            statistic(picket(100), lengths)

    @pytest.mark.parametrize(
        "new, frozen", [(number_variance, number_variance_frozen), (dyson_mehta, dyson_mehta_frozen)]
    )
    def test_peak_memory_near_frozen_loops(self, new, frozen):
        u = generate_reference_sequence("poisson", 4603, seed=7)
        peaks = []
        for run in (lambda: new(u, L_GRID), lambda: frozen(u.sequences, L_GRID)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QualityWarning)
                tracemalloc.start()
                try:
                    run()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[0] <= 1.25 * peaks[1]


@st.composite
def windowed_sequences(draw):
    """1-4 Poisson sequences of 2-200 levels and up to 8 window lengths that
    ``_window_lengths`` accepts: max(L) at most half the levels and below the span."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(2, 200), min_size=1, max_size=4))
    sequences = [np.cumsum(rng.exponential(1.0, n)) for n in sizes]
    limit = min(min(0.5 * seq.size, seq[-1] - seq[0]) for seq in sequences)
    fractions = draw(st.lists(st.floats(0.05, 1.0, exclude_max=True), min_size=1, max_size=8))
    return sequences, np.sort(limit * np.array(fractions))


class TestWindowPolicy:
    """Accepted lengths leave no L without a window, so the sweep needs no zero-window branch."""

    @settings(max_examples=100, deadline=None)
    @given(case=windowed_sequences())
    def test_accepted_lengths_window_every_sequence(self, case):
        sequences, lengths = case
        u = UnfoldedSpectrum(sequences)
        assert np.array_equal(statistics._window_lengths(u, lengths), lengths)
        for seq in sequences:
            assert np.all(_window_sums([seq], lengths, _sigma2_statistic)[2] >= 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QualityWarning)
            s2 = number_variance(u, lengths)
        d3 = dyson_mehta(u, lengths)
        for curve, frozen in ((s2, number_variance_frozen), (d3, dyson_mehta_frozen)):
            ordinate, n_windows = frozen(sequences, lengths)
            assert np.array_equal(curve.ordinate, ordinate)
            assert np.array_equal(curve.counts, n_windows)


def quality_warnings(u):
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        number_variance(u, L_GRID)
    return [w for w in log if issubclass(w.category, QualityWarning)]


def rescaled(model, seed, factor):
    return UnfoldedSpectrum([factor * generate_reference_sequence(model, 229, seed=seed).sequences[0]])


class TestNumberVarianceWarning:
    @pytest.mark.parametrize("model", ["poisson", "semi-poisson", "goe"])
    def test_rare_on_correct_sequences(self, model):
        # the span of 229 Poisson levels fluctuates by ~sqrt(229), 6.6%;
        # a 5% rule alone warned on nearly every such sequence
        warned = [bool(quality_warnings(rescaled(model, 1000 + s, 1.0))) for s in range(60)]
        assert np.mean(warned) <= 0.1

    @pytest.mark.parametrize("model", ["poisson", "semi-poisson", "goe"])
    def test_family_wise_rate_on_replay(self, model):
        # the benchmark's 229-level Monte-Carlo sequences at its 40 lengths: one call
        # should warn about as often as one 3-sigma test, 0.27% or 0.8 of 300 calls;
        # 3 standard errors at every L warned on 9 Poisson and 6 semi-Poisson of these
        warned = sum(bool(quality_warnings(rescaled(model, s, 1.0))) for s in range(300))
        assert warned <= 3

    def test_one_warning_naming_l_on_mis_unfolded_goe(self):
        for s in range(20):
            log = quality_warnings(rescaled("goe", 2000 + s, 1.1))
            assert len(log) == 1
            named = [float(x) for x in str(log[0].message).split("at L = ")[1].split(", ")]
            assert 20.0 in named and set(named) <= set(L_GRID)

    def test_mis_unfolded_poisson_mostly_caught(self):
        warned = [bool(quality_warnings(rescaled("poisson", 3000 + s, 1.3))) for s in range(60)]
        assert np.mean(warned) >= 0.75
