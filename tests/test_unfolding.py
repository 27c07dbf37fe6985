import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiardlab.billiard import (
    WeylParams,
    frequency_to_wavevector,
    sector_eigenvalues,
    sector_weyl_params,
    weyl_count,
)
from billiardlab.errors import InvalidArgumentError, QualityWarning
from billiardlab.unfolding import UnfoldedSpectrum, missing_level_scan, unfold

from oracles import missing_level_scan_frozen

PICKET_PARAMS = WeylParams(area=4.0 * math.pi, perimeter=1e-9, constant=0.0)


def picket_wavevectors(n: int) -> np.ndarray:
    """k_n with N_Weyl(k_n) = n exactly under PICKET_PARAMS (k = sqrt(n) a.s.)."""
    n_arr = np.arange(1, n + 1, dtype=float)
    a = PICKET_PARAMS.area / (4.0 * math.pi)
    b = PICKET_PARAMS.perimeter / (4.0 * math.pi)
    return (b + np.sqrt(b * b + 4.0 * a * n_arr)) / (2.0 * a)


class TestUnfold:
    def test_picket_fence_spacings_exactly_one(self):
        u = unfold(picket_wavevectors(200), PICKET_PARAMS)
        np.testing.assert_allclose(u.spacings(), 1.0, atol=1e-9)

    def test_sector_mean_spacing(self, sector_spectrum_46, sector_weyl_46):
        u = unfold(sector_spectrum_46, sector_weyl_46)
        assert u.mean_spacing() == pytest.approx(1.0, abs=0.02)

    def test_affine_invariance_under_constant_shift(self, sector_spectrum_46, sector_weyl_46):
        u1 = unfold(sector_spectrum_46, sector_weyl_46)
        shifted = WeylParams(
            sector_weyl_46.area, sector_weyl_46.perimeter, sector_weyl_46.constant + 7.5
        )
        u2 = unfold(sector_spectrum_46, shifted)
        np.testing.assert_allclose(u2.sequences[0] - u1.sequences[0], 7.5, atol=1e-12)
        np.testing.assert_allclose(u2.spacings(), u1.spacings(), atol=1e-12)

    def test_empty_spectrum_rejected(self, sector_weyl_46):
        with pytest.raises(InvalidArgumentError):
            unfold(np.empty(0), sector_weyl_46)

    def test_quality_warning_on_wrong_params(self, sector_spectrum_46, sector_weyl_46):
        bad = WeylParams(2.0 * sector_weyl_46.area, sector_weyl_46.perimeter, 0.0)
        with pytest.warns(QualityWarning):
            unfold(sector_spectrum_46, bad)


class TestUnfoldedSpectrum:
    @pytest.mark.parametrize(
        "sequences, match",
        [([], "no sequences"), ([np.arange(5.0), np.array([1.0])], r"sequences\[1\].*no spacings")],
    )
    def test_spectrum_without_spacings_rejected(self, sequences, match):
        with pytest.raises(InvalidArgumentError, match=match):
            UnfoldedSpectrum(sequences)

    def test_one_level_spectrum_rejected_by_unfold(self):
        with pytest.raises(InvalidArgumentError, match="no spacings"):
            unfold(picket_wavevectors(1), PICKET_PARAMS)


class TestMissingLevelScan:
    def test_complete_picket_fence_empty_report(self):
        k = picket_wavevectors(300)
        assert missing_level_scan(k, PICKET_PARAMS, window=10) == []

    def test_single_deletion_detected(self):
        k = np.delete(picket_wavevectors(300), 49)
        reports = missing_level_scan(k, PICKET_PARAMS, window=10)
        assert len(reports) == 1
        assert reports[0].step == pytest.approx(-1.0, abs=0.3)
        # reported position is near the deleted level (k_50 ~ sqrt(50))
        assert abs(reports[0].position - math.sqrt(50.0)) < math.sqrt(50.0) * 0.1

    def test_two_distant_deletions(self):
        k = np.delete(picket_wavevectors(400), [99, 199])
        reports = missing_level_scan(k, PICKET_PARAMS, window=10)
        assert len(reports) == 2
        for r in reports:
            assert r.step == pytest.approx(-1.0, abs=0.3)

    def test_close_deletions_merge(self):
        k = np.delete(picket_wavevectors(300), [150, 154])
        reports = missing_level_scan(k, PICKET_PARAMS, window=10)
        assert len(reports) == 1
        assert reports[0].step == pytest.approx(-2.0, abs=0.4)

    def test_unsorted_levels_rejected(self, sector_spectrum_46, sector_weyl_46):
        shuffled = np.random.default_rng(0).permutation(sector_spectrum_46.values)
        with pytest.raises(InvalidArgumentError, match="ascending"):
            missing_level_scan(shuffled, sector_weyl_46)

    def test_too_few_levels_rejected(self):
        with pytest.raises(InvalidArgumentError):
            missing_level_scan(picket_wavevectors(20), PICKET_PARAMS, window=10)


@pytest.fixture(scope="module")
def sector_10ghz(sector):
    """The complete 10 GHz sector spectrum (1129 levels) and its fitted Weyl parameters."""
    spectrum = sector_eigenvalues(sector, frequency_to_wavevector(10e9))
    return spectrum.values, sector_weyl_params(sector, spectrum)


class TestMissingLevelScanOracle:
    """Runs found from one diff of the padded mask against the run-scanning loop, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(deleted=st.lists(st.integers(0, 1128), unique=True, max_size=15), window=st.integers(1, 40))
    def test_random_deletions_match_frozen_loop(self, sector_10ghz, deleted, window):
        k, params = sector_10ghz
        k = np.delete(k, deleted)
        reports = [(r.position, r.index, r.step) for r in missing_level_scan(k, params, window)]
        assert reports == missing_level_scan_frozen(k, weyl_count(k, params), window)

    def test_runs_at_both_ends(self):
        # the first and the last position both hit: the padded mask closes each run
        k = np.delete(picket_wavevectors(60), [10, 49])
        reports = [(r.position, r.index, r.step) for r in missing_level_scan(k, PICKET_PARAMS, window=10)]
        assert len(reports) == 2
        assert reports == missing_level_scan_frozen(k, weyl_count(k, PICKET_PARAMS), 10)
