import math
import warnings

import mpmath
import numpy as np
import pytest

from billiardlab.billiard import (
    WavevectorSpectrum,
    frequency_to_wavevector,
    mode_intensities_at,
    point_scatterer_spectrum,
    sector_eigenvalues,
)
from billiardlab import billiard
from billiardlab.errors import InvalidArgumentError, NumericalError, QualityWarning

from oracles import point_scatterer_eigenvalues, point_scatterer_roots_by_eigvalsh, secular_function_mp

SCATTERER_XY = (0.64, 0.40)  # one-disk setup position, metres


@pytest.fixture(scope="module")
def base(sector):
    # truncation well above the reporting edge k_max = 30
    return sector_eigenvalues(sector, 60.0)


@pytest.fixture(scope="module")
def intensities(sector, base):
    return mode_intensities_at(sector, base, *SCATTERER_XY)


def test_interlacing_exact(sector, base, intensities):
    k_max = 30.0
    perturbed = point_scatterer_spectrum(base, intensities, coupling=5.0, k_max=k_max)
    poles = base.values[intensities > 0]
    idx = np.searchsorted(poles, perturbed.values)
    # each perturbed level falls strictly between two consecutive active poles
    assert np.all(idx >= 1)
    lower = poles[idx - 1]
    upper = poles[np.minimum(idx, poles.size - 1)]
    assert np.all(perturbed.values > lower)
    assert np.all(perturbed.values < upper)
    # and no two perturbed levels share a gap
    assert np.all(np.diff(idx) >= 1)


def test_weak_coupling_limit_returns_base(sector, base, intensities):
    k_max = 25.0
    # 1/coupling -> +-inf: roots hug the base eigenvalues
    perturbed = point_scatterer_spectrum(base, intensities, coupling=1e-9, k_max=k_max)
    sel = base.values[base.values <= k_max]
    matched = perturbed.values[np.argmin(np.abs(perturbed.values[:, None] - sel), axis=0)]
    np.testing.assert_allclose(matched, sel, rtol=1e-5)


def test_strong_coupling_limit_roots_of_f(sector, base, intensities):
    # coupling -> inf handled as 1/coupling = 0: perturbed levels solve F = 0
    k_max = 25.0
    perturbed = point_scatterer_spectrum(base, intensities, math.inf, k_max)
    E = base.values**2
    for k in perturbed.values[:10]:
        e = k * k
        f = np.sum(intensities * (1.0 / (e - E) + E / (1.0 + E * E)))
        assert abs(f) < 1e-6 * np.sum(intensities)


def test_unaffected_modes_survive(sector, base):
    w = np.asarray(mode_intensities_at(sector, base, *SCATTERER_XY)).copy()
    w[10] = 0.0  # kill the coupling of one mode by hand
    perturbed = point_scatterer_spectrum(base, w, coupling=3.0, k_max=30.0)
    assert np.min(np.abs(perturbed.values - base.values[10])) < 1e-12


def test_zero_weight_level_cut_at_its_own_k(base, intensities):
    # a zero-weight level is kept unshifted and passes the one cut, out <= k_max,
    # exactly when k_max reaches it; the levels around it do not move
    w = intensities.copy()
    w[10] = 0.0
    k10 = base.values[10]
    at = point_scatterer_spectrum(base, w, 3.0, k10).values
    below = point_scatterer_spectrum(base, w, 3.0, np.nextafter(k10, 0.0)).values
    assert np.count_nonzero(at == k10) == 1 and k10 not in below
    assert at[at != k10].tobytes() == below.tobytes()


# 1e-13 deflates 82 of the 85 levels by the second test of
# ``point_scatterer_spectrum``'s Notes, +-1e-100 and 1e-320 every level;
# 1/1e-320 overflows to inf
@pytest.mark.parametrize("coupling", [5.0, 2.0, math.inf, -2.0, 1e-9, 1e-13, 1e-100, -1e-100, 1e-320])
def test_eigvalsh_oracle(base, intensities, coupling):
    # coupling -2 puts one root below the first pole, in (0, E_1)
    want = point_scatterer_roots_by_eigvalsh(base.values, intensities, coupling, 30.0)
    got = point_scatterer_spectrum(base, intensities, coupling, 30.0).values
    assert got.size == want.size
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("coupling", [5.0, -2.0, math.inf])
def test_eigvalsh_oracle_across_blocks(coupling):
    # several blocks of gaps, each with poles beyond its near window on both
    # sides; Poisson spacings and chi-square weights give near-degenerate
    # poles and tiny intensities
    rng = np.random.default_rng(7)
    E = np.cumsum(rng.exponential(1.0, 900)) + 1.0
    w = rng.chisquare(1, E.size) / (4.0 * np.pi)
    k_max = math.sqrt(E[600])
    want = point_scatterer_roots_by_eigvalsh(np.sqrt(E), w, coupling, k_max)
    got = point_scatterer_spectrum(WavevectorSpectrum(np.sqrt(E)), w, coupling, k_max).values
    assert got.size == want.size
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("coupling, above", [(0.1, True), (math.inf, False)], ids=["s>0", "s<0<f(0)"])
def test_the_two_roots_not_returned(base, intensities, coupling, above):
    # k_max at the top level solves every gap: the 85 eigenvalues of the rank-one update are the 84 roots
    # returned and one more, above the top pole when s > 0 and a bound state at E < 0 when s < 0 < f(0)
    E = base.values**2
    s = (0.0 if math.isinf(coupling) else 1.0 / coupling) - np.sum(intensities * E / (1.0 + E * E))
    assert (s > 0.0) == above and (above or s + np.sum(intensities / E) > 0.0)
    with pytest.warns(QualityWarning, match="truncation"):
        got = point_scatterer_spectrum(base, intensities, coupling, base.values[-1]).values
    lam = point_scatterer_eigenvalues(base.values, intensities, coupling)
    assert lam.size == E.size == got.size + 1
    left_out, solved = (lam[-1], lam[:-1]) if above else (lam[0], lam[1:])
    assert left_out > E[-1] if above else left_out < 0.0
    np.testing.assert_allclose(got, np.sqrt(solved), rtol=1e-12)


def test_tiny_intensity_gap_keeps_its_root(sector, base):
    # a weight of 1e-12 puts the root within ~1e-13 of its pole; it must
    # still be found, strictly inside its gap
    w = np.asarray(mode_intensities_at(sector, base, *SCATTERER_XY)).copy()
    w[10] = 1e-12
    k_max = 30.0
    perturbed = point_scatterer_spectrum(base, w, coupling=3.0, k_max=k_max).values
    poles = base.values[(w > 0.0) & (base.values <= k_max)]
    per_gap = np.searchsorted(perturbed, poles[1:], side="left") - np.searchsorted(
        perturbed, poles[:-1], side="right"
    )
    assert np.all(per_gap == 1)
    assert perturbed.size == 18


# Near the apex the modes of high angular order barely reach the scatterer:
# at this 4.6 GHz position, base to 2 k_max, 300 of 951 intensities fall
# below rounding, down to ~1e-114, and solving for their roots raised
# NumericalError.  Such levels are deflated: kept unshifted, out of the solve.
APEX_XY = (0.2342 * math.cos(0.3491), 0.2342 * math.sin(0.3491))


@pytest.fixture(scope="module")
def apex(sector):
    k_max = frequency_to_wavevector(4.6e9)
    base = sector_eigenvalues(sector, 2.0 * k_max)
    return base, mode_intensities_at(sector, base, *APEX_XY), k_max


def test_intensities_below_rounding_are_deflated(apex):
    base, w, k_max = apex
    assert w.min() < 1e-100
    got = point_scatterer_spectrum(base, w, 5.0, k_max).values
    want = point_scatterer_roots_by_eigvalsh(base.values, w, 5.0, k_max)
    assert got.size == want.size == np.sum(base.values <= k_max)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_deflated_gap_against_mpmath(apex):
    # level 37 (w = 5.3e-24) is deflated; levels 35-36 and 38-39 are active.
    # Between poles 35 and 39 the 60-digit secular function falls through 0
    # within 1e-15 (relative, in E) of each reported level, and at pole 37
    # that is the level kept unshifted.
    base, w, k_max = apex
    k = base.values
    assert w[37] < 1e-22 and min(w[35], w[36], w[38], w[39]) > 1e-18
    got = point_scatterer_spectrum(base, w, 5.0, k_max).values
    levels = got[(got > k[35]) & (got < k[39])]
    assert levels.size == 4 and np.count_nonzero(levels == k[37]) == 1
    h = secular_function_mp(k, w, 5.0)
    for q in levels:
        with mpmath.workdps(60):
            e, delta = mpmath.mpf(float(q)) ** 2, mpmath.mpf("1e-15")
            below, above = h(e * (1 - delta)), h(e * (1 + delta))
        if q == k[37]:
            # h runs to -inf just below the pole and from +inf just above it
            assert below > 0 or above < 0
        else:
            assert below > 0 > above


def test_root_on_its_pole_within_one_ulp(sector):
    # 20 GHz base to 2 k_max at the scatterer position of the sector-20ghz
    # benchmark's seed 45.  Gap 3270 lies between the near-degenerate poles
    # E = 125215.62788 and 125215.73254, of weights 2.5e-10 and 2.0, so its root
    # lies within an ulp of k above the left pole and the returned level equals
    # that pole's k bitwise.  At 60 digits the secular function is positive just
    # above the pole and negative at the next double of k: the true root lies
    # between the two, so the level is within one ulp of it.  Measured: +2.0e15
    # at E (1 + 1e-30) and -12.5 at the next double; the solve took 0.16 s.
    k_max = frequency_to_wavevector(20e9)
    base = sector_eigenvalues(sector, 2.0 * k_max)
    w = mode_intensities_at(sector, base, 0.64029252262779, 0.4001139645806808)
    k = base.values
    assert w[3270] < 1e-9 < 1.0 < w[3271] and k[3271] ** 2 - k[3270] ** 2 < 0.2
    got = point_scatterer_spectrum(base, w, 5.0, k_max).values
    assert np.count_nonzero(got == k[3270]) == 1
    h = secular_function_mp(k, w, 5.0)
    with mpmath.workdps(60):
        assert h(mpmath.mpf(float(k[3270])) ** 2 * (1 + mpmath.mpf("1e-30"))) > 0
        assert h(mpmath.mpf(float(np.nextafter(k[3270], np.inf))) ** 2) < 0


def test_nonconvergence_raises(base, intensities, monkeypatch):
    monkeypatch.setattr(billiard, "_MAX_ITER", 1)
    with pytest.raises(NumericalError):
        point_scatterer_spectrum(base, intensities, coupling=5.0, k_max=30.0)


@pytest.mark.parametrize("coupling", [1e-200, -1e-200, 1e-320, -1e-320, 5e-324])
def test_very_weak_coupling_warns_nothing(base, intensities, coupling):
    # |1/coupling| >= 1e200 deflates every level, so the result is the base
    # levels; 1/coupling overflows to +-inf below about 5.6e-309, and still no
    # RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = point_scatterer_spectrum(base, intensities, coupling, 30.0).values
    np.testing.assert_array_equal(got, base.values[base.values <= 30.0])


@pytest.mark.parametrize("coupling", [1e-30, -1e-30, 1e-60, -1e-100, 1e-320])
def test_weak_coupling_deflates_every_level(apex, coupling):
    # near the apex, from 1e-30 down, the solve raised NumericalError: a root
    # within rounding of its pole could not be resolved.  Every level passes
    # the second deflation test, so the base levels are the answer, bitwise
    base, w, k_max = apex
    got = point_scatterer_spectrum(base, w, coupling, k_max).values
    np.testing.assert_array_equal(got, base.values[base.values <= k_max])


def _poisson_poles(n, seed):
    """Poisson spacings and chi-square weights: near-degenerate poles and tiny intensities."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0, n)) + 1.0, rng.chisquare(1, n) / (4.0 * np.pi)


@pytest.mark.parametrize("b", [0, 20, 31])
def test_far_interpolant_against_fsum(b):
    # a block's far-pole sums (its group's interpolant plus direct sums over the
    # rest, then interpolated from the block's Chebyshev points) against direct
    # sums in exact-rounding math.fsum at random points, the block edges and a
    # node.  Block 20 has poles beyond its group's window on both sides, block 31
    # is the last, short one.  Measured: derivatives within 3.5e-15, the value,
    # which sums terms of both signs, within 5.9e-14.
    E, w = _poisson_poles(3000, 3)
    n0, n1, centre, half, far = billiard._blocks(E, w, 2000)[b]
    x = np.r_[-1.0, 1.0, billiard._NODES[5], np.random.default_rng(b).uniform(-1.0, 1.0, 20)]
    got = billiard._barycentric(x, far)
    assert got[2].tobytes() == far[5].tobytes()  # a point on a node takes its values
    for xi, row in zip(x, got):
        e = centre + half * xi
        below = [(wn, En - e) for wn, En in zip(w[:n0].tolist(), E[:n0].tolist())]
        above = [(wn, En - e) for wn, En in zip(w[n1:].tolist(), E[n1:].tolist())]
        want = [
            math.fsum(wn / d for wn, d in below + above),
            math.fsum(wn / d**2 for wn, d in below),
            math.fsum(wn / d**2 for wn, d in above),
        ]
        np.testing.assert_allclose(row, want, rtol=1e-13, atol=0.0)


def test_roots_beyond_group_windows_against_mpmath():
    # 4000 gaps: the groups around gap 2000 have poles beyond their windows on
    # both sides.  At the twelve sampled roots there whose neighbouring weights
    # both exceed 0.01, the 60-digit secular function falls through 0 within
    # 1e-14 (relative, in E) of the reported level.
    E, w = _poisson_poles(6000, 11)
    k = np.sqrt(E)
    got = point_scatterer_spectrum(WavevectorSpectrum(k), w, 5.0, k[4000]).values
    h = secular_function_mp(k, w, 5.0)
    idx = np.searchsorted(k, got)  # the right pole of each level's gap
    picks = [i for i in range(1700, 2400, 41) if min(w[idx[i] - 1], w[idx[i]]) > 0.01]
    assert len(picks) == 12
    for q in got[picks]:
        with mpmath.workdps(60):
            e, delta = mpmath.mpf(float(q)) ** 2, mpmath.mpf("1e-14")
            assert h(e * (1 - delta)) > 0 > h(e * (1 + delta))


def test_truncation_convergence(sector):
    # the subtraction kernel makes the pole sum converge ~ 1/truncation:
    # doubling the truncation shifts the roots by a small fraction of the
    # mean spacing, and doubling again shrinks the shift by ~4x
    k_max = 20.0
    shifts = []
    previous = None
    for factor in (2, 4, 8):
        spec = sector_eigenvalues(sector, factor * k_max)
        w = mode_intensities_at(sector, spec, *SCATTERER_XY)
        p = point_scatterer_spectrum(spec, w, coupling=2.0, k_max=k_max).values
        if previous is not None:
            assert p.size == previous.size
            shifts.append(np.max(np.abs(p - previous)))
        previous = p
    mean_spacing = float(np.diff(previous).mean())
    assert shifts[0] < 0.05 * mean_spacing
    assert shifts[1] < 0.5 * shifts[0]


def test_zero_coupling_rejected(base, intensities):
    with pytest.raises(InvalidArgumentError):
        point_scatterer_spectrum(base, intensities, coupling=0.0, k_max=10.0)


def test_unsorted_base_rejected(intensities, base):
    bad_values = base.values.copy()
    bad_values[3], bad_values[4] = bad_values[4], bad_values[3]
    with pytest.raises(InvalidArgumentError):
        point_scatterer_spectrum(WavevectorSpectrum(bad_values), intensities, 1.0, 10.0)


def test_short_base_warns_quality(base, intensities):
    # a base ending below 1.2 k_max biases the roots near the edge
    with pytest.warns(QualityWarning, match="truncation"):
        point_scatterer_spectrum(base, intensities, 1.0, base.values[-1])


def test_empty_base_rejected():
    with pytest.raises(InvalidArgumentError):
        point_scatterer_spectrum(WavevectorSpectrum(np.empty(0)), np.empty(0), 1.0, 10.0)


def test_mismatched_intensities_rejected(base, intensities):
    with pytest.raises(InvalidArgumentError):
        point_scatterer_spectrum(base, intensities[:-1], 1.0, 10.0)


def test_semi_poisson_statistics_with_tuned_coupling(sector):
    # spacing distribution of the perturbed spectrum sits closer to the
    # semi-Poisson law than to Poisson or Wigner (KS on ~300 levels)
    from billiardlab.reference import spacing_ks
    from billiardlab.unfolding import UnfoldedSpectrum, unfold
    from billiardlab.billiard import fit_weyl_constant

    k_max = 112.0
    base = sector_eigenvalues(sector, 2 * k_max)
    w = mode_intensities_at(sector, base, *SCATTERER_XY)
    perturbed = point_scatterer_spectrum(base, w, coupling=math.inf, k_max=k_max)
    assert len(perturbed) >= 300
    params = fit_weyl_constant(perturbed.values, sector.area, sector.perimeter)
    u = unfold(perturbed, params)
    ks = {m: spacing_ks(u, m) for m in ("poisson", "goe", "semi-poisson")}
    assert ks["semi-poisson"] < ks["poisson"]
    assert ks["semi-poisson"] < ks["goe"]
