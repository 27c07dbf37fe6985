import json
import math
import multiprocessing
import threading
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.special import jv

from billiardlab import billiard
from billiardlab.billiard import (
    DiskScatterer,
    SectorGeometry,
    WavevectorSpectrum,
    WeylParams,
    bessel_order_zeros,
    fit_weyl_constant,
    frequency_to_wavevector,
    mode_amplitudes,
    mode_intensities_at,
    sector_eigenvalues,
    sector_weyl_params,
    validate_scatterers,
    weyl_count,
)
from billiardlab.errors import InvalidArgumentError, NumericalError

from oracles import bessel_zero_by_bisection

# mpmath.besseljzero values, written by tests/data/make_besseljzero.py
BESSELJZERO = json.loads((Path(__file__).parent / "data" / "besseljzero.json").read_text())


class TestBesselZeros:
    def test_first_zero_order_zero(self):
        # frozen from the series-bisection oracle
        assert bessel_order_zeros(0, 1)[0] == pytest.approx(2.404825557695773, rel=1e-12)

    def test_first_zero_order_three(self):
        assert bessel_order_zeros(3, 1)[0] == pytest.approx(6.380161895923984, rel=1e-12)

    @pytest.mark.parametrize("order,count", [(0.0, 3), (1.0, 3), (2.5, 2), (3.0, 2), (7.0, 1)])
    def test_against_series_oracle(self, order, count):
        # the power-series oracle itself loses digits to cancellation as the
        # argument grows, so the comparison stays in its validity range
        zeros = bessel_order_zeros(order, count)
        expected = [bessel_zero_by_bisection(order, s) for s in range(1, count + 1)]
        np.testing.assert_allclose(zeros, expected, rtol=1e-10)

    def test_strictly_ascending(self):
        zeros = bessel_order_zeros(4.2, 30)
        assert np.all(np.diff(zeros) > 0)

    def test_interlacing_consecutive_orders(self):
        # z_{nu,s} < z_{nu+1,s} < z_{nu,s+1}
        z2 = bessel_order_zeros(2, 11)
        z3 = bessel_order_zeros(3, 10)
        assert np.all(z2[:10] < z3)
        assert np.all(z3 < z2[1:11])

    def test_residuals_tiny(self):
        zeros = bessel_order_zeros(5.5, 20)
        assert np.max(np.abs(jv(5.5, zeros))) < 1e-13

    @pytest.mark.parametrize("order", [0.0, 0.25, 0.5])
    def test_small_orders_against_mpmath(self, order):
        # McMahon seeds; below order 1/2 the zeros are less than pi apart
        # (measured: equal to mpmath rounded to double)
        expected = [float(mpmath.besseljzero(order, s)) for s in range(1, 6)]
        np.testing.assert_allclose(bessel_order_zeros(order, 5), expected, rtol=1e-13)

    def test_transition_region_against_mpmath(self):
        # order 300: the first zeros sit in the Airy transition region
        # (measured: within 2.2e-16)
        np.testing.assert_allclose(bessel_order_zeros(300, 3), BESSELJZERO["order_300"], rtol=1e-13)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(billiard, "_HALLEY_MAX_ITER", 1)
        with pytest.raises(NumericalError):
            bessel_order_zeros(0.0, 5)

    def test_seed_on_neighbouring_zero_raises(self, monkeypatch):
        # seeds 1 and 2 both at the first zero: the order would lose a zero
        seeds = billiard._zero_seeds
        monkeypatch.setattr(billiard, "_zero_seeds", lambda nu, s: seeds(nu, np.maximum(s - 1, 1)))
        with pytest.raises(NumericalError):
            bessel_order_zeros(3.0, 4)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            bessel_order_zeros(float("nan"), 1)
        with pytest.raises(InvalidArgumentError):
            bessel_order_zeros(-1.0, 1)
        with pytest.raises(InvalidArgumentError):
            bessel_order_zeros(1.0, 0)


class TestSectorEigenvalues:
    def test_lowest_level_60_degrees(self, sector, sector_spectrum_46):
        assert sector_spectrum_46.values[0] == pytest.approx(
            6.380161895923984 / 0.8, rel=1e-12
        )
        assert sector_spectrum_46.labels[0] == (1, 1)

    def test_lowest_level_90_degrees(self):
        geom = SectorGeometry(radius=1.0, angle=math.pi / 2.0)
        spec = sector_eigenvalues(geom, 6.0)
        assert spec.values[0] == pytest.approx(5.135622301840683, rel=1e-12)

    def test_count_up_to_4_6_ghz(self, sector_spectrum_46):
        # Exhaustive count of zeros of J_{3m} below k_max*R, frozen from two
        # independent oracles (mpmath.besseljzero scan and a dense sign scan).
        # The closest zero above the cut sits at kR = 77.133 vs the cut 77.127,
        # so the count is insensitive to the c0 convention.
        assert len(sector_spectrum_46) == 229

    def test_eigenvalue_equation_residuals(self, sector, sector_spectrum_46):
        # the order in double, as the code takes it
        orders = np.array([m for m, _ in sector_spectrum_46.labels]) * (math.pi / sector.angle)
        residuals = np.abs(jv(orders, sector_spectrum_46.values * sector.radius))
        assert residuals.max() < 1e-9

    def test_labels_complete_per_order(self, sector_spectrum_46):
        # radial indices per m must run 1..count without holes
        by_m = {}
        for m, nu in sector_spectrum_46.labels:
            by_m.setdefault(m, []).append(nu)
        for m, nus in by_m.items():
            assert sorted(nus) == list(range(1, len(nus) + 1))

    def test_weyl_completeness(self, sector):
        # The staircase tracks the fitted Weyl count with no persistent step
        # offset (a missing level would leave a -1 step).  The measured
        # oscillation amplitude reaches 4.1 by kR = 100, so the derived
        # sup bound is 5, not the naive +-3.
        from billiardlab.unfolding import missing_level_scan

        k_max = 100.0 / sector.radius
        spec = sector_eigenvalues(sector, k_max)
        params = sector_weyl_params(sector, spec)
        n = np.arange(1, len(spec) + 1)
        dev = n - weyl_count(spec.values, params)
        assert np.max(np.abs(dev)) < 5.0

    def test_no_missing_levels_in_analysis_band(self, sector_spectrum_46, sector_weyl_46):
        from billiardlab.unfolding import missing_level_scan

        assert missing_level_scan(sector_spectrum_46.values, sector_weyl_46, window=20) == []

    def test_non_integer_orders_against_mpmath(self):
        # angle 2*pi/5: orders 2.5 m, every zero of every order up to kR = 60
        # (measured: within 5.6e-16)
        table = BESSELJZERO["sector"]
        geom = SectorGeometry(radius=1.0, angle=2.0 * math.pi / 5.0)
        spec = sector_eigenvalues(geom, table["x_max"])
        by_m = {}
        for (m, _), k in zip(spec.labels, spec.values):
            by_m.setdefault(str(m), []).append(k)
        expected = table["zeros_by_m"]
        assert {m: len(z) for m, z in by_m.items()} == {m: len(z) for m, z in expected.items()}
        for m, zeros in expected.items():
            np.testing.assert_allclose(by_m[m], zeros, rtol=1e-13)

    def test_sector_wider_than_pi_against_mpmath(self):
        # angle 1.5 pi: the order 2/3 of m = 1 lies below 1 and takes McMahon seeds
        # (measured: 12 zeros each, equal to mpmath rounded to double; the next
        # zeros are 41.10 and 42.13, and the staircase mean is 0.0026 over 279 levels)
        geom = SectorGeometry(radius=1.0, angle=1.5 * math.pi)
        spec = sector_eigenvalues(geom, 40.0)
        with mpmath.workdps(30):
            for m in (1, 2):
                # the order in double, as the code takes it, converted exactly
                order = mpmath.mpf(m * (math.pi / geom.angle))
                nus = [nu for mm, nu in spec.labels if mm == m]
                zeros = spec.values[[mm == m for mm, _ in spec.labels]]
                assert nus == list(range(1, len(nus) + 1))
                expected = [float(mpmath.besseljzero(order, s)) for s in range(1, len(nus) + 2)]
                np.testing.assert_allclose(zeros, expected[:-1], rtol=1e-13)
                assert expected[-1] > 40.0  # the order is complete below k_max R
        n = np.arange(1, len(spec) + 1)
        assert abs(np.mean(n - 0.5 - weyl_count(spec.values, sector_weyl_params(geom)))) < 0.05

    def test_invalid_k_max(self, sector):
        with pytest.raises(InvalidArgumentError):
            sector_eigenvalues(sector, 0.0)
        with pytest.raises(InvalidArgumentError):
            sector_eigenvalues(sector, -2.0)


def _bessel_next_errors(geom, spectrum, levels):
    """Relative errors of ``bessel_next`` against mpmath J_{order+1}(k R) at 30 digits."""
    with mpmath.workdps(30):
        errors = []
        for i in levels:
            # the order in double, as the code takes it, converted exactly
            order = mpmath.mpf(spectrum.labels[i][0] * (math.pi / geom.angle))
            exact = mpmath.besselj(order + 1, mpmath.mpf(spectrum.values[i]) * geom.radius)
            errors.append(float(abs((spectrum.bessel_next[i] - exact) / exact)))
    return np.array(errors)


class TestBesselNext:
    # bessel_next comes from a Taylor step off the last Halley point, not from a
    # Bessel call at the zero; measured: within 5.3e-14 (20 GHz base) and 2.7e-14
    # (orders 2.5 m) on these samples

    def test_20_ghz_base_against_mpmath(self, sector):
        spec = sector_eigenvalues(sector, 2.0 * frequency_to_wavevector(20e9))
        levels = np.random.default_rng(7).choice(len(spec), 40, replace=False)
        assert np.max(_bessel_next_errors(sector, spec, levels)) < 1e-12

    def test_20_ghz_base_worst_entries_against_mpmath(self, sector):
        # where J_{nu+1} from jv at the last Halley point was 3e-13 off; mpmath
        # takes k R rounded to double, the zero the Taylor step aims at, since
        # one ulp of k R moves J_{nu+1} by up to 1.3e-14 here (measured: 2.8e-16)
        spec = sector_eigenvalues(sector, 2.0 * frequency_to_wavevector(20e9))
        with mpmath.workdps(40):
            for label in [(20, 138), (21, 178), (23, 167)]:
                i = spec.labels.index(label)
                kr = float(spec.values[i] * sector.radius)
                exact = mpmath.besselj(3 * label[0] + 1, kr)
                assert abs(spec.bessel_next[i] / exact - 1) < 1e-14

    def test_non_integer_orders_against_mpmath(self):
        geom = SectorGeometry(radius=1.0, angle=2.0 * math.pi / 5.0)
        spec = sector_eigenvalues(geom, 300.0)
        levels = np.random.default_rng(8).choice(len(spec), 40, replace=False)
        assert np.max(_bessel_next_errors(geom, spec, levels)) < 1e-12


def _counting(monkeypatch, name):
    """Replace billiard's module-level ``name`` (``jv`` or ``hankel1``) by the scipy
    ufunc with a lock-guarded record of every call's element count."""
    real, sizes, lock = getattr(special, name), [], threading.Lock()

    def counted(v, x, *args, **kwargs):
        with lock:
            sizes.append(x.size)
        return real(v, x, *args, **kwargs)

    monkeypatch.setattr(billiard, name, counted)
    return sizes


def _piecewise_j(v, x):
    """J_v(x) as ``_besselj`` defines it, from one unsplit call of each ufunc."""
    return np.where(x > v, special.hankel1(v, x).real, special.jv(v, x))


def _bessel_threads():
    """The live threads of ``_besselj``'s split."""
    return [t for t in threading.enumerate() if t.name.startswith("billiardlab-bessel")]


class TestJvSplit:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "size",
        [0, 1, billiard._BESSEL_SPLIT_MIN - 1, billiard._BESSEL_SPLIT_MIN, billiard._BESSEL_SPLIT_MIN + 1, 18583],
    )
    def test_bitwise_equal_to_one_call(self, monkeypatch, cpus, size):
        monkeypatch.setattr(billiard, "_cpu_count", lambda: cpus)
        rng = np.random.default_rng(size)
        v, x = rng.uniform(0.0, 300.0, size), rng.uniform(0.0, 700.0, size)
        # on the turning point (jv) and one ulp above it (hankel1)
        x[::5], x[1::5] = v[::5], np.nextafter(v[1::5], np.inf)
        got = billiard._besselj(v, x)
        assert got.shape == (size,) and got.tobytes() == _piecewise_j(v, x).tobytes()
        # a split call joins its threads before it returns
        assert _bessel_threads() == []

    def test_cpu_count_without_affinity(self, monkeypatch):
        # where os has no sched_getaffinity, the count is os.cpu_count(), or 1 if that is unknown
        monkeypatch.delattr(billiard.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(billiard.os, "cpu_count", lambda: 5)
        assert billiard._cpu_count() == 5
        monkeypatch.setattr(billiard.os, "cpu_count", lambda: None)
        assert billiard._cpu_count() == 1

    def test_broadcast_shape_of_mode_amplitudes(self, monkeypatch):
        monkeypatch.setattr(billiard, "_cpu_count", lambda: 2)
        rng = np.random.default_rng(1)
        orders, x = 3.0 * np.arange(1, 1001), rng.uniform(0.0, 700.0, (7, 1000))
        got = billiard._besselj(orders, x)
        assert got.shape == (7, 1000) and got.tobytes() == _piecewise_j(orders, x).tobytes()

    def test_every_element_counted_once(self, sector, monkeypatch):
        # every Halley point of the zeros lies above the turning point of both
        # orders (measured: x - nu - 1 >= 2.38 on the 4.6 and 20 GHz bases, set
        # by the lowest level, and 1.40 for order 0), so hankel1 gets J_nu and
        # J_{nu+1} of each step and jv no element; the modes send their
        # k r > nu elements to hankel1 and the rest to jv, P*N elements in
        # all, however the calls are split
        geom, k_max = sector, frequency_to_wavevector(20e9)
        points = ([0.64, 0.2], [0.40, 0.1])
        monkeypatch.setattr(billiard, "_cpu_count", lambda: 1)
        hankel, jv_ = _counting(monkeypatch, "hankel1"), _counting(monkeypatch, "jv")
        spec = sector_eigenvalues(geom, k_max)
        # unsplit, every hankel1 call is J_nu or J_{nu+1} of one Halley step, in pairs
        assert hankel and len(hankel) % 2 == 0 and hankel[::2] == hankel[1::2]
        assert hankel[0] > len(spec) and sum(jv_) == 0
        whole_zeros = hankel[:]
        kr, orders = _kr_and_orders(geom, spec, *points)
        above = np.count_nonzero(kr > orders)
        assert 0 < above < 2 * len(spec)
        del hankel[:], jv_[:]
        mode_amplitudes(geom, spec, *points)
        assert hankel == [above] and jv_ == [2 * len(spec) - above]

        monkeypatch.setattr(billiard, "_cpu_count", lambda: 3)
        hankel, jv_ = _counting(monkeypatch, "hankel1"), _counting(monkeypatch, "jv")
        assert sector_eigenvalues(geom, k_max).values.tobytes() == spec.values.tobytes()
        assert len(hankel) > len(whole_zeros) and sum(hankel) == sum(whole_zeros) and sum(jv_) == 0
        del hankel[:], jv_[:]
        mode_amplitudes(geom, spec, *points)
        assert len(hankel) == 3 and sum(hankel) == above
        assert len(jv_) == 3 and sum(jv_) == 2 * len(spec) - above

    def test_exception_in_a_pool_chunk_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(billiard, "_cpu_count", lambda: 3)
        real = special.hankel1

        def failing_off_the_calling_thread(v, x):
            if threading.current_thread() is not threading.main_thread():
                raise ZeroDivisionError("chunk")
            return real(v, x)

        monkeypatch.setattr(billiard, "hankel1", failing_off_the_calling_thread)
        v = np.full(billiard._BESSEL_SPLIT_MIN, 10.0)
        with pytest.raises(ZeroDivisionError, match="chunk"):
            billiard._besselj(v, 2.0 * v)
        assert _bessel_threads() == []

    def test_forked_child_after_parent_split(self, sector, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        monkeypatch.setattr(billiard, "_cpu_count", lambda: 2)
        k_max = frequency_to_wavevector(20e9)
        expected = len(sector_eigenvalues(sector, k_max))
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            child = ctx.Process(target=lambda: queue.put(len(sector_eigenvalues(sector, k_max))))
            child.start()
        child.join(30.0)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("forked child hung in sector_eigenvalues")
        assert child.exitcode == 0 and queue.get(timeout=5.0) == expected


def _modes(spectrum, *labels):
    """The levels of ``spectrum`` with the given (m, nu) labels, in ascending order."""
    idx = [spectrum.labels.index(label) for label in labels]
    return WavevectorSpectrum(
        spectrum.values[idx], [spectrum.labels[i] for i in idx], spectrum.bessel_next[idx]
    )


def _sector_grid(geom, h):
    """Regular grid of spacing h over the bounding box and its mask of closed-sector points."""
    x = np.arange(0.0, geom.radius + h, h)
    y = np.arange(0.0, geom.radius * math.sin(geom.angle) + h, h)
    xx, yy = np.meshgrid(x, y, indexing="xy")
    return xx, yy, (np.hypot(xx, yy) <= geom.radius) & (np.arctan2(yy, xx) <= geom.angle)


def _amplitude_mpmath(geom, m, k, x, y):
    """psi_{m,nu}(x, y) from mpmath J_order and J_{order+1} at the level's k."""
    with mpmath.workdps(30):
        order = m * mpmath.pi / geom.angle
        r, phi = mpmath.hypot(x, y), mpmath.atan2(y, x) % (2 * mpmath.pi)
        norm = mpmath.sqrt(geom.angle / 4) * geom.radius * abs(mpmath.besselj(order + 1, k * geom.radius))
        return float(mpmath.sin(order * phi) * mpmath.besselj(order, k * r) / norm)


def _envelope_mpmath(geom, m, k, x, y):
    """|H^(1)_order(k r)| over the norm of psi_{m,nu}: the envelope of the mode at (x, y)."""
    with mpmath.workdps(30):
        order = m * mpmath.pi / geom.angle
        norm = mpmath.sqrt(geom.angle / 4) * geom.radius * abs(mpmath.besselj(order + 1, k * geom.radius))
        return float(abs(mpmath.hankel1(order, k * mpmath.hypot(x, y))) / norm)


def _kr_and_orders(geom, spectrum, x, y):
    """k r, shape (P, N), and the orders nu as ``mode_amplitudes`` takes them;
    k r > nu above the turning point."""
    orders = np.array([m for m, _ in spectrum.labels], dtype=float) * (math.pi / geom.angle)
    return spectrum.values * np.hypot(x, y).reshape(-1, 1), orders


# polar points on the boundary of the sector (rejected as scatterer positions) and outside it
_NOT_INTERIOR = {
    "lower edge": lambda g: (0.5 * g.radius, 0.0),
    "upper edge": lambda g: (0.5 * g.radius, g.angle),
    "arc": lambda g: (g.radius, 0.5),
    "beyond arc": lambda g: (1.01 * g.radius, 0.5),
    "below lower edge": lambda g: (0.5 * g.radius, -0.01),
    "beyond upper edge": lambda g: (0.5 * g.radius, g.angle + 0.01),
}
_OUTSIDE = ["beyond arc", "below lower edge", "beyond upper edge"]


class TestWavefunction:
    def test_zero_on_straight_edges(self, sector, sector_spectrum_46):
        # arctan2 puts 2 (pi/5) and 1 (0.3 rad) of these upper-edge points one
        # ulp above the edge; they are still in the closed sector
        r = np.linspace(0.01, 0.79, 40)
        for angle in (sector.angle, math.pi / 5.0, 0.3):
            geom = SectorGeometry(radius=sector.radius, angle=angle)
            spec = sector_spectrum_46 if geom == sector else sector_eigenvalues(geom, 60.0)
            lower = mode_amplitudes(geom, spec, r, np.zeros_like(r))
            np.testing.assert_array_equal(lower, 0.0)
            upper = mode_amplitudes(geom, spec, r * math.cos(angle), r * math.sin(angle))
            assert np.max(np.abs(upper)) < 1e-12

    def test_modes_take_the_orders_of_their_zeros(self, sector, monkeypatch):
        # m * pi / theta and m * (pi / theta) differ by one ulp at many levels of
        # the 20 GHz base: each mode must take the double its zero was solved at
        solved, taken = [], []
        zeros, besselj = billiard._bessel_zeros, billiard._besselj

        def solving(nu, s):
            solved.append((nu, s))
            return zeros(nu, s)

        def taking(v, x):
            taken.append(np.array(v, dtype=float))
            return besselj(v, x)

        monkeypatch.setattr(billiard, "_bessel_zeros", solving)
        spec = sector_eigenvalues(sector, 2.0 * frequency_to_wavevector(20e9))
        (nu, s), = solved
        m = np.cumsum(np.r_[True, nu[1:] != nu[:-1]])  # the candidates come order by order
        by_label = dict(zip(zip(m.tolist(), s.tolist()), nu))
        expected = np.array([by_label[label] for label in spec.labels])
        monkeypatch.setattr(billiard, "_besselj", taking)
        mode_amplitudes(sector, spec, 0.64, 0.40)
        assert len(taken) == 1 and taken[0].tobytes() == expected.tobytes()

    def test_tiny_on_arc(self, sector, sector_spectrum_46):
        ground = _modes(sector_spectrum_46, (1, 1))
        phi = np.linspace(0.05, sector.angle - 0.05, 50)
        vals = mode_amplitudes(sector, ground, sector.radius * np.cos(phi), sector.radius * np.sin(phi))
        interior = mode_amplitudes(sector, ground, 0.5, 0.25)
        assert np.max(vals**2) / interior[0, 0] ** 2 < 1e-10

    def test_ground_mode_single_maximum(self, sector, sector_spectrum_46):
        xx, yy, inside = _sector_grid(sector, 0.02)
        vals = np.zeros(xx.shape)
        amp = mode_amplitudes(sector, _modes(sector_spectrum_46, (1, 1)), xx[inside], yy[inside])
        vals[inside] = amp[:, 0] ** 2
        peak = np.unravel_index(np.argmax(vals), vals.shape)
        # the intensity decreases monotonically along rows/columns away from
        # the single interior maximum (no interior nodal line)
        row = vals[peak[0], :]
        nonzero = row[row > 1e-12 * vals.max()]
        assert np.all(np.diff(np.sign(np.diff(nonzero))) <= 0)
        assert vals.max() > 0

    def test_mode_21_nodal_ray(self, sector, sector_spectrum_46):
        mode = _modes(sector_spectrum_46, (2, 1))
        phi_mid = sector.angle / 2.0
        r = np.linspace(0.05, 0.75, 20)
        vals = mode_amplitudes(sector, mode, r * np.cos(phi_mid), r * np.sin(phi_mid))
        assert np.max(np.abs(vals)) < 1e-12
        # and it is the only interior ray: intensity nonzero at theta/4
        q = sector.angle / 4.0
        vals_q = mode_amplitudes(sector, mode, r * np.cos(q), r * np.sin(q))
        assert np.min(np.abs(vals_q)) > 0

    def test_normalisation(self, sector, sector_spectrum_46):
        # unit L2 norm over the sector, checked by midpoint quadrature
        h = 0.002
        xx, yy, inside = _sector_grid(sector, h)
        amp = mode_amplitudes(sector, _modes(sector_spectrum_46, (1, 1)), xx[inside], yy[inside])
        assert np.sum(amp**2) * h * h == pytest.approx(1.0, abs=0.01)

    def test_intensities_match_mode_amplitudes(self, sector, sector_spectrum_46):
        # mpmath oracle for the signed, normalised modes at sampled (point, level)
        # pairs; its J_{order+1} comes from each level's own k and order, so the
        # stored bessel_next must follow its level through the sort by k
        spec = sector_spectrum_46
        points = [(0.64, 0.40), (0.31, 0.07), (0.2, 0.3)]
        levels = range(0, len(spec), 12)
        expected = np.array(
            [[_amplitude_mpmath(sector, spec.labels[i][0], spec.values[i], x, y) for i in levels]
             for x, y in points]
        )
        amp = mode_amplitudes(sector, spec, [x for x, _ in points], [y for _, y in points])
        np.testing.assert_allclose(amp[:, levels], expected, rtol=1e-12, atol=0.0)
        w = mode_intensities_at(sector, spec, *points[0])
        np.testing.assert_allclose(w[levels], expected[0] ** 2, rtol=1e-12, atol=0.0)

    def test_20_ghz_base_above_turning_point(self, sector):
        # above the turning point, k r > nu, J_nu is Re H^(1)_nu; near the nodes
        # of J the relative error means nothing for either ufunc, so the bound is
        # on the envelope (measured: 2.5e-13 of it, as with jv); the levels
        # nearest the turning point, the farthest from it, and 40 at random
        spec, (x, y) = sector_eigenvalues(sector, 2.0 * frequency_to_wavevector(20e9)), (0.64, 0.40)
        kr, orders = _kr_and_orders(sector, spec, x, y)
        gap = kr[0] - orders
        above = np.flatnonzero(gap > 0.0)
        by_gap = above[np.argsort(gap[above])]
        random = np.random.default_rng(9).choice(above, 40, replace=False)
        levels = np.concatenate([by_gap[:20], by_gap[-20:], random])
        amp = mode_amplitudes(sector, spec, x, y)[0]
        for i in levels:
            m, k = spec.labels[i][0], spec.values[i]
            error = abs(amp[i] - _amplitude_mpmath(sector, m, k, x, y))
            assert error <= 1e-12 * _envelope_mpmath(sector, m, k, x, y)

    def test_20_ghz_base_below_turning_point(self, sector):
        # near the apex most modes are evanescent, k r < nu, and come from jv;
        # J has no nodes there, so the relative error counts; the levels lie
        # between nu/5 and the turning point, where the modes are still normal
        # doubles, down to 2e-98 here (measured: 7.0e-14)
        spec, (x, y) = sector_eigenvalues(sector, 2.0 * frequency_to_wavevector(20e9)), (0.05, 0.02)
        kr, orders = _kr_and_orders(sector, spec, x, y)
        below = np.flatnonzero((kr[0] <= orders) & (kr[0] > orders / 5.0))
        levels = np.random.default_rng(10).choice(below, 20, replace=False)
        expected = [_amplitude_mpmath(sector, spec.labels[i][0], spec.values[i], x, y) for i in levels]
        amp = mode_amplitudes(sector, spec, x, y)[0]
        np.testing.assert_allclose(amp[levels], expected, rtol=1e-12, atol=0.0)

    def test_intensities_need_bessel_next(self, sector, sector_spectrum_46):
        bare = WavevectorSpectrum(sector_spectrum_46.values, sector_spectrum_46.labels)
        with pytest.raises(InvalidArgumentError):
            mode_intensities_at(sector, bare, 0.64, 0.40)

    @pytest.mark.parametrize("where", list(_NOT_INTERIOR))
    def test_intensities_reject_boundary_and_outside(self, sector, sector_spectrum_46, where):
        r, phi = _NOT_INTERIOR[where](sector)
        with pytest.raises(InvalidArgumentError, match="outside the sector"):
            mode_intensities_at(sector, sector_spectrum_46, r * math.cos(phi), r * math.sin(phi))

    @pytest.mark.parametrize("where", _OUTSIDE)
    def test_amplitudes_reject_points_outside(self, sector, sector_spectrum_46, where):
        r, phi = _NOT_INTERIOR[where](sector)
        with pytest.raises(InvalidArgumentError, match="closed sector"):
            mode_amplitudes(sector, sector_spectrum_46, [0.64, r * math.cos(phi)], [0.40, r * math.sin(phi)])

    def test_sector_wider_than_pi(self):
        # at phi = 4 > pi, arctan2 returns phi - 2 pi; the point is interior
        geom = SectorGeometry(radius=1.0, angle=1.5 * math.pi)
        spec = sector_eigenvalues(geom, 40.0)
        x, y = 0.5 * math.cos(4.0), 0.5 * math.sin(4.0)
        levels = range(0, len(spec), 10)
        expected = [_amplitude_mpmath(geom, spec.labels[i][0], spec.values[i], x, y) for i in levels]
        amp = mode_amplitudes(geom, spec, x, y)
        np.testing.assert_allclose(amp[0, levels], expected, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(mode_intensities_at(geom, spec, x, y), amp[0] ** 2)

    def test_amplitudes_need_labels_and_bessel_next(self, sector, sector_spectrum_46):
        spec = sector_spectrum_46
        for partial in (
            WavevectorSpectrum(spec.values, spec.labels),
            WavevectorSpectrum(spec.values, bessel_next=spec.bessel_next),
        ):
            with pytest.raises(InvalidArgumentError, match="labels and bessel_next"):
                mode_amplitudes(sector, partial, 0.64, 0.40)


class TestWeylCount:
    def test_constant_at_zero(self):
        params = WeylParams(area=1.0, perimeter=1.0, constant=0.25)
        assert weyl_count(0.0, params) == 0.25

    def test_sector_geometry_values(self, sector):
        assert sector.area == pytest.approx(math.pi / 3.0 * 0.64 / 2.0, rel=1e-15)
        assert sector.perimeter == pytest.approx(0.8 * (2.0 + math.pi / 3.0), rel=1e-15)

    def test_fitted_count_at_4_6_ghz(self, sector, sector_spectrum_46, sector_weyl_46):
        k = frequency_to_wavevector(4.6e9)
        # with C fitted to the computed staircase the smooth count matches
        # the exhaustive count (229) to within a fraction of a level
        assert weyl_count(k, sector_weyl_46) == pytest.approx(len(sector_spectrum_46), abs=1.0)

    def test_negative_k_rejected(self, sector_weyl_46):
        with pytest.raises(InvalidArgumentError):
            weyl_count(-1.0, sector_weyl_46)

    @pytest.mark.parametrize("k", [math.nan, [1.0, math.nan], math.inf, [2.0, math.inf]])
    def test_non_finite_k_rejected(self, k):
        # NaN compares False with any bound, so a sign check alone lets it through
        with pytest.raises(InvalidArgumentError, match="k must be finite and >= 0"):
            weyl_count(k, WeylParams(1.0, 1.0))

    def test_fit_weyl_constant_empty(self):
        with pytest.raises(InvalidArgumentError):
            fit_weyl_constant([], 1.0, 1.0)

    def test_corner_constant_60_degrees(self, sector):
        # 1/9 for the apex, 1/16 for each right-angle corner and 1/36 for the arc curvature
        params = sector_weyl_params(sector)
        assert (params.area, params.perimeter) == (sector.area, sector.perimeter)
        assert params.constant == pytest.approx(19 / 72, rel=1e-15)

    @pytest.mark.parametrize("f_max", [4.6e9, 20e9])
    def test_corner_constant_centres_the_exact_staircase(self, sector, f_max):
        # measured: mean(n - 1/2 - N_Weyl(k_n)) = 0.012 (229 levels) and -0.0007 (4604 levels)
        spec = sector_eigenvalues(sector, frequency_to_wavevector(f_max))
        n = np.arange(1, len(spec) + 1)
        assert abs(np.mean(n - 0.5 - weyl_count(spec.values, sector_weyl_params(sector)))) < 0.05

    def test_sector_weyl_params_empty_spectrum_rejected(self, sector):
        # a given spectrum is always fitted, so an empty one raises as in fit_weyl_constant
        with pytest.raises(InvalidArgumentError, match="empty"):
            sector_weyl_params(sector, WavevectorSpectrum(np.empty(0)))


class TestScattererValidation:
    def test_table_one_disk_fits(self, sector):
        validate_scatterers(sector, [DiskScatterer((0.64, 0.40), 0.03 * 0.8)])

    def test_disk_crossing_arc_rejected(self, sector):
        with pytest.raises(InvalidArgumentError):
            validate_scatterers(sector, [DiskScatterer((0.79, 0.05), 0.02)])

    def test_disk_crossing_edge_rejected(self, sector):
        with pytest.raises(InvalidArgumentError):
            validate_scatterers(sector, [DiskScatterer((0.5, 0.01), 0.02)])

    def test_overlapping_disks_rejected(self, sector):
        a = DiskScatterer((0.5, 0.2), 0.02)
        b = DiskScatterer((0.51, 0.2), 0.02)
        with pytest.raises(InvalidArgumentError):
            validate_scatterers(sector, [a, b])

    @pytest.mark.parametrize("center", [(0.3, -0.1), (0.2, 0.5), (-0.5, 0.0)], ids=["below", "above", "behind"])
    def test_centre_outside_angle_rejected(self, sector, center):
        with pytest.raises(InvalidArgumentError, match="outside the sector"):
            validate_scatterers(sector, [DiskScatterer(center, 0.01)])

    def test_sector_wider_than_pi(self):
        geom = SectorGeometry(radius=1.0, angle=1.5 * math.pi)
        validate_scatterers(geom, [DiskScatterer((0.5 * math.cos(4.0), 0.5 * math.sin(4.0)), 0.05)])
        # (-0.5, 0) is on the line of the lower edge, but the edge is the ray x >= 0
        validate_scatterers(geom, [DiskScatterer((-0.5, 0.0), 0.05)])
        with pytest.raises(InvalidArgumentError, match="strictly inside"):
            # 6 mm from the upper edge, the ray phi = 1.5 pi
            validate_scatterers(geom, [DiskScatterer((0.5 * math.cos(4.7), 0.5 * math.sin(4.7)), 0.02)])


def _sampled_boundary_distance(geom: SectorGeometry, x: float, y: float, n: int = 100_000) -> float:
    """Brute-force distance from (x, y) to the sector's boundary, sampled at ``n`` points on each
    of the arc and the two straight edges; it exceeds the true distance by under h^2/(8 d) + h/2
    at distance d and sample step h."""
    t = np.linspace(0.0, 1.0, n)
    arc = geom.radius * np.exp(1j * geom.angle * t)
    edges = geom.radius * t * np.array([[1.0], [np.exp(1j * geom.angle)]])
    return float(np.abs(np.concatenate([arc, edges.ravel()]) - complex(x, y)).min())


class TestClearance:
    @pytest.mark.parametrize("angle", [math.pi / 3, 0.3, math.pi / 2, 1.5 * math.pi, 1.9 * math.pi])
    def test_against_sampled_boundary(self, angle):
        # random interior points at least 1 mm from the boundary; the sampled
        # distance falls below the true one by rounding at most, and exceeds it
        # by under 1e-6 m here (arc step at most 4.8e-5 m; measured 2.8e-8 m)
        geom = SectorGeometry(radius=0.8, angle=angle)
        rng = np.random.default_rng(17)
        checked = 0
        for r, phi in zip(geom.radius * np.sqrt(rng.uniform(size=60)), angle * rng.uniform(size=60)):
            x, y = r * math.cos(phi), r * math.sin(phi)
            want = _sampled_boundary_distance(geom, x, y)
            if want < 1e-3:
                continue
            got = billiard._clearance(geom, x, y)
            assert -1e-15 < want - got < 1e-6, (x, y, got, want)
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("angle", [math.pi / 3, 0.3, math.pi / 2, 1.5 * math.pi, 1.9 * math.pi])
    def test_zero_outside_the_angle(self, angle):
        geom = SectorGeometry(radius=0.8, angle=angle)
        phi = np.linspace(angle, 2.0 * math.pi, 50)[1:-1]
        for r in (1e-3, 0.4, 0.79, 2.0):
            assert all(billiard._clearance(geom, r * math.cos(p), r * math.sin(p)) == 0.0 for p in phi)
        # on the lower edge, at the apex and beyond the arc
        points = [(0.4, 0.0), (0.0, 0.0), (0.9 * math.cos(0.5 * angle), 0.9 * math.sin(0.5 * angle))]
        assert [billiard._clearance(geom, x, y) for x, y in points] == [0.0] * 3
