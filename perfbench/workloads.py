"""The benchmark's workloads: inputs made from a seed, one timed operation, its checks.

sector-20ghz
    The full chain at 20 GHz: Bessel-zero spectrum to 2*k_max, mode
    intensities at the scatterer, the secular solve at coupling 5, then
    unfolding, the missing-level scan, P(s), I(s), KS against the three
    models, Sigma^2 and Delta3 at 40 window lengths.
paper-4.6ghz
    The paper's band: one base spectrum, a sweep of couplings from weak to
    infinite on it, each perturbed spectrum through the same statistics,
    and Monte-Carlo ensembles of the three models through the same
    statistics for the envelopes.
resonance-traces
    Synthetic complex S12 traces with known poles (50 and 200, noiseless
    and noisy) through peak detection, Breit-Wigner fitting, strengths and
    the KS distance to the K0 law.

Each workload object builds its inputs in ``__init__`` (the set-up),
runs one operation in :meth:`op`, and checks that operation's outputs in
:meth:`check`, outside the timed region.  Every call into billiardlab
inside :meth:`op` goes through the tracer, named ``<layer>.<function>``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from billiardlab.billiard import (
    SectorGeometry,
    mode_intensities_at,
    point_scatterer_spectrum,
    sector_eigenvalues,
    sector_weyl_params,
    weyl_count,
)
from billiardlab.reference import generate_reference_sequence, reference_curve, spacing_ks
from billiardlab.resonance import (
    ComplexTrace,
    detect_peaks,
    fit_resonances,
    k0_strength_pdf,
    strength_samples,
)
from billiardlab.statistics import (
    StatCurve,
    cumulative_spacing,
    dyson_mehta,
    ks_distance,
    number_variance,
    spacing_distribution,
)
from billiardlab.unfolding import missing_level_scan, unfold

import checks

SPEED_OF_LIGHT = 299_792_458.0
RADIUS = 0.8
ANGLE = math.pi / 3.0
SCATTERER = (0.64, 0.40)  # metres; each seed moves it by at most JITTER per axis
JITTER = 2e-3
COUPLING = 5.0
MODELS = ("poisson", "goe", "semi-poisson")
L_GRID = np.arange(0.5, 20.5, 0.5)  # 40 window lengths
S_GRID = np.linspace(0.0, 6.0, 601)
SIGMA2_CHECK_L = (2.0, 7.5, 15.0)
ZERO_SAMPLE = 24
STAIRCASE_TOL = 0.5  # complete spectra stay within 0.12; one missing level moves the mean by about -1


def wavevector(f_hz: float) -> float:
    return 2.0 * math.pi * f_hz / SPEED_OF_LIGHT


def corner_constant(angle: float) -> float:
    """Weyl constant of a circle sector: three corners plus the arc curvature."""
    corners = (angle, 0.5 * math.pi, 0.5 * math.pi)
    return sum((math.pi**2 - a**2) / (24.0 * math.pi * a) for a in corners) + angle / (12.0 * math.pi)


def reference_curves(t) -> dict:
    """Closed-form I(s), Sigma^2(L) and Delta3(L) of every model."""
    return {
        model: {
            stat: t.call("reference.reference_curve", reference_curve, model, stat, grid)
            for stat, grid in (("I", S_GRID), ("sigma2", L_GRID), ("delta3", L_GRID))
        }
        for model in MODELS
    }


def sequence_statistics(t, u, refs, models) -> dict:
    """P(s), I(s), the KS distances to ``models``, Sigma^2 and Delta3 of one unfolded spectrum."""
    p = t.call("statistics.spacing_distribution", spacing_distribution, u)
    cum = t.call("statistics.cumulative_spacing", cumulative_spacing, u)
    ks = {m: t.call("statistics.ks_distance", ks_distance, cum, refs[m]["I"]) for m in models}
    ks_rescaled = {m: t.call("reference.spacing_ks", spacing_ks, u, m) for m in models}
    s2 = t.call("statistics.number_variance", number_variance, u, L_GRID)
    d3 = t.call("statistics.dyson_mehta", dyson_mehta, u, L_GRID)
    return {"n": len(u), "P": p, "ks": ks, "ks_rescaled": ks_rescaled, "sigma2": s2, "delta3": d3}


def spectrum_statistics(t, geom, spectrum, refs) -> dict:
    """Unfold a wavevector spectrum, scan it for missing levels, and take its statistics."""
    params = t.call("billiard.sector_weyl_params", sector_weyl_params, geom, spectrum)
    u = t.call("unfolding.unfold", unfold, spectrum, params)
    missing = t.call("unfolding.missing_level_scan", missing_level_scan, spectrum.values, params)
    stats = sequence_statistics(t, u, refs, MODELS)
    stats["missing"] = len(missing)
    stats["levels"] = u.sequences[0]
    return stats


def windows_of(stats: dict) -> int:
    return int(stats["P"].counts.sum() + stats["sigma2"].counts.sum() + stats["delta3"].counts.sum())


class SpectralWorkload:
    """Shared set-up and checks of the two spectral workloads."""

    f_max: float

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.geom = SectorGeometry(radius=RADIUS, angle=ANGLE)
        self.k_max = wavevector(self.f_max)
        dx, dy = rng.uniform(-JITTER, JITTER, 2)
        self.xy = (SCATTERER[0] + dx, SCATTERER[1] + dy)
        self.first: dict | None = None

    def prepare(self, k):
        """Every operation runs on the same inputs, made in the set-up."""
        return None

    def base_and_weights(self, t):
        base = t.call("billiard.sector_eigenvalues", sector_eigenvalues, self.geom, 2.0 * self.k_max)
        w = t.call("billiard.mode_intensities_at", mode_intensities_at, self.geom, base, *self.xy)
        return base, w

    def check_base(self, base) -> list[str]:
        g = self.geom
        return checks.weyl_staircase(base.values, g.area, g.perimeter, corner_constant(g.angle), STAIRCASE_TOL)

    def check_zero_sample(self, base) -> list[str]:
        idx = np.sort(self.rng.choice(len(base), ZERO_SAMPLE, replace=False))
        orders = [base.labels[i][0] * math.pi / self.geom.angle for i in idx]
        return checks.bessel_zero_residuals(orders, base.values[idx] * self.geom.radius)

    def check_perturbed(self, base, w, pert, counts: dict, defects: list) -> list[str]:
        """Interlacing and one root per gap.  A gap without a root is the secular
        solve's known defect: it is counted and fails the operation as a defect."""
        skipped, doubled = checks.roots_per_gap(base.values, w, pert.values, self.k_max)
        counts["billiard.gaps_skipped"] = counts.get("billiard.gaps_skipped", 0) + skipped
        if skipped:
            defects.append(f"{skipped} gaps between active poles below k_max^2 hold no root")
        out = checks.interlacing_count(int(np.sum(base.values <= self.k_max)), len(pert))
        if doubled:
            out.append(f"{doubled} gaps hold more than one root")
        return out

    def check_sigma2(self, stats) -> list[str]:
        pick = [int(np.flatnonzero(L_GRID == L)[0]) for L in SIGMA2_CHECK_L]
        return checks.number_variance_points(stats["levels"], SIGMA2_CHECK_L, stats["sigma2"].ordinate[pick])

    def check_repeat(self, key) -> list[str]:
        """Later operations run on the same inputs and must give the same numbers."""
        if self.first is None:
            self.first = key
            return []
        if not all(np.array_equal(a, b) for a, b in zip(self.first, key)):
            return ["outputs differ from the first operation on the same inputs"]
        return []

    def finish(self) -> tuple[dict, list[str]]:
        return {}, []


class Sector20GHz(SpectralWorkload):
    name = "sector-20ghz"
    f_max = 20e9

    def op(self, t, _inputs):
        base, w = self.base_and_weights(t)
        pert = t.call("billiard.point_scatterer_spectrum", point_scatterer_spectrum, base, w, COUPLING, self.k_max)
        refs = reference_curves(t)
        return {"base": base, "w": w, "pert": pert, "stats": spectrum_statistics(t, self.geom, pert, refs)}

    def check(self, out):
        counts = {
            "billiard.sector_eigenvalues.levels": len(out["base"]),
            "billiard.point_scatterer_spectrum.roots": len(out["pert"]),
            "statistics.windows": windows_of(out["stats"]),
        }
        stats = out["stats"]
        defects = []
        failures = self.check_perturbed(out["base"], out["w"], out["pert"], counts, defects)
        key = (out["pert"].values, stats["sigma2"].ordinate, stats["delta3"].ordinate, list(stats["ks"].values()))
        if self.first is None:
            failures += self.check_base(out["base"]) + self.check_zero_sample(out["base"]) + self.check_sigma2(stats)
        failures += self.check_repeat(key)
        return failures, counts, {"defects": defects}


class Paper46GHz(SpectralWorkload):
    name = "paper-4.6ghz"
    f_max = 4.6e9
    couplings = (0.1, 0.5, 2.0, COUPLING, 20.0, math.inf)
    realisations = 100

    def __init__(self, seed: int):
        super().__init__(seed)
        self.mc_seeds = self.rng.integers(0, 2**63, size=(len(MODELS), self.realisations))
        self.reference_pert = None  # the coupling-5 spectrum of the first checked operation

    def op(self, t, _inputs):
        base, w = self.base_and_weights(t)
        refs = reference_curves(t)
        sweep = {}
        for c in self.couplings:
            pert = t.call("billiard.point_scatterer_spectrum", point_scatterer_spectrum, base, w, c, self.k_max)
            sweep[c] = (pert, spectrum_statistics(t, self.geom, pert, refs))
        n_levels = len(sweep[COUPLING][0])
        ensembles = {}
        for model, seeds in zip(MODELS, self.mc_seeds):
            runs = []
            for s in seeds:
                u = t.call(
                    f"reference.generate_reference_sequence.{model}",
                    generate_reference_sequence, model, n_levels, seed=int(s),
                )
                runs.append(sequence_statistics(t, u, refs, (model,)))
            ensembles[model] = runs
        envelopes = {
            model: {
                stat: np.percentile([r[stat].ordinate for r in runs], (5.0, 50.0, 95.0), axis=0)
                for stat in ("sigma2", "delta3")
            }
            for model, runs in ensembles.items()
        }
        return {"base": base, "w": w, "sweep": sweep, "ensembles": ensembles, "envelopes": envelopes}

    def check(self, out):
        sweep = out["sweep"]
        failures = []
        counts = {
            "billiard.sector_eigenvalues.levels": len(out["base"]),
            "billiard.point_scatterer_spectrum.roots": sum(len(p) for p, _ in sweep.values()),
            "statistics.windows": sum(windows_of(s) for _, s in sweep.values())
            + sum(windows_of(r) for runs in out["ensembles"].values() for r in runs),
            "reference.levels_generated": sum(r["n"] for runs in out["ensembles"].values() for r in runs),
        }
        defects = []
        for pert, _ in sweep.values():
            failures += self.check_perturbed(out["base"], out["w"], pert, counts, defects)
        key = [p.values for p, _ in sweep.values()] + [
            e[s] for e in out["envelopes"].values() for s in ("sigma2", "delta3")
        ]
        if self.first is None:
            failures += self.check_base(out["base"]) + self.check_zero_sample(out["base"])
            failures += self.check_sigma2(sweep[COUPLING][1])
            self.reference_pert = sweep[COUPLING][0]
        failures += self.check_repeat(key)
        return failures, counts, {"defects": defects}

    def finish(self):
        """Truncation error of the secular solve at coupling 5, outside the timed loop.

        The largest shift of a reported level, in mean level spacings, when
        the base spectrum runs to 4*k_max instead of 2*k_max.
        """
        narrow = self.reference_pert
        if narrow is None:
            return {}, []
        g = self.geom
        base = sector_eigenvalues(g, 4.0 * self.k_max)
        w = mode_intensities_at(g, base, *self.xy)
        wide = point_scatterer_spectrum(base, w, COUPLING, self.k_max)
        if len(wide) != len(narrow):
            return {}, [f"a 4*k_max base gives {len(wide)} levels below k_max, 2*k_max gives {len(narrow)}"]
        params = sector_weyl_params(g)
        shift = np.abs(weyl_count(wide.values, params) - weyl_count(narrow.values, params))
        return {"trunc_err": float(shift.max()), "trunc_err_median": float(np.median(shift))}, []


# ----------------------------------------------------------------------
# Resonance traces
# ----------------------------------------------------------------------

STEP_HZ = 1e4  # 100 samples per width, as in the noisy-fit unit test
PROMINENCE = 0.01
LEAD_HZ = 1e8  # pole-free stretch before the first pole
NOISE = 0.2 * PROMINENCE  # per quadrature; the noise-to-prominence ratio of that test
Z_GRID = np.linspace(-20.0, 6.0, 2601)


def stratified(rng, n: int) -> np.ndarray:
    """n uniform draws on [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n


def empirical_cdf(z) -> StatCurve:
    z = np.sort(np.asarray(z, dtype=float))
    n = z.size
    return StatCurve(np.repeat(z, 2), np.column_stack([np.arange(n) / n, np.arange(1, n + 1) / n]).ravel())


class ResonanceTraces:
    """Four traces per operation: 50 and 200 poles, noiseless and noisy.

    The pole layouts and the noiseless traces are drawn once per seed;
    every operation gets fresh noise, drawn from (seed, operation index)
    before the operation is timed.  Widths are 0.8-1.2 MHz and amplitudes
    0.05-0.3 MHz.  Every fourth spacing is 6-9 widths, so that pair is
    fitted jointly; the others are 12-16 widths.  Each draw is stratified
    over the poles, so that layouts of different seeds cost about the same.
    """

    name = "resonance-traces"
    sizes = (50, 200)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.truth = {}
        self.clean = {}
        for n in self.sizes:
            widths = 0.8e6 + 0.4e6 * stratified(rng, n)
            close = np.arange(n) % 4 == rng.integers(4)
            spacing = np.where(close, 6.0 + 3.0 * stratified(rng, n), 12.0 + 4.0 * stratified(rng, n))
            centers = 3.0e9 + np.cumsum(spacing * widths)
            amps = 0.05e6 + 0.25e6 * stratified(rng, n)
            f = np.arange(centers[0] - LEAD_HZ, centers[-1] + 2e7, STEP_HZ)
            # -1j*a/(x + 0.5j*g) = -(0.5*a*g + 1j*a*x) / (x^2 + g^2/4), summed in real arithmetic
            re = np.zeros(f.size)
            im = np.zeros(f.size)
            for c, g, a in zip(centers, widths, amps):
                x = f - c
                d = x * x + 0.25 * g * g
                re -= 0.5 * a * g / d
                im -= a * x / d
            s = re + 1j * im
            self.truth[n] = (centers, widths)
            self.clean[n] = ComplexTrace(f, s)

    def prepare(self, k):
        """The operation's traces; the noisy ones get the noise of operation ``k``."""
        rng = np.random.default_rng([self.seed, k])
        out = []
        for n in self.sizes:
            clean = self.clean[n]
            noise = NOISE * (rng.standard_normal(len(clean)) + 1j * rng.standard_normal(len(clean)))
            out += [(n, False, clean), (n, True, ComplexTrace(clean.frequencies, clean.values + noise))]
        return out

    def op(self, t, traces):
        results = []
        for n, noisy, trace in traces:
            start = time.perf_counter()
            guesses = t.call("resonance.detect_peaks", detect_peaks, trace, PROMINENCE)
            fit, error = None, None
            try:
                fit = t.call("resonance.fit_resonances", fit_resonances, trace, guesses)
            except Exception as exc:  # a fit that raises is a measured outcome, not a harness error
                error = f"{type(exc).__name__}: {exc}"
            fit_time = time.perf_counter() - start
            ks = None
            if fit is not None:
                samples = t.call("resonance.strength_samples", strength_samples, fit.resonances)
                pdf = t.call("resonance.k0_strength_pdf", k0_strength_pdf, Z_GRID)
                cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf.ordinate[1:] + pdf.ordinate[:-1]) * np.diff(Z_GRID))])
                ks = t.call(
                    "statistics.ks_distance", ks_distance,
                    empirical_cdf([x.z for x in samples]), StatCurve(Z_GRID, cdf / cdf[-1]),
                )
            results.append((n, noisy, guesses, fit, error, fit_time, ks))
        return results

    def check(self, out):
        failures = []
        counts = dict.fromkeys(
            ("resonance.guesses", "resonance.spurious_guesses", "resonance.clusters", "resonance.lm_iterations",
             "resonance.nonconverged", "resonance.raised"), 0)
        quality = {"poles": 0, "recovered": 0, "fitted": 0, "fitted_matched": 0, "fit_seconds": 0.0,
                   "center_errors": [], "defects": []}
        for n, noisy, guesses, fit, error, fit_time, ks in out:
            centers, widths = self.truth[n]
            label = f"{n} poles, {'noisy' if noisy else 'noiseless'}"
            g_matched = checks.match_poles(centers, widths, [g.center for g in guesses])[1]
            counts["resonance.guesses"] += len(guesses)
            counts["resonance.spurious_guesses"] += len(guesses) - g_matched
            quality["poles"] += n
            quality["fit_seconds"] += fit_time
            if fit is None:
                counts["resonance.raised"] += 1
                # raising on noise spikes is the known defect; raising on a noiseless trace is not
                (quality["defects"] if noisy else failures).append(f"{label}: {error}")
                continue
            counts["resonance.clusters"] += len(fit.reports)
            counts["resonance.lm_iterations"] += sum(r.iterations for r in fit.reports)
            counts["resonance.nonconverged"] += sum(not r.converged for r in fit.reports)
            recovered, used, errors = checks.match_poles(centers, widths, fit.centers)
            quality["recovered"] += recovered
            quality["fitted"] += len(fit)
            quality["fitted_matched"] += used
            quality["center_errors"] += errors
            min_recall = 0.9 if noisy else 0.95
            if recovered < min_recall * n:
                failures.append(f"{label}: recovered {recovered} of {n} poles, need {min_recall:.0%}")
            if not noisy and used < 0.95 * len(fit):
                failures.append(f"{label}: only {used} of {len(fit)} fitted resonances match a pole")
            if not (ks is not None and 0.0 <= ks <= 1.0):
                failures.append(f"{label}: K0 KS distance {ks!r} outside [0, 1]")
        return failures, counts, quality

    def finish(self):
        return {}, []


WORKLOADS = {w.name: w for w in (Sector20GHz, Paper46GHz, ResonanceTraces)}
