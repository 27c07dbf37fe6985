"""Circle-sector billiard: exact spectra, wavefunctions and a point-scatterer model.

The Dirichlet Laplacian on a circle sector of radius ``R`` and opening
angle ``theta`` separates in polar coordinates.  The modes are

    psi_{m,nu}(r, phi) = sin(m*pi*phi/theta) * J_{m*pi/theta}(k_{m,nu} * r)

and the eigen-wavevectors ``k_{m,nu}`` are the positive zeros of the
Bessel function of order ``m*pi/theta``, divided by ``R``.  The normalised
modes are evaluated in one place, ``mode_amplitudes``, for many points and
every level of a spectrum at once.  On top of the exact spectrum this
module provides the smooth Weyl counting function and a renormalised
point-scatterer (rank-one) perturbation that turns the integrable
spectrum into an almost-integrable one.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ai_zeros, hankel1, jv

from .errors import InvalidArgumentError, NumericalError, QualityWarning
from .validation import as_float_array, check_ascending, check_count, check_positive, is_real

__all__ = [
    "SectorGeometry",
    "DiskScatterer",
    "validate_scatterers",
    "WavevectorSpectrum",
    "WeylParams",
    "bessel_order_zeros",
    "sector_eigenvalues",
    "mode_amplitudes",
    "mode_intensities_at",
    "weyl_count",
    "fit_weyl_constant",
    "sector_weyl_params",
    "point_scatterer_spectrum",
    "SPEED_OF_LIGHT",
    "frequency_to_wavevector",
]

#: Exact vacuum speed of light, used for every frequency <-> wavevector conversion.
SPEED_OF_LIGHT = 299_792_458.0


def frequency_to_wavevector(f_hz: float) -> float:
    """k = 2*pi*f/c0 in 1/m."""
    return 2.0 * math.pi * f_hz / SPEED_OF_LIGHT


@dataclass(frozen=True)
class SectorGeometry:
    """Circle sector 0 <= r < radius, 0 < phi < angle (radians)."""

    radius: float
    angle: float

    def __post_init__(self):
        check_positive(self.radius, "radius")
        if not check_positive(self.angle, "angle") < 2.0 * math.pi:
            raise InvalidArgumentError(f"angle must lie in (0, 2*pi), got {self.angle!r}")

    @property
    def area(self) -> float:
        return 0.5 * self.angle * self.radius**2

    @property
    def perimeter(self) -> float:
        return (2.0 + self.angle) * self.radius


def _ray_distance(x: float, y: float, angle: float) -> float:
    """Distance from (x, y) to the ray phi = angle from the origin, a straight edge of a sector."""
    c, s = math.cos(angle), math.sin(angle)
    return abs(x * s - y * c) if x * c + y * s >= 0.0 else math.hypot(x, y)


def _clearance(geom: SectorGeometry, x: float, y: float) -> float:
    """Distance from (x, y) to the sector's boundary, the nearest of the arc and the two
    straight edges; 0 unless 0 < atan2(y, x) mod 2 pi < angle, and 0 on or beyond the arc."""
    if not 0.0 < math.atan2(y, x) % (2.0 * math.pi) < geom.angle:
        return 0.0
    return max(min(geom.radius - math.hypot(x, y), _ray_distance(x, y, 0.0), _ray_distance(x, y, geom.angle)), 0.0)


@dataclass(frozen=True)
class DiskScatterer:
    """Circular scatterer of given radius centred at ``center`` (metres)."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        check_positive(self.radius, "radius")

    def validate_inside(self, geom: SectorGeometry) -> None:
        """Raise unless the disk lies strictly inside the sector, its centre's ``_clearance``
        above its radius; a clearance of 0 is reported as a centre outside the sector."""
        clearance = _clearance(geom, *self.center)
        if clearance == 0.0:
            raise InvalidArgumentError(f"scatterer centre {self.center} outside the sector")
        if clearance <= self.radius:
            raise InvalidArgumentError(
                f"scatterer {self.center} r={self.radius} does not lie strictly inside the sector"
            )

    def overlaps(self, other: "DiskScatterer") -> bool:
        dx = self.center[0] - other.center[0]
        dy = self.center[1] - other.center[1]
        return math.hypot(dx, dy) < self.radius + other.radius


def validate_scatterers(geom: SectorGeometry, disks: list[DiskScatterer]) -> None:
    """Check that all disks are inside the sector and pairwise non-overlapping."""
    for d in disks:
        d.validate_inside(geom)
    for i, a in enumerate(disks):
        for b in disks[i + 1 :]:
            if a.overlaps(b):
                raise InvalidArgumentError(f"scatterers {a.center} and {b.center} overlap")


@dataclass
class WavevectorSpectrum:
    """Ascending eigen-wavevectors (1/m), optionally labelled by (m, nu); a sector
    spectrum also holds J_{order+1}(k_n R) in ``bessel_next`` (see ``_mode_norm``
    and ``_bessel_zeros``)."""

    values: np.ndarray
    labels: list[tuple[int, int]] | None = None
    bessel_next: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.values = as_float_array(self.values, "values")
        if self.values.size and self.values[0] <= 0.0:
            raise InvalidArgumentError("spectrum values must be positive")
        check_ascending(self.values, "spectrum values")
        if self.bessel_next is not None:
            self.bessel_next = as_float_array(self.bessel_next, "bessel_next")
        lengths = {len(a) for a in (self.labels, self.bessel_next) if a is not None}
        if lengths - {self.values.size}:
            raise InvalidArgumentError("labels and bessel_next must have the length of values")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class WeylParams:
    """Coefficients of the smooth counting function (Dirichlet convention)."""

    area: float
    perimeter: float
    constant: float = 0.0

    def __post_init__(self):
        check_positive(self.area, "area")
        check_positive(self.perimeter, "perimeter")


# ----------------------------------------------------------------------
# Bessel zeros
# ----------------------------------------------------------------------

_HALLEY_MAX_ITER = 8
_EPS = np.finfo(float).eps

_BESSEL_SPLIT_MIN = 4096  # elements from which ``_besselj`` splits a call over the CPUs


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _besselj(v, x) -> np.ndarray:
    """Real J_v(x) at the broadcast arguments, as a new float array:
    ``hankel1(v, x).real`` where x > v, ``jv(v, x)`` elsewhere.

    Every J_nu of the zeros and the modes comes from here.  Above the
    turning point, x > v, J_v is Re H^(1)_v(x) (DLMF 10.4.3), which AMOS
    ``zbesh`` evaluates in about a third of ``jv``'s time.  Below it J_v is
    far smaller than |Y_v| and lost in the rounding of H^(1), so ``jv``
    serves x <= v, where the modes near the apex are evanescent.

    Both ufuncs release the GIL.  A call of at least ``_BESSEL_SPLIT_MIN``
    elements runs one contiguous chunk per CPU the process may run on, one
    on the calling thread and the others on a thread pool that the call
    opens and joins before it returns; a chunk's exception reaches the
    caller.  Each chunk passes each of its elements to exactly one of the
    module names ``hankel1`` and ``jv``, so a wrapper installed there sees
    it once, and its complex temporary holds only the chunk's elements
    above the turning point.  The result is bitwise equal to the unsplit
    evaluation (``TestJvSplit``).
    """
    v, x = np.broadcast_arrays(v, x)
    out = np.empty(x.shape)
    v, x, flat = v.ravel(), x.ravel(), out.reshape(-1)
    n = _cpu_count() if x.size >= _BESSEL_SPLIT_MIN else 1
    bounds = np.linspace(0, x.size, n + 1).astype(np.intp)

    def chunk(i: int) -> None:
        part = slice(bounds[i], bounds[i + 1])
        vc, xc, oc = v[part], x[part], flat[part]
        above = xc > vc
        below = ~above
        oc[above] = hankel1(vc[above], xc[above]).real
        oc[below] = jv(vc[below], xc[below])

    if n == 1:
        chunk(0)
        return out
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(n - 1, thread_name_prefix="billiardlab-bessel") as pool:
        others = pool.map(chunk, range(1, n))
        chunk(0)
        list(others)
    return out


def _zero_seeds(nu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Asymptotic estimates of j_{nu,s}, the s-th positive zero of J_nu.

    Orders >= 1 use Olver's uniform expansion with its first correction,
    nu*z(zeta) + f1(zeta)/nu at zeta = nu^(-2/3) a_s, a_s the s-th zero of Ai
    (DLMF 10.20.3, 10.20.11, 10.21.43-44); lower orders use three terms of
    McMahon's expansion (DLMF 10.21.19).
    """
    seed = np.empty(nu.size)
    small = nu < 1.0
    mu, b8 = 4.0 * nu[small] ** 2, 8.0 * math.pi * (s[small] + 0.5 * nu[small] - 0.25)
    seed[small] = b8 / 8.0 - (mu - 1.0) / b8 - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)
    v = nu[~small]
    mzeta = -ai_zeros(int(s.max(initial=1)))[0][s[~small] - 1] * v ** (-2.0 / 3.0)
    # z(zeta) = sqrt(1 + p^2) with p - arctan(p) = t, convex and increasing in p:
    # Newton from the small-p asymptote reaches 1e-10 in five steps for 1e-9 <= t <= 1e7
    t = (2.0 / 3.0) * mzeta**1.5
    p = np.cbrt(3.0 * t)
    for _ in range(5):
        p -= (p - np.arctan(p) - t) * (1.0 + p * p) / (p * p)
    z = np.sqrt(1.0 + p * p)
    b0 = -5.0 / (48.0 * mzeta**2) + (5.0 / (24.0 * p**3) + 1.0 / (8.0 * p)) / np.sqrt(mzeta)
    # f1 = z h^2 b0 / 2 with h^2 = 2 sqrt(-zeta) / p
    seed[~small] = v * z + z * np.sqrt(mzeta) * b0 / (p * v)
    return seed


def _bessel_zeros(nu: np.ndarray, s: np.ndarray):
    """Zeros j_{nu,s} of every candidate (nu, s), and J_{nu+1} there.

    The candidates come order by order, s = 1, 2, ... within each order, and
    all are solved: the caller cuts the zeros it needs.  From the seeds of
    ``_zero_seeds`` every entry takes Halley steps, with
    J' = (nu/z) J_nu - J_{nu+1} and J'' from Bessel's equation, until the
    step predicts an error below one ulp.  Raises NumericalError after
    ``_HALLEY_MAX_ITER`` steps, or when an order's zeros are not ascending
    more than pi/2 apart (a seed converged to its neighbour's zero).

    Each step takes J_nu(x) and J_{nu+1}(x) from ``_besselj``.  J_{nu+1} at
    a zero is not evaluated again: it is the Taylor polynomial of degree 3
    about the last Halley point x, built from that step's J_nu(x) and
    J_{nu+1}(x) with J'_mu = J_{mu-1} - (mu/x) J_mu and the higher
    derivatives from Bessel's equation.  The last step is below
    (6 eps z)^(1/3), so the omitted term is far below rounding.
    ``TestBesselNext`` compares it with mpmath ``besselj`` at rtol 1e-12 on
    samples and 1e-14 at three far-field levels of the 20 GHz base.
    """
    z = _zero_seeds(nu, s)
    # the last Halley point of each entry, with J_nu and J_{nu+1} there
    at, j0, j1 = np.empty(z.size), np.empty(z.size), np.empty(z.size)
    todo, steps = np.arange(z.size), 0
    while todo.size and steps < _HALLEY_MAX_ITER:
        steps += 1
        v, x = nu[todo], z[todo]
        f = _besselj(v, x)
        g = _besselj(v + 1.0, x)
        at[todo], j0[todo], j1[todo] = x, f, g
        d1 = v / x * f - g
        h = f / d1
        step = h / (1.0 + 0.5 * h * (1.0 / x + (1.0 - (v / x) ** 2) * f / d1))
        z[todo] = x - step
        # Halley's error constant at a zero of J_nu is below 1/6, so the error
        # left is below |step|^3 / 6; NaN stays in the loop
        todo = todo[~(np.abs(step) ** 3 <= 6.0 * _EPS * z[todo])]
    if todo.size:
        raise NumericalError(
            f"{todo.size} Bessel zeros not converged after {_HALLEY_MAX_ITER} Halley steps "
            f"(first: order {nu[todo[0]]}, index {s[todo[0]]})"
        )
    # j_{nu,1} - nu and the gaps between zeros of one order exceed pi/2 for all nu >= 0
    bad = np.flatnonzero(~(z - np.where(s == 1, nu, np.roll(z, 1)) > 0.5 * math.pi))
    if bad.size:
        raise NumericalError(f"Bessel zeros of order {nu[bad[0]]} collide at index {s[bad[0]]}")
    # derivatives of J_mu, mu = nu + 1, at the last Halley point
    mu, h = nu + 1.0, z - at
    a = 1.0 - (mu / at) ** 2
    d1 = j0 - mu / at * j1
    d2 = -d1 / at - a * j1
    d3 = -d2 / at + d1 / at**2 - a * d1 - 2.0 * mu**2 / at**3 * j1
    return z, j1 + h * (d1 + h * (0.5 * d2 + h * d3 / 6.0))


def bessel_order_zeros(order: float, count: int) -> np.ndarray:
    """First ``count`` >= 1 positive zeros of J_order, order >= 0.

    Each zero is seeded from McMahon's expansion (order < 1) or Olver's
    uniform expansion (order >= 1) and refined by Halley steps; see
    ``_bessel_zeros``.  ``TestBesselZeros`` compares them with
    ``mpmath.besseljzero`` at rtol 1e-13 (orders 0, 0.25, 0.5 and 300).
    """
    if not (is_real(order) and 0.0 <= float(order) < math.inf):
        raise InvalidArgumentError(f"order must be finite and >= 0, got {order!r}")
    count = check_count(count, "count", 1)
    return _bessel_zeros(np.full(count, float(order)), np.arange(1, count + 1))[0]


# ----------------------------------------------------------------------
# Sector spectrum and wavefunctions
# ----------------------------------------------------------------------

def _bessel_orders(geom: SectorGeometry, m) -> np.ndarray:
    """The Bessel order m*(pi/theta) of the angular indices ``m``: the one
    double at which a level's zero is solved and its mode evaluated."""
    return np.asarray(m, dtype=float) * (math.pi / geom.angle)


def sector_eigenvalues(geom: SectorGeometry, k_max: float) -> WavevectorSpectrum:
    """All eigen-wavevectors of the sector billiard up to ``k_max``.

    Solves J_{m*pi/theta}(k R) = 0 for every angular index m >= 1 and
    labels each solution by (m, nu) with nu the radial zero index.  The
    zeros of all orders are refined together from asymptotic seeds, and
    the spectrum keeps J_{order+1}(k R) as ``bessel_next`` (see
    ``_bessel_zeros``).  ``test_non_integer_orders_against_mpmath`` compares
    the zeros with ``mpmath.besseljzero`` at rtol 1e-13 for the orders 2.5 m
    up to kR = 60.
    """
    k_max = check_positive(k_max, "k_max")
    x_max = k_max * geom.radius
    reach = x_max + 1.0  # where the orders and zero counts are taken; the zeros are cut at x_max
    m = np.arange(1, math.ceil(reach / _bessel_orders(geom, 1)))  # zeros of J_nu exceed nu
    nu = _bessel_orders(geom, m)
    # J_nu has about phase/pi + 1/4 zeros below reach (Debye); two more cover the error
    c = np.minimum(nu / reach, 1.0)
    count = (reach * (np.sqrt(1.0 - c * c) - c * np.arccos(c)) / math.pi + 0.25).astype(np.intp) + 2
    m = np.repeat(m, count)
    s = np.arange(m.size) - np.repeat(np.cumsum(count) - count, count) + 1
    zeros, bessel_next = _bessel_zeros(np.repeat(nu, count), s)
    idx = np.argsort(zeros, kind="stable")
    idx = idx[zeros[idx] <= x_max]
    labels = list(zip(m[idx].tolist(), s[idx].tolist()))
    return WavevectorSpectrum(zeros[idx] / geom.radius, labels, bessel_next[idx])


def _mode_norm(geom: SectorGeometry, bessel_next):
    """L2 norm^2 of sin(m pi phi/theta) J_order(k r) over the sector, from
    the radial integral (R^2/2) J_{order+1}(k R)^2 at J_order(k R) = 0."""
    return 0.25 * geom.angle * geom.radius**2 * np.square(bessel_next)


def mode_amplitudes(geom: SectorGeometry, spectrum: WavevectorSpectrum, x, y) -> np.ndarray:
    """Normalised modes psi_n(x, y) of every labelled level, signed, shape (P, N).

    The P points are the flattened broadcast of the cartesian ``x`` and
    ``y`` (metres); the N columns follow ``spectrum``, which needs
    ``labels`` and ``bessel_next`` (see ``sector_eigenvalues``).  Each mode
    has unit L2 norm over the sector and is evaluated at the order its zero
    was solved at (``_bessel_orders``), with J_nu(k r) from ``_besselj``.

    Every point must lie in the closed sector up to rounding:
    r <= R (1 + 1e-12) and 0 <= phi <= theta + 4 ulp(theta), with
    phi = arctan2(y, x) taken in [0, 2 pi), which can put a point built on
    the upper edge one ulp above it.  Against mpmath
    ``test_20_ghz_base_above_turning_point`` bounds the error by 1e-12 of
    the mode's envelope |H^(1)_nu(k r)| for k r > nu, and
    ``test_20_ghz_base_below_turning_point`` by 1e-12 relative below it.
    """
    if spectrum.labels is None or spectrum.bessel_next is None:
        raise InvalidArgumentError("spectrum needs labels and bessel_next, see sector_eigenvalues")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    r = np.hypot(x, y).reshape(-1, 1)
    phi = np.arctan2(y, x).reshape(-1, 1)
    phi[phi < 0.0] += 2.0 * math.pi  # [0, 2 pi) for sectors wider than pi; -0.0 stays on the edge
    phi_max = geom.angle + 4.0 * np.spacing(geom.angle)
    if not np.all((r <= geom.radius * (1.0 + 1e-12)) & (phi >= 0.0) & (phi <= phi_max)):
        raise InvalidArgumentError("points must lie in the closed sector")
    orders = _bessel_orders(geom, [m for m, _ in spectrum.labels])
    kr = spectrum.values * r
    amp = np.sin(orders * phi) * _besselj(orders, kr)
    return amp / np.sqrt(_mode_norm(geom, spectrum.bessel_next))


def mode_intensities_at(
    geom: SectorGeometry, spectrum: WavevectorSpectrum, x: float, y: float
) -> np.ndarray:
    """|psi_n(x, y)|^2 of every labelled level at one point strictly inside the sector,
    one whose clearance from the boundary (``_clearance``) is positive."""
    if _clearance(geom, x, y) == 0.0:
        raise InvalidArgumentError(f"point ({x}, {y}) lies outside the sector")
    return np.square(mode_amplitudes(geom, spectrum, x, y)[0])


# ----------------------------------------------------------------------
# Weyl counting
# ----------------------------------------------------------------------

def weyl_count(k, params: WeylParams):
    """Smooth counting function (A/4pi) k^2 - (P/4pi) k + C, with the minus
    sign of Dirichlet boundary conditions on the perimeter term.  Returns an
    array for array k and a numpy float64 (a ``float``) for scalar k."""
    k = np.asarray(k, dtype=float)
    if not np.all((k >= 0.0) & (k < np.inf)):
        raise InvalidArgumentError("k must be finite and >= 0")
    out = (
        params.area / (4.0 * math.pi) * k**2
        - params.perimeter / (4.0 * math.pi) * k
        + params.constant
    )
    return out


def fit_weyl_constant(values, area: float, perimeter: float) -> WeylParams:
    """Least-squares fit of the constant C to the staircase of ``values``.

    The staircase is matched at its midpoints, N(k_n) = n - 1/2.
    """
    k = as_float_array(values, "values")
    if k.size == 0:
        raise InvalidArgumentError("cannot fit the Weyl constant to an empty spectrum")
    n = np.arange(1, k.size + 1) - 0.5
    smooth = weyl_count(k, WeylParams(area, perimeter))
    return WeylParams(area=area, perimeter=perimeter, constant=float(np.mean(n - smooth)))


def _sector_corner_constant(geom: SectorGeometry) -> float:
    """Corner and curvature contribution to the Weyl constant.

    Sum of (pi^2 - a^2)/(24 pi a) over the three corners (apex angle plus
    two right angles at the arc) and theta/(12 pi) for the arc curvature.
    """
    corners = [geom.angle, 0.5 * math.pi, 0.5 * math.pi]
    c = sum((math.pi**2 - a**2) / (24.0 * math.pi * a) for a in corners)
    return c + geom.angle / (12.0 * math.pi)


def sector_weyl_params(
    geom: SectorGeometry, spectrum: WavevectorSpectrum | None = None
) -> WeylParams:
    """Weyl parameters of the sector; C fitted to ``spectrum`` when given
    (an empty one is rejected), otherwise the corner-correction value."""
    if spectrum is not None:
        return fit_weyl_constant(spectrum.values, geom.area, geom.perimeter)
    return WeylParams(geom.area, geom.perimeter, _sector_corner_constant(geom))


# ----------------------------------------------------------------------
# Point scatterer
# ----------------------------------------------------------------------

# the layout and iteration of the secular solve, see ``_secular_roots``
_BLOCK_GAPS = 64
_GROUP_BLOCKS = 8
_FAR_DEGREE = 24
_FAR_CHUNK = 2048
_MAX_ITER = 60

# Chebyshev points of the first kind on [-1, 1] and their barycentric weights
# (Berrut & Trefethen, SIAM Rev. 46, 501 (2004))
_THETA = (np.arange(_FAR_DEGREE + 1) + 0.5) * (math.pi / (_FAR_DEGREE + 1))
_NODES = np.cos(_THETA)
_NODE_WEIGHTS = (-1.0) ** np.arange(_FAR_DEGREE + 1) * np.sin(_THETA)


def _barycentric(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The polynomials through ``values`` (one row per node, one column per
    function) at ``_NODES``, evaluated at the points ``x``, one row each.

    Barycentric formula of the second kind; a point on a node takes that
    node's values.
    """
    d = x[:, None] - _NODES
    on_node = d == 0.0
    if on_node.any():  # weight 1 on the node, 0 elsewhere
        rows = on_node.any(axis=1)
        d[rows] = np.where(on_node[rows], _NODE_WEIGHTS, np.inf)
    c = _NODE_WEIGHTS / d
    return (c @ values) / c.sum(axis=1, keepdims=True)


def _window(E, g0: int, g1: int, margin: int) -> tuple:
    """The poles within ``margin`` gaps of the gaps g0 to g1 - 1, as E[n0:n1],
    and the centre and half-width of [E[g0], E[g1]]: (n0, n1, centre, half)."""
    n0, n1 = max(g0 - margin, 0), min(g1 + 1 + margin, E.size)
    return n0, n1, 0.5 * (E[g1] + E[g0]), 0.5 * (E[g1] - E[g0])


def _far_sums(E, w, below: tuple, above: tuple, at: np.ndarray) -> np.ndarray:
    """Sums over the poles E[below[0]:below[1]] and E[above[0]:above[1]] at the
    points ``at``, one row each: sum w_n / (E_n - e) over both ranges, then
    sum w_n / (E_n - e)^2 over ``below`` and over ``above``.  ``_FAR_CHUNK``
    poles at a time bound the temporaries to an (at x chunk) array."""
    out = np.zeros((at.size, 3))
    buf = np.empty((at.size, _FAR_CHUNK))
    for (start, stop), col in ((below, 1), (above, 2)):
        for c0 in range(start, stop, _FAR_CHUNK):
            c1 = min(c0 + _FAR_CHUNK, stop)
            r = np.subtract(E[c0:c1], at[:, None], out=buf[:, : c1 - c0])
            np.reciprocal(r, out=r)
            out[:, 0] += r @ w[c0:c1]
            out[:, col] += np.square(r, out=r) @ w[c0:c1]
    return out


def _blocks(E, w, n_gaps: int) -> list[tuple]:
    """(n0, n1, centre, half, far) of every block of the first ``n_gaps`` gaps
    (see ``_block_sums``)."""
    span = _GROUP_BLOCKS * _BLOCK_GAPS
    groups = []
    for g0 in range(0, n_gaps, span):
        m0, m1, c, h = _window(E, g0, min(g0 + span, n_gaps), span)
        groups.append((m0, m1, c, h, _far_sums(E, w, (0, m0), (m1, E.size), c + h * _NODES)))
    blocks = []
    for g0 in range(0, n_gaps, _BLOCK_GAPS):
        # the group's far sums, interpolated, and the rest of the group's window
        n0, n1, centre, half = _window(E, g0, min(g0 + _BLOCK_GAPS, n_gaps), _BLOCK_GAPS)
        m0, m1, c, h, table = groups[g0 // span]
        at = centre + half * _NODES
        far = _barycentric((at - c) / h, table) + _far_sums(E, w, (m0, n0), (n1, m1), at)
        blocks.append((n0, n1, centre, half, far))
    return blocks


def _block_sums(E, w, block, gaps, origin, t):
    """The pole sums of ``_secular_roots`` at E[origin] + t for some gaps of one block.

    ``block`` is (n0, n1, centre, half, far): the block sums the poles
    E[n0:n1] exactly and the others through the polynomials through their
    sums ``far`` (see ``_far_sums``) at the Chebyshev points of
    [centre - half, centre + half].  ``gaps`` are the gaps' left poles and
    ``origin`` the poles the offsets ``t`` are measured from.  Returns five
    sums, one value per gap each: psi and phi, the near sums over the poles
    up to the left pole and from the right pole on; the derivatives of the
    whole sums over the same two sides; and the far sum.
    """
    n0, n1, centre, half, far = block
    En, wn, eo = E[n0:n1], w[n0:n1], E[origin]
    d = En - eo[:, None]
    d -= t[:, None]
    r = np.reciprocal(d, out=d)
    # row-major runs: each gap's poles up to its left pole, then the rest
    row = np.arange(0, d.size, En.size)
    runs = np.column_stack((row, row + (gaps - n0 + 1))).reshape(-1)
    wr = (wn * r).reshape(-1)
    psi, phi = np.add.reduceat(wr, runs).reshape(-1, 2).T
    fv, fl, fr = _barycentric((eo + t - centre) / half, far).T
    wr *= r.reshape(-1)
    dpsi, dphi = np.add.reduceat(wr, runs).reshape(-1, 2).T
    return psi, phi, dpsi + fl, dphi + fr, fv


def _secular_roots(E, w, shift: float, n_gaps: int) -> tuple[np.ndarray, np.ndarray]:
    """Root of f(e) = shift + sum_n w_n / (E_n - e) in each of the first ``n_gaps`` gaps.

    ``E`` is strictly ascending and ``w`` nonnegative; f increases across
    every gap (E_i, E_{i+1}).  Each root is returned as the index of the
    nearer pole of its gap and the offset ``tau`` from that pole, which
    keeps roots close to a pole to full relative accuracy.

    The sums are evaluated by blocks of ``_BLOCK_GAPS`` gaps.  In a block
    the poles within one block length are summed exactly.  The other poles
    lie at least that far away, where their sum is smooth: it enters, with
    its derivative split into the poles left and right of the block,
    through the polynomials through its values at ``_FAR_DEGREE + 1``
    Chebyshev points of the block (``_barycentric``).  Those values come the
    same way from the group of ``_GROUP_BLOCKS`` blocks the block belongs
    to, for the poles beyond one group length, plus direct sums over the
    rest of the group's window.  ``test_far_interpolant_against_fsum``
    bounds the interpolated sums by 1e-13 relative.

    All gaps iterate together.  Every gap starts at its midpoint, and every
    step solves the "middle way" model of Li (LAPACK ``dlaed4``):
    c + s/(E_i - e) + S/(E_{i+1} - e) with s and S matching the derivatives
    of the pole sums left and right of the gap and c matching f.  The sign
    of f at the midpoint picks the pole the offsets are measured from.  The
    gap's poles, as offsets ``pl`` and ``pr``, give the distances ``dl`` and
    ``dr`` the model needs.  The model's root lies inside the gap; a step
    that leaves the bracket set by the signs of f seen so far, or overflows,
    bisects instead.  Iteration stops once the step or f is at rounding
    level.  ``test_roots_beyond_group_windows_against_mpmath`` brackets
    sampled roots within 1e-14 relative in E.

    The solve runs on the calling thread: its numpy calls are short, and on
    two threads the interpreter lock changing hands at every call gained
    nothing.
    """
    blocks = _blocks(E, w, n_gaps)
    lp = np.arange(n_gaps)  # left pole of each gap
    o = lp  # the pole each offset is measured from: the left one at the midpoint
    t = 0.5 * (E[lp + 1] - E[lp])
    todo = lp
    sums = np.empty((5, n_gaps))
    for step in range(_MAX_ITER):
        tt, ot = t[todo], o[todo]
        rows = np.searchsorted(todo, np.arange(len(blocks) + 1) * _BLOCK_GAPS)  # of each block
        for j in np.flatnonzero(np.diff(rows)):
            k0, k1 = rows[j], rows[j + 1]
            sums[:, k0:k1] = _block_sums(E, w, blocks[j], todo[k0:k1], ot[k0:k1], tt[k0:k1])
        psi, phi, dpsi, dphi, fv = sums[:, : todo.size]
        f = shift + psi + phi + fv
        if step == 0:
            # f < 0 at the midpoint puts the root in the right half: from here
            # on each gap's offsets are from the pole nearer its root
            o = lp + (f < 0.0)
            pl, pr = E[lp] - E[o], E[lp + 1] - E[o]
            lo, hi = pl.copy(), pr.copy()
            t = 0.5 * (pl + pr)
            tt = t[todo]
        dl, dr = pl[todo] - tt, pr[todo] - tt  # from the point to the gap's poles
        # stop once |f| is within its rounding error, bounded as in dlaed4
        err = 8.0 * (phi - psi + abs(shift) + np.abs(fv)) + np.abs(tt) * (dpsi + dphi)
        noise = np.abs(f) <= _EPS * err
        neg = f < 0.0
        lo[todo[neg]], hi[todo[~neg]] = tt[neg], tt[~neg]
        l, h = lo[todo], hi[todo]
        c = f - dl * dpsi - dr * dphi
        a = (dl + dr) * f - dl * dr * (dpsi + dphi)
        b = dl * dr * f
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            disc = np.sqrt(np.abs(a * a - 4.0 * b * c))
            eta = np.where(a > 0.0, 2.0 * b / (a + disc), (a - disc) / (2.0 * c))
        new = tt + eta
        new = np.where((new > l) & (new < h), new, 0.5 * (l + h))
        converged = noise | (np.abs(new - tt) <= 4.0 * _EPS * np.abs(new))
        t[todo] = np.where(noise, tt, new)
        todo = todo[~converged]
        if todo.size == 0:
            break
    else:
        raise NumericalError(
            f"secular iteration did not converge in {todo.size} gaps "
            f"after {_MAX_ITER} steps (first: gap {int(todo[0])} of the active poles)"
        )
    return o, t


def point_scatterer_spectrum(
    base: WavevectorSpectrum,
    mode_intensities,
    coupling: float,
    k_max: float,
) -> WavevectorSpectrum:
    """Eigen-wavevectors of the billiard with one point scatterer.

    The perturbed eigenvalues are the roots in E = k^2 of

        F(E) = sum_n w_n * [ 1/(E - E_n) + E_n/(1 + E_n^2) ] = 1/coupling

    with w_n = |psi_n(r0)|^2 the normalised mode intensities at the
    scatterer position and E_n = k_n^2.  The subtraction kernel makes the
    sum converge; F decreases monotonically between consecutive poles, so
    there is exactly one root per gap whenever both neighbouring
    intensities are nonzero.  With attractive coupling (``coupling < 0``)
    one more root can lie in (0, E_1), below the first pole.  Levels whose
    intensity is below rounding (see Notes) are kept unshifted.

    Parameters
    ----------
    base : WavevectorSpectrum
        Unperturbed spectrum, nonempty and complete up to a truncation well
        above ``k_max`` (see Notes); a raw array is not accepted.
    mode_intensities : array_like
        |psi_n(r0)|^2 for every base level, unit-L2-normalised modes, as
        returned by ``mode_intensities_at``.
    coupling : float
        Scatterer coupling strength, a real number; ``0`` is rejected (use
        the base spectrum instead) and ``+/-inf`` selects the
        maximal-coupling limit F = 0.
    k_max : float
        Upper edge of the reported perturbed spectrum.

    Raises
    ------
    NumericalError
        If the root iteration fails to converge in some gap.

    Notes
    -----
    This is the secular equation of the rank-one update diag(E_n) +
    rho * sqrt(w) sqrt(w)^T (Bunch, Nielsen & Sorensen, Numer. Math. 31,
    31 (1978)), solved in every gap at once by ``_secular_roots``.  As in
    LAPACK ``dlaed2``, a level is deflated, i.e. left out of the solve and
    kept unshifted, when u_n <= tol or u_n ||u|| <= tol |s|, with u = sqrt(w),
    tol = 8 eps max(E_max, sqrt(max w)), E_max the largest base E_n, and
    s = 1/coupling - sum_n w_n E_n/(1 + E_n^2) over all levels.  The second
    test is dlaed2's |rho z_n| <= tol for diag(E) + u u^T / s, z = u/||u||
    and rho = ||u||^2 / s: it deflates the levels of a weak coupling, whose
    roots lie within rounding of their poles.  A coupling weak enough to
    deflate every level, down to one whose inverse overflows to +-inf,
    returns the base levels up to ``k_max``.

    With f(E) = 1/coupling - F(E) = s - sum_n w_n/(E - E_n), f rises from
    s to +inf below the first pole and from -inf to s above the top one, so
    the rank-one update has one root in each gap and one more outside them.
    That root is returned when it lies in (0, E_1), i.e. when f(0) < 0.  Two
    roots are never returned: the bound state at E < 0, when s < 0 < f(0)
    (f(0) = s + sum_n w_n/E_n), and the root above the top pole, when s > 0.

    The truncation of the base is not negligible: for the 60-degree,
    R = 0.8 m sector up to 4.6 GHz at coupling 5, a base to 2*k_max
    instead of 4*k_max moves the levels by up to 0.12-0.135 mean spacings
    (median about 1e-3 spacings), far above the root accuracy.  Compare
    against a doubled truncation to gauge it.
    """
    k_max = check_positive(k_max, "k_max")
    if not is_real(coupling):
        raise InvalidArgumentError(f"coupling must be a real number, got {coupling!r}")
    if not abs(float(coupling)) > 0.0:  # NaN fails too
        raise InvalidArgumentError(f"coupling must be nonzero and not NaN (0 means no scatterer), got {coupling!r}")
    coupling = float(coupling)  # a Python float: 1/coupling overflows to +-inf, with no warning
    w = as_float_array(mode_intensities, "mode_intensities")
    if np.any(w < 0.0):
        raise InvalidArgumentError("mode_intensities must be nonnegative")
    k = base.values
    if k.size == 0 or w.size != k.size:
        raise InvalidArgumentError("need a nonempty base spectrum and one mode intensity per level")
    if k[-1] < 1.2 * k_max:
        warnings.warn(
            "base spectrum truncation is close to k_max; roots near the edge may be biased",
            QualityWarning,
            stacklevel=2,
        )

    E, u = k**2, np.sqrt(w)
    terms = w * E / (1.0 + E * E)
    # the two deflation tests of the Notes, with s over all levels
    tol, s = 8.0 * _EPS * max(E[-1], math.sqrt(w.max())), 1.0 / coupling - float(np.sum(terms))
    active = (u > tol) & (u * np.linalg.norm(u) > tol * abs(s))
    ka, Ea, wa = k[active], E[active], w[active]
    # roots of f = 1/coupling - F, which increases across every gap
    shift = 1.0 / coupling - float(np.sum(terms[active]))
    if shift + np.sum(wa / Ea) < 0.0:
        # f(0) < 0: a root below the first pole; a zero-weight pole at E = 0
        # makes (0, E_1) one more gap
        ka, Ea, wa = np.r_[0.0, ka], np.r_[0.0, Ea], np.r_[0.0, wa]
    n_gaps = max(min(int(np.searchsorted(Ea, k_max * k_max, side="right")), Ea.size - 1), 0)
    origin, tau = _secular_roots(Ea, wa, shift, n_gaps)
    k0 = ka[origin]
    # sqrt(E0 + tau) - k0 without cancellation: a root next to its pole stays on its side
    roots = k0 + tau / (k0 + np.sqrt(Ea[origin] + tau))
    # the deflated levels join unshifted; one cut, which agrees with n_gaps,
    # counted in E, as k <= k_max implies fl(k^2) <= fl(k_max^2)
    out = np.sort(np.concatenate([roots, k[~active]]))
    return WavevectorSpectrum(out[out <= k_max])


def __getattr__(name: str):
    """Import the uncalled ``brentq`` when read (scipy.optimize: 0.12 s, 2-vCPU VM); perfbench/tracing.py wraps it."""
    if name != "brentq":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import brentq
    return brentq
