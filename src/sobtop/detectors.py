"""Detector functions w and Fuglede admissibility of parametrized restrictions.

A detector is a nonnegative extended-real grid function with finite integral;
restrictions gamma are admissible when the quadrature of w along the image of
gamma stays below a budget.  Infinite node values (the singular set) propagate
through interpolation, so curves through the screened set always fail.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoAdmissibleTranslate, NonSummable
from .fields import finite_difference
from .geometry import distance_to_set
from .util import multilinear, philox, worker_count


@dataclass
class DetectorField:
    box: object
    dims: tuple
    w: np.ndarray  # (*dims,), +inf allowed on the (measure-zero) singular set
    provenance: str = "custom"

    def __post_init__(self):
        if np.any(self.w < 0):
            raise ValueError("detector must be nonnegative")
        finite = np.isfinite(self.w)
        # interp reads the capped values and the +inf indicator as two channels
        self._channels = np.stack([np.where(finite, self.w, 0.0), (~finite).astype(float)], axis=-1)
        self.integral = self._integrate()
        if not np.isfinite(self.integral):
            raise NonSummable("detector has infinite integral off the singular set")

    def _integrate(self):
        from .util import trapezoid_weights

        wq = trapezoid_weights(self.box.lo, self.box.hi, self.dims)
        finite = np.isfinite(self.w)
        return float(np.sum(wq[finite] * self.w[finite]))

    def interp(self, points):
        """Multilinear interpolation; any +inf corner with positive weight gives +inf."""
        base, touch = np.moveaxis(multilinear(self._channels, self.box.lo, self.box.hi, self.dims, points), -1, 0)
        return np.where(touch > 1e-12, np.inf, base)


@dataclass
class FugledeVerdict:
    gamma_id: int
    integral: float
    admissible: bool
    budget: float


def maximal_function_detector(u, p):
    """w = |u|^p + (M|Du|)^p with the discrete Hardy-Littlewood maximal function
    taken over dyadic ball radii h, 2h, 4h, ... (within a dimensional factor of
    the all-radii supremum)."""
    du = finite_difference(u, 1)
    mag = du.magnitude()
    excluded = du.excluded
    mag = np.where(excluded, 0.0, mag)
    weight = (~excluded).astype(float)
    maximal = mag.copy()
    radius = u.hmax
    diam = u.box.diameter
    nodes = u.nodes()
    while radius <= diam:
        avg = _ball_average(mag, weight, nodes, u, radius)
        maximal = np.maximum(maximal, avg)
        radius *= 2.0
    w = np.linalg.norm(u.values, axis=-1) ** p + maximal**p
    w = np.where(excluded, np.inf, w)
    return DetectorField(u.box, u.dims, w, provenance="maximal_function")


def _ball_average(mag, weight, nodes, u, radius):
    """Average of mag over euclidean balls, via FFT convolution with a disc kernel."""
    from scipy.signal import fftconvolve

    ker_shape = tuple(min(d, 2 * int(np.ceil(radius / h)) + 1) for d, h in zip(u.dims, u.h))
    ax = [np.arange(-(s // 2), s // 2 + 1) * h for s, h in zip(ker_shape, u.h)]
    grids = np.meshgrid(*ax, indexing="ij")
    ker = (sum(g**2 for g in grids) <= radius**2).astype(float)
    num = fftconvolve(mag * weight, ker, mode="same")
    den = fftconvolve(weight, ker, mode="same")
    return np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)


def power_distance_detector(sing, alpha, box, dims, screen_dim=None):
    """w = 1/d(.,T)^alpha, +inf on T; summable precisely because alpha < ell+1.

    Divergence under refinement (>2x growth when the grid is refined) raises
    NonSummable instead of returning a garbage integral.
    """
    if screen_dim is not None and not (screen_dim <= alpha < screen_dim + 1):
        raise ValueError(f"alpha={alpha} outside screening window [{screen_dim}, {screen_dim + 1})")
    from .util import node_mesh, trapezoid_weights

    def integral_at(dd):
        pts = node_mesh(box.lo, box.hi, dd).reshape(-1, box.m)
        d = distance_to_set(pts, sing).reshape(dd)
        hmax = max((hi - lo) / (n - 1) for lo, hi, n in zip(box.lo, box.hi, dd))
        # nodes within one cell of T carry the +inf of the singular set, so
        # that curves meeting T are screened out even though no node lies on it
        with np.errstate(divide="ignore"):
            w = np.where(d > hmax * 1.0001, 1.0 / np.maximum(d, 1e-300) ** alpha, np.inf)
        wq = trapezoid_weights(box.lo, box.hi, dd)
        fin = np.isfinite(w)
        return w, float(np.sum(wq[fin] * w[fin]))

    coarse = tuple(max(4, d // 2) for d in dims)
    _, coarse_int = integral_at(coarse)
    w, fine_int = integral_at(dims)
    if fine_int > 2.0 * coarse_int:
        raise NonSummable(
            f"power-distance quadrature grows {fine_int / coarse_int:.2f}x under refinement"
        )
    tag = f"power_distance(alpha={alpha}" + (f", ell={screen_dim})" if screen_dim is not None else ")")
    return DetectorField(box, dims, w, provenance=tag)


def fuglede_check(w, gamma, budget=None, gamma_id=0):
    """Quadrature of w along the image of gamma; admissible iff <= budget (< inf)."""
    if budget is None:
        budget = 64.0 * w.integral / gamma.sphere.param_measure()
    integral = _curve_integral(w, gamma)
    admissible = bool(np.isfinite(integral) and integral <= budget)
    return FugledeVerdict(gamma_id=gamma_id, integral=float(integral), admissible=admissible, budget=float(budget))


def _curve_integral(w, gamma):
    """sum over simplices of (image measure) * w(midpoint of image simplex)."""
    sph = gamma.sphere
    meas = sph.simplex_measures() * gamma.radius**sph.dim
    mids = np.mean(gamma.samples[sph.simplices], axis=1)
    vals = w.interp(mids)
    if np.any(np.isinf(vals)):
        return np.inf
    return float(np.sum(meas * vals))


@dataclass
class TranslationStats:
    mean: float
    min: float
    argmin_xi: np.ndarray
    admissible: int
    samples: int


def translation_average(w, gamma, delta, samples=512, seed=0):
    """Monte-Carlo average of the curve integral over translates gamma + xi, xi in B_delta.

    Returns the best translate; the Tonelli/Fubini bound
    mean*|B_delta| <= 2 * mu(gamma) * integral(w) is the statistical contract
    checked by the test suite.
    """
    box = w.box
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    mn = gamma.samples.min(axis=0)
    mx = gamma.samples.max(axis=0)
    if np.any(mn - delta < lo) or np.any(mx + delta > hi):
        raise ValueError("gamma + B_delta leaves the box")
    rng = philox(seed, 0x7A)
    m = box.m
    draws = np.empty((samples, m))
    k = 0
    while k < samples:
        cand = rng.uniform(-delta, delta, size=(2 * (samples - k), m))
        cand = cand[np.sum(cand**2, axis=1) <= delta * delta]
        take = min(len(cand), samples - k)
        draws[k : k + take] = cand[:take]
        k += take
    integrals = np.empty(samples)
    workers = min(worker_count(), 8)
    if workers > 1 and samples >= 64:
        from concurrent.futures import ThreadPoolExecutor

        def one(i):
            integrals[i] = _curve_integral(w, gamma.translated(draws[i]))

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, range(samples)))
    else:
        for i in range(samples):
            integrals[i] = _curve_integral(w, gamma.translated(draws[i]))
    finite = np.isfinite(integrals)
    if not np.any(finite):
        raise NoAdmissibleTranslate("all sampled translates have infinite detector integral")
    best = int(np.argmin(np.where(finite, integrals, np.inf)))
    mean = float(np.mean(np.where(finite, integrals, 0.0)))  # inf translates are measure zero
    return TranslationStats(
        mean=mean,
        min=float(integrals[best]),
        argmin_xi=draws[best],
        admissible=int(np.sum(finite)),
        samples=samples,
    )
