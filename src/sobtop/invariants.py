"""Topological invariants: winding and pullback degrees, the distributional
Jacobian current with its Dirac-atom decomposition, and the extendability oracle.

All degree outputs are certified integers: the quadrature value is rounded and
the rounding residual must clear a threshold, otherwise Undersampled is raised
instead of returning a guess.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .detectors import fuglede_check
from .errors import CurveHitsSingularSet, InsufficientAdmissibleDisks, Undersampled
from .fields import SampledSphereMap, finite_difference, restrict_to_curve
from .geometry import solid_angles
from .util import bump, wrap_angle


# ---------------------------------------------------------------------------
# Test forms
# ---------------------------------------------------------------------------


@dataclass
class TestForm:
    """Smooth compactly supported bump c*exp(-1/(1-|x-a|^2/r^2))."""

    center: tuple
    radius: float
    c: float = 1.0

    def __call__(self, points):
        pts = np.atleast_2d(points)
        t = np.linalg.norm(pts - np.asarray(self.center), axis=-1) / self.radius
        return self.c * bump(t)

    def grad(self, points):
        pts = np.atleast_2d(points)
        d = pts - np.asarray(self.center)
        q = np.sum(d * d, axis=-1) / self.radius**2
        out = np.zeros_like(pts)
        inside = q < 1.0
        pref = -self.c * np.exp(-1.0 / (1.0 - q[inside])) / (1.0 - q[inside]) ** 2
        out[inside] = pref[:, None] * 2.0 * d[inside] / self.radius**2
        return out

    @property
    def sup(self):
        return self.c * np.exp(-1.0)

    @property
    def grad_sup(self):
        # max over the radial profile, computed once on a fine 1-D grid
        t = np.linspace(0.0, 0.999, 4000)
        g = np.exp(-1.0 / (1.0 - t**2)) / (1.0 - t**2) ** 2 * 2.0 * t
        return self.c * float(np.max(g)) / self.radius


def test_form_battery(box, per_axis=3):
    """per_axis^m bumps on an even center lattice, radius = side/4."""
    side = min(box.sides)
    r = side / 4.0
    axes = [
        [box.lo[i] + (k + 1) * (box.hi[i] - box.lo[i]) / (per_axis + 1) for k in range(per_axis)]
        for i in range(box.m)
    ]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.m)
    return [TestForm(tuple(c), r) for c in centers]


@dataclass
class CurrentReport:
    pairings: list  # (form index, value)
    atoms: list  # ((location...), degree)
    residual: float
    excluded_volume: float = 0.0
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


def winding_degree(samples, residual_tol=0.05):
    """Degree of a sampled S^1 -> S^1 map from wrapped angle increments.

    ``samples`` is an (N,2) array in cyclic order or a SampledSphereMap of dim 1.
    """
    if isinstance(samples, SampledSphereMap):
        samples = samples.cycle_values()
    vals = np.asarray(samples, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != 2:
        raise ValueError("need (N,2) samples")
    if len(vals) < 64:
        raise Undersampled(f"{len(vals)} samples < 64")
    ang = np.arctan2(vals[:, 1], vals[:, 0])
    d = wrap_angle(np.diff(np.concatenate([ang, ang[:1]])))
    if np.any(np.abs(d) >= np.pi - 1e-9):
        raise Undersampled("angular jump >= pi between consecutive samples")
    total = float(np.sum(d)) / (2.0 * np.pi)
    deg = int(np.round(total))
    if abs(total - deg) >= residual_tol:
        raise Undersampled(f"winding residual {abs(total - deg):.3f} >= {residual_tol}")
    return deg


def pullback_degree(f, residual_tol=0.1):
    """Degree via the pulled-back normalized volume form: signed image measure / |S^ell|."""
    sph = f.sphere
    if sph.dim == 1:
        return winding_degree(f)
    if sph.dim != 2:
        raise ValueError("pullback_degree supports ell in {1,2}")
    v = f.values / np.linalg.norm(f.values, axis=-1, keepdims=True)
    tri = v[sph.simplices]
    total = float(np.sum(solid_angles(tri[:, 0], tri[:, 1], tri[:, 2]))) / (4.0 * np.pi)
    deg = int(np.round(total))
    if abs(total - deg) >= residual_tol:
        raise Undersampled(f"degree residual {abs(total - deg):.3f} >= {residual_tol}")
    return deg


def hurewicz_degree(u, gamma):
    """Degree of u restricted to gamma (winding for circles, solid angle for spheres)."""
    f = restrict_to_curve(u, gamma)
    return pullback_degree(f) if gamma.sphere.dim == 2 else winding_degree(f)


# ---------------------------------------------------------------------------
# Distributional Jacobian
# ---------------------------------------------------------------------------


def _jacobian_flux(u):
    """Components j such that u#omega = (1/|S^n|) * sum_i j_i dx^i-hat (m = n+1)."""
    if u.target is None or u.m != u.nu:
        raise ValueError("need an S^{m-1}-valued field on an m-box")
    du = finite_difference(u, 1)
    d = du.data  # (*dims, m, nu)
    if u.m == 2:
        # j_i = u_1 d_i u_2 - u_2 d_i u_1
        j = u.values[..., None, 0] * d[..., 1] - u.values[..., None, 1] * d[..., 0]
        return j / (2.0 * np.pi), du.excluded  # (*dims, 2)
    if u.m == 3:
        # emergent field F_k = u . (d_i u x d_j u), (i,j,k) cyclic
        v = u.values
        F = np.empty(u.dims + (3,))
        for k, (i, jx) in enumerate(((1, 2), (2, 0), (0, 1))):
            F[..., k] = np.einsum("...i,...i->...", v, np.cross(d[..., i, :], d[..., jx, :]))
        return F / (4.0 * np.pi), du.excluded
    raise ValueError("jacobian defined for m = n+1 in {2,3}")


def jacobian_pairing(u, form):
    """<Jac u, alpha> = integral of u#omega_{S^n} wedge d(alpha), masked cells excluded."""
    return jacobian_battery(u, [form])[0][0][1]


def jacobian_battery(u, forms=None):
    """Pairings against the standard battery plus the excluded-volume report."""
    if forms is None:
        forms = test_form_battery(u.box)
    j, excluded = _jacobian_flux(u)
    w = u.weights()
    vol_excl = float(np.sum(w * excluded))
    pts = u.nodes().reshape(-1, u.m)
    pairings = []
    wk = w * (~excluded)
    for i, form in enumerate(forms):
        g = form.grad(pts).reshape(u.dims + (u.m,))
        if u.m == 2:
            integrand = j[..., 0] * g[..., 1] - j[..., 1] * g[..., 0]
        else:
            integrand = np.einsum("...i,...i->...", j, g)
        pairings.append((i, float(np.sum(integrand * wk))))
    return pairings, vol_excl


# ---------------------------------------------------------------------------
# Cell degree sweep (Dirac-atom oracle)
# ---------------------------------------------------------------------------


def _plaquette_windings(u):
    """Winding of the phase around every grid cell (m=2); exact integers.

    An angular jump of +-pi on a cell edge is ambiguous (the wrap can go either
    way), so such cells make the whole sweep Undersampled.
    """
    ang = np.arctan2(u.values[..., 1], u.values[..., 0])
    d1 = wrap_angle(ang[1:, :-1] - ang[:-1, :-1])  # bottom edge, +x
    d2 = wrap_angle(ang[1:, 1:] - ang[1:, :-1])  # right edge, +y
    d3 = wrap_angle(ang[:-1, 1:] - ang[1:, 1:])  # top edge, -x
    d4 = wrap_angle(ang[:-1, :-1] - ang[:-1, 1:])  # left edge, -y
    for d in (d1, d2, d3, d4):
        if np.any(np.abs(d) >= np.pi * (1.0 - 1e-9)):
            raise Undersampled("angular jump >= pi across a cell edge")
    total = (d1 + d2 + d3 + d4) / (2.0 * np.pi)
    wind = np.round(total).astype(int)
    return wind, float(np.max(np.abs(total - wind))) if total.size else 0.0


def _cell_degrees_3d(u):
    """Degree of u around each grid cell via solid angles of the 12 boundary triangles."""
    v = u.values / np.linalg.norm(u.values, axis=-1, keepdims=True)
    c = {}
    for dx, dy, dz in np.ndindex(2, 2, 2):
        c[(dx, dy, dz)] = v[
            dx : v.shape[0] - 1 + dx, dy : v.shape[1] - 1 + dy, dz : v.shape[2] - 1 + dz
        ]
    # outward-oriented triangulation of the cube surface (two triangles per face)
    tris = [
        ((0, 0, 0), (0, 0, 1), (0, 1, 1)), ((0, 0, 0), (0, 1, 1), (0, 1, 0)),  # x = 0
        ((1, 0, 0), (1, 1, 0), (1, 1, 1)), ((1, 0, 0), (1, 1, 1), (1, 0, 1)),  # x = 1
        ((0, 0, 0), (1, 0, 0), (1, 0, 1)), ((0, 0, 0), (1, 0, 1), (0, 0, 1)),  # y = 0
        ((0, 1, 0), (0, 1, 1), (1, 1, 1)), ((0, 1, 0), (1, 1, 1), (1, 1, 0)),  # y = 1
        ((0, 0, 0), (0, 1, 0), (1, 1, 0)), ((0, 0, 0), (1, 1, 0), (1, 0, 0)),  # z = 0
        ((0, 0, 1), (1, 0, 1), (1, 1, 1)), ((0, 0, 1), (1, 1, 1), (0, 1, 1)),  # z = 1
    ]
    total = np.zeros(tuple(d - 1 for d in u.dims))
    for a, b, cc in tris:
        total += solid_angles(c[a], c[b], c[cc])
    total /= 4.0 * np.pi
    deg = np.round(total).astype(int)
    return deg, float(np.max(np.abs(total - deg))) if total.size else 0.0


def cell_degree_sweep(u, forms=None, block_check=True):
    """Locate Dirac atoms: per-cell degrees, merged into atoms, verified against
    the Jacobian pairing battery."""
    if u.m == 2:
        wind, resid = _plaquette_windings(u)
    elif u.m == 3:
        wind, resid = _cell_degrees_3d(u)
    else:
        raise ValueError("sweep supports m in {2,3}")
    if resid >= 0.25:
        raise Undersampled(f"cell degree residual {resid:.3f}")
    blocks = None
    if block_check and u.m == 2 and min(wind.shape) >= 2:
        # degree on the boundary circle of every 2x2 cell block (additivity is exact)
        blocks = wind[:-1, :-1] + wind[1:, :-1] + wind[:-1, 1:] + wind[1:, 1:]
    atoms = []
    labels, n = ndimage.label(wind != 0, structure=np.ones((3,) * u.m, dtype=int))
    axes = u.axes()
    cell_centers = [0.5 * (a[1:] + a[:-1]) for a in axes]
    for lab in range(1, n + 1):
        sel = labels == lab
        deg = int(np.sum(wind[sel]))
        if deg == 0:
            continue
        idx = np.argwhere(sel)
        loc = tuple(float(np.mean(cell_centers[i][idx[:, i]])) for i in range(u.m))
        atoms.append((loc, deg))
    atoms.sort(key=lambda a: a[0])
    pairings, vol_excl, residual = [], 0.0, 0.0
    if u.m == u.nu:
        if forms is None:
            forms = test_form_battery(u.box)
        pairings, vol_excl = jacobian_battery(u, forms)
        for i, val in pairings:
            predicted = sum(d * float(forms[i](np.array([loc]))[0]) for loc, d in atoms)
            residual = max(residual, abs(val - predicted))
    extra = {"cell_residual": resid}
    if blocks is not None:
        extra["block_degrees"] = blocks
    return CurrentReport(
        pairings=pairings,
        atoms=atoms,
        residual=residual,
        excluded_volume=vol_excl,
        extra=extra,
    )


# ---------------------------------------------------------------------------
# Extendability oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleVerdict:
    extendable: bool
    atoms: list
    screened: int
    admissible: int
    degrees: list
    max_pairing: float
    pairing_tol: float

    @property
    def label(self):
        return "extendable" if self.extendable else "obstructed"


def extendability_oracle(u, disks, w, budget=None, min_admissible=8):
    """Generic-restriction test: extendable iff every admissible disk boundary
    has degree zero and (when m = n+1) the Jacobian pairings vanish within
    tolerance max(1e-2, 5h)*||d alpha||.  A disk is admissible when it passes
    the detector, which is read between its samples, and no sample comes
    within one cell of the singular set."""
    if u.target is None:
        raise ValueError("oracle needs a sphere-valued field")
    degrees = []
    admissible = 0
    for k, gamma in enumerate(disks):
        if not fuglede_check(w, gamma, budget=budget, gamma_id=k).admissible:
            continue
        try:
            degree = hurewicz_degree(u, gamma)
        except CurveHitsSingularSet:
            continue
        admissible += 1
        degrees.append((k, degree))
    if admissible < min_admissible:
        raise InsufficientAdmissibleDisks(admissible, min_admissible)
    all_zero = all(d == 0 for _, d in degrees)
    max_rel = 0.0
    tol = 0.0
    pairing_ok = True
    if u.m == u.nu:
        forms = test_form_battery(u.box)
        pairings, _ = jacobian_battery(u, forms)
        for (_, val), form in zip(pairings, forms):
            t = max(1e-2, 5.0 * u.hmax) * form.grad_sup
            tol = max(tol, t)
            max_rel = max(max_rel, abs(val))
            pairing_ok = pairing_ok and abs(val) <= t
    extendable = all_zero and pairing_ok
    atoms = [] if extendable else cell_degree_sweep(u).atoms
    return OracleVerdict(
        extendable=extendable,
        atoms=atoms,
        screened=len(disks),
        admissible=admissible,
        degrees=degrees,
        max_pairing=max_rel,
        pairing_tol=tol,
    )
