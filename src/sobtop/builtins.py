"""Analytic example fields with exact singular masks."""

import numpy as np

from .errors import UnknownBuiltin
from .fields import GridField, SampledSphereMap, grid_dims
from .geometry import StructuredSingularSet, TriangulatedSphere, unit_box
from .util import bump, node_mesh, smoothstep

BUILTIN_NAMES = ("identity_circle", "power_d", "radial", "dipole", "smooth_bump", "hopf", "constant")


def builtin_field(name, dims, box=None):
    """Sample a named analytic field.  ``power_<d>`` selects the degree-d vortex;
    ``hopf`` returns a SampledSphereMap on the triangulated S^3 whose refinement
    is dims (an int)."""
    if name == "hopf":
        refinement = int(dims if np.isscalar(dims) else dims[0])
        return hopf_fibration(refinement)
    dims = grid_dims((dims, dims) if np.isscalar(dims) else dims)
    m = len(dims)
    if box is None:
        box = unit_box(m)
    if name == "constant":
        vals = np.zeros(dims + (2,))
        vals[..., 0] = 1.0
        return GridField(box, dims, vals, target=1)
    if name in ("radial", "identity_circle"):
        return radial_field(box, dims)
    if name.startswith("power_") or name == "power_d":
        d = 1 if name == "power_d" else int(name.split("_", 1)[1])
        return power_field(box, dims, d)
    if name == "dipole":
        return dipole_field(box, dims)
    if name == "smooth_bump":
        return smooth_bump_field(box, dims)
    raise UnknownBuiltin(f"unknown builtin '{name}'; choose from {BUILTIN_NAMES}")


def radial_field(box, dims):
    """u(x) = x/|x| with the origin masked; S^{m-1}-valued on an m-box."""
    m = len(dims)
    pts = node_mesh(box.lo, box.hi, dims)
    r = np.linalg.norm(pts, axis=-1)
    safe = np.where(r > 1e-14, r, 1.0)
    vals = pts / safe[..., None]
    fallback = np.zeros(m)
    fallback[0] = 1.0
    vals = np.where((r <= 1e-14)[..., None], fallback, vals)
    mask = StructuredSingularSet.points([(0.0,) * m])
    return GridField(box, dims, vals, target=m - 1, singular_mask=mask)


def power_field(box, dims, d):
    """(z/|z|)^d on the plane: a single vortex of degree d at the origin."""
    if len(dims) != 2:
        raise UnknownBuiltin("power_d is a planar field")
    pts = node_mesh(box.lo, box.hi, dims)
    ang = np.arctan2(pts[..., 1], pts[..., 0])
    vals = np.stack([np.cos(d * ang), np.sin(d * ang)], axis=-1)
    mask = StructuredSingularSet.points([(0.0, 0.0)])
    return GridField(box, dims, vals, target=1, singular_mask=mask)


def dipole_field(box, dims, rho=0.3):
    """Vortex-antivortex pair: degree +1 at (-rho, 0), -1 at (rho, 0), exactly
    constant outside radius 0.9 (the dipole phase is tapered radially, which
    does not move the windings)."""
    if len(dims) != 2:
        raise UnknownBuiltin("dipole is a planar field")
    pts = node_mesh(box.lo, box.hi, dims)
    z = pts[..., 0] + 1j * pts[..., 1]
    a, b = -rho + 0.0j, rho + 0.0j
    ratio = (z - a) / np.where(np.abs(z - b) > 1e-14, z - b, 1e-14)
    theta = np.angle(ratio)  # single-valued off the segment [a, b]
    lam = 1.0 - smoothstep((np.abs(z) - 0.7) / 0.2)
    vals = np.stack([np.cos(lam * theta), np.sin(lam * theta)], axis=-1)
    mask = StructuredSingularSet.points([(-rho, 0.0), (rho, 0.0)])
    return GridField(box, dims, vals, target=1, singular_mask=mask)


def smooth_bump_field(box, dims, amplitude=1.2, radius=0.8):
    """exp(i * amplitude * bump(|x|/radius)): smooth, globally liftable, no atoms."""
    pts = node_mesh(box.lo, box.hi, dims)
    r = np.linalg.norm(pts, axis=-1)
    beta = amplitude * bump(r / radius)
    vals = np.stack([np.cos(beta), np.sin(beta)], axis=-1)
    return GridField(box, tuple(dims), vals, target=1)


def homogeneous_from_loop(loop_fn, dims, box=None):
    """u(x) = f(x/|x|) for a loop f given as angle -> angle; masked at the origin."""
    if box is None:
        box = unit_box(2)
    pts = node_mesh(box.lo, box.hi, dims)
    ang = np.arctan2(pts[..., 1], pts[..., 0])
    g = loop_fn(ang)
    vals = np.stack([np.cos(g), np.sin(g)], axis=-1)
    mask = StructuredSingularSet.points([(0.0, 0.0)])
    return GridField(box, tuple(dims), vals, target=1, singular_mask=mask)


def hopf_map(points):
    """The classical Hopf fibration S^3 -> S^2 in quaternionic coordinates."""
    x0, x1, x2, x3 = points[..., 0], points[..., 1], points[..., 2], points[..., 3]
    return np.stack(
        [2.0 * (x0 * x2 + x1 * x3), 2.0 * (x1 * x2 - x0 * x3), x0**2 + x1**2 - x2**2 - x3**2],
        axis=-1,
    )


def hopf_fibration(refinement, reverse=False, squared=False):
    """Sampled Hopf fibration (invariant +1).

    reverse: precompose with a domain reflection (degree -1), giving -1;
    squared: postcompose with the suspension of circle squaring (a degree-2
    self-map of the target), giving deg^2 * 1 = 4.
    """
    sph = TriangulatedSphere(3, refinement)
    pts = sph.vertices
    if reverse:
        pts = pts.copy()
        pts[:, 3] *= -1.0
    vals = hopf_map(pts)
    if squared:
        vals = _azimuth_double(vals)
    vals /= np.linalg.norm(vals, axis=-1, keepdims=True)
    return SampledSphereMap(sphere=sph, values=vals)


def _azimuth_double(v):
    """Suspension of z -> z^2: double the azimuth, keep the polar angle."""
    w = v[..., 0] + 1j * v[..., 1]
    r = np.abs(w)
    w2 = np.where(r > 1e-14, w * w / np.where(r > 1e-14, r, 1.0), 0.0)
    return np.stack([w2.real, w2.imag, v[..., 2]], axis=-1)
