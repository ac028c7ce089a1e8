"""The constructive approximation machine: good/bad cubes, opening, adaptive
smoothing, thickening, degree-based extension for circle targets, shrinking,
and the end-to-end driver.

Conventions: ``eta`` is the cube side of the working cubication and
``eta/2`` (the cube radius) is the scale entering every neighborhood formula,
written ``R = rho * eta/2`` below.  All stage maps are closed-form piecewise
maps; a stage's output field is the multilinear resample of its input at the
mapped nodes, with nodes outside the map's support copied bitwise so the
"identity outside" contracts hold exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from .detectors import maximal_function_detector
from .errors import (
    AdmissibilityViolation,
    LiftFailure,
    NoRoot,
    PsiTooSteep,
    StageError,
    Undersampled,
    ValidationError,
)
from .fields import (
    GridField,
    Mollifier,
    finite_difference,
    project_to_sphere,
    sobolev_distance,
    unwrap_phase,
)
from .geometry import Cubication, StructuredSingularSet, distance_to_set
from .invariants import cell_degree_sweep
from .util import multilinear, philox, ramp


# ---------------------------------------------------------------------------
# Radial profiles for thickening and shrinking
# ---------------------------------------------------------------------------


@dataclass
class RadialProfile:
    """Scalar profile phi with g(s) = phi(s)*s strictly increasing, g = s for
    s >= rho, and g(0+) = limit (r for thickening, theta*r for shrinking).

    g follows the log-corrected core limit*(1 + 1/ln(1/s)) below the cutoff
    s1 = exp(-2*limit/(rho-limit)) and continues log-linearly up to the
    identity at rho.  Both branch slopes are positive, so g is strictly
    increasing by construction; the derivative-in-1/s bounds and the Jacobian
    floor are verified numerically on a log grid by invariants_report().
    """

    r: float
    rho: float
    kind: str = "thickening"
    tau: float = 0.0
    theta: float = 0.0
    gamma: float = 0.0
    _s1: float = field(default=0.0, repr=False)
    _q: float = field(default=0.0, repr=False)

    @property
    def limit(self):
        return self.r if self.kind == "thickening" else self.theta * self.r

    def _g1(self):
        return self.limit * (1.0 + 1.0 / np.log(1.0 / self._s1))

    def g(self, s):
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        a = self.limit
        with np.errstate(divide="ignore"):
            L = np.log(1.0 / np.maximum(s, 1e-300))
        core = s <= self._s1
        out[core] = a * (1.0 + 1.0 / L[core])
        outer = s >= self.rho
        out[outer] = s[outer]
        mid = ~core & ~outer
        out[mid] = self._g1() + self._q * np.log(np.maximum(s[mid], 1e-300) / self._s1)
        return out

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        return self.g(s) / s

    def dg_dlog(self, s, order=1):
        """d^k g / d(ln s)^k on each smooth branch (defined away from the seams)."""
        s = np.asarray(s, dtype=float)
        a = self.limit
        out = np.empty_like(s)
        L = np.log(1.0 / np.maximum(s, 1e-300))
        core = s <= self._s1
        outer = s >= self.rho
        mid = ~core & ~outer
        if order == 1:
            out[core] = a / L[core] ** 2
            out[outer] = s[outer]
            out[mid] = self._q
        else:
            out[core] = 2.0 * a / L[core] ** 3
            out[outer] = s[outer]
            out[mid] = 0.0
        return out

    def phi_prime(self, s):
        s = np.asarray(s, dtype=float)
        return (self.dg_dlog(s, 1) - self.g(s)) / s**2

    def phi_second(self, s):
        s = np.asarray(s, dtype=float)
        return (self.dg_dlog(s, 2) - 3.0 * self.dg_dlog(s, 1) + 2.0 * self.g(s)) / s**3

    def jacobian(self, s, m):
        """J of x -> phi(|x|)x: phi^{m-1} * (phi + phi' s) = (g/s)^{m-1} g'(s)."""
        s = np.asarray(s, dtype=float)
        gp = self.dg_dlog(s, 1) / s
        return (self.g(s) / s) ** (m - 1) * gp

    def invariants_report(self, grid=None, ms=(2, 3)):
        if grid is None:
            grid = np.logspace(-8, 0, 400)
        grid = grid[(grid > 0) & (grid <= 1.0)]
        g = self.g(grid)
        rep = {
            "identity_beyond_rho": float(np.max(np.abs(self.phi(grid[grid >= self.rho]) - 1.0), initial=0.0)),
            "monotone_margin": float(np.min(np.diff(g))),
            "limit_rel_err_1e8": abs(self.g(np.array([1e-8]))[0] - self.limit) / self.limit,
            "phi1_bound": float(np.max(np.abs(self.phi_prime(grid)) * grid**2)),
            "phi2_bound": float(np.max(np.abs(self.phi_second(grid)) * grid**3)),
        }
        for m in ms:
            rep[f"jacobian_floor_m{m}"] = float(np.min(self.jacobian(grid, m) * grid ** (m - 0.5)))
        return rep


def _build_profile(limit, rho):
    """Core cutoff and the log-linear bridge slope dg/dln(s)."""
    if not 0 < limit < rho < 1:
        raise NoRoot(f"need 0 < limit={limit:.3g} < rho={rho:.3g} < 1")
    s1 = min(rho / 2.0, float(np.exp(-max(2.0 * limit / (rho - limit), 2.0))))
    L1 = np.log(1.0 / s1)
    g1 = limit * (1.0 + 1.0 / L1)
    if g1 >= rho:
        raise NoRoot("core value at the cutoff already exceeds rho")
    q = (rho - g1) / np.log(rho / s1)
    return s1, q


def thickening_profile(r, rho):
    if not 0 < r < rho < 1:
        raise NoRoot(f"need 0 < r={r} < rho={rho} < 1")
    p = RadialProfile(r=r, rho=rho, kind="thickening")
    p._s1, p._q = _build_profile(r, rho)
    return p


def shrinking_profile(r, rho, tau, theta):
    """Shrinking ansatz: g(0+) = theta*r, plus the scalar root
    phi(tau*sqrt(1+gamma))*tau = r solved by bisection."""
    if not 0 < tau < r < rho < 1:
        raise NoRoot(f"need 0 < tau={tau} < r={r} < rho={rho} < 1")
    if not 1.0 < theta < 1.0 / r:
        raise NoRoot(f"theta={theta} outside (1, 1/r)")
    if theta * r >= rho:
        raise NoRoot(f"theta*r={theta * r:.3g} >= rho={rho}; profile cannot increase")
    p = RadialProfile(r=r, rho=rho, kind="shrinking", tau=tau, theta=theta)
    p._s1, p._q = _build_profile(theta * r, rho)

    def h(gamma):
        z = tau * np.sqrt(1.0 + gamma)
        return float(p.phi(np.array([min(z, 1.0)]))[0]) * tau - r

    lo = theta**2 - 1.0
    hi = 1.0 / tau**2 - 1.0
    if not (h(lo) > 0 > h(hi)):
        raise NoRoot(f"bracket failed: h({lo:.3g})={h(lo):.3g}, h({hi:.3g})={h(hi):.3g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    p.gamma = 0.5 * (lo + hi)
    root = np.sqrt(1.0 + p.gamma)
    if not (theta < root < 1.0 / tau):
        raise NoRoot(f"root sqrt(1+gamma)={root:.4g} escaped (theta, 1/tau)")
    return p


# ---------------------------------------------------------------------------
# Good/bad classification
# ---------------------------------------------------------------------------


@dataclass
class Classification:
    cubication: Cubication
    bad: tuple  # E^m, integer cube centers
    padded: tuple  # U^m = bad plus touching neighbors
    alpha: float
    iota: float
    rho: float
    k: int
    p: float
    values: dict  # criterion value per cube
    vol_bad_padded: float = 0.0
    bound_constant: float = 0.0

    @property
    def all_good(self):
        return not self.bad

    def u_cube_centers(self):
        """The centres of the U^m cubes, which are Z^{ell*} for ell = m-1."""
        return self.cubication.units_to_coords(list(self.padded))

    def bad_cube_centers(self):
        return self.cubication.units_to_coords(list(self.bad))

    def dist_inf_to(self, nodes, which="bad"):
        centers = self.bad_cube_centers() if which == "bad" else self.u_cube_centers()
        if len(centers) == 0:
            return np.full(nodes.shape[:-1], np.inf)
        R = self.cubication.radius
        d = None
        for c in centers:
            di = np.max(np.abs(nodes - c), axis=-1) - R
            d = di if d is None else np.minimum(d, di)
        return np.maximum(d, 0.0)


def classify_cubes(u, cub, alpha=0.2, iota=0.2, rho=0.25, k=1, p=1.5):
    """Good cube: alpha/eta_r^{m/kp-1} * ||Du||_{L^{kp}(window)} <= iota, with the
    window = cube + Q_{2 rho eta_r}; the bad-volume bound constant is extracted."""
    kp = k * p
    eta_r = cub.radius
    pad = eta_r * (1.0 + 2.0 * rho)
    lo = np.array(u.box.lo)
    hi = np.array(u.box.hi)
    centers = cub.cubes
    if np.any(centers - pad < lo - 1e-12) or np.any(centers + pad > hi + 1e-12):
        raise AdmissibilityViolation("cubication windows leave the field's box; pad the box")
    du = finite_difference(u, 1)
    mag = du.magnitude()
    energy = u.weights() * (~du.excluded) * mag**kp
    axes = u.axes()
    scale = alpha / eta_r ** (u.m / kp - 1.0)
    values = {}
    bad = []
    units = cub.cube_units
    for cu, c in zip(units, centers):
        # the window |nodes - c| <= pad is a box of whole index ranges; its
        # raveled energies are the boolean gather's, in the same order
        win = []
        for x, ci in zip(axes, c):
            idx = np.nonzero(np.abs(x - ci) <= pad)[0]
            win.append(slice(idx[0], idx[-1] + 1) if len(idx) else slice(0, 0))
        norm_kp = float(np.sum(energy[tuple(win)].ravel())) ** (1.0 / kp)
        val = scale * norm_kp
        values[cu] = val
        if val > iota:
            bad.append(cu)
    bad_set = set(map(tuple, bad))
    padded = set(bad_set)
    for cu in units:
        if cu in bad_set:
            continue
        for b in bad_set:
            if all(abs(ci - bi) <= 2 for ci, bi in zip(cu, b)):
                padded.add(cu)
                break
    cls = Classification(
        cubication=cub,
        bad=tuple(sorted(bad_set)),
        padded=tuple(sorted(padded)),
        alpha=alpha,
        iota=iota,
        rho=rho,
        k=k,
        p=p,
        values=values,
    )
    # volume of E^m + Q_{2 rho eta_r} and the extracted constant of the bad-volume bound
    if bad_set:
        d_bad = cls.dist_inf_to(u.nodes(), "bad")
        cls.vol_bad_padded = float(np.sum(u.weights() * (d_bad <= 2.0 * rho * eta_r)))
        total = float(np.sum(energy))
        if total > 0:
            cls.bound_constant = cls.vol_bad_padded / (eta_r**kp * total)
    return cls


# ---------------------------------------------------------------------------
# Opening
# ---------------------------------------------------------------------------


# Nested per-dimension scales for the iterated opening (units of rho*eta/2):
# (inner, outer, z-cube radius).  Each stage's whole orthogonal disturbance
# (outer + z) fits inside the previous stage's constancy cube (inner - z), so
# composed values agree on every corner regardless of application order, and
# every slab of radius rho*eta/2 is collapsed exactly.
_STAGE_SCALES = {
    0: (1.8, 1.9, 0.1),
    1: (1.38, 1.5, 0.15),
    2: (1.05, 1.15, 0.05),
}


@dataclass
class OpeningPiece:
    """Cylindrical opening around one face: the orthogonal coordinates collapse
    to a translated point inside the sharp cylinder over the face, smoothly
    blended to the identity in the orthogonal direction.  Every translation
    lies within ``z_radius`` of 0 in the sup norm, so the piece moves only
    points inside its support box."""

    center: np.ndarray
    span: tuple
    ortho: tuple
    inner: float
    outer: float
    z: np.ndarray
    face_halfwidth: float
    z_radius: float
    key: tuple = None  # integer centre of the skeleton face, if any

    def __post_init__(self):
        hw = np.empty(len(self.center))
        for ax in range(len(self.center)):
            hw[ax] = self.face_halfwidth if ax in self.span else self.outer + self.z_radius
        self.support_lo = self.center - hw
        self.support_hi = self.center + hw

    def moves(self, pts, zs):
        """The piece with every translation in ``zs`` at once: the mask
        (len(zs), len(pts)) of its active set (the face's cylinder,
        |y + z| < outer), and the new positions of the active entries in the
        mask's C order.  Every other point stays where it is."""
        ortho = list(self.ortho)
        w = (pts[:, ortho] - self.center[ortho])[None, :, :] + zs[:, None, :]
        wn = np.max(np.abs(w), axis=2)
        active = wn < self.outer
        for ax in self.span:
            active &= np.abs(pts[:, ax] - self.center[ax]) <= self.face_halfwidth
        moved = np.broadcast_to(pts, active.shape + pts.shape[1:])[active]
        lam = ramp(wn[active], self.inner, self.outer)
        z = np.broadcast_to(zs[:, None, :], w.shape)[active]
        moved[:, ortho] = self.center[ortho] + (lam[:, None] * w[active] - z)
        return active, moved


class _Tiles:
    """A batch of points grouped by the cell of their first position in the
    lattice of side ``side`` from ``origin`` (at or below every point), with
    each cell's bounding box of the points' current positions, so that a box
    query tests only the cells that can hold a hit."""

    def __init__(self, pts, origin, side):
        cell = np.floor((pts - origin) / side).astype(np.int64)
        key = np.ravel_multi_index(tuple(cell.T), tuple(cell.max(axis=0) + 1))
        self.order = np.argsort(key, kind="stable")
        key = key[self.order]
        self.start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        self.count = np.diff(np.r_[self.start, len(key)])
        self.cell = np.empty(len(pts), dtype=np.int64)
        self.cell[self.order] = np.repeat(np.arange(len(self.start)), self.count)
        self.lo = np.minimum.reduceat(pts[self.order], self.start, axis=0)
        self.hi = np.maximum.reduceat(pts[self.order], self.start, axis=0)

    def rows(self, lo, hi):
        """Indices of the points in the cells whose box meets [lo, hi]."""
        k = np.nonzero(((self.lo <= hi) & (self.hi >= lo)).all(axis=1))[0]
        count = self.count[k]
        first = np.repeat(self.start[k] - (np.cumsum(count) - count), count)
        return self.order[first + np.arange(len(first))]

    def moved(self, rows, pts):
        """Widen the boxes of the cells of ``rows`` to their new positions."""
        np.minimum.at(self.lo, self.cell[rows], pts)
        np.maximum.at(self.hi, self.cell[rows], pts)


@dataclass
class OpeningMap:
    """Opening pieces composed with the last one acting first.  The support
    boxes are kept in arrays that ``append`` grows, so an application does
    not rebuild them."""

    pieces: list

    def __post_init__(self):
        pieces, self.pieces = self.pieces, []
        self._boxes = ()  # array (capacity, lo/hi, axis) once a piece is in
        self._slack = 0.0  # the largest outer radius, the farthest a piece moves a point
        for pc in pieces:
            self.append(pc)

    def append(self, piece):
        """Add a piece; it acts before every piece already in the map."""
        n = len(self.pieces)
        if n == len(self._boxes):
            grown = np.empty((max(16, 2 * n), 2, len(piece.center)))
            if n:
                grown[:n] = self._boxes
            self._boxes = grown
        self._boxes[n] = piece.support_lo, piece.support_hi
        self._slack = max(self._slack, piece.outer)
        self.pieces.append(piece)

    def apply(self, pts):
        """Compose the pieces, the last one acting first.  Pieces whose support
        misses the points' bounding box (widened by the largest outer radius)
        are skipped, and each other piece tests only the points whose tile
        box meets its support."""
        out = np.asarray(pts, dtype=float).copy()
        if not self.pieces or len(out) == 0 or self._slack <= 0:  # no outer radius: nothing moves
            return out
        los, his = self._boxes[: len(self.pieces)].transpose(1, 0, 2)
        lo = out.min(axis=0) - self._slack
        hi = out.max(axis=0) + self._slack
        live = np.nonzero(((los <= hi) & (his >= lo)).all(axis=1))[0][::-1]
        if len(live) == 0:
            return out
        tiles = _Tiles(out, lo, 2.0 * self._slack)
        for i in live:
            rows = tiles.rows(los[i], his[i])
            if len(rows) == 0:
                continue
            piece = self.pieces[i]
            active, moved = piece.moves(out[rows], piece.z[None, :])
            rows = rows[active[0]]
            out[rows] = moved
            tiles.moved(rows, moved)
        return out


def _support_rows(u, lo_boxes, hi_boxes, inflate):
    """Flat node indices inside any of the (inflated) support boxes."""
    keep = np.zeros(int(np.prod(u.dims)), dtype=bool)
    strides = np.ones(u.m, dtype=np.int64)
    for i in range(u.m - 2, -1, -1):
        strides[i] = strides[i + 1] * u.dims[i + 1]
    h = u.h
    for lo_b, hi_b in zip(lo_boxes, hi_boxes):
        ranges = []
        for ax in range(u.m):
            i0 = int(np.ceil((lo_b[ax] - inflate - u.box.lo[ax]) / h[ax] - 1e-9))
            i1 = int(np.floor((hi_b[ax] + inflate - u.box.lo[ax]) / h[ax] + 1e-9))
            i0, i1 = max(0, i0), min(u.dims[ax] - 1, i1)
            if i1 < i0:
                ranges = None
                break
            ranges.append(np.arange(i0, i1 + 1, dtype=np.int64))
        if ranges is None:
            continue
        flat = ranges[0] * strides[0]
        for ax in range(1, u.m):
            flat = (flat[:, None] + ranges[ax] * strides[ax]).reshape(-1)
        keep[flat] = True
    return np.nonzero(keep)[0]


def _compose(u, coord_map, rows=None):
    """Resample u at mapped nodes; untouched nodes keep their values bitwise.
    ``rows`` optionally limits the work to nodes that the map can move."""
    nodes = u.nodes().reshape(-1, u.m)
    vals = u.values.reshape(-1, u.nu).copy()
    sub = nodes if rows is None else nodes[rows]
    mapped = coord_map(sub)
    moved = np.any(mapped != sub, axis=1)
    if np.any(moved):
        new = u.interp(mapped[moved])
        if u.target is not None:
            n = np.linalg.norm(new, axis=-1, keepdims=True)
            new = new / np.where(n > 1e-12, n, 1.0)
        if rows is None:
            vals[moved] = new
        else:
            vals[rows[moved]] = new
    return u.with_values(vals.reshape(u.values.shape))


def _cheapest_translate(piece, cand, wpts, w, earlier=None):
    """The translation in ``cand`` whose opened window ``wpts``, after the
    ``earlier`` map, carries the least detector mass (+inf counted as 1e30).

    A translate moves only the window points in its cylinder, so the earlier
    map and the detector run once on the distinct points of the (translate,
    point) block: the window points some translate leaves in place, then the
    moved entries.  That is the block's own set of points, so the earlier
    map's bounding-box prune is the same, and both act point by point."""
    active, moved = piece.moves(wpts, cand)
    kept = ~active.all(axis=0)
    where = np.broadcast_to(np.cumsum(kept) - 1, active.shape).copy()
    where[active] = np.count_nonzero(kept) + np.arange(len(moved))
    pts = np.concatenate([wpts[kept], moved])
    vals = w.interp(pts if earlier is None else earlier.apply(pts))
    vals = np.where(np.isfinite(vals), vals, 1e30)[where]
    return cand[int(np.argmin(np.sum(vals, axis=1)))]


def open_at_point(u, center, delta, w, samples=64, seed=0):
    """Model opening around one point: u o Phi_z constant on Q_delta(center),
    u unchanged off Q_{4 delta}, z the best of ``samples`` seeded draws."""
    center = np.asarray(center, dtype=float)
    if not np.all(u.box.contains([center - 5 * delta])) or not np.all(u.box.contains([center + 5 * delta])):
        raise ValueError("Q_{5 delta}(center) leaves the box")
    rng = philox(seed, 0x09E7)
    cand = rng.uniform(-delta, delta, size=(samples, u.m))
    nodes = u.nodes().reshape(-1, u.m)
    win = np.all(np.abs(nodes - center) <= 5.0 * delta, axis=1)
    piece = OpeningPiece(
        center=center, span=(), ortho=tuple(range(u.m)),
        inner=2.0 * delta, outer=3.0 * delta, z=np.zeros(u.m),
        face_halfwidth=0.0, z_radius=delta,
    )
    piece.z = _cheapest_translate(piece, cand, nodes[win], w)
    omap = OpeningMap(pieces=[piece])
    return _compose(u, omap.apply), omap


def open_on_skeleton(u, cls, target="U", ell=1, w=None, seed=0):
    """Iterated cylindrical opening around the faces of dimension 0..ell of the
    full skeleton (target 'S') or of the U cubes (target 'U').

    The translates are chosen in one walk over the full skeleton, in the order
    of ``Cubication.skeleton``, each the cheapest of 64 draws seeded by its
    face, given the pieces before it.  Target 'U' composes the pieces of the
    U cubes' faces from that walk, so the two maps share every translate.
    Returns the opened field, its map and, for target 'U' only, the per-face
    Sobolev constants (the driver reads the 'S' field only near U).
    """
    if target not in ("U", "S"):
        raise ValueError("target must be 'U' or 'S'")
    if ell > cls.k * cls.p + 1e-12:
        raise AdmissibilityViolation(f"ell={ell} above kp={cls.k * cls.p}")
    if target == "U" and not cls.padded:
        return u.with_values(u.values.copy()), OpeningMap(pieces=[]), {}
    if w is None:
        w = maximal_function_detector(u, p=cls.k * cls.p)
    cub = cls.cubication
    R = cls.rho * cub.radius
    nodes = u.nodes().reshape(-1, u.m)
    omap = OpeningMap(pieces=[])
    for j in range(0, ell + 1):
        if j not in _STAGE_SCALES:
            raise NotImplementedError("opening implemented for face dimensions 0..2")
        inner, outer, zrad = (s * R for s in _STAGE_SCALES[j])
        for f in cub.skeleton(j):
            c = cub.face_center(f)
            ortho = tuple(a for a in range(u.m) if a not in f.span)
            rng = philox(seed, 0x0FACE, j, *f.center_units)
            cand = rng.uniform(-zrad, zrad, size=(64, len(ortho)))
            wpts = nodes[_support_rows(u, [c], [c], cub.radius + 2.0 * R)]
            piece = OpeningPiece(
                center=c, span=f.span, ortho=ortho,
                inner=inner, outer=outer, z=np.zeros(len(ortho)),
                face_halfwidth=cub.radius, z_radius=zrad, key=f.center_units,
            )
            piece.z = _cheapest_translate(piece, cand, wpts, w, omap)
            omap.append(piece)
    if target == "S":
        return _compose_opening(u, cls, ell, omap), omap, {}
    return _u_opening(u, cls, ell, omap)


def _u_opening(u, cls, ell, omap):
    """The U part of a full-skeleton map (the pieces of the U cubes' faces,
    in their order in ``omap``): u composed with it, the map, and its
    per-face Sobolev constants."""
    cub = cls.cubication
    keys = {f.center_units for cu in cls.padded for j in range(ell + 1) for f in cub.cube_faces(cu, j)}
    u_map = OpeningMap(pieces=[pc for pc in omap.pieces if pc.key in keys])
    out = _compose_opening(u, cls, ell, u_map)
    return out, u_map, _sobolev_constants(u, out, cls, ell, u_map.pieces)


def _compose_opening(u, cls, ell, omap):
    """u composed with the opening map."""
    R = cls.rho * cls.cubication.radius
    pieces = omap.pieces
    rows = _support_rows(
        u, [pc.support_lo for pc in pieces], [pc.support_hi for pc in pieces],
        inflate=(ell + 1) * 4.0 * R,
    )
    return _compose(u, omap.apply, rows=rows)


def _sobolev_constants(u, out, cls, ell, pieces):
    """The per-face first-order Sobolev estimate constants of the opened
    field ``out`` on the ell-faces among the pieces."""
    r = cls.cubication.radius
    R = cls.rho * r
    du_in = finite_difference(u, 1)
    du_out = finite_difference(out, 1)
    kp = cls.k * cls.p
    wq = u.weights().reshape(-1)
    keep = (~(du_in.excluded | du_out.excluded)).reshape(-1)
    mag_in = du_in.magnitude().reshape(-1)
    mag_out = du_out.magnitude().reshape(-1)
    sob_constants = {}
    for pc in pieces:
        if len(pc.span) != ell:
            continue
        rows_f = _support_rows(u, [pc.center], [pc.center], r + 2.0 * R)
        rows_f = rows_f[keep[rows_f]]
        denom = float(np.sum(wq[rows_f] * mag_in[rows_f] ** kp)) ** (1.0 / kp)
        numer = float(np.sum(wq[rows_f] * mag_out[rows_f] ** kp)) ** (1.0 / kp)
        if denom > 1e-12:
            sob_constants[pc.key] = numer / denom
    return sob_constants


# ---------------------------------------------------------------------------
# Adaptive smoothing
# ---------------------------------------------------------------------------


def adaptive_smooth(u, psi, mollifier=None, quad_n=8):
    """v(x) = integral of phi(z) u(x + psi(x) z) dz; exactly u where psi = 0."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != u.dims:
        raise ValueError("psi must be sampled on the field's grid")
    if np.any(psi < 0):
        raise ValueError("psi must be nonnegative")
    grad = np.stack(np.gradient(psi, *u.h, edge_order=2), axis=-1)
    lip = float(np.max(np.linalg.norm(grad, axis=-1)))
    if lip >= 1.0:
        raise PsiTooSteep(f"Lip(psi) = {lip:.3f} >= 1")
    nodes = u.nodes()
    d_boundary = np.min(
        np.minimum(nodes - np.array(u.box.lo), np.array(u.box.hi) - nodes), axis=-1
    )
    if np.any(psi > d_boundary + 1e-12):
        raise ValueError("psi exceeds the distance to the boundary")
    if mollifier is None:
        mollifier = Mollifier(u.m)
    zs, wts = mollifier.quad(quad_n)
    flat_nodes = nodes.reshape(-1, u.m)
    flat_psi = psi.reshape(-1)
    moving = flat_psi > 0
    out = u.values.reshape(-1, u.nu).copy()
    if np.any(moving):
        acc = np.zeros((int(np.sum(moving)), u.nu))
        base = flat_nodes[moving]
        for zk, wk in zip(zs, wts):
            acc += wk * u.interp(base + flat_psi[moving, None] * zk)
        out[moving] = acc
    return u.with_values(out.reshape(u.values.shape), target=None)


# ---------------------------------------------------------------------------
# Thickening
# ---------------------------------------------------------------------------


@dataclass
class _RadialPiece:
    center: np.ndarray
    scale: float
    profile: RadialProfile
    norm: str  # "inf" for thickening (cube-preserving), "two" for shrinking
    gamma_tau2: float = 0.0  # shrinking regularization gamma * tau_m^2

    def apply(self, pts):
        y = pts - self.center
        if self.norm == "inf":
            s = np.max(np.abs(y), axis=1) / self.scale
        else:
            s = np.linalg.norm(y, axis=1) / self.scale
        active = (s < self.profile.rho) & (s > 0)
        if self.gamma_tau2 > 0:
            active = (np.sqrt(s**2 + self.gamma_tau2) < self.profile.rho) & (s >= 0)
        if not np.any(active):
            return pts
        arg = s[active] if self.gamma_tau2 == 0 else np.sqrt(s[active] ** 2 + self.gamma_tau2)
        factor = self.profile.phi(np.maximum(arg, 1e-300))
        out = pts.copy()
        out[active] = self.center + factor[:, None] * y[active]
        return out


def _compose_radial(u, pieces):
    """Compose u with the radial pieces applied in order; a piece moves only
    points within scale * rho of its centre."""

    def radial_map(pts):
        for pc in pieces:
            pts = pc.apply(pts)
        return pts

    half = [pc.scale * pc.profile.rho for pc in pieces]
    rows = _support_rows(
        u, [pc.center - r for pc, r in zip(pieces, half)], [pc.center + r for pc, r in zip(pieces, half)], 0.0
    )
    return _compose(u, radial_map, rows=rows)


def apply_thickening(u, cls, ell=None, mu=0.25, k=1, p=1.5, profile=None):
    """Compose with the per-cube radial thickening toward the dual skeleton of
    U^ell; for ell = m-1 the dual cells are the U-cube centers."""
    m = u.m
    if ell is None:
        ell = m - 1
    if k * p >= ell + 1:
        raise AdmissibilityViolation(f"kp={k * p} >= ell+1={ell + 1}")
    if ell != m - 1:
        raise NotImplementedError("thickening implemented for ell = m-1 (point dual skeleton)")
    if cls.all_good:
        return u.with_values(u.values.copy()), []
    if profile is None:
        profile = thickening_profile(1.0 - mu / 2.0, 1.0 - mu / 4.0)
    centers = cls.u_cube_centers()
    pieces = [
        _RadialPiece(center=c, scale=cls.cubication.radius, profile=profile, norm="inf")
        for c in centers
    ]
    out = _compose_radial(u, pieces)
    # the thickened map is singular exactly on Z^{ell*}; original singular
    # points are absorbed (their neighborhoods now carry shell values)
    mask = StructuredSingularSet.points([tuple(c) for c in centers])
    out = out.with_values(out.values, singular_mask=mask)
    return out, pieces


def thickening_certificate(field, mask_points):
    """max over sampled nodes of |Du| * d(., Z): the R_{ell*} derivative bound."""
    du = finite_difference(field, 1)
    d = distance_to_set(field.nodes().reshape(-1, field.m), StructuredSingularSet.points(mask_points))
    mag = du.magnitude().reshape(-1)
    keep = ~du.excluded.reshape(-1)
    return float(np.max(mag[keep] * d[keep]))


# ---------------------------------------------------------------------------
# Extension for circle targets
# ---------------------------------------------------------------------------


def extend_or_keep(u, cls, mu=0.25):
    """Remove degree-zero atoms by lifting on an annulus and radial-linear phase
    extension inward; keep nonzero-degree atoms and record the obstruction."""
    if u.target != 1:
        raise ValueError("extension step is specific to S^1 targets")
    if u.singular_mask is None or u.singular_mask.rank != 0:
        return u.with_values(u.values.copy()), [], []
    report = cell_degree_sweep(u)
    atoms = report.atoms
    eta = cls.cubication.eta
    r_out = mu * eta
    kept, removed = [], []
    vals = u.values.copy()
    nodes = u.nodes()
    for a in u.singular_mask.point_locations:
        a = np.asarray(a)
        local = [d for loc, d in atoms if np.max(np.abs(np.asarray(loc) - a)) <= cls.cubication.radius]
        degree = int(sum(local))
        if degree != 0:
            kept.append((tuple(a), degree))
            continue
        vals = _repair_zero_atom(u, vals, nodes, a, r_out)
        removed.append(tuple(a))
    new_mask = StructuredSingularSet.points(
        [loc for loc, _ in kept]
    ) if kept else StructuredSingularSet.empty()
    out = GridField(u.box, u.dims, vals, target=1, singular_mask=new_mask)
    return out, kept, removed


def _repair_zero_atom(u, vals, nodes, center, r_out):
    sinf = np.max(np.abs(nodes - center), axis=-1)
    ring = (sinf >= r_out / 2.0) & (sinf <= r_out)
    if np.sum(ring) < 8:
        raise LiftFailure("annulus too thin on this grid")
    theta_ring, components = unwrap_phase(np.arctan2(vals[..., 1], vals[..., 0]), ring)
    if components > 1:
        raise LiftFailure("annulus disconnected on this grid")
    theta_ring = np.where(ring, theta_ring, 0.0)
    r_ref = 0.75 * r_out
    inner = sinf < r_ref
    theta_bar = float(np.mean(theta_ring[ring]))
    y = nodes[inner] - center
    si = np.max(np.abs(y), axis=-1)
    si_safe = np.maximum(si, 1e-30)
    proj = center + y * (r_ref / si_safe)[:, None]
    theta_b = multilinear(theta_ring, u.box.lo, u.box.hi, u.dims, proj)
    theta_new = theta_bar + (si / r_ref) * (theta_b - theta_bar)
    vals = vals.copy()
    vals[inner] = np.stack([np.cos(theta_new), np.sin(theta_new)], axis=-1)
    return vals


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def apply_shrinking(u, cls, mu=0.25, tau=None, k=1, p=1.5, profile=None):
    """Confine the modified region to Q_{tau mu eta} around the dual skeleton."""
    m = u.m
    if tau is None:
        tau = mu / 4.0
    if not 0 < tau < mu < 0.5:
        raise AdmissibilityViolation(f"need 0 < tau={tau} < mu={mu} < 1/2")
    if k * p >= m:
        raise AdmissibilityViolation(f"kp={k * p} >= ell+1={m}")
    if u.singular_mask is None or u.singular_mask.rank != 0 or not u.singular_mask.pieces:
        return u.with_values(u.values.copy()), []
    L = 2.0 * mu * cls.cubication.radius
    tau_m = tau / (2.0 * mu)
    if profile is None:
        profile = shrinking_profile(r=0.5, rho=0.8, tau=tau_m, theta=1.5)
    pieces = [
        _RadialPiece(
            center=np.asarray(a),
            scale=L,
            profile=profile,
            norm="two",
            gamma_tau2=profile.gamma * profile.tau**2,
        )
        for a in u.singular_mask.point_locations
    ]
    return _compose_radial(u, pieces), pieces


# ---------------------------------------------------------------------------
# End-to-end driver
# ---------------------------------------------------------------------------


@dataclass
class PipelineParams:
    eta: float
    k: int = 1
    p: float = 1.5
    rho: float = 0.25
    mu: float = 0.25
    tau: float = None
    theta: float = 1.5
    iota: float = 0.2
    alpha: float = None  # default: iota (recorded deviation from the symbolic 4*iota)
    seed: int = 0

    def __post_init__(self):
        if self.tau is None:
            self.tau = self.mu / 4.0
        if self.alpha is None:
            self.alpha = self.iota
        if not self.eta > 0:
            raise AdmissibilityViolation("eta must be positive")
        if not 0 < self.rho < 0.5:
            raise AdmissibilityViolation("rho outside (0, 1/2)")
        if not 0 < self.tau < self.mu < 0.5:
            raise AdmissibilityViolation("need 0 < tau < mu < 1/2")
        if not 1 <= self.p < np.inf:
            raise AdmissibilityViolation("p outside [1, inf)")

    def to_dict(self):
        return {
            "eta": self.eta, "k": self.k, "p": self.p, "rho": self.rho,
            "mu": self.mu, "tau": self.tau, "theta": self.theta,
            "iota": self.iota, "alpha": self.alpha, "seed": self.seed,
        }


@dataclass
class StageRecord:
    stage: str
    distance_to_input: float
    distance_to_prev: float
    excluded_volume: float
    atoms: list
    extra: dict = field(default_factory=dict)


@dataclass
class PipelineReport:
    params: dict
    stages: list
    final_class: str
    final_atoms: list
    final_distance: float
    obstructed: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "report_version": 1,
            "params": self.params,
            "stages": [
                {
                    "stage": s.stage,
                    "distance_to_input": s.distance_to_input,
                    "distance_to_prev": s.distance_to_prev,
                    "excluded_volume": s.excluded_volume,
                    "atoms": [[list(map(float, loc)), int(d)] for loc, d in s.atoms],
                    **{k: v for k, v in s.extra.items() if _jsonable(v)},
                }
                for s in self.stages
            ],
            "final_class": self.final_class,
            "final_atoms": [[list(map(float, loc)), int(d)] for loc, d in self.final_atoms],
            "final_distance": self.final_distance,
            "obstructed": self.obstructed,
            **{k: v for k, v in self.extra.items() if _jsonable(v)},
        }


def _jsonable(v):
    return isinstance(v, (int, float, str, bool, list, dict, type(None)))


def _generic_inner_box(u, eta):
    """Inner box for the working cubication, offset so that no singular point
    sits near a face plane (the cubication-position genericity the continuum
    construction takes for free)."""
    probes = []
    if u.singular_mask is not None and u.singular_mask.rank == 0:
        probes = [np.asarray(a) for a in u.singular_mask.point_locations]
    else:
        try:
            probes = [np.asarray(loc) for loc, _ in cell_degree_sweep(u).atoms]
        except Undersampled:
            probes = []
    lo = np.array(u.box.lo) + eta
    hi = np.array(u.box.hi) - eta
    if not probes:
        return type(u.box)(u.m, tuple(lo), tuple(hi))
    offs = np.zeros(u.m)
    for ax in range(u.m):
        cands = np.linspace(-0.45, 0.45, 19) * eta
        best, best_margin = 0.0, -1.0
        for d in cands:
            if lo[ax] + d < u.box.lo[ax] + eta / 2 or hi[ax] + d > u.box.hi[ax] - eta / 2:
                continue
            fr = np.array([((pt[ax] - lo[ax] - d) / eta) % 1.0 for pt in probes])
            margin = float(np.min(np.minimum(fr, 1.0 - fr)))
            if margin > best_margin + 1e-12:
                best, best_margin = d, margin
        offs[ax] = best
    return type(u.box)(u.m, tuple(lo + offs), tuple(hi + offs))


def run_pipeline(u, params):
    """classify -> open (the full skeleton, and its U part) -> adaptive smooth
    -> project -> thicken -> extend-or-keep (S^1) -> shrink -> project."""
    if u.target is None or u.nu != u.m:
        raise AdmissibilityViolation("pipeline expects an S^{m-1}-valued field on an m-box")
    if params.k * params.p >= u.m:
        raise AdmissibilityViolation(f"kp={params.k * params.p} >= m={u.m}")
    ell = int(np.floor(params.k * params.p))
    if ell != u.m - 1:
        raise AdmissibilityViolation("driver supports floor(kp) = m-1 (thickening to point duals)")
    stages = []
    k, p = params.k, params.p

    def record(name, fld, prev, atoms=None, **extra):
        """One stage record; ``atoms`` is the stage's sweep if the caller has it."""
        d_in = sobolev_distance(fld, u, k=k, p=p)
        d_prev = d_in if prev is u else sobolev_distance(fld, prev, k=k, p=p)
        if atoms is None and fld.target is not None:
            try:
                atoms = cell_degree_sweep(fld).atoms
            except Undersampled as e:
                extra["atoms_error"] = f"Undersampled: {e}"
        stages.append(StageRecord(stage=name, distance_to_input=d_in.value, distance_to_prev=d_prev.value,
                                  excluded_volume=d_in.excluded_volume, atoms=atoms or [], extra=extra))

    eta_r = params.eta / 2.0
    stage = "cubication"
    try:
        cub = Cubication(_generic_inner_box(u, params.eta), params.eta)

        stage = "classify"
        cls = classify_cubes(u, cub, alpha=params.alpha, iota=params.iota, rho=params.rho, k=k, p=p)
        record(stage, u, u, n_bad=len(cls.bad), n_u=len(cls.padded), bound_constant=cls.bound_constant)

        stage = "open"
        nodes = u.nodes()
        d_u = cls.dist_inf_to(nodes, "u")
        outside_u = d_u > 0
        if cls.padded:
            w = maximal_function_detector(u, p=k * p)
            u_fop, omap, _ = open_on_skeleton(u, cls, "S", ell, w, seed=params.seed)
            u_op, _, sob_u = _u_opening(u, cls, ell, omap)
            # dual-opening consistency on U^m + Q_{rho eta/2}: the translates are
            # shared, so this checks that no piece of a face outside U reaches it
            sel = d_u <= params.rho * eta_r
            fop_dev = float(np.max(np.abs(u_op.values[sel] - u_fop.values[sel]))) if np.any(sel) else 0.0
        else:  # no U cube: nothing is opened and no report reads the walk
            u_op, sob_u, fop_dev = u.with_values(u.values.copy()), {}, 0.0
        record(stage, u_op, u, fop_consistency=fop_dev,
               sobolev_constant=max(sob_u.values(), default=0.0))

        stage = "smooth"
        d_bad = cls.dist_inf_to(nodes, "bad")
        zeta = ramp(d_bad, params.rho * eta_r / 2.0, 3.0 * params.rho * eta_r / 4.0)
        t = params.rho * eta_r / 30.0
        d_boundary = np.min(
            np.minimum(nodes - np.array(u.box.lo), np.array(u.box.hi) - nodes), axis=-1
        )
        s_par = t / 2.0
        for _ in range(40):
            psi = np.minimum(t * zeta + s_par * (1.0 - zeta), 0.9 * d_boundary)
            u_sm = adaptive_smooth(u_op, psi)
            norms = np.linalg.norm(u_sm.values, axis=-1)
            off = np.abs(norms - 1.0)
            if not np.any(outside_u) or float(np.max(off[outside_u])) <= params.iota:
                break
            s_par /= 2.0
        else:
            raise StageError(stage, params.to_dict(), RuntimeError("tubular inclusion never passed"))
        record(stage, u_sm, u_op, s=s_par, t=t)

        stage = "project"
        vals = u_sm.values.copy()
        nn = np.linalg.norm(vals[outside_u], axis=-1, keepdims=True)
        vals[outside_u] = vals[outside_u] / np.where(nn > 1e-12, nn, 1.0)
        u_pr = u_sm.with_values(vals, target=None)
        record(stage, u_pr, u_sm)

        stage = "thicken"
        u_th, _ = apply_thickening(u_pr, cls, ell=ell, mu=params.mu, k=k, p=p)
        # global projection (mask-adjacent nodes excluded from the check)
        u_th = project_to_sphere(
            u_th.with_values(u_th.values, target=None), iota=min(0.9, 2 * params.iota)
        )
        cert = (
            thickening_certificate(u_th, u_th.singular_mask.point_locations)
            if u_th.singular_mask and u_th.singular_mask.rank == 0
            else 0.0
        )
        record(stage, u_th, u_pr, r_certificate=cert)

        if u.target == 1:
            stage = "extend"
            u_ex, kept, removed = extend_or_keep(u_th, cls, mu=params.mu)
            record(stage, u_ex, u_th, kept=[[list(map(float, a)), int(d)] for a, d in kept],
                   removed=[list(map(float, a)) for a in removed])
        else:
            # no extension step for higher spheres: atoms are reported, never removed
            u_ex = u_th

        stage = "shrink"
        u_sh, _ = apply_shrinking(u_ex, cls, mu=params.mu, tau=params.tau, k=k, p=p)
        record(stage, u_sh, u_ex)

        stage = "final_project"
        u_fin = project_to_sphere(u_sh.with_values(u_sh.values, target=None), iota=min(0.9, 2 * params.iota))
        final_atoms = cell_degree_sweep(u_fin).atoms
        record(stage, u_fin, u_sh, atoms=final_atoms)
    except (StageError, ValidationError):
        raise
    except Exception as e:
        raise StageError(stage, params.to_dict(), e)

    obstructed = bool(final_atoms)
    final_class = "R_0" if obstructed else "smooth"
    d_final = stages[-1].distance_to_input
    ledger_sum = sum(s.distance_to_prev for s in stages)
    return PipelineReport(
        params=params.to_dict(),
        stages=stages,
        final_class=final_class,
        final_atoms=final_atoms,
        final_distance=d_final,
        obstructed=obstructed,
        extra={"stage_distance_sum": ledger_sum, "field": u_fin},
    )
