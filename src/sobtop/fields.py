"""Discrete sphere-valued maps: derivatives, norms, oscillation, projection, lifting.

Fields are sampled on a vertex grid (nodes include the box corners, spacing
h_i = side_i/(dims_i-1)); quadrature uses the dual-cell midpoint weights.
Cells near the structured singular set are excluded from norms and their
total volume is reported instead of silently dropped.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .errors import (
    CurveHitsSingularSet,
    GridTooCoarse,
    NonzeroHolonomy,
    OutsideTubularNeighborhood,
    ValidationError,
)
from .geometry import Box, distance_to_set
from .util import (
    axis_nodes,
    multilinear,
    node_mesh,
    pairwise_mean_abs_diff,
    pairwise_sq_dist,
    trapezoid_weights,
    wrap_angle,
)


def grid_dims(dims):
    """``dims`` as a tuple of ints; raises GridTooCoarse below 4 nodes per axis."""
    dims = tuple(int(d) for d in dims)
    if any(d < 4 for d in dims):
        raise GridTooCoarse(f"dims {dims} below the minimum of 4 per axis")
    return dims


@dataclass
class GridField:
    box: Box
    dims: tuple
    values: np.ndarray  # (*dims, nu)
    target: int | None = None  # n for S^n targets, None for unconstrained
    singular_mask: object = None  # StructuredSingularSet or None

    def __post_init__(self):
        self.dims = grid_dims(self.dims)
        if self.values.shape[: len(self.dims)] != self.dims:
            raise ValueError("values shape disagrees with dims")
        if self.values.ndim == len(self.dims):
            self.values = self.values[..., None]
        if self.target is not None:
            if self.nu != self.target + 1:
                raise ValidationError(f"target S^{self.target} needs {self.target + 1} components, got {self.nu}")
            norms = np.linalg.norm(self.values, axis=-1)
            bad = np.abs(norms - 1.0) > 1e-9
            unmasked = ~self.excluded_nodes()
            if np.any(bad & unmasked):
                node = np.argwhere(bad & unmasked)[0]
                dev = abs(norms[tuple(node)] - 1.0)
                raise ValueError(f"target set but node {tuple(node)} off-sphere by {dev:.2e}")

    @property
    def m(self):
        return self.box.m

    @property
    def nu(self):
        return self.values.shape[-1]

    @property
    def h(self):
        return tuple((b - a) / (d - 1) for a, b, d in zip(self.box.lo, self.box.hi, self.dims))

    @property
    def hmax(self):
        return max(self.h)

    def axes(self):
        return axis_nodes(self.box.lo, self.box.hi, self.dims)

    def nodes(self):
        return node_mesh(self.box.lo, self.box.hi, self.dims)

    def weights(self):
        return trapezoid_weights(self.box.lo, self.box.hi, self.dims)

    def excluded_nodes(self, rings=0):
        """Nodes within (1+rings) spacings of the singular set (True = excluded)."""
        if self.singular_mask is None or self.singular_mask.rank < 0:
            return np.zeros(self.dims, dtype=bool)
        pts = self.nodes().reshape(-1, self.m)
        d = distance_to_set(pts, self.singular_mask).reshape(self.dims)
        core = d <= self.hmax * 1.0001
        if rings > 0:
            core = ndimage.binary_dilation(
                core, structure=ndimage.generate_binary_structure(self.m, self.m), iterations=rings
            )
        return core

    def interp(self, points):
        return multilinear(self.values, self.box.lo, self.box.hi, self.dims, np.asarray(points))

    def with_values(self, values, target="keep", singular_mask="keep"):
        return replace(
            self,
            values=values,
            target=self.target if target == "keep" else target,
            singular_mask=self.singular_mask if singular_mask == "keep" else singular_mask,
        )


# ---------------------------------------------------------------------------
# Mollifier
# ---------------------------------------------------------------------------


@dataclass
class Mollifier:
    """Radial bump c*exp(-1/(1-|z|^2)) on the unit ball of R^m."""

    m: int

    def __post_init__(self):
        from scipy.integrate import quad

        surface = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi, 4: 2.0 * np.pi**2}[self.m]
        radial, _ = quad(
            lambda r: np.exp(-1.0 / (1.0 - r * r)) * r ** (self.m - 1), 0.0, 1.0
        )
        self.c = 1.0 / (surface * radial)

    def __call__(self, z):
        z = np.atleast_2d(z)
        q = np.sum(z * z, axis=-1)
        out = np.zeros(q.shape)
        inside = q < 1.0
        out[inside] = self.c * np.exp(-1.0 / (1.0 - q[inside]))
        return out

    def quad(self, n_per_axis=8):
        """Midpoint tensor quadrature on the support; weights renormalized to sum exactly 1."""
        ax = -1.0 + (np.arange(n_per_axis) + 0.5) * (2.0 / n_per_axis)
        grids = np.meshgrid(*([ax] * self.m), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        w = self(pts)
        keep = w > 0
        pts, w = pts[keep], w[keep]
        return pts, w / np.sum(w)


# ---------------------------------------------------------------------------
# Derivatives and Sobolev norms
# ---------------------------------------------------------------------------


@dataclass
class DerivativeField:
    order: int
    data: np.ndarray  # order 1: (*dims, m, nu); order 2: (*dims, m, m, nu)
    excluded: np.ndarray  # (*dims,) bool

    def magnitude(self):
        axes = tuple(range(-self.order - 1, 0))
        return np.sqrt(np.sum(self.data**2, axis=axes))


def finite_difference(u, order=1):
    """Central differences (2nd order; one-sided at the boundary).

    Exact on degree-1 polynomials.  Nodes whose stencil touches the singular
    set are flagged excluded.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if any(d < 2 * order + 2 for d in u.dims):
        raise GridTooCoarse(f"dims {u.dims} too small for order-{order} stencils")
    h = u.h
    grads = [np.gradient(u.values, h[i], axis=i, edge_order=2) for i in range(u.m)]
    d1 = np.stack(grads, axis=-2)  # (*dims, m, nu)
    excluded = u.excluded_nodes(rings=order)
    if order == 1:
        return DerivativeField(1, d1, excluded)
    rows = []
    for i in range(u.m):
        rows.append(
            np.stack([np.gradient(d1[..., i, :], h[j], axis=j, edge_order=2) for j in range(u.m)], axis=-2)
        )
    d2 = np.stack(rows, axis=-3)  # (*dims, m, m, nu)
    return DerivativeField(2, d2, excluded)


@dataclass
class SobolevReport:
    value: float
    lp: float
    derivative_terms: tuple
    excluded_volume: float

    def __float__(self):
        return self.value


def sobolev_norm(u, k=1, p=2.0):
    """||u||_{L^p} + (sum_j ||D^j u||_p^p)^{1/p} with excluded cells carrying zero weight."""
    if not 1 <= p < np.inf:
        raise ValueError("p must be in [1, inf)")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    w = u.weights()
    derivs = [finite_difference(u, order=j) for j in range(1, k + 1)]
    excluded = u.excluded_nodes()
    for d in derivs:
        excluded = excluded | d.excluded
    keep = (~excluded).astype(float)
    vol_excluded = float(np.sum(w * (1.0 - keep)))
    mag0 = np.linalg.norm(u.values, axis=-1)
    lp = float(np.sum(w * keep * mag0**p) ** (1.0 / p))
    terms = []
    acc = 0.0
    for d in derivs:
        t = float(np.sum(w * keep * d.magnitude() ** p))
        terms.append(t ** (1.0 / p))
        acc += t
    return SobolevReport(lp + acc ** (1.0 / p), lp, tuple(terms), vol_excluded)


def sobolev_distance(u, v, k=1, p=2.0):
    """W^{k,p} distance between two fields on the same grid (masks unioned)."""
    if u.dims != v.dims or u.box != v.box:
        raise ValueError("fields live on different grids")
    diff = u.values - v.values
    mask = _union_masks(u.singular_mask, v.singular_mask)
    f = GridField(u.box, u.dims, diff, target=None, singular_mask=mask)
    return sobolev_norm(f, k=k, p=p)


def _union_masks(a, b):
    from .geometry import StructuredSingularSet

    if a is None or a.rank < 0:
        return b
    if b is None or b.rank < 0:
        return a
    rank = max(a.rank, b.rank)
    pieces = tuple(
        pc if len(pc.spans) == rank else _pad_piece(pc, rank) for pc in (a.pieces + b.pieces)
    )
    return StructuredSingularSet(rank=rank, pieces=pieces)


def _pad_piece(pc, rank):
    # lift a lower-rank piece to a degenerate higher-rank one (zero-length spans)
    from .geometry import Piece

    extra = rank - len(pc.spans)
    fixed = list(pc.fixed)
    spans = list(pc.spans)
    for _ in range(extra):
        axis, v = fixed.pop()
        spans.append((axis, v, v))
    return Piece(fixed=tuple(fixed), spans=tuple(spans))


# ---------------------------------------------------------------------------
# Mean oscillation and the fractional seminorm
# ---------------------------------------------------------------------------


@dataclass
class OscillationReport:
    radii: tuple
    values: tuple
    sup_centers: int


def mean_oscillation(v, radii, domain_mask=None, pair_cap=400, center_spacing_factor=0.5):
    """[v]_rho: sup over a center lattice of the double average of |v(y)-v(z)| on balls.

    The sup is taken over a deterministic lattice of spacing rho/2; balls with
    more than ``pair_cap`` nodes are strided down before forming pairs.  By the
    triangle inequality through the ball's mean vbar, a ball's double average
    is at most 2 * mean_i |v_i - vbar|, an O(n) bound; the balls are evaluated
    in descending order of it until no bound left can reach the best value.
    The sup is a max, so it is exact: the same value as scanning every ball.
    """
    diam = v.box.diameter
    radii = tuple(float(r) for r in radii)
    for r in radii:
        if not 0 < r <= diam:
            raise ValueError(f"radius {r} outside (0, diam]")
    pts = v.nodes().reshape(-1, v.m)
    vals = v.values.reshape(-1, v.nu)
    if domain_mask is not None:
        keep = domain_mask.reshape(-1)
        pts, vals = pts[keep], vals[keep]
    # nondecreasing, because the nodes are in C order and the mask keeps it
    first = pts[:, 0]
    out = []
    ncenters = 0
    for rho in radii:
        spacing = rho * center_spacing_factor
        axes = [
            np.arange(v.box.lo[i], v.box.hi[i] + spacing / 2, spacing) for i in range(v.m)
        ]
        centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, v.m)
        # also try a strided subset of actual domain nodes, so the sup cannot
        # miss a distinguished point that falls between lattice sites
        stride = max(1, len(pts) // 512)
        centers = np.concatenate([centers, pts[::stride]], axis=0)
        ncenters = len(centers)
        # each ball lies in the slab |x_0 - c_0| <= rho, widened for rounding
        reach = rho + 1e-9 * (rho + np.abs(centers[:, 0]))
        starts = np.searchsorted(first, centers[:, 0] - reach, side="left")
        stops = np.searchsorted(first, centers[:, 0] + reach, side="right")
        balls, bounds = [], []
        for c, a, b in zip(centers, starts, stops):
            d2 = pairwise_sq_dist(pts[a:b], c[None])[:, 0]
            idx = a + np.nonzero(d2 <= rho * rho)[0]
            if len(idx) < 2:
                continue
            if len(idx) > pair_cap:
                idx = idx[:: int(np.ceil(len(idx) / pair_cap))]
            ball = vals[idx]
            spread = np.sqrt(pairwise_sq_dist(ball, np.mean(ball, axis=0)[None])[:, 0])
            balls.append(ball)
            bounds.append(2.0 * float(np.mean(spread)))
        best = 0.0
        for k in np.argsort(bounds)[::-1]:
            if bounds[k] * (1.0 + 1e-9) < best:
                break
            best = max(best, pairwise_mean_abs_diff(balls[k]))
        out.append(best)
    return OscillationReport(radii=radii, values=tuple(out), sup_centers=ncenters)


@dataclass
class FractionalReport:
    value: float
    cutoff: float
    stride: int
    pairs: int

    def __float__(self):
        return self.value


def fractional_seminorm(u, s, p, max_pairs=int(1e8)):
    """Gagliardo seminorm (double-sum quadrature), diagonal excluded below one cell diameter."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must be in (0,1)")
    pts = u.nodes().reshape(-1, u.m)
    w = u.weights().reshape(-1)
    vals = u.values.reshape(-1, u.nu)
    keep = ~u.excluded_nodes().reshape(-1)
    pts, w, vals = pts[keep], w[keep], vals[keep]
    n = len(pts)
    stride = 1
    while (n // stride) ** 2 > max_pairs:
        stride += 1
    if stride > 1:
        sel = slice(None, None, stride)
        factor = n / len(pts[sel])
        pts, vals = pts[sel], vals[sel]
        w = w[sel] * factor
        n = len(pts)
    cutoff = float(np.linalg.norm(u.h))
    total = 0.0
    pairs = 0
    block = max(1, int(2e6 // max(n, 1)))
    for start in range(0, n, block):
        sl = slice(start, min(start + block, n))
        dist = np.sqrt(pairwise_sq_dist(pts[sl], pts))
        dv = np.sqrt(pairwise_sq_dist(vals[sl], vals))
        ok = dist >= cutoff
        pairs += int(np.sum(ok))
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(ok, dv**p / np.where(ok, dist, 1.0) ** (s * p + u.m), 0.0)
        total += float(np.sum(integrand * w[sl, None] * w[None, :]))
    return FractionalReport(total ** (1.0 / p), cutoff, stride, pairs)


# ---------------------------------------------------------------------------
# Projection to the sphere and circle lifting
# ---------------------------------------------------------------------------


def project_to_sphere(u, iota=0.2):
    """Nearest-point projection u/|u| onto S^n; every unmasked node must lie
    within iota of the sphere, otherwise the failing node is reported so the
    caller can shrink its smoothing parameter."""
    if not 0 < iota < 1:
        raise ValueError("iota must be in (0,1)")
    norms = np.linalg.norm(u.values, axis=-1)
    unmasked = ~u.excluded_nodes()
    bad = (np.abs(norms - 1.0) > iota) & unmasked
    if np.any(bad):
        node = tuple(np.argwhere(bad)[0])
        raise OutsideTubularNeighborhood(node, abs(norms[node] - 1.0))
    safe = np.where(norms > 1e-12, norms, 1.0)
    vals = u.values / safe[..., None]
    return u.with_values(vals, target=u.nu - 1)


def circle_lift(u):
    """Continuous phase of an S^1-valued field (adjacent jumps < pi), anchored
    by atan2 at the lowest-index unmasked node of each component."""
    if u.target != 1 or u.nu != 2:
        raise ValueError("circle_lift needs an S^1-valued field")
    theta, _ = unwrap_phase(np.arctan2(u.values[..., 1], u.values[..., 0]), ~u.excluded_nodes())
    return u.with_values(theta[..., None], target=None)


def unwrap_phase(phase, ok):
    """Depth-first unwrap of a grid phase over the nodes where ``ok``, each
    connected component anchored at its lowest-index node.  Returns the lifted
    phase (nan off ``ok``) and the number of components; raises
    NonzeroHolonomy if an adjacent pair of ``ok`` nodes still jumps by pi."""
    dims = phase.shape
    theta = np.full(dims, np.nan)
    visited = np.zeros(dims, dtype=bool)
    components = 0
    for root in map(tuple, np.argwhere(ok)):
        if visited[root]:
            continue
        components += 1
        theta[root] = phase[root]
        visited[root] = True
        stack = [root]
        while stack:
            cur = stack.pop()
            for axis in range(len(dims)):
                for step in (-1, 1):
                    nxt = list(cur)
                    nxt[axis] += step
                    if not (0 <= nxt[axis] < dims[axis]):
                        continue
                    nxt = tuple(nxt)
                    if visited[nxt] or not ok[nxt]:
                        continue
                    theta[nxt] = theta[cur] + wrap_angle(phase[nxt] - phase[cur])
                    visited[nxt] = True
                    stack.append(nxt)
    for axis in range(len(dims)):
        a = [slice(None)] * len(dims)
        b = [slice(None)] * len(dims)
        a[axis] = slice(None, -1)
        b[axis] = slice(1, None)
        both = ok[tuple(a)] & ok[tuple(b)]
        jump = np.abs(theta[tuple(b)] - theta[tuple(a)])
        bad = both & (jump >= np.pi - 1e-9)
        if np.any(bad):
            raise NonzeroHolonomy(loop=(tuple(np.argwhere(bad)[0]), axis))
    return theta, components


# ---------------------------------------------------------------------------
# Restriction to parametrized circles and spheres
# ---------------------------------------------------------------------------


@dataclass
class SampledSphereMap:
    """Values of a map S^ell -> S^n at the vertices of a triangulated sphere."""

    sphere: object  # TriangulatedSphere
    values: np.ndarray  # (V, nu)

    @property
    def nu(self):
        return self.values.shape[-1]

    def cycle_values(self):
        return self.values[self.sphere.cycle()]


def restrict_to_curve(u, gamma):
    """Multilinear samples of u along gamma, renormalized onto the target sphere."""
    pts = gamma.samples
    if not np.all(u.box.contains(pts)):
        raise ValueError("gamma leaves the field's box")
    if u.singular_mask is not None and u.singular_mask.rank >= 0:
        d = distance_to_set(pts, u.singular_mask)
        if np.any(d <= u.hmax):
            raise CurveHitsSingularSet(f"gamma within one cell of the singular set (min d={d.min():.3g})")
    vals = u.interp(pts)
    if u.target is not None:
        norms = np.linalg.norm(vals, axis=-1, keepdims=True)
        vals = vals / np.where(norms > 1e-12, norms, 1.0)
    return SampledSphereMap(sphere=gamma.sphere, values=vals)
