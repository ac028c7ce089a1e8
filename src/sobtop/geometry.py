"""Cubications, skeletons, dual skeletons, structured singular sets, triangulated spheres.

Integer face keys live in units of eta/2 relative to the box corner, so face
deduplication and dual-skeleton translation are exact integer arithmetic.
Cube centers have all-odd keys; a primal j-face has exactly j odd (spanned)
coordinates, a dual cell has even spanned coordinates.
"""

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .errors import DegenerateBox, NonDivisibleEta
from .util import philox


@dataclass(frozen=True)
class Box:
    m: int
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if not (2 <= self.m <= 4):
            raise DegenerateBox(f"dimension {self.m} outside supported range 2..4")
        if len(self.lo) != self.m or len(self.hi) != self.m:
            raise DegenerateBox("lo/hi length mismatch")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise DegenerateBox(f"empty axis range [{a}, {b}]")

    @property
    def sides(self):
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def volume(self):
        return float(np.prod(self.sides))

    @property
    def diameter(self):
        return float(np.linalg.norm(self.sides))

    def contains(self, points, margin=0.0):
        p = np.atleast_2d(points)
        lo = np.array(self.lo) + margin
        hi = np.array(self.hi) - margin
        return np.all((p >= lo) & (p <= hi), axis=-1)

    def shrunk(self, margin):
        return Box(self.m, tuple(a + margin for a in self.lo), tuple(b - margin for b in self.hi))


def unit_box(m):
    return Box(m, (-1.0,) * m, (1.0,) * m)


@dataclass(frozen=True)
class Face:
    """Axis-aligned cube face; center_units is integer in steps of eta/2 from box.lo."""

    center_units: tuple
    span: tuple  # axis indices along which the face extends (+-eta/2)

    @property
    def dim(self):
        return len(self.span)


@dataclass(frozen=True)
class Piece:
    """One affine piece of a structured singular set: some axes pinned, others ranging."""

    fixed: tuple  # ((axis, value), ...)
    spans: tuple  # ((axis, lo, hi), ...)

    def distance_sq(self, points):
        p = np.atleast_2d(points)
        d2 = np.zeros(p.shape[0])
        for axis, v in self.fixed:
            d2 += (p[:, axis] - v) ** 2
        for axis, lo, hi in self.spans:
            excess = np.maximum.reduce([lo - p[:, axis], p[:, axis] - hi, np.zeros(p.shape[0])])
            d2 += excess**2
        return d2


@dataclass(frozen=True)
class StructuredSingularSet:
    rank: int  # -1 means empty
    pieces: tuple = ()

    def __post_init__(self):
        if self.rank >= 0 and not self.pieces:
            raise ValueError("nonempty rank requires at least one piece")
        for pc in self.pieces:
            if len(pc.spans) != self.rank:
                raise ValueError("piece dimension disagrees with rank")

    @staticmethod
    def empty():
        return StructuredSingularSet(rank=-1)

    @staticmethod
    def points(locations):
        pcs = tuple(Piece(fixed=tuple(enumerate(map(float, a))), spans=()) for a in locations)
        return StructuredSingularSet(rank=0, pieces=pcs)

    @property
    def point_locations(self):
        if self.rank != 0:
            raise ValueError("not a rank-0 set")
        return [tuple(v for _, v in pc.fixed) for pc in self.pieces]


def distance_to_set(points, sing):
    """Euclidean distance from point(s) to a structured singular set; +inf for rank -1."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    if sing is None or sing.rank < 0:
        out = np.full(p.shape[0], np.inf)
    else:
        d2 = np.full(p.shape[0], np.inf)
        for pc in sing.pieces:
            d2 = np.minimum(d2, pc.distance_sq(p))
        out = np.sqrt(d2)
    if np.asarray(points).ndim == 1:
        return float(out[0])
    return out


class Cubication:
    """Tiling of a box by axis-aligned cubes of side ``eta`` with all skeletons.

    ``eta`` is the cube side; the half-side ``radius = eta/2`` plays the role of
    the padding scale in every neighborhood formula.
    """

    def __init__(self, box, eta):
        self.box = box
        self.eta = float(eta)
        self.radius = self.eta / 2.0
        n = []
        for side in box.sides:
            k = side / self.eta
            if abs(k - round(k)) > 1e-12 * max(1.0, abs(k)):
                raise NonDivisibleEta(f"side {side} not an integer multiple of eta={eta}")
            n.append(int(round(k)))
        self.counts = tuple(n)
        self._skeletons = {}
        self._duals = {}

    @property
    def m(self):
        return self.box.m

    @property
    def cube_units(self):
        """Integer centers (all odd) of every cube."""
        ranges = [range(1, 2 * c, 2) for c in self.counts]
        return [tuple(u) for u in product(*ranges)]

    def units_to_coords(self, units):
        u = np.atleast_2d(np.asarray(units, dtype=float))
        if u.size == 0:
            return np.zeros((0, self.m))
        return np.array(self.box.lo) + self.radius * u

    @property
    def cubes(self):
        return self.units_to_coords(self.cube_units)

    def cube_faces(self, center_units, j):
        """All j-faces of the cube with the given integer center."""
        m = self.m
        out = []
        for fixed_axes in combinations(range(m), m - j):
            span = tuple(a for a in range(m) if a not in fixed_axes)
            for signs in product((-1, 1), repeat=m - j):
                c = list(center_units)
                for a, s in zip(fixed_axes, signs):
                    c[a] += s
                out.append(Face(tuple(c), span))
        return out

    def skeleton(self, j):
        """S^j: every j-face of every cube, deduplicated."""
        if j not in self._skeletons:
            seen = {}
            for cu in self.cube_units:
                for f in self.cube_faces(cu, j):
                    seen[f.center_units] = f
            self._skeletons[j] = sorted(seen.values(), key=lambda f: f.center_units)
        return self._skeletons[j]

    def dual_skeleton(self, ell):
        """T^{ell*}: translates sigma^{ell*} + x - a over cubes a and their vertices x,
        kept when contained in the box."""
        if ell not in self._duals:
            m = self.m
            lstar = m - ell - 1
            seen = {}
            if lstar >= 0:
                for cu in self.cube_units:
                    sigmas = self.cube_faces(cu, lstar)
                    for t in product((-1, 1), repeat=m):
                        for sg in sigmas:
                            c = tuple(ci + ti for ci, ti in zip(sg.center_units, t))
                            if self._cell_inside(c, sg.span):
                                seen[(c, sg.span)] = Face(c, sg.span)
            self._duals[ell] = sorted(seen.values(), key=lambda f: (f.center_units, f.span))
        return self._duals[ell]

    def _cell_inside(self, center_units, span):
        for i, c in enumerate(center_units):
            ext = 1 if i in span else 0
            if c - ext < 0 or c + ext > 2 * self.counts[i]:
                return False
        return True

    def face_center(self, f):
        return self.units_to_coords([f.center_units])[0]

    def face_as_piece(self, f):
        """Geometric realization of a face as a structured-set piece."""
        c = self.face_center(f)
        fixed = tuple((i, float(c[i])) for i in range(self.m) if i not in f.span)
        spans = tuple((i, float(c[i] - self.radius), float(c[i] + self.radius)) for i in f.span)
        return Piece(fixed=fixed, spans=spans)

    def faces_to_set(self, faces, rank):
        if not faces:
            return StructuredSingularSet.empty()
        return StructuredSingularSet(rank=rank, pieces=tuple(self.face_as_piece(f) for f in faces))


# ---------------------------------------------------------------------------
# Triangulated spheres
# ---------------------------------------------------------------------------


def _orient_positive(vertices, simplices):
    """Reorder each simplex so det[v0..vk] > 0 (outward orientation for radial meshes)."""
    M = vertices[simplices]
    d = np.linalg.det(M)
    flip = d < 0
    simplices = simplices.copy()
    if simplices.shape[1] >= 2:
        simplices[flip] = simplices[flip][:, list(range(simplices.shape[1] - 2)) + [-1, -2]]
    return simplices


def sort_parity(rows):
    """+1.0 or -1.0 per row of distinct integers: the parity of the permutation that sorts it."""
    rows = np.asarray(rows)
    pairs = combinations(range(rows.shape[-1]), 2)
    inversions = sum((rows[..., i] > rows[..., j] for i, j in pairs), np.zeros(rows.shape[:-1], dtype=int))
    return np.where(inversions % 2 == 0, 1.0, -1.0)


def distinct_simplices(rows, n):
    """Index the simplices ``rows`` (..., k), given by vertex indices below ``n``
    in any order, by their distinct vertex sets.

    The distinct simplices are numbered in the lexicographic order of their
    sorted vertices (an int64 key each).  Returns the array of those numbers,
    shaped like ``rows[..., 0]``, and the flat position in it of each distinct
    simplex's first occurrence.
    """
    s = np.sort(rows, axis=-1).astype(np.int64)
    if n ** s.shape[-1] > np.iinfo(np.int64).max:
        raise OverflowError(f"{n} vertices are too many for int64 keys of {s.shape[-1]}-vertex simplices")
    keys = np.zeros(s.shape[:-1], dtype=np.int64)
    for j in range(s.shape[-1]):
        keys = keys * n + s[..., j]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return inverse.reshape(keys.shape), first


# Midpoint subdivision of a triangle (a, b, c) or a tetrahedron (a, b, c, d):
# the edges in the order their midpoints are numbered (first encounter first),
# and the children as positions in the row (vertices..., midpoints...).
_SUBDIVISION = {
    3: (
        ((0, 1), (1, 2), (2, 0)),  # ab, bc, ca
        ((0, 3, 5), (3, 1, 4), (5, 4, 2), (3, 4, 5)),
    ),
    4: (
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),  # ab, ac, ad, bc, bd, cd
        ((0, 4, 5, 6), (4, 1, 7, 8), (5, 7, 2, 9), (6, 8, 9, 3),
         (4, 5, 6, 8), (4, 5, 7, 8), (5, 6, 8, 9), (5, 7, 8, 9)),
    ),
}


def _subdivide(vertices, simplices):
    """Split every simplex at its edge midpoints, pushed out to the unit sphere."""
    k = simplices.shape[1]
    edges, children = _SUBDIVISION[k]
    ends = simplices[:, edges]
    table, first = distinct_simplices(ends, len(vertices))
    number = np.empty_like(first)
    number[np.argsort(first)] = np.arange(len(vertices), len(vertices) + len(first))
    a, b = ends.reshape(-1, 2)[np.sort(first)].T
    mid = vertices[a] + vertices[b]
    # a row-wise dot through matmul rounds as the 1-D np.linalg.norm does
    mid = mid / np.sqrt(mid[:, None, :] @ mid[:, :, None])[:, 0]
    rows = np.concatenate([simplices, number[table]], axis=1)
    return np.concatenate([vertices, mid]), rows[:, children].reshape(-1, k)


def solid_angles(a, b, c):
    """Signed solid angles of spherical triangles (Van Oosterom-Strackee)."""
    num = np.einsum("...i,...i->...", a, np.cross(b, c))
    den = (
        1.0
        + np.einsum("...i,...i->...", a, b)
        + np.einsum("...i,...i->...", b, c)
        + np.einsum("...i,...i->...", c, a)
    )
    return 2.0 * np.arctan2(num, den)


class TriangulatedSphere:
    """Oriented simplicial S^dim (dim in 1..3) from subdividing the cross-polytope boundary."""

    def __init__(self, dim, refinement):
        if dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if refinement < 0:
            raise ValueError(f"refinement must be >= 0, got {refinement}")
        self.dim = dim
        self.refinement = int(refinement)
        if dim == 1:
            n = 4 * (1 << self.refinement)
            ang = 2.0 * np.pi * np.arange(n) / n
            self.vertices = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            self.simplices = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        else:
            verts, simps = _cross_polytope(dim + 1)
            for _ in range(self.refinement):
                verts, simps = _subdivide(verts, simps)
                simps = _orient_positive(verts, simps)
            self.vertices, self.simplices = verts, simps

    def cycle(self):
        """Vertex indices in cyclic order (dim 1 only)."""
        if self.dim != 1:
            raise ValueError("cycle() is for dim 1")
        return np.arange(len(self.vertices))

    def param_measure(self):
        """|S^dim| of the unit sphere (parameter-space measure)."""
        return {1: 2.0 * np.pi, 2: 4.0 * np.pi, 3: 2.0 * np.pi**2}[self.dim]

    def measure(self, extra_refine=2):
        """Total solid measure covered by the complex (exact tiling up to fp for dim<=2)."""
        if self.dim == 1:
            v = self.vertices[self.simplices]
            dots = np.clip(np.einsum("si,si->s", v[:, 0], v[:, 1]), -1.0, 1.0)
            return float(np.sum(np.arccos(dots)))
        if self.dim == 2:
            v = self.vertices[self.simplices]
            return float(np.sum(solid_angles(v[:, 0], v[:, 1], v[:, 2])))
        verts, tets = self.vertices, self.simplices
        for _ in range(extra_refine):
            verts, tets = _subdivide(verts, tets)
        return float(np.sum(np.abs(np.linalg.det(verts[tets]))) / 6.0)

    def simplex_measures(self):
        """Per-simplex spherical measures (dim 1: arcs; dim 2: solid angles)."""
        v = self.vertices[self.simplices]
        if self.dim == 1:
            dots = np.clip(np.einsum("si,si->s", v[:, 0], v[:, 1]), -1.0, 1.0)
            return np.arccos(dots)
        if self.dim == 2:
            return solid_angles(v[:, 0], v[:, 1], v[:, 2])
        return np.abs(np.linalg.det(v)) / 6.0

    def boundary_of_boundary_is_zero(self):
        """Chain-level d(d(simplices)) == 0; dim 2/3 sanity check."""
        k = self.simplices.shape[1]
        sub = self.simplices[:, [[j for j in range(k) if j != i] for i in range(k)]]
        table, _ = distinct_simplices(sub, len(self.vertices))
        signs = sort_parity(sub) * (-1.0) ** np.arange(k)
        return not np.bincount(table.ravel(), weights=signs.ravel()).any()


def _cross_polytope(k):
    """Boundary complex of the cross-polytope in R^k, positively oriented."""
    verts = []
    for i in range(k):
        for s in (1.0, -1.0):
            e = np.zeros(k)
            e[i] = s
            verts.append(e)
    verts = np.array(verts)

    def idx(i, s):
        return 2 * i + (0 if s > 0 else 1)

    simps = []
    for signs in product((1, -1), repeat=k):
        simps.append([idx(i, signs[i]) for i in range(k)])
    simps = _orient_positive(verts, np.array(simps))
    return verts, simps


# ---------------------------------------------------------------------------
# Axis-aligned disks and their boundary parametrizations
# ---------------------------------------------------------------------------


@dataclass
class BoundaryParam:
    """gamma: S^ell -> box; an axis-aligned isometry scaled by r, sampled on a
    triangulated sphere.  Lipschitz constant is exactly r."""

    sphere: TriangulatedSphere
    radius: float
    center: np.ndarray
    axes: tuple  # image coordinate axes, one per R^{ell+1} basis vector
    m: int
    samples: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.samples is None:
            self.samples = self.map(self.sphere.vertices)

    @property
    def lip(self):
        return self.radius

    def map(self, pts):
        out = np.tile(np.asarray(self.center, dtype=float), (len(pts), 1))
        for j, axis in enumerate(self.axes):
            out[:, axis] += self.radius * pts[:, j]
        return out

    def translated(self, xi):
        return BoundaryParam(
            sphere=self.sphere,
            radius=self.radius,
            center=np.asarray(self.center) + np.asarray(xi),
            axes=self.axes,
            m=self.m,
            samples=self.samples + np.asarray(xi),
        )

    def image_measure(self):
        """H^ell measure of the image (polytope approximation): r^ell scaled arcs/angles."""
        return float(np.sum(self.sphere.simplex_measures()) * self.radius**self.dim)

    @property
    def dim(self):
        return self.sphere.dim


def standard_disk_boundaries(box, ell, count, seed, eta_min=None, refinement=None):
    """Sample axis-aligned (ell+1)-disks inside the box; return boundary parametrizations.

    Radii are log-uniform in [2*eta_min, largest fit], centers uniform, all
    deterministic in the seed.
    """
    m = box.m
    if ell + 1 > m:
        raise DegenerateBox(f"ell+1={ell + 1} exceeds box dimension {m}")
    if count < 1:
        raise ValueError("count must be >= 1")
    min_side = min(box.sides)
    if eta_min is None:
        eta_min = min_side / 64.0
    margin = eta_min / 2.0
    r_max = min_side / 2.0 - 2.0 * margin
    if r_max < eta_min:
        raise DegenerateBox("no disk of radius >= eta_min fits inside the box")
    r_lo = min(2.0 * eta_min, r_max / 2.0)
    if refinement is None:
        refinement = 5 if ell == 1 else 3
    sphere = TriangulatedSphere(ell, refinement)
    axis_choices = list(combinations(range(m), ell + 1))
    rng = philox(seed, 0xD15C)
    out = []
    for _ in range(count):
        axes = axis_choices[int(rng.integers(len(axis_choices)))]
        r = float(np.exp(rng.uniform(np.log(r_lo), np.log(r_max))))
        center = np.empty(m)
        for i in range(m):
            pad = (r + margin) if i in axes else margin
            center[i] = rng.uniform(box.lo[i] + pad, box.hi[i] - pad)
        out.append(BoundaryParam(sphere=sphere, radius=r, center=center, axes=axes, m=m))
    return out
