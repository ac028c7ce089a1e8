"""Hopf invariant of sampled maps S^3 -> S^2.

Two independent routes:

* hopf_whitehead: discrete exterior calculus on a triangulated S^3.  The
  pulled-back area 2-cochain omega is exactly closed (solid angles of a
  tetrahedron boundary sum to a multiple of 4*pi), a potential 1-cochain chi
  with d1 chi = omega is read off in the tree-cotree gauge (no iterations:
  one back-substitution through a peel of the 2-skeleton planned with the
  complex), and the invariant is the Whitney-form wedge pairing, whose
  per-tet coefficients are universal rational constants.  The pairing of a
  closed omega does not depend on the gauge of chi.

* hopf_linking: marching-tetrahedra extraction of two regular-value preimage
  curves followed by the Gauss linking integral after stereographic projection.
"""

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import cg  # noqa: F401  not called here; bench/layers.py wraps this name under --trace 1

from .errors import NonClosedForm, NonRegularValue, SolverDivergence, Undersampled
from .fields import SampledSphereMap
from .geometry import TriangulatedSphere, distinct_simplices, solid_angles, sort_parity

_LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_LOCAL_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
# sign of each local face in the boundary of its tet: (-1)^i for the face opposite vertex i
_FACE_BOUNDARY_SIGNS = (-1.0, 1.0, -1.0, 1.0)
# the edges (d, g), (c, g), (c, d) of each local face (c, d, g), with boundary signs +, -, +
_FACE_EDGES = tuple(
    tuple(_LOCAL_EDGES.index(e) for e in ((d, g), (c, g), (c, d))) for c, d, g in _LOCAL_FACES
)
_ONCE = 1 << 40  # one holding face in the peel's per-edge counts, above any sum of face indices
_CLOSURE_TOL = 1e-6  # largest |d2 omega| accepted, and largest |d1 chi - omega| returned


@lru_cache(maxsize=1)
def whitney_pairing_matrix():
    """K[e,f] = integral over the reference tet of W_edge ^ W_face (6x4 rationals)."""

    def eps(i, j, k):
        return 0.0 if len({i, j, k}) < 3 else float(sort_parity([6 - i - j - k, i, j, k]))

    K = np.zeros((6, 4))
    for ei, (a, b) in enumerate(_LOCAL_EDGES):
        for fi, (c, d, g) in enumerate(_LOCAL_FACES):
            terms = (
                (+1, a, c, (b, d, g)),
                (-1, a, d, (b, c, g)),
                (+1, a, g, (b, c, d)),
                (-1, b, c, (a, d, g)),
                (+1, b, d, (a, c, g)),
                (-1, b, g, (a, c, d)),
            )
            val = 0.0
            for sgn, p, q, (i, j, k) in terms:
                val += sgn * (1.0 + (p == q)) / 20.0 * (1.0 / 6.0) * eps(i, j, k)
            K[ei, fi] = 2.0 * val
    return K


class DECSphere3:
    """Incidence tables, coboundaries and potential plan of a triangulated S^3.

    ``faces`` and ``edges`` are the distinct triangles and edges, each row
    sorted and the rows in lexicographic order.  ``tet_faces`` (T, 4) and
    ``tet_edges`` (T, 6) index them from every tet in ``_LOCAL_FACES`` and
    ``_LOCAL_EDGES`` order; ``face_signs`` and ``edge_signs`` are -1 where the
    tet's vertex order runs against the sorted one.  ``d0``, ``d1`` and ``d2``
    are the coboundaries.

    The tree-cotree plan for d1 chi = omega: ``tree_faces`` marks the T - 1
    faces of a breadth-first spanning tree of the dual graph (tets joined
    through faces).  The other faces are peeled off in waves, each face with
    an edge that no other face still left holds: ``peel_faces[i]`` with
    ``peel_edges[i]``, wave w being ``peel_waves[w]:peel_waves[w + 1]``.  The
    V - 1 edges never paired span the vertices and carry chi = 0.
    """

    def __init__(self, sphere):
        if sphere.dim != 3:
            raise ValueError("DECSphere3 needs a dim-3 triangulated sphere")
        self.sphere = sphere
        tets = sphere.simplices
        V, T = len(sphere.vertices), len(tets)
        local_faces, local_edges = tets[:, _LOCAL_FACES], tets[:, _LOCAL_EDGES]
        self.tet_faces, first_face = distinct_simplices(local_faces, V)
        self.tet_edges, first_edge = distinct_simplices(local_edges, V)
        self.face_signs, self.edge_signs = sort_parity(local_faces), sort_parity(local_edges)
        # row and flat gathers by np.take: several times faster than [] on these sizes
        self.faces = np.sort(np.take(local_faces.reshape(-1, 3), first_face, axis=0), axis=1)
        self.edges = np.sort(np.take(local_edges.reshape(-1, 2), first_edge, axis=0), axis=1)
        E, F = len(self.edges), len(self.faces)
        self.d0 = sp.csr_matrix(
            (
                np.concatenate([np.ones(E), -np.ones(E)]),
                (np.concatenate([np.arange(E)] * 2), np.concatenate([self.edges[:, 1], self.edges[:, 0]])),
            ),
            shape=(E, V),
        )
        # each face's boundary, read off the first tet that has it
        t, slot = np.divmod(first_face, 4)
        at = 6 * t[:, None] + np.take(np.array(_FACE_EDGES), slot, axis=0)  # flat (tet, local edge)
        signs = np.take(self.face_signs, first_face)[:, None] * np.take(self.edge_signs, at) * [1.0, -1.0, 1.0]
        face_edges = np.take(self.tet_edges, at)
        self.d1 = sp.csr_matrix((signs.ravel(), (np.repeat(np.arange(F), 3), face_edges.ravel())), shape=(F, E))
        self.d2 = sp.csr_matrix(
            (
                (self.face_signs * _FACE_BOUNDARY_SIGNS).ravel(),
                (np.repeat(np.arange(T), 4), self.tet_faces.ravel()),
            ),
            shape=(T, F),
        )
        self._plan_peel(face_edges, signs)

    def _plan_peel(self, face_edges, signs):
        F, E, T = len(self.faces), len(self.edges), len(self.sphere.simplices)
        tets = self.d2.tocsc().indices.reshape(F, 2)  # the two tets of each face
        across = (tets[:, 0] + tets[:, 1])[self.tet_faces] - np.arange(T)[:, None]  # the tet across each face
        dual = sp.csr_matrix((np.ones(4 * T), across.ravel(), np.arange(0, 4 * T + 1, 4)), shape=(T, T))
        _, pred = breadth_first_order(dual, 0)
        self.tree_faces = (pred[tets[:, 0]] == tets[:, 1]) | (pred[tets[:, 1]] == tets[:, 0])
        # per edge, the number of faces left that hold it (in units of _ONCE)
        # plus the sum of their indices: an edge held once is free, and the
        # sum is its face; float64 weights add these integers exactly
        left = np.flatnonzero(~self.tree_faces)
        held = np.bincount(np.take(face_edges, left, axis=0).ravel(), np.repeat(left + _ONCE, 3), E).astype(np.int64)
        slot = np.empty(F, dtype=np.intp)
        free, waves = np.flatnonzero(held // _ONCE == 1), []
        while free.size:
            f = held[free] - _ONCE
            slot[f] = np.arange(len(f))
            first = slot[f] == np.arange(len(f))  # one free edge per face
            f = f[first]
            waves.append((f, free[first]))
            fe = np.take(face_edges, f, axis=0).ravel()
            np.subtract.at(held, fe, np.repeat(f + _ONCE, 3))
            free = fe[held[fe] // _ONCE == 1]
        if held.any():
            raise SolverDivergence(f"tree-cotree peel stuck with {np.count_nonzero(held)} edges held")
        self.peel_faces, self.peel_edges = (np.concatenate(a) for a in zip(*waves))
        self.peel_waves = np.cumsum([0] + [len(f) for f, _ in waves])
        fe, fs = np.take(face_edges, self.peel_faces, axis=0), np.take(signs, self.peel_faces, axis=0)
        # chi(e) = s (omega(f) - the other terms of f), s the sign of e in f;
        # e's own term reads 0 until its wave, so it may stay in the sum
        self._peel_sign = fs[fe == self.peel_edges[:, None]]
        self._peel_terms, self._peel_coefs = fe, -self._peel_sign[:, None] * fs

    def area_cochain(self, values):
        """Pulled-back normalized S^2 area form on every canonical face."""
        v = values / np.linalg.norm(values, axis=-1, keepdims=True)
        return solid_angles(v[self.faces[:, 0]], v[self.faces[:, 1]], v[self.faces[:, 2]]) / (4.0 * np.pi)

    def solve_potential(self, omega):
        """chi with d1 chi = omega, by the peel in reverse wave order; raises
        SolverDivergence if omega is not closed enough for the dual-tree faces."""
        chi = np.zeros(len(self.edges))
        rhs = self._peel_sign * omega[self.peel_faces]
        w = self.peel_waves
        for a, b in zip(w[-2::-1], w[:0:-1]):
            chi[self.peel_edges[a:b]] = rhs[a:b] + np.einsum(
                "ij,ij->i", self._peel_coefs[a:b], chi[self._peel_terms[a:b]]
            )
        residual = np.abs(self.d1 @ chi - omega).max()
        if residual > _CLOSURE_TOL:
            raise SolverDivergence(f"potential residual |d1 chi - omega| = {residual:.2e}")
        return chi

    def wedge_pair(self, chi, omega):
        """sum over tets of (Whitney chi) ^ (Whitney omega)."""
        Ech = self.edge_signs * chi[self.tet_edges]
        Fom = self.face_signs * omega[self.tet_faces]
        return float(np.einsum("te,ef,tf->", Ech, whitney_pairing_matrix(), Fom))


class _KeptDEC:
    """The DEC complex built last, kept for the next call at its refinement."""

    def __init__(self):
        self.dec = None

    def __call__(self, refinement, sphere=None):
        """DEC complex of a refinement-``refinement`` S^3: the kept one if it
        has this refinement, else one built on ``sphere`` (default: a new
        TriangulatedSphere(3, refinement)), which is then kept."""
        if self.dec is None or self.dec.sphere.refinement != refinement:
            self.dec = DECSphere3(TriangulatedSphere(3, refinement) if sphere is None else sphere)
        return self.dec

    def cache_clear(self):
        self.dec = None


dec_sphere = _KeptDEC()


def hopf_whitehead(v, dec=None):
    """Whitehead integral of a sampled map S^3 -> S^2 in the tree-cotree gauge; a
    given or kept ``dec`` is used only if its simplices are v's sphere's, and
    a complex built here is built on v's sphere."""
    if isinstance(v, SampledSphereMap):
        sphere, values = v.sphere, v.values
    else:
        raise ValueError("expected a SampledSphereMap on a dim-3 sphere")
    if dec is None:
        dec = dec_sphere(sphere.refinement, sphere)
    if dec.sphere is not sphere and not np.array_equal(dec.sphere.simplices, sphere.simplices):
        dec = DECSphere3(sphere)
    omega = dec.area_cochain(values)
    closure = np.abs(dec.d2 @ omega).max()
    if closure > _CLOSURE_TOL:
        # an edge between antipodal values has no defined solid angle
        unit = values / np.linalg.norm(values, axis=-1, keepdims=True)
        dots = np.einsum("ij,ij->i", unit[dec.edges[:, 0]], unit[dec.edges[:, 1]])
        antipodal = np.nonzero(dots <= -1.0 + 1e-12)[0]
        if len(antipodal):
            a, b = dec.edges[antipodal[0]]
            raise Undersampled(
                f"{len(antipodal)} edges join antipodal values, the first between vertices {a} and {b}"
                f" (|d omega| = {closure:.2e}); a finer refinement is needed"
            )
        raise NonClosedForm(f"pulled-back 2-cochain not closed: |d omega| = {closure:.2e}")
    chi = dec.solve_potential(omega)
    return dec.wedge_pair(chi, omega)


# ---------------------------------------------------------------------------
# Linking-number oracle
# ---------------------------------------------------------------------------


def _preimage_curves(sphere, values, q):
    """Closed polylines v^{-1}(q) by marching tetrahedra; orientation induced by v."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    # stereographic chart centered at q (zero exactly at v = q, blows up at -q)
    tmp = np.eye(3)[np.argmin(np.abs(q))]
    e1 = np.cross(q, tmp)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(q, e1)
    v = values / np.linalg.norm(values, axis=-1, keepdims=True)
    denom = 1.0 + v @ q
    bad = denom < 1e-9
    denom = np.where(bad, 1.0, denom)
    xi = np.stack([(v @ e1) / denom, (v @ e2) / denom], axis=1)
    xi[bad] = 1e6  # antipodal points are far from the zero set in this chart

    tets = sphere.simplices
    pts = sphere.vertices
    segs = {}  # tet index -> list of (face_key, crossing point, local data)
    crossings = {}
    for fi, sub in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        tri = tets[:, sub]
        a, b, c = xi[tri[:, 0]], xi[tri[:, 1]], xi[tri[:, 2]]
        # solve lam_0 a + lam_1 b + lam_2 c = 0, sum lam = 1 (2x2 system)
        M00 = a[:, 0] - c[:, 0]
        M01 = b[:, 0] - c[:, 0]
        M10 = a[:, 1] - c[:, 1]
        M11 = b[:, 1] - c[:, 1]
        det = M00 * M11 - M01 * M10
        ok = np.abs(det) > 1e-14
        l0 = np.where(ok, (-c[:, 0] * M11 + c[:, 1] * M01) / np.where(ok, det, 1.0), -1.0)
        l1 = np.where(ok, (c[:, 0] * M10 - c[:, 1] * M00) / np.where(ok, det, 1.0), -1.0)
        l2 = 1.0 - l0 - l1
        inside = ok & (l0 > 0) & (l1 > 0) & (l2 > 0)
        hit = np.nonzero(inside)[0]
        for t in hit:
            p = l0[t] * pts[tri[t, 0]] + l1[t] * pts[tri[t, 1]] + l2[t] * pts[tri[t, 2]]
            vq = l0[t] * v[tri[t, 0]] + l1[t] * v[tri[t, 1]] + l2[t] * v[tri[t, 2]]
            if vq @ q < 0.5:
                continue  # spurious zero in the chart, near the antipode
            key = tuple(sorted(tri[t]))
            segs.setdefault(t, []).append(key)
            crossings.setdefault(key, []).append(p / np.linalg.norm(p))
    for t, ks in segs.items():
        if len(ks) != 2:
            raise NonRegularValue(f"tet {t} crossed {len(ks)} times; value not regular")
    for key, ps in crossings.items():
        if len(ps) > 2:
            raise NonRegularValue("face crossed by more than two tets")
    # chain tets through shared faces into closed loops
    face_to_tets = {}
    for t, ks in segs.items():
        for k in ks:
            face_to_tets.setdefault(k, []).append(t)
    unused = set(segs.keys())
    curves = []
    while unused:
        t0 = min(unused)
        entry0 = segs[t0][0]
        loop_pts = []
        t, entry = t0, entry0
        while True:
            unused.discard(t)
            k1, k2 = segs[t]
            exit_face = k2 if entry == k1 else k1
            loop_pts.append(crossings[exit_face][0])
            cands = [tt for tt in face_to_tets.get(exit_face, []) if tt != t]
            if not cands:
                raise NonRegularValue("open preimage chain; value not regular")
            t, entry = cands[0], exit_face
            if t == t0:
                break
        curve = np.array(loop_pts + [loop_pts[0]])
        # orient: segment inside t0 runs from its entry point to its first exit point
        p_in = crossings[entry0][0]
        p_out = loop_pts[0]
        if not _segment_positively_oriented(sphere, xi, t0, p_in, p_out):
            curve = curve[::-1]
        curves.append(curve)
    return curves


def _segment_positively_oriented(sphere, xi, t0, p_in, p_out):
    """True when (tangent, grad xi_1, grad xi_2) is a positive frame of TS^3 at the segment."""
    tet = sphere.simplices[t0]
    P = sphere.vertices[tet]
    X = xi[tet]
    Dp = (P[1:] - P[0]).T  # 4x3: ambient edge matrix
    Dx = X[1:] - X[0]  # 3x2
    G = np.linalg.pinv(Dp).T @ Dx  # 4x2: ambient gradients of the chart
    x0 = 0.5 * (p_in + p_out)
    x0 = x0 / np.linalg.norm(x0)
    t_vec = p_out - p_in
    g1 = G[:, 0] - (G[:, 0] @ x0) * x0
    g2 = G[:, 1] - (G[:, 1] @ x0) * x0
    # sign convention calibrated so the classical fibration links to +1
    return np.linalg.det(np.stack([x0, t_vec, g1, g2])) <= 0


def _gauss_linking(c1, c2):
    """Gauss linking integral of two closed polylines in R^3 (Arai's arctan form)."""
    total = 0.0
    p = c1
    qq = c2
    for i in range(len(p) - 1):
        a = p[i] - qq[:-1]
        b = p[i] - qq[1:]
        c = p[i + 1] - qq[1:]
        d = p[i + 1] - qq[:-1]
        def norm(v):
            return np.linalg.norm(v, axis=1)
        an, bn, cn, dn = norm(a), norm(b), norm(c), norm(d)
        cross_bc = np.cross(b, c)
        num = np.einsum("ij,ij->i", a, cross_bc)
        d1 = an * bn * cn + np.einsum("ij,ij->i", a, b) * cn + np.einsum("ij,ij->i", b, c) * an + np.einsum("ij,ij->i", c, a) * bn
        d2 = an * dn * cn + np.einsum("ij,ij->i", a, d) * cn + np.einsum("ij,ij->i", d, c) * an + np.einsum("ij,ij->i", c, a) * dn
        total += np.sum(np.arctan2(num, d1) + np.arctan2(num, d2))
    return total / (2.0 * np.pi)


def _stereo_r3(points, pole):
    """Stereographic projection S^3 \\ {pole} -> R^3 in an orthonormal frame
    chosen so (pole, b1, b2, b3) is positively oriented (sign-consistent for
    every pole)."""
    pole = pole / np.linalg.norm(pole)
    basis = []
    for e in np.eye(4):
        w = e - (e @ pole) * pole
        for b in basis:
            w = w - (w @ b) * b
        n = np.linalg.norm(w)
        if n > 1e-8:
            basis.append(w / n)
        if len(basis) == 3:
            break
    if np.linalg.det(np.stack([pole] + basis)) < 0:
        basis[2] = -basis[2]
    B = np.array(basis)
    denom = 1.0 - points @ pole
    return (points @ B.T) / denom[:, None]


def hopf_linking(v, q1=None, q2=None, residual_tol=0.1):
    """Hopf invariant as the Gauss linking number of two regular-value preimages."""
    if not isinstance(v, SampledSphereMap) or v.sphere.dim != 3:
        raise ValueError("expected a SampledSphereMap on a dim-3 sphere")
    if q1 is None:
        q1 = np.array([0.31, 0.52, 0.795])
    if q2 is None:
        q2 = np.array([-0.29, -0.54, -0.79])
    curves1 = _preimage_curves(v.sphere, v.values, q1)
    curves2 = _preimage_curves(v.sphere, v.values, q2)
    if not curves1 or not curves2:
        return 0
    allpts = np.concatenate(curves1 + curves2)
    for cand in np.vstack([np.eye(4), -np.eye(4), [[0.5, 0.5, 0.5, 0.5]]]):
        pole = cand / np.linalg.norm(cand)
        if np.min(np.linalg.norm(allpts - pole, axis=1)) > 0.25:
            break
    else:
        raise NonRegularValue("no stereographic pole clears the preimage curves")
    total = 0.0
    for a in curves1:
        for b in curves2:
            total += _gauss_linking(_stereo_r3(a, pole), _stereo_r3(b, pole))
    # global sign calibrated against the classical fibration (hopf = +1)
    total = -total
    lk = int(np.round(total))
    if abs(total - lk) >= residual_tol:
        raise NonRegularValue(f"linking residual {abs(total - lk):.3f} >= {residual_tol}")
    return lk
