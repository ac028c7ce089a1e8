import numpy as np
import pytest

from sobtop import (
    PipelineParams,
    adaptive_smooth,
    apply_shrinking,
    apply_thickening,
    builtin_field,
    cell_degree_sweep,
    classify_cubes,
    extend_or_keep,
    homogeneous_from_loop,
    hurewicz_degree,
    maximal_function_detector,
    open_at_point,
    open_on_skeleton,
    run_pipeline,
    shrinking_profile,
    sobolev_distance,
    thickening_profile,
)
from sobtop.cli import main
from sobtop.errors import AdmissibilityViolation, NoRoot, PsiTooSteep, Undersampled
from sobtop.fields import finite_difference
from sobtop.geometry import BoundaryParam, Cubication, TriangulatedSphere
from sobtop import pipeline as pipeline_module
from sobtop.pipeline import _generic_inner_box
from sobtop.util import ramp

P = dict(alpha=0.05, iota=0.2, rho=0.25, k=1, p=1.5)


def classified(name="dipole", dims=128, eta=0.25):
    u = builtin_field(name, (dims, dims))
    cub = Cubication(_generic_inner_box(u, eta), eta)
    return u, classify_cubes(u, cub, **P)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [0.1, 0.2])
@pytest.mark.parametrize("rho", [0.3, 0.4])
def test_thickening_profile_invariants(r, rho):
    rep = thickening_profile(r, rho).invariants_report()
    assert rep["identity_beyond_rho"] == 0.0
    assert rep["monotone_margin"] > 0.0
    assert rep["limit_rel_err_1e8"] <= 0.10
    assert np.isfinite(rep["phi1_bound"]) and np.isfinite(rep["phi2_bound"])
    assert rep["jacobian_floor_m2"] > 0.0 and rep["jacobian_floor_m3"] > 0.0


@pytest.mark.parametrize("r", [0.1, 0.2])
@pytest.mark.parametrize("tau_frac", [4.0, 8.0])
def test_shrinking_profile_root_bracket(r, tau_frac):
    rho = 0.3
    theta = min(1.5, 0.9 * rho / r)
    p = shrinking_profile(r, rho, r / tau_frac, theta)
    root = np.sqrt(1.0 + p.gamma)
    assert theta < root < 1.0 / p.tau
    rep = p.invariants_report()
    assert rep["monotone_margin"] > 0.0 and rep["identity_beyond_rho"] == 0.0


def test_shrinking_profile_invalid_theta():
    with pytest.raises(NoRoot):
        shrinking_profile(0.2, 0.3, 0.05, 1.5)  # theta*r = rho
    with pytest.raises(NoRoot):
        shrinking_profile(0.5, 0.8, 0.1, 3.0)  # theta >= 1/r


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_constant_all_good():
    u = builtin_field("constant", (64, 64))
    cub = Cubication(u.box.shrunk(0.25), 0.25)
    cls = classify_cubes(u, cub, **P)
    assert cls.all_good


def test_classify_radial_scale_invariant_bad_cube():
    vals = []
    for eta, dims in ((0.25, 128), (0.125, 256)):
        u, cls = classified("radial", dims, eta)
        # the cube containing the origin is bad and its criterion value is
        # (nearly) independent of eta
        containing = [cu for cu in cls.bad
                      if np.max(np.abs(cls.cubication.units_to_coords([cu])[0])) <= eta / 2]
        assert containing
        vals.append(max(cls.values[cu] for cu in containing))
    assert abs(vals[1] - vals[0]) <= 0.25 * max(vals)


def _classify_values_full_masks(u, cub, alpha, rho, k, p):
    """The window norms of ``classify_cubes`` as first written: one
    full-grid boolean mask per cube."""
    kp = k * p
    du = finite_difference(u, 1)
    mag = du.magnitude()
    wq = u.weights() * (~du.excluded)
    nodes = u.nodes()
    pad = cub.radius * (1.0 + 2.0 * rho)
    scale = alpha / cub.radius ** (u.m / kp - 1.0)
    values = {}
    for cu, c in zip(cub.cube_units, cub.cubes):
        sel = np.all(np.abs(nodes - c) <= pad, axis=-1)
        values[cu] = scale * float(np.sum(wq[sel] * mag[sel] ** kp)) ** (1.0 / kp)
    return values, float(np.sum(u.weights() * (~du.excluded) * mag**kp))


@pytest.mark.parametrize("name, dims, eta, params", [
    ("dipole", (138, 138), 0.25, P),
    ("radial", (24, 24, 24), 0.5, dict(P, alpha=0.1, p=2.5)),
])
def test_classify_window_ranges_match_full_masks(name, dims, eta, params):
    u = builtin_field(name, dims)
    cub = Cubication(_generic_inner_box(u, eta), eta)
    cls = classify_cubes(u, cub, **params)
    values, total = _classify_values_full_masks(u, cub, params["alpha"], params["rho"], params["k"], params["p"])
    assert list(cls.values) == list(values)
    assert all(cls.values[cu] == values[cu] for cu in values)
    assert cls.bad == tuple(sorted(cu for cu, v in values.items() if v > params["iota"]))
    assert cls.bad
    r = cub.radius
    assert cls.bound_constant == cls.vol_bad_padded / (r ** (params["k"] * params["p"]) * total)


def test_classify_bad_volume_shrinks_like_eta_kp():
    measured = []
    for eta, dims in ((0.25, 128), (0.125, 256), (0.0625, 384)):
        u, cls = classified("radial", dims, eta)
        measured.append(cls.vol_bad_padded / eta**1.5)
    # |E^m + Q| proportional to eta^{kp} within a factor of 4 across the sweep
    assert max(measured) <= 4.0 * min(measured)


# ---------------------------------------------------------------------------
# Opening
# ---------------------------------------------------------------------------


def test_open_at_point_contracts():
    u = builtin_field("dipole", (128, 128))
    w = maximal_function_detector(u, p=1.5)
    center, delta = np.array([0.1, -0.2]), 0.04
    out, omap = open_at_point(u, center, delta, w, seed=2)
    nodes = u.nodes().reshape(-1, 2)
    ov, uv = out.values.reshape(-1, 2), u.values.reshape(-1, 2)
    inside = np.all(np.abs(nodes - center) <= delta, axis=1)
    outside = np.any(np.abs(nodes - center) > 4 * delta, axis=1)
    assert np.max(np.ptp(ov[inside], axis=0)) <= 1e-12
    assert np.array_equal(ov[outside], uv[outside])


def test_open_at_point_constant_unchanged():
    u = builtin_field("constant", (48, 48))
    w = maximal_function_detector(u, p=1.5)
    out, _ = open_at_point(u, np.zeros(2), 0.05, w, seed=0)
    assert np.max(np.abs(out.values - u.values)) < 1e-12


def test_open_at_point_tonelli_average():
    """The chosen translate beats the average, which obeys the Tonelli bound."""
    u = builtin_field("dipole", (96, 96))
    w = maximal_function_detector(u, p=1.5)
    center, delta = np.array([0.05, 0.0]), 0.05
    from sobtop.pipeline import OpeningMap, OpeningPiece
    from sobtop.util import philox

    rng = philox(2, 0x09E7)
    cand = rng.uniform(-delta, delta, size=(64, 2))
    nodes = u.nodes().reshape(-1, 2)
    win = np.all(np.abs(nodes - center) <= 5 * delta, axis=1)
    wq = u.weights().reshape(-1)[win]
    costs = []
    for zk in cand:
        piece = OpeningPiece(center=center, span=(), ortho=(0, 1), inner=2 * delta,
                             outer=3 * delta, z=zk, face_halfwidth=0.0, z_radius=delta)
        vals = w.interp(OpeningMap([piece]).apply(nodes[win]))
        costs.append(float(np.sum(np.where(np.isfinite(vals), vals, 0.0) * wq)))
    mean_cost = float(np.mean(costs))
    # Tonelli / affine change: the z-average of the opened window integral is
    # controlled by 6^m times the total detector mass
    assert mean_cost <= 6.0**2 * w.integral
    assert min(costs) <= 2.0 * mean_cost


def test_open_on_skeleton_all_good_identity():
    u = builtin_field("constant", (64, 64))
    cub = Cubication(u.box.shrunk(0.25), 0.25)
    cls = classify_cubes(u, cub, **P)
    out, omap, _ = open_on_skeleton(u, cls, "U", 1, seed=0)
    assert omap.pieces == []
    assert np.array_equal(out.values, u.values)


def test_open_on_skeleton_slab_constancy_and_identity():
    u, cls = classified()
    w = maximal_function_detector(u, p=1.5)
    out, omap, sob = open_on_skeleton(u, cls, "U", 1, w, seed=0)
    cub = cls.cubication
    R = cls.rho * cub.radius
    # vertical 1-faces of U-cubes: rows across the slab must be constant
    checked = 0
    for cu in cls.padded[:4]:
        for f in cub.cube_faces(cu, 1):
            c = cub.face_center(f)
            ax_perp = 1 - f.span[0]
            xs = u.axes()[ax_perp]
            cols = np.nonzero(np.abs(xs - c[ax_perp]) <= R)[0]
            rows = np.nonzero(np.abs(u.axes()[f.span[0]] - c[f.span[0]]) <= cub.radius)[0]
            if len(cols) < 2 or len(rows) == 0:
                continue
            sub = out.values[np.ix_(rows, cols)] if f.span[0] == 0 else out.values[np.ix_(cols, rows)].swapaxes(0, 1)
            dev = np.max(np.ptp(sub, axis=1))
            assert dev <= 1e-12
            checked += 1
    assert checked > 0
    # exact identity outside U^ell + Q_{2 rho eta/2}
    nodes = u.nodes().reshape(-1, 2)
    hw = np.stack([pc.support_lo for pc in omap.pieces]), np.stack([pc.support_hi for pc in omap.pieces])
    inside_any = np.zeros(len(nodes), dtype=bool)
    for lo, hi in zip(*hw):
        inside_any |= np.all((nodes >= lo) & (nodes <= hi), axis=1)
    ov, uv = out.values.reshape(-1, 2), u.values.reshape(-1, 2)
    assert np.array_equal(ov[~inside_any], uv[~inside_any])
    # first-order estimate constant on the corpus
    assert max(sob.values()) <= 20.0


@pytest.fixture(scope="module")
def both_openings():
    """The U and the full-skeleton opening of the dipole at 96^2, eta 0.25."""
    u, cls = classified(dims=96)
    w = maximal_function_detector(u, p=1.5)
    return u, cls, open_on_skeleton(u, cls, "U", 1, w, seed=0), open_on_skeleton(u, cls, "S", 1, w, seed=0)


def test_open_full_and_bad_skeletons_agree_near_bad_cubes(both_openings):
    u, cls, (a, _, _), (b, _, _) = both_openings
    nodes = u.nodes()
    near = cls.dist_inf_to(nodes, "u") <= cls.rho * cls.cubication.radius
    assert np.array_equal(a.values[near], b.values[near])


def test_u_opening_pieces_are_the_full_pieces_of_u_faces(both_openings):
    _, cls, (_, u_map, _), (_, s_map, _) = both_openings
    cub = cls.cubication
    assert len(cls.padded) < len(cub.cube_units)
    u_faces = {f.center_units for cu in cls.padded for j in (0, 1) for f in cub.cube_faces(cu, j)}
    s_of_u = [pc for pc in s_map.pieces if pc.key in u_faces]
    assert len(u_map.pieces) == len(s_of_u) == len(u_faces)
    for a, b in zip(u_map.pieces, s_of_u):
        assert np.array_equal(a.center, b.center) and a.span == b.span
        assert np.array_equal(a.z, b.z)


def _reference_piece_apply(pc, pts, zs):
    """An opening piece with every translation in ``zs``, as the whole
    (len(zs), len(pts), m) block; the code before ``OpeningPiece.moves``."""
    ortho = list(pc.ortho)
    w = (pts[:, ortho] - pc.center[ortho])[None, :, :] + zs[:, None, :]
    wn = np.max(np.abs(w), axis=2)
    active = wn < pc.outer
    for ax in pc.span:
        active &= np.abs(pts[:, ax] - pc.center[ax]) <= pc.face_halfwidth
    out = np.broadcast_to(pts, (len(zs),) + pts.shape).copy()
    if np.any(active):
        lam = ramp(wn[active], pc.inner, pc.outer)
        z = np.broadcast_to(zs[:, None, :], w.shape)[active]
        sub = out[active]
        sub[:, ortho] = pc.center[ortho] + (lam[:, None] * w[active] - z)
        out[active] = sub
    return out


def _reference_map_apply(pieces, pts):
    """``OpeningMap.apply`` before tiles: the same bounding-box prune, then
    every surviving piece scans the whole batch for points in its support."""
    out = np.asarray(pts, dtype=float).copy()
    if not pieces or len(out) == 0:
        return out
    slack = max(pc.outer for pc in pieces)
    lo = out.min(axis=0) - slack
    hi = out.max(axis=0) + slack
    los = np.stack([pc.support_lo for pc in pieces])
    his = np.stack([pc.support_hi for pc in pieces])
    for i in np.nonzero(((los <= hi) & (his >= lo)).all(axis=1))[0][::-1]:
        pc = pieces[i]
        hit = ((out >= pc.support_lo) & (out <= pc.support_hi)).all(axis=1)
        if np.any(hit):
            out[hit] = _reference_piece_apply(pc, out[hit], pc.z[None, :])[0]
    return out


def _reference_translate(piece, cand, wpts, w, earlier=None):
    """The translate search on the full (translate, window point) block."""
    block = _reference_piece_apply(piece, wpts, cand).reshape(-1, wpts.shape[1])
    vals = w.interp(_reference_map_apply(earlier.pieces if earlier is not None else [], block))
    vals = np.where(np.isfinite(vals), vals, 1e30).reshape(len(cand), -1)
    return cand[int(np.argmin(np.sum(vals, axis=1)))]


@pytest.fixture(scope="module")
def checked_walk():
    """The full-skeleton walk of the dipole at 138^2, eta 0.25, with every
    search checked against the full-block search: (field, the S map, the
    number of searches, the number whose translate differed)."""
    u, cls = classified(dims=138)
    w = maximal_function_detector(u, p=1.5)
    search = pipeline_module._cheapest_translate
    tally = {"searches": 0, "differ": 0}

    def checked(piece, cand, wpts, w, earlier=None):
        z = search(piece, cand, wpts, w, earlier)
        tally["searches"] += 1
        tally["differ"] += not np.array_equal(z, _reference_translate(piece, cand, wpts, w, earlier))
        return z

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline_module, "_cheapest_translate", checked)
        _, s_map, _ = open_on_skeleton(u, cls, "S", 1, w, seed=0)
    cub = cls.cubication
    assert tally["searches"] == len(cub.skeleton(0)) + len(cub.skeleton(1)) == len(s_map.pieces)
    return u, s_map, tally


def test_cheapest_translate_matches_full_block_search(checked_walk):
    _, _, tally = checked_walk
    assert tally["searches"] > 100
    assert tally["differ"] == 0


def test_opening_map_tiles_match_full_scans(checked_walk):
    u, s_map, _ = checked_walk
    nodes = u.nodes().reshape(-1, u.m)
    out = s_map.apply(nodes)
    assert np.count_nonzero(np.any(out != nodes, axis=1)) > 0.2 * len(nodes)
    assert out.tobytes() == _reference_map_apply(s_map.pieces, nodes).tobytes()
    # a 3-D map, with pieces around faces of dimension 0, 1 and 2
    u3 = builtin_field("radial", (16, 16, 16))
    cub = Cubication(_generic_inner_box(u3, 0.5), 0.5)
    cls = classify_cubes(u3, cub, **dict(P, alpha=0.1, p=2.5))
    _, s3, _ = open_on_skeleton(u3, cls, "S", 2, seed=0)
    assert {len(pc.span) for pc in s3.pieces} == {0, 1, 2}
    nodes3 = u3.nodes().reshape(-1, 3)
    out3 = s3.apply(nodes3)
    assert np.any(out3 != nodes3)
    assert out3.tobytes() == _reference_map_apply(s3.pieces, nodes3).tobytes()


def test_opening_map_follows_points_out_of_their_tile():
    """A piece moves a point out of its tile's first box and into the
    support of a piece that acts next, whose support misses that box."""
    from sobtop.pipeline import OpeningMap, OpeningPiece

    first = OpeningPiece(center=np.zeros(2), span=(), ortho=(0, 1), inner=0.1, outer=1.0,
                         z=np.array([0.5, 0.0]), face_halfwidth=0.0, z_radius=0.5)
    second = OpeningPiece(center=np.array([-0.5, 0.0]), span=(), ortho=(0, 1), inner=0.1, outer=0.4,
                          z=np.zeros(2), face_halfwidth=0.0, z_radius=0.05)
    pts = np.array([[0.1, 0.0], [1.9, 1.9]])
    once = OpeningMap([first]).apply(pts)
    assert -0.2 < once[0, 0] < 0.0 and second.support_hi[0] < pts[:, 0].min()
    out = OpeningMap([second, first]).apply(pts)
    assert out[0, 0] != once[0, 0]
    assert out.tobytes() == _reference_map_apply([second, first], pts).tobytes()


def test_full_skeleton_opening_has_no_constants(both_openings):
    """Only the U opening, which the open stage reports, gets Sobolev constants."""
    _, _, (_, _, sob_u), (_, _, sob_s) = both_openings
    assert sob_u and sob_s == {}


def test_pipeline_searches_each_skeleton_face_once(monkeypatch):
    searches = []
    classes = []
    search, classify = pipeline_module._cheapest_translate, pipeline_module.classify_cubes

    def counted(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    def kept(*args, **kwargs):
        classes.append(classify(*args, **kwargs))
        return classes[-1]

    monkeypatch.setattr(pipeline_module, "_cheapest_translate", counted)
    monkeypatch.setattr(pipeline_module, "classify_cubes", kept)
    run_pipeline(builtin_field("dipole", (96, 96)), PipelineParams(eta=0.25, p=1.5, alpha=0.05))
    cub = classes[0].cubication
    assert len(searches) == len(cub.skeleton(0)) + len(cub.skeleton(1))


def test_opening_preserves_enclosed_degree():
    u, cls = classified()
    w = maximal_function_detector(u, p=1.5)
    out, _, _ = open_on_skeleton(u, cls, "U", 1, w, seed=0)
    gamma = BoundaryParam(sphere=TriangulatedSphere(1, 5), radius=0.85,
                          center=np.zeros(2), axes=(0, 1), m=2)
    assert hurewicz_degree(out, gamma) == hurewicz_degree(u, gamma) == 0
    left = BoundaryParam(sphere=TriangulatedSphere(1, 5), radius=0.55,
                         center=np.array([-0.35, 0.0]), axes=(0, 1), m=2)
    assert hurewicz_degree(out, left) == hurewicz_degree(u, left)


# ---------------------------------------------------------------------------
# Adaptive smoothing
# ---------------------------------------------------------------------------


def test_adaptive_smooth_zero_psi_bit_exact():
    u = builtin_field("dipole", (64, 64))
    out = adaptive_smooth(u, np.zeros(u.dims))
    assert np.array_equal(out.values, u.values)


def test_adaptive_smooth_affine_exact():
    from sobtop.fields import GridField
    from sobtop.util import node_mesh
    from sobtop import unit_box

    box = unit_box(2)
    pts = node_mesh(box.lo, box.hi, (48, 48))
    vals = (0.3 * pts[..., 0] + 0.7 * pts[..., 1])[..., None]
    u = GridField(box, (48, 48), vals)
    nodes = node_mesh(box.lo, box.hi, (48, 48))
    d_bd = np.min(np.minimum(nodes - np.array(box.lo), np.array(box.hi) - nodes), axis=-1)
    psi = np.minimum(0.05, 0.5 * d_bd)
    out = adaptive_smooth(u, psi)
    interior = np.s_[5:-5, 5:-5]
    assert np.max(np.abs(out.values[interior] - u.values[interior])) < 1e-8


def test_adaptive_smooth_rejects_steep_psi():
    u = builtin_field("constant", (48, 48))
    psi = np.abs(u.nodes()[..., 0]) * 1.5
    with pytest.raises(PsiTooSteep):
        adaptive_smooth(u, psi)


# ---------------------------------------------------------------------------
# Thickening / extension / shrinking
# ---------------------------------------------------------------------------


def test_thickening_all_good_identity():
    u = builtin_field("constant", (64, 64))
    cub = Cubication(u.box.shrunk(0.25), 0.25)
    cls = classify_cubes(u, cub, **P)
    out, pieces = apply_thickening(u, cls, ell=1, mu=0.25, k=1, p=1.5)
    assert pieces == [] and np.array_equal(out.values, u.values)


def test_thickening_mask_is_dual_skeleton():
    u, cls = classified("radial")
    out, _ = apply_thickening(u, cls, ell=1, mu=0.25, k=1, p=1.5)
    got = sorted(out.singular_mask.point_locations)
    expected = sorted(tuple(c) for c in cls.u_cube_centers())
    assert got == expected


def test_thickening_identity_outside_exact():
    u, cls = classified("radial")
    out, _ = apply_thickening(u, cls, ell=1, mu=0.25, k=1, p=1.5)
    nodes = u.nodes()
    outside = cls.dist_inf_to(nodes, "u") > 0
    assert np.array_equal(out.values[outside], u.values[outside])


def test_thickening_admissibility():
    u, cls = classified("radial")
    with pytest.raises(AdmissibilityViolation):
        apply_thickening(u, cls, ell=1, mu=0.25, k=1, p=2.5)  # kp >= ell+1


def test_thickening_jacobian_floor_numeric():
    """Finite-difference Jacobian of the cube map x -> a + phi(s) y obeys the
    beta = m - 1/2 floor at sampled interior points (off the diagonals)."""
    prof = thickening_profile(0.875, 0.9375)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.9, 0.9, size=(200, 2))
    pts = pts[np.abs(np.abs(pts[:, 0]) - np.abs(pts[:, 1])) > 0.05]
    eps = 1e-6

    def phi_map(x):
        s = np.max(np.abs(x), axis=1)
        return prof.phi(s)[:, None] * x

    base = phi_map(pts)
    J = np.empty(len(pts))
    for i in range(len(pts)):
        M = np.zeros((2, 2))
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = eps
            M[:, ax] = (phi_map(pts[i : i + 1] + e)[0] - phi_map(pts[i : i + 1] - e)[0]) / (2 * eps)
        J[i] = abs(np.linalg.det(M))
    s = np.max(np.abs(pts), axis=1)
    floor = J * s**1.5
    assert np.min(floor) > 0.0
    del base


def test_extend_removes_degree_zero_and_keeps_vortex():
    u, cls = classified("radial")
    th, _ = apply_thickening(u, cls, ell=1, mu=0.25, k=1, p=1.5)
    from sobtop import project_to_sphere

    th = project_to_sphere(th.with_values(th.values, target=None), iota=0.5)
    out, kept, removed = extend_or_keep(th, cls, mu=0.25)
    assert len(kept) == 1 and kept[0][1] == 1
    assert len(removed) == len(th.singular_mask.point_locations) - 1
    final_atoms = cell_degree_sweep(out).atoms
    assert len(final_atoms) == 1 and final_atoms[0][1] == 1


def test_extend_degree_zero_field_becomes_smooth():
    u = homogeneous_from_loop(lambda th: 0.9 * np.sin(th), (128, 128))
    cub = Cubication(_generic_inner_box(u, 0.25), 0.25)
    cls = classify_cubes(u, cub, **P)
    th, _ = apply_thickening(u, cls, ell=1, mu=0.25, k=1, p=1.5)
    from sobtop import project_to_sphere

    th = project_to_sphere(th.with_values(th.values, target=None), iota=0.5)
    out, kept, removed = extend_or_keep(th, cls, mu=0.25)
    assert kept == []
    assert cell_degree_sweep(out).atoms == []
    assert out.singular_mask.rank == -1


def test_shrinking_contracts():
    u, cls = classified("radial")
    th, _ = apply_thickening(u, cls, ell=1, mu=0.25, k=1, p=1.5)
    from sobtop import project_to_sphere

    th = project_to_sphere(th.with_values(th.values, target=None), iota=0.5)
    mu = 0.25
    sh, pieces = apply_shrinking(th, cls, mu=mu, tau=mu / 4.0, k=1, p=1.5)
    # exact identity outside T + Q_{2 mu eta}
    nodes = u.nodes()
    d = np.full(u.dims, np.inf)
    for a in th.singular_mask.point_locations:
        d = np.minimum(d, np.max(np.abs(nodes - np.asarray(a)), axis=-1))
    outside = d > 2.0 * mu * cls.cubication.radius
    assert np.array_equal(sh.values[outside], th.values[outside])
    # atoms stay within one cell of their pre-shrink positions
    before = cell_degree_sweep(th).atoms
    after = cell_degree_sweep(sh).atoms
    assert len(before) == len(after)
    for (la, da), (lb, db) in zip(after, before):
        assert da == db
        assert np.max(np.abs(np.asarray(la) - np.asarray(lb))) <= np.sqrt(2) * u.hmax


def test_shrinking_inner_energy_decay():
    """Derivative contribution of the squeezed region T + Q_{tau mu eta}
    decreases monotonically in tau (its preimage carries the tau^{m-jp}
    factor of the split energy estimate)."""
    u, cls = classified("radial", dims=512, eta=0.5)
    th, _ = apply_thickening(u, cls, ell=1, mu=0.4, k=1, p=1.5)
    from sobtop import project_to_sphere

    th = project_to_sphere(th.with_values(th.values, target=None), iota=0.5)
    mu, p = 0.4, 1.5
    nodes = u.nodes()
    d = np.full(u.dims, np.inf)
    for a in th.singular_mask.point_locations:
        d = np.minimum(d, np.max(np.abs(nodes - np.asarray(a)), axis=-1))
    energies = []
    for tau in (mu / 2.0, mu / 4.0, mu / 8.0):
        sh, _ = apply_shrinking(th, cls, mu=mu, tau=tau, k=1, p=p)
        du = finite_difference(sh, 1)
        keep = (d <= tau * mu * cls.cubication.radius) & ~du.excluded
        energies.append(float(np.sum(u.weights()[keep] * du.magnitude()[keep] ** p)))
    assert energies[0] > energies[1] > energies[2]


def test_shrinking_tau_power_certificate():
    """Map-level form of the split estimate: on B_tau the kernel
    1/(s^2 + gamma tau^2)^{p/2} is bounded by C tau^{m-p} J(s) with a constant
    that is stable (within a factor 3) across the tau grid."""
    from sobtop import shrinking_profile

    m, p, mu = 2, 1.5, 0.25
    consts = []
    for tau in (mu / 2.0, mu / 4.0, mu / 8.0):
        tau_m = tau / (2.0 * mu)
        prof = shrinking_profile(r=0.5, rho=0.8, tau=tau_m, theta=1.5)
        s = np.logspace(-6, np.log10(tau_m), 300)
        z = np.sqrt(s**2 + prof.gamma * tau_m**2)
        phi = prof.phi(z)
        dphi = prof.phi_prime(z)
        J = phi ** (m - 1) * (phi + dphi * s**2 / z)
        kernel = 1.0 / (s**2 + prof.gamma * tau_m**2) ** (p / 2.0)
        consts.append(float(np.max(kernel / (J * tau_m ** (m - p)))))
    assert all(np.isfinite(c) and c > 0 for c in consts)
    assert max(consts) <= 3.0 * min(consts)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def test_pipeline_smooth_input_is_smoothing_only():
    u = builtin_field("smooth_bump", (128, 128))
    rep = run_pipeline(u, PipelineParams(eta=1.0 / 8, p=1.5, alpha=0.05))
    assert rep.final_class == "smooth" and rep.final_atoms == []
    norm = sobolev_distance(u, builtin_field("constant", (128, 128)), k=1, p=1.5).value
    assert rep.final_distance <= 0.05 * norm


def test_pipeline_dipole_keeps_atoms_and_ledger():
    u = builtin_field("dipole", (128, 128))
    rep = run_pipeline(u, PipelineParams(eta=0.25, p=1.5, alpha=0.05))
    assert rep.final_class == "R_0"
    assert sorted(d for _, d in rep.final_atoms) == [-1, 1]
    # energy ledger: triangle inequality over the stage records
    assert rep.final_distance <= rep.extra["stage_distance_sum"] + 1e-9
    # dual-opening consistency held exactly
    open_stage = [s for s in rep.stages if s.stage == "open"][0]
    assert open_stage.extra["fop_consistency"] == 0.0
    assert open_stage.extra["sobolev_constant"] <= 20.0


def test_pipeline_s2_target_on_b3():
    """S^2-valued driver on a 3-box: no extension step, the obstruction is
    reported, never removed."""
    u = builtin_field("radial", (32, 32, 32))
    rep = run_pipeline(u, PipelineParams(eta=0.5, p=2.5, alpha=0.1))
    assert [s for s in rep.stages if s.stage == "extend"] == []
    assert rep.final_class == "R_0"
    assert len(rep.final_atoms) == 1 and rep.final_atoms[0][1] == 1
    assert rep.stages[0].extra["n_bad"] >= 1


def test_pipeline_final_sweep_undersampled_fails_final_project(monkeypatch, capsys):
    """The final sweep is not recorded as an atoms_error: an undersampled
    final field fails the run in stage final_project (exit 3).  The thicken
    stage projects first, final_project second."""
    projected = []
    project, sweep = pipeline_module.project_to_sphere, pipeline_module.cell_degree_sweep

    def kept(*args, **kwargs):
        projected.append(project(*args, **kwargs))
        return projected[-1]

    def undersampled(fld, *args, **kwargs):
        if len(projected) == 2 and fld is projected[1]:
            raise Undersampled("forced")
        return sweep(fld, *args, **kwargs)

    monkeypatch.setattr(pipeline_module, "project_to_sphere", kept)
    monkeypatch.setattr(pipeline_module, "cell_degree_sweep", undersampled)
    assert main(["pipeline", "--input", "dipole", "--dims", "64", "--eta", "0.5"]) == 3
    assert "stage 'final_project'" in capsys.readouterr().err


def test_pipeline_reports_undersampled_atoms():
    """A stage whose degree sweep is undersampled says so in the report
    instead of listing no atoms."""
    rep = run_pipeline(builtin_field("power_2", (130, 130)), PipelineParams(eta=0.25, p=1.5, alpha=0.05))
    stages = {s.stage: s for s in rep.stages}
    for name in ("classify", "open"):
        assert stages[name].atoms == []
        assert stages[name].extra["atoms_error"].startswith("Undersampled: ")
    assert stages["thicken"].atoms[0][1] == 2
    assert [s.stage for s in rep.stages if "atoms_error" in s.extra] == ["classify", "open"]
    assert "atoms_error" in rep.to_dict()["stages"][0]


def test_pipeline_validation():
    u = builtin_field("radial", (64, 64))
    with pytest.raises(AdmissibilityViolation):
        run_pipeline(u, PipelineParams(eta=0.25, p=2.5))  # kp >= m
    with pytest.raises(AdmissibilityViolation):
        PipelineParams(eta=0.25, rho=0.7)
    with pytest.raises(AdmissibilityViolation):
        PipelineParams(eta=0.25, tau=0.3, mu=0.25)
