import numpy as np
import pytest

from sobtop import (
    GridField,
    Mollifier,
    builtin_field,
    circle_lift,
    finite_difference,
    fractional_seminorm,
    mean_oscillation,
    project_to_sphere,
    restrict_to_curve,
    sobolev_norm,
    unit_box,
)
from sobtop.errors import (
    CurveHitsSingularSet,
    NonzeroHolonomy,
    OutsideTubularNeighborhood,
    ValidationError,
)
from sobtop.geometry import BoundaryParam, TriangulatedSphere
from sobtop.util import node_mesh, pairwise_sq_dist


def linear_field(dims=32):
    box = unit_box(2)
    pts = node_mesh(box.lo, box.hi, (dims, dims))
    vals = (2.0 * pts[..., 0] - 0.5 * pts[..., 1])[..., None]
    return GridField(box, (dims, dims), vals)


def test_finite_difference_exact_on_linear():
    u = linear_field()
    d = finite_difference(u, 1)
    assert np.max(np.abs(d.data[..., 0, 0] - 2.0)) < 1e-12
    assert np.max(np.abs(d.data[..., 1, 0] + 0.5)) < 1e-12


def test_finite_difference_constant():
    box = unit_box(2)
    u = GridField(box, (16, 16), np.ones((16, 16, 1)))
    assert np.max(np.abs(finite_difference(u, 1).data)) == 0.0
    assert np.max(np.abs(finite_difference(u, 2).data)) == 0.0


def test_finite_difference_radial_magnitude():
    # odd dims put a node exactly at (0.5, 0); |Du| of x/|x| there is 1/0.5 = 2
    u = builtin_field("radial", (129, 129))
    d = finite_difference(u, 1)
    i = int(np.argmin(np.abs(u.axes()[0] - 0.5)))
    j = int(np.argmin(np.abs(u.axes()[1] - 0.0)))
    assert abs(u.axes()[0][i] - 0.5) < 1e-12 and abs(u.axes()[1][j]) < 1e-12
    mag = d.magnitude()[i, j]
    h = u.hmax
    assert abs(mag - 2.0) < 30.0 * h * h


def test_sobolev_norm_constant():
    box = unit_box(2)
    vals = np.zeros((16, 16, 2))
    vals[..., 0] = 1.0
    u = GridField(box, (16, 16), vals, target=1)
    for p in (1.0, 1.5, 2.0):
        rep = sobolev_norm(u, k=1, p=p)
        assert rep.lp == pytest.approx(4.0 ** (1.0 / p), rel=1e-12)
        assert rep.derivative_terms[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.value == pytest.approx(rep.lp)


def test_sobolev_norm_radial_vs_fine_oracle():
    """||Du||_{L^1} of x/|x| vs the analytic |Du| = 1/r integrated at 10x
    resolution over the same masked region."""
    u = builtin_field("radial", (64, 64))
    rep = sobolev_norm(u, k=1, p=1.0)
    excl_radius = u.hmax * 1.0001
    fine = node_mesh(u.box.lo, u.box.hi, (641, 641)).reshape(-1, 2)
    r = np.linalg.norm(fine, axis=1)
    keep = r > excl_radius
    w = np.full(len(fine), (2.0 / 640) ** 2)
    oracle = float(np.sum(w[keep] / r[keep]))
    assert abs(rep.derivative_terms[0] - oracle) <= 0.05 * oracle


def test_sobolev_norm_refinement_consistency():
    vals = []
    for d in (33, 65):
        u = builtin_field("smooth_bump", (d, d))
        vals.append(sobolev_norm(u, k=1, p=2.0).value)
    assert abs(vals[1] - vals[0]) <= 0.02 * vals[0]


def test_mean_oscillation_constant_zero():
    u = GridField(unit_box(2), (32, 32), np.ones((32, 32, 1)))
    rep = mean_oscillation(u, radii=(0.1, 0.5))
    assert max(rep.values) == 0.0


def test_mean_oscillation_wedge_indicator():
    """Indicator of the right wing on the two-triangle polytope: the double
    average equals 1 at every scale (the corner center is extremal)."""
    dims = (192, 192)
    box = unit_box(2)
    pts = node_mesh(box.lo, box.hi, dims)
    vals = np.where(pts[..., 0] >= 0, 1.0, -1.0)[..., None]
    in1 = (pts[..., 1] >= 0) & (pts[..., 1] <= pts[..., 0]) & (pts[..., 0] <= 1)
    in2 = (pts[..., 1] >= 0) & (pts[..., 1] <= -pts[..., 0]) & (pts[..., 0] >= -1)
    f = GridField(box, dims, vals)
    rep = mean_oscillation(f, radii=(0.1, 0.2, 0.4), domain_mask=in1 | in2)
    for v in rep.values:
        assert abs(v - 1.0) <= 0.03
        assert v <= 2.0 * 1.0  # [v]_rho <= 2 sup|v|


def test_mean_oscillation_box_average_degradation():
    """[v_s]_rho <= 10 * max([v]_{2 rho}, [v]_{2s}) for the 3x3 box average."""
    from scipy.ndimage import uniform_filter

    dims = (96, 96)
    box = unit_box(2)
    pts = node_mesh(box.lo, box.hi, dims)
    vals = np.sign(pts[..., 0])[..., None]  # rough test function
    v = GridField(box, dims, vals)
    smoothed = uniform_filter(vals[..., 0], size=3, mode="nearest")[..., None]
    vs = GridField(box, dims, smoothed)
    s = 2.0 * v.hmax
    for rho in (0.1, 0.2):
        lhs = mean_oscillation(vs, radii=(rho,)).values[0]
        rhs = max(
            mean_oscillation(v, radii=(2 * rho,)).values[0],
            mean_oscillation(v, radii=(2 * s,)).values[0],
        )
        assert lhs <= 10.0 * rhs


def test_distance_to_target_bound():
    """sup d(v_s, S^1) <= [v]_s + 2h Lip(v) for a smooth unit field."""
    from scipy.ndimage import uniform_filter

    u = builtin_field("smooth_bump", (96, 96))
    sm = np.stack(
        [uniform_filter(u.values[..., i], size=3, mode="nearest") for i in range(2)], axis=-1
    )
    dist = float(np.max(np.abs(np.linalg.norm(sm, axis=-1) - 1.0)))
    s = 2.0 * u.hmax
    osc = mean_oscillation(u, radii=(s,)).values[0]
    du = finite_difference(u, 1)
    lip = float(np.max(du.magnitude()))
    assert dist <= osc + 2.0 * u.hmax * lip


def test_fractional_seminorm_constant_and_smooth():
    u = GridField(unit_box(2), (24, 24), np.ones((24, 24, 1)))
    assert fractional_seminorm(u, 0.5, 2.0).value == 0.0
    vals = []
    for d in (48, 96):
        f = builtin_field("smooth_bump", (d, d))
        vals.append(fractional_seminorm(f, 0.75, 2.0).value)
    assert abs(vals[1] - vals[0]) <= 0.10 * vals[0]


def test_fractional_seminorm_jump_divergence():
    """Line jump with sp >= 1: the p-th power grows without bound (more than
    doubles per refinement once sp >= 2)."""
    s, p = 0.9, 2.5
    powers = []
    for d in (24, 48, 96):
        pts = node_mesh((-1.0, -1.0), (1.0, 1.0), (d, d))
        vals = np.where(pts[..., 0] > 0, 1.0, 0.0)[..., None]
        f = GridField(unit_box(2), (d, d), vals)
        powers.append(fractional_seminorm(f, s, p).value ** p)
    assert powers[1] > 2.0 * powers[0]
    assert powers[2] > 2.0 * powers[1]


def test_project_to_sphere():
    box = unit_box(2)
    vals = np.zeros((16, 16, 2))
    vals[..., 0] = 1.1
    u = GridField(box, (16, 16), vals)
    out = project_to_sphere(u, iota=0.2)
    assert np.allclose(out.values[..., 0], 1.0)
    assert out.target == 1
    # idempotent bit-for-bit
    again = project_to_sphere(out, iota=0.2)
    assert np.array_equal(again.values, out.values)
    vals2 = vals.copy()
    vals2[3, 4] = [1.3, 0.0]
    bad = GridField(box, (16, 16), vals2)
    with pytest.raises(OutsideTubularNeighborhood) as ei:
        project_to_sphere(bad, iota=0.2)
    assert ei.value.node == (3, 4)


def test_grid_field_target_needs_matching_components():
    vals = np.zeros((8, 8, 3))
    vals[..., 0] = 1.0
    with pytest.raises(ValidationError):
        GridField(unit_box(2), (8, 8), vals, target=1)
    assert GridField(unit_box(2), (8, 8), vals, target=2).nu == 3


def test_circle_lift_roundtrip():
    box = unit_box(2)
    pts = node_mesh(box.lo, box.hi, (48, 48))
    vals = np.stack([np.cos(pts[..., 0]), np.sin(pts[..., 0])], axis=-1)
    u = GridField(box, (48, 48), vals, target=1)
    theta = circle_lift(u)
    t = theta.values[..., 0]
    assert np.max(np.abs(np.cos(t) - vals[..., 0])) < 1e-9
    assert np.max(np.abs(np.sin(t) - vals[..., 1])) < 1e-9
    # lifted phase differs from x_1 by a constant multiple of 2 pi
    diff = t - pts[..., 0]
    assert np.ptp(diff) < 1e-9


def test_circle_lift_constant():
    vals = np.zeros((16, 16, 2))
    vals[..., 1] = 1.0
    u = GridField(unit_box(2), (16, 16), vals, target=1)
    theta = circle_lift(u)
    assert np.ptp(theta.values) < 1e-12


def test_circle_lift_holonomy():
    u = builtin_field("radial", (64, 64))
    with pytest.raises(NonzeroHolonomy):
        circle_lift(u)


def test_restrict_to_curve():
    u = builtin_field("radial", (128, 128))
    gamma = BoundaryParam(
        sphere=TriangulatedSphere(1, 5), radius=0.5, center=np.zeros(2), axes=(0, 1), m=2
    )
    f = restrict_to_curve(u, gamma)
    # x/|x| restricted to a centred circle is the direction field itself
    assert np.max(np.linalg.norm(f.values - gamma.sphere.vertices, axis=1)) < 5 * u.hmax**2 / 0.5
    tiny = BoundaryParam(
        sphere=TriangulatedSphere(1, 5), radius=0.5 * u.hmax, center=np.zeros(2), axes=(0, 1), m=2
    )
    with pytest.raises(CurveHitsSingularSet):
        restrict_to_curve(u, tiny)
    outside = BoundaryParam(
        sphere=TriangulatedSphere(1, 5), radius=0.5, center=np.array([0.9, 0.0]), axes=(0, 1), m=2
    )
    with pytest.raises(ValueError):
        restrict_to_curve(u, outside)


def test_restrict_constant():
    u = builtin_field("constant", (32, 32))
    gamma = BoundaryParam(
        sphere=TriangulatedSphere(1, 4), radius=0.3, center=np.zeros(2), axes=(0, 1), m=2
    )
    f = restrict_to_curve(u, gamma)
    assert np.allclose(f.values, [1.0, 0.0])


@pytest.mark.parametrize("m", [2, 3])
def test_mollifier_normalization_and_symmetry(m):
    phi = Mollifier(m)
    n = 61 if m == 2 else 25
    ax = np.linspace(-1, 1, n)
    grids = np.meshgrid(*([ax] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = phi(pts)
    integral = np.sum(vals) * (2.0 / (n - 1)) ** m
    assert abs(integral - 1.0) < 1e-3  # coarse cross-check of the 1-D radial normalization
    r = np.linspace(0, 1.0, 200001)
    with np.errstate(divide="ignore", over="ignore"):
        prof = np.where(r < 1.0, np.exp(-1.0 / np.maximum(1.0 - r**2, 1e-300)), 0.0)
    surface = {2: 2 * np.pi, 3: 4 * np.pi}[m]
    fine = surface * np.trapezoid(prof * r ** (m - 1), r) * phi.c
    assert abs(fine - 1.0) < 1e-8
    assert np.allclose(phi(pts), phi(-pts))


# ---------------------------------------------------------------------------
# The pairwise-distance kernel against the formulas it replaced (bit for bit)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pairwise_sq_dist_matches_last_axis_sum(k):
    rng = np.random.default_rng(k)
    a, b = rng.normal(size=(37, k)), rng.normal(size=(23, k))
    d = a[:, None, :] - b[None, :, :]
    assert np.array_equal(pairwise_sq_dist(a, b), np.sum(d * d, axis=-1))
    assert np.array_equal(np.sqrt(pairwise_sq_dist(a, b)), np.linalg.norm(d, axis=-1))


def full_scan_oscillation(v, radii, domain_mask=None, pair_cap=400, center_spacing_factor=0.5):
    """mean_oscillation as one scan over every ball, each tested against the
    whole grid; also returns whether some ball was strided by ``pair_cap``."""
    pts = v.nodes().reshape(-1, v.m)
    vals = v.values.reshape(-1, v.nu)
    if domain_mask is not None:
        keep = domain_mask.reshape(-1)
        pts, vals = pts[keep], vals[keep]
    out, strided = [], False
    for rho in radii:
        spacing = rho * center_spacing_factor
        axes = [np.arange(v.box.lo[i], v.box.hi[i] + spacing / 2, spacing) for i in range(v.m)]
        centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, v.m)
        centers = np.concatenate([centers, pts[:: max(1, len(pts) // 512)]], axis=0)
        best = 0.0
        for c in centers:
            d2 = np.sum((pts - c) ** 2, axis=1)
            idx = np.nonzero(d2 <= rho * rho)[0]
            if len(idx) < 2:
                continue
            if len(idx) > pair_cap:
                strided = True
                idx = idx[:: int(np.ceil(len(idx) / pair_cap))]
            d = vals[idx][:, None, :] - vals[idx][None, :, :]
            best = max(best, float(np.mean(np.sqrt(np.sum(d * d, axis=-1)))))
        out.append(best)
    return tuple(out), strided


def wedge_field(dims):
    box = unit_box(2)
    pts = node_mesh(box.lo, box.hi, dims)
    x, y = pts[..., 0], pts[..., 1]
    mask = ((y >= 0) & (y <= x) & (x <= 1)) | ((y >= 0) & (y <= -x) & (x >= -1))
    return GridField(box, dims, np.where(x >= 0, 1.0, -1.0)), mask


def rotated_target(u, angle=1.0):
    c, s = np.cos(angle), np.sin(angle)
    return GridField(u.box, u.dims, u.values @ np.array([[c, s], [-s, c]]), target=u.target,
                     singular_mask=u.singular_mask)


@pytest.mark.parametrize(
    "case",
    ["smooth_bump_48", "smooth_bump_48_rotated", "wedge_96_masked", "smooth_bump_96_strided", "radial_3d"],
)
def test_mean_oscillation_matches_full_scan(case):
    """The pruned sup is the full scan's max, bit for bit."""
    mask = None
    if case.startswith("smooth_bump_48"):
        v, radii = builtin_field("smooth_bump", (48, 48)), (0.2, 0.4)
        if case.endswith("rotated"):
            v = rotated_target(v)
    elif case == "wedge_96_masked":
        (v, mask), radii = wedge_field((96, 96)), (0.1, 0.2, 0.4)
    elif case == "smooth_bump_96_strided":
        v, radii = builtin_field("smooth_bump", (96, 96)), (0.4,)
    else:
        v, radii = builtin_field("radial", (12, 12, 12)), (0.5, 1.0)
    want, strided = full_scan_oscillation(v, radii, domain_mask=mask)
    assert mean_oscillation(v, radii=radii, domain_mask=mask).values == want
    assert strided == (case in ("wedge_96_masked", "smooth_bump_96_strided", "radial_3d"))


def direct_fractional(u, s, p):
    """The Gagliardo double sum on (block, n, k) difference arrays, unstrided."""
    pts = u.nodes().reshape(-1, u.m)
    w = u.weights().reshape(-1)
    vals = u.values.reshape(-1, u.nu)
    keep = ~u.excluded_nodes().reshape(-1)
    pts, w, vals = pts[keep], w[keep], vals[keep]
    n = len(pts)
    cutoff = float(np.linalg.norm(u.h))
    total = 0.0
    block = max(1, int(2e6 // max(n, 1)))
    for start in range(0, n, block):
        sl = slice(start, min(start + block, n))
        d = pts[sl, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(d * d, axis=-1))
        dv = np.linalg.norm(vals[sl, None, :] - vals[None, :, :], axis=-1)
        ok = dist >= cutoff
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(ok, dv**p / np.where(ok, dist, 1.0) ** (s * p + u.m), 0.0)
        total += float(np.sum(integrand * w[sl, None] * w[None, :]))
    return total ** (1.0 / p)


@pytest.mark.parametrize("name", ["smooth_bump", "radial"])
def test_fractional_seminorm_matches_direct_formula(name):
    u = builtin_field(name, (48, 48))
    for v in (u, rotated_target(u)):
        assert fractional_seminorm(v, 0.5, 1.5).value == direct_fractional(v, 0.5, 1.5)
