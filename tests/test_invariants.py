import numpy as np
import pytest

from sobtop import (  # noqa: F401
    builtin_field,
    cell_degree_sweep,
    extendability_oracle,
    homogeneous_from_loop,
    hurewicz_degree,
    jacobian_pairing,
    maximal_function_detector,
    pullback_degree,
    restrict_to_curve,
    standard_disk_boundaries,
    winding_degree,
)
from sobtop.errors import InsufficientAdmissibleDisks, Undersampled
from sobtop.fields import SampledSphereMap
from sobtop.geometry import BoundaryParam, TriangulatedSphere
from sobtop.invariants import TestForm, jacobian_battery
from sobtop.invariants import test_form_battery as form_battery


def circle_map(d, n=2048):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.stack([np.cos(d * t), np.sin(d * t)], axis=1)


def centered_circle(radius, refinement=5, center=(0.0, 0.0)):
    return BoundaryParam(
        sphere=TriangulatedSphere(1, refinement),
        radius=radius,
        center=np.asarray(center, dtype=float),
        axes=(0, 1),
        m=2,
    )


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


def test_winding_degree_basic():
    assert winding_degree(circle_map(1)) == 1
    assert winding_degree(circle_map(0)) == 0
    # oracle at 1e4 samples agrees for d = 3
    assert winding_degree(circle_map(3, n=10000)) == 3
    assert winding_degree(circle_map(3)) == 3


def test_winding_degree_errors():
    with pytest.raises(Undersampled):
        winding_degree(circle_map(1, n=32))
    flip = np.tile([[1.0, 0.0], [-1.0, 0.0]], (40, 1))
    with pytest.raises(Undersampled):
        winding_degree(flip)


def _sphere_samples(fn, refinement=4):
    sph = TriangulatedSphere(2, refinement)
    return SampledSphereMap(sphere=sph, values=fn(sph.vertices))


def test_pullback_degree_sphere():
    assert pullback_degree(_sphere_samples(lambda v: v)) == 1
    assert pullback_degree(_sphere_samples(lambda v: -v)) == -1


def test_pullback_degree_suspension_of_squaring():
    def susp(v):
        w = v[:, 0] + 1j * v[:, 1]
        r = np.abs(w)
        w2 = np.where(r > 1e-14, w * w / np.where(r > 1e-14, r, 1.0), 0.0)
        out = np.stack([w2.real, w2.imag, v[:, 2]], axis=1)
        return out / np.linalg.norm(out, axis=1, keepdims=True)

    assert pullback_degree(_sphere_samples(susp)) == 2
    # cross-check against the winding of the equatorial restriction
    t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    eq = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    img = susp(eq)
    assert winding_degree(img[:, :2] / np.linalg.norm(img[:, :2], axis=1, keepdims=True)) == 2


def test_hurewicz_degree_examples():
    radial = builtin_field("radial", (128, 128))
    assert hurewicz_degree(radial, centered_circle(0.5)) == 1
    dipole = builtin_field("dipole", (128, 128))
    assert hurewicz_degree(dipole, centered_circle(0.8)) == 0  # encloses both atoms
    smooth = builtin_field("smooth_bump", (128, 128))
    assert hurewicz_degree(smooth, centered_circle(0.4)) == 0


def test_winding_homotopy_invariance_under_small_perturbation():
    samples = circle_map(2, n=512)
    rng = np.random.default_rng(7)
    pert = samples + 0.29 * rng.uniform(-1, 1, samples.shape) / np.sqrt(2)
    pert /= np.linalg.norm(pert, axis=1, keepdims=True)
    assert winding_degree(pert) == 2


# ---------------------------------------------------------------------------
# Distributional Jacobian
# ---------------------------------------------------------------------------


def test_dirac_formula_radial():
    u = builtin_field("radial", (128, 128))
    forms = form_battery(u.box)
    assert len(forms) == 9
    for form in forms:
        val = jacobian_pairing(u, form)
        expected = float(form(np.zeros((1, 2)))[0])
        assert abs(val - expected) <= 0.02 * form.sup


def test_dirac_formula_error_halves_with_h():
    form = TestForm(center=(0.0, 0.0), radius=0.5)
    errs = []
    for dims in (128, 256):
        u = builtin_field("radial", (dims, dims))
        errs.append(abs(jacobian_pairing(u, form) - form.sup))
    assert errs[1] <= 0.75 * errs[0]


def test_smooth_nullity():
    vals = []
    for dims in (128, 256):
        u = builtin_field("smooth_bump", (dims, dims))
        worst = 0.0
        for form in form_battery(u.box):
            worst = max(worst, abs(jacobian_pairing(u, form)) / form.grad_sup)
        vals.append(worst)
    assert vals[0] <= 1e-2
    assert vals[1] <= vals[0]


def test_pairing_away_from_singularities():
    u = builtin_field("radial", (128, 128))
    form = TestForm(center=(0.6, 0.6), radius=0.3)
    assert abs(jacobian_pairing(u, form)) <= 1e-2 * form.grad_sup


# ---------------------------------------------------------------------------
# Cell degree sweep
# ---------------------------------------------------------------------------


def test_sweep_radial():
    rep = cell_degree_sweep(builtin_field("radial", (128, 128)))
    assert len(rep.atoms) == 1
    (loc, deg) = rep.atoms[0]
    assert deg == 1 and np.linalg.norm(loc) < 2.0 / 127


def test_sweep_dipole_locations():
    u = builtin_field("dipole", (128, 128))
    rep = cell_degree_sweep(u)
    assert [d for _, d in rep.atoms] == [1, -1]
    cell = np.sqrt(2) * u.hmax
    assert np.linalg.norm(np.asarray(rep.atoms[0][0]) - [-0.3, 0.0]) <= cell
    assert np.linalg.norm(np.asarray(rep.atoms[1][0]) - [0.3, 0.0]) <= cell


def test_sweep_smooth_empty():
    assert cell_degree_sweep(builtin_field("smooth_bump", (96, 96))).atoms == []


def test_sweep_pairing_consistency():
    rep = cell_degree_sweep(builtin_field("radial", (128, 128)))
    # atom model reproduces every battery pairing to 5% of the peak value
    peak = np.exp(-1.0)
    assert rep.residual <= 0.05 * peak


def test_degree_additivity_on_enclosing_circles():
    u = builtin_field("dipole", (128, 128))
    atoms = cell_degree_sweep(u).atoms
    assert sum(d for _, d in atoms) == hurewicz_degree(u, centered_circle(0.8))
    left = centered_circle(0.2, center=(-0.3, 0.0))
    assert hurewicz_degree(u, left) == 1


def test_sweep_3d_radial():
    rep = cell_degree_sweep(builtin_field("radial", (32, 32, 32)))
    assert len(rep.atoms) == 1 and rep.atoms[0][1] == 1


# ---------------------------------------------------------------------------
# Extendability oracle
# ---------------------------------------------------------------------------


def oracle_for(name_or_field, dims=128, seed=3, disks=64):
    u = name_or_field if not isinstance(name_or_field, str) else builtin_field(name_or_field, (dims, dims))
    w = maximal_function_detector(u, p=1.5)
    gammas = standard_disk_boundaries(u.box, ell=1, count=disks, seed=seed)
    return extendability_oracle(u, gammas, w)


def test_oracle_radial_obstructed():
    v = oracle_for("radial")
    assert not v.extendable
    assert v.atoms == [((0.0, 0.0), 1)] or (
        len(v.atoms) == 1 and v.atoms[0][1] == 1 and np.linalg.norm(v.atoms[0][0]) < 0.02
    )
    assert v.admissible >= 32


def test_oracle_degree_zero_homogeneous_extendable():
    u = homogeneous_from_loop(lambda th: 0.8 * np.sin(th), (128, 128))
    v = oracle_for(u)
    assert v.extendable and v.admissible >= 32


def test_oracle_dipole_obstructed():
    v = oracle_for("dipole")
    assert not v.extendable
    assert sorted(d for _, d in v.atoms) == [-1, 1]


def test_oracle_smooth_extendable():
    assert oracle_for("smooth_bump").extendable


def test_oracle_screens_out_disks_near_the_singular_set():
    """Disks that pass the detector but have a sample within one cell of a
    vortex are screened out rather than raising CurveHitsSingularSet."""
    v = oracle_for("dipole", dims=448, seed=23, disks=224)
    assert v.label == "obstructed"
    assert v.admissible == 220 and sum(d != 0 for _, d in v.degrees) == 34
    assert sorted(d for _, d in v.atoms) == [-1, 1]


def test_oracle_insufficient_disks():
    u = builtin_field("radial", (96, 96))
    w = maximal_function_detector(u, p=1.5)
    gammas = standard_disk_boundaries(u.box, ell=1, count=16, seed=0)
    with pytest.raises(InsufficientAdmissibleDisks):
        extendability_oracle(u, gammas, w, budget=1e-12)


def test_jacobian_battery_reports_exclusions():
    u = builtin_field("radial", (96, 96))
    pairings, vol = jacobian_battery(u)
    assert len(pairings) == 9
    assert 0.0 < vol < 0.05
