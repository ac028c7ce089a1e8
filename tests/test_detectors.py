import numpy as np
import pytest

from sobtop import (
    DetectorField,
    builtin_field,
    fuglede_check,
    maximal_function_detector,
    power_distance_detector,
    translation_average,
    unit_box,
)
from sobtop.errors import NoAdmissibleTranslate, NonSummable
from sobtop.fields import finite_difference
from sobtop.geometry import BoundaryParam, StructuredSingularSet, TriangulatedSphere

ORIGIN = StructuredSingularSet.points([(0.0, 0.0)])


def circle(radius, center=(0.0, 0.0), refinement=5):
    return BoundaryParam(
        sphere=TriangulatedSphere(1, refinement),
        radius=radius,
        center=np.asarray(center, dtype=float),
        axes=(0, 1),
        m=2,
    )


def test_maximal_detector_constant():
    u = builtin_field("constant", (48, 48))
    w = maximal_function_detector(u, p=2.0)
    assert np.allclose(w.w, 1.0)
    assert w.integral == pytest.approx(4.0, rel=1e-9)


def test_maximal_detector_radial_lower_bound():
    u = builtin_field("radial", (96, 96))
    w = maximal_function_detector(u, p=2.0)
    du = finite_difference(u, 1)
    mag2 = du.magnitude() ** 2
    ok = np.isfinite(w.w)
    assert np.all(w.w[ok] >= mag2[ok] - 1e-9)
    # grows toward the mask: compare ring averages
    r = np.linalg.norm(u.nodes(), axis=-1)
    near = ok & (r < 0.1)
    far = ok & (r > 0.7)
    assert np.mean(w.w[near]) > 10.0 * np.mean(w.w[far])


def test_maximal_dyadic_within_dimensional_factor():
    """Dyadic-radius maximal function vs the all-radii brute force oracle."""
    u = builtin_field("smooth_bump", (24, 24))
    du = finite_difference(u, 1)
    mag = du.magnitude()
    nodes = u.nodes().reshape(-1, 2)
    flat = mag.reshape(-1)
    wq = u.weights().reshape(-1)
    radii = np.arange(1, 35) * u.hmax * 0.5
    oracle = flat.copy()
    for i, x in enumerate(nodes):
        d2 = np.sum((nodes - x) ** 2, axis=1)
        for r in radii:
            sel = d2 <= r * r
            oracle[i] = max(oracle[i], np.sum(wq[sel] * flat[sel]) / np.sum(wq[sel]))
    w = maximal_function_detector(u, p=1.0)
    dyadic = w.w.reshape(-1) - np.linalg.norm(u.values, axis=-1).reshape(-1) ** 1.0
    assert np.all(oracle <= (2.0**2) * np.maximum(dyadic, flat) + 1e-9)


def test_power_distance_integral_against_polar_oracle():
    w = power_distance_detector(ORIGIN, 1.0, unit_box(2), (96, 96), screen_dim=1)
    exact = 8.0 * np.log(1.0 + np.sqrt(2.0))  # integral of 1/|x| over [-1,1]^2
    assert abs(w.integral - exact) <= 0.05 * exact


def test_power_distance_screening():
    w = power_distance_detector(ORIGIN, 1.0, unit_box(2), (96, 96), screen_dim=1)
    through = fuglede_check(w, circle(0.3, center=(0.3, 0.0)))
    assert not through.admissible and np.isinf(through.integral)
    avoiding = fuglede_check(w, circle(0.3, center=(0.45, 0.0)))
    assert avoiding.admissible
    # sup bound: integral <= perimeter / d(gamma, T)^alpha
    perimeter = 2 * np.pi * 0.3
    assert avoiding.integral <= perimeter / 0.15**1.0 * 1.05


def test_power_distance_non_summable():
    with pytest.raises(NonSummable):
        power_distance_detector(ORIGIN, 3.5, unit_box(2), (128, 128))


def test_power_distance_alpha_window():
    with pytest.raises(ValueError):
        power_distance_detector(ORIGIN, 2.5, unit_box(2), (32, 32), screen_dim=1)


def test_fuglede_arclength_and_additivity():
    box = unit_box(2)
    ones = DetectorField(box, (48, 48), np.ones((48, 48)), provenance="unit")
    g = circle(0.4)
    v = fuglede_check(ones, g, budget=np.inf)
    assert abs(v.integral - 2 * np.pi * 0.4) <= 0.01 * 2 * np.pi * 0.4
    w2 = DetectorField(box, (48, 48), 2.0 * np.ones((48, 48)), provenance="two")
    both = DetectorField(box, (48, 48), ones.w + w2.w, provenance="sum")
    s = fuglede_check(both, g, budget=np.inf)
    assert abs(s.integral - (v.integral + fuglede_check(w2, g, budget=np.inf).integral)) < 1e-9


def test_fuglede_infinite_budget_means_finite():
    u = builtin_field("radial", (64, 64))
    w = maximal_function_detector(u, p=1.5)
    v = fuglede_check(w, circle(0.5), budget=np.inf)
    assert v.admissible == bool(np.isfinite(v.integral))


def test_screening_soundness_admissible_keeps_distance():
    from sobtop import standard_disk_boundaries
    from sobtop.geometry import distance_to_set

    w = power_distance_detector(ORIGIN, 1.0, unit_box(2), (96, 96), screen_dim=1)
    disks = standard_disk_boundaries(unit_box(2), ell=1, count=48, seed=11)
    for k, g in enumerate(disks):
        verdict = fuglede_check(w, g)
        if verdict.admissible:
            assert np.min(distance_to_set(g.samples, ORIGIN)) > 0.0


def test_translation_average_uniform_detector():
    box = unit_box(2)
    ones = DetectorField(box, (48, 48), np.ones((48, 48)), provenance="unit")
    g = circle(0.3)
    stats = translation_average(ones, g, delta=0.1, samples=128, seed=5)
    assert stats.admissible == 128
    assert abs(stats.mean - stats.min) <= 0.02 * stats.mean
    # determinism
    again = translation_average(ones, g, delta=0.1, samples=128, seed=5)
    assert np.array_equal(stats.argmin_xi, again.argmin_xi) and stats.mean == again.mean


def test_translation_average_tonelli_bound():
    u = builtin_field("radial", (96, 96))
    w = maximal_function_detector(u, p=1.5)
    g = circle(0.5)
    stats = translation_average(w, g, delta=0.2, samples=512, seed=1)
    ball = np.pi * 0.2**2
    assert stats.mean * ball <= 2.0 * g.image_measure() * w.integral
    # measure-zero bad set never sampled: every translate admissible here
    assert stats.admissible == 512


def test_translation_average_no_admissible():
    box = unit_box(2)
    w = DetectorField(box, (32, 32), np.full((32, 32), np.inf), provenance="wall")
    with pytest.raises(NoAdmissibleTranslate):
        translation_average(w, circle(0.3), delta=0.1, samples=16, seed=0)
