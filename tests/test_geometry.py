import hashlib

import numpy as np
import pytest

from sobtop import (
    Box,
    Cubication,
    StructuredSingularSet,
    TriangulatedSphere,
    distance_to_set,
    standard_disk_boundaries,
    unit_box,
)
from sobtop.errors import DegenerateBox, NonDivisibleEta
from sobtop.geometry import Piece


def test_cubication_2d_counts():
    c = Cubication(unit_box(2), 1.0)
    assert len(c.cube_units) == 4
    assert len(c.skeleton(0)) == 9
    dual = c.dual_skeleton(1)  # T^{1*} = T^0
    centers = sorted(tuple(c.face_center(f)) for f in dual)
    assert centers == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]


def test_cubication_single_cube():
    c = Cubication(unit_box(2), 2.0)
    assert len(c.cube_units) == 1
    dual = c.dual_skeleton(1)
    assert [tuple(c.face_center(f)) for f in dual] == [(0.0, 0.0)]


def test_cubication_3d_dual_brute_force():
    """Dual of S^1 in [-1,1]^3 at eta=1: compare against an independent
    enumeration of the shifted-lattice cells contained in the box."""
    c = Cubication(unit_box(3), 1.0)
    assert len(c.cube_units) == 8
    dual = c.dual_skeleton(1)
    got = sorted((f.center_units, f.span) for f in dual)
    # oracle: 1-cells with even spanned coordinate and odd fixed coordinates,
    # wholly inside the box (units of eta/2, coordinates in 0..4)
    oracle = []
    for span_ax in range(3):
        fixed = [a for a in range(3) if a != span_ax]
        for cs in np.ndindex(5, 5, 5):
            if cs[span_ax] % 2 != 0 or any(cs[a] % 2 != 1 for a in fixed):
                continue
            if cs[span_ax] - 1 < 0 or cs[span_ax] + 1 > 4:
                continue
            oracle.append((tuple(cs), (span_ax,)))
    assert got == sorted(oracle)
    assert len(dual) == 12  # the 1-skeleton through cube centers


def test_cubication_errors_and_tiling():
    with pytest.raises(NonDivisibleEta):
        Cubication(unit_box(2), 0.3)
    c = Cubication(unit_box(3), 0.5)
    vol = len(c.cube_units) * c.eta**3
    assert abs(vol - c.box.volume) <= 1e-12 * c.box.volume


def test_skeleton_dedup():
    c = Cubication(unit_box(2), 0.5)
    # every 1-face of every cube appears exactly once in S^1
    raw = [f.center_units for cu in c.cube_units for f in c.cube_faces(cu, 1)]
    assert len(set(raw)) == len(c.skeleton(1))
    # interior faces are generated by exactly two cubes
    from collections import Counter

    counts = Counter(raw)
    assert set(counts.values()) <= {1, 2}


def test_dual_skeleton_disjointness():
    c = Cubication(unit_box(2), 0.5)
    s1 = c.faces_to_set(c.skeleton(1), rank=1)
    rho = 0.25
    for f in c.dual_skeleton(1):
        d = distance_to_set(c.face_center(f), s1)
        assert d >= (1.0 - 2 * rho) * c.eta / 2.0 - 1e-12


def test_distance_to_set():
    pt = StructuredSingularSet.points([(0.0, 0.0)])
    assert distance_to_set((0.5, 0.0), pt) == pytest.approx(0.5)
    line = StructuredSingularSet(
        rank=1, pieces=(Piece(fixed=((0, 0.0), (1, 0.0)), spans=((2, -1.0, 1.0),)),)
    )
    assert distance_to_set((0.3, 0.4, 1.0), line) == pytest.approx(0.5)
    assert distance_to_set((0.0, 0.0, 0.2), line) == pytest.approx(0.0)
    assert distance_to_set((1.0, 1.0), StructuredSingularSet.empty()) == np.inf


@pytest.mark.parametrize("dim,refinement", [(1, 4), (2, 3), (3, 3)])
def test_triangulated_sphere_structure(dim, refinement):
    sph = TriangulatedSphere(dim, refinement)
    assert np.allclose(np.linalg.norm(sph.vertices, axis=1), 1.0, atol=1e-12)
    assert sph.boundary_of_boundary_is_zero()
    exact = sph.param_measure()
    assert abs(sph.measure() - exact) <= 0.01 * exact


# sha256 of vertices.tobytes() + simplices.tobytes(), recorded from the
# dict-of-midpoints subdivision that the vectorised one replaced
_SPHERE_DIGESTS = {
    (2, 0): "29a91dfcf31d8868ca738499cc8b4c85ca498d7430db3ad8aeb504edc2f8c56d",
    (2, 1): "074bdff33b3149ee4fdfcaab875423466ec385a81cfb51f8bc23b4deeed2531f",
    (2, 2): "82f2cdd0f22d83b90dd94be0b25a8bfd111e1e749540b6dee1504addd369c492",
    (2, 3): "15cb52bb69b3fa9e7a2043213e6cd8b3aea6151da60bbb93b17a8debb755e767",
    (3, 0): "93a6d357d3173d45596d4f833bceaf372a54cb72c02d03e95141d96350b3d56c",
    (3, 1): "22dcbcf1023261460f4ee25395e7650ec2759f18f08125908392d88eefc0e0ae",
    (3, 2): "e58dda4776bf979b8a43277d262685e515862ca88ef755915bc8c2a7658a51f8",
    (3, 3): "0c05f764fe5c1fd614dc45073b4295c95bb49c28cbdf8758943d37dddfafb418",
}


@pytest.mark.parametrize("dim,refinement", sorted(_SPHERE_DIGESTS))
def test_triangulated_sphere_is_pinned(dim, refinement):
    sph = TriangulatedSphere(dim, refinement)
    digest = hashlib.sha256(sph.vertices.tobytes() + sph.simplices.tobytes()).hexdigest()
    assert digest == _SPHERE_DIGESTS[dim, refinement]


def test_triangulated_sphere_rejects_negative_refinement():
    for dim in (1, 2, 3):
        with pytest.raises(ValueError):
            TriangulatedSphere(dim, -1)


def test_triangulated_sphere_orientation_consistency():
    """Every (dim-1)-face is shared by exactly two simplices with opposite
    induced orientations."""
    from collections import Counter

    sph = TriangulatedSphere(2, 2)
    faces = Counter()
    for s in sph.simplices:
        for i in range(3):
            sub = tuple(x for j, x in enumerate(s) if j != i)
            key = tuple(sorted(sub))
            par = 1 if list(sub) == sorted(sub) else -1
            faces[key] += par * (-1) ** i
    assert all(v == 0 for v in faces.values())
    counts = Counter()
    for s in sph.simplices:
        for i in range(3):
            counts[tuple(sorted(x for j, x in enumerate(s) if j != i))] += 1
    assert set(counts.values()) == {2}


def test_standard_disks_deterministic_and_inside():
    box = unit_box(2)
    a = standard_disk_boundaries(box, ell=1, count=16, seed=9)
    b = standard_disk_boundaries(box, ell=1, count=16, seed=9)
    for ga, gb in zip(a, b):
        assert np.array_equal(ga.samples, gb.samples)
        assert ga.lip == ga.radius
        assert np.all(box.contains(ga.samples))


def test_standard_disks_axis_choices_3d():
    disks = standard_disk_boundaries(unit_box(3), ell=1, count=60, seed=4)
    seen = {g.axes for g in disks}
    # circles parallel to one of the three coordinate planes
    assert seen <= {(0, 1), (0, 2), (1, 2)}
    assert len(seen) == 3


def test_degenerate_box():
    tiny = Box(2, (0.0, 0.0), (0.01, 0.01))
    with pytest.raises(DegenerateBox):
        standard_disk_boundaries(tiny, ell=1, count=4, seed=0, eta_min=0.5)
