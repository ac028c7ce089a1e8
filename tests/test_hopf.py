import copy
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import cg

from sobtop import DECSphere3, hopf_linking, hopf_whitehead
from sobtop.builtins import hopf_fibration, hopf_map
from sobtop.cli import main
from sobtop.errors import ComputationError, NonClosedForm, SolverDivergence, Undersampled
from sobtop.fields import SampledSphereMap
from sobtop.geometry import TriangulatedSphere
from sobtop.hopf import dec_sphere, whitney_pairing_matrix


def test_dec_structure():
    dec = dec_sphere(2)
    assert abs(dec.d1 @ dec.d0).max() == 0.0
    assert abs(dec.d2 @ dec.d1).max() == 0.0
    V = len(dec.sphere.vertices)
    E, F, T = len(dec.edges), len(dec.faces), len(dec.sphere.simplices)
    assert V - E + F - T == 0  # Euler characteristic of S^3
    # the Whitney pairing of a closed omega ignores the gauge of chi, which
    # holds only if the per-tet edge and face signs agree with d0 and d1
    omega = dec.area_cochain(hopf_fibration(2).values)
    chi = dec.solve_potential(omega)
    f = np.random.default_rng(5).normal(size=V)
    assert abs(dec.wedge_pair(chi + dec.d0 @ f, omega) - dec.wedge_pair(chi, omega)) <= 1e-12


# sha256 of each array's bytes, recorded from the DEC build that
# deduplicated faces and edges with np.unique(axis=0)
_DEC2_DIGESTS = {
    "faces": "0c2305d17aae8c2b92de0545df0ecdaf65e86cd2624b0f99a8fb9228d51be1dc",
    "edges": "ddc32806e863dfce52d850f2c6a80afb8da9abea67d108b0f57fca5ad59091b7",
    "d0.data": "ef13500e7dc0a6dd75f64eee9f6cfd92e94dc54d171827d5c35bd78ee5066121",
    "d0.indices": "e6c36db445f1a0da1bb29cd4a78000a32cf919fd719c5c0586c217b666113686",
    "d0.indptr": "cab167cda9874efc4a0276a65370f0effaead7ad1dc33a27d362b2880c4e8103",
    "d1.data": "de5f43dafbfd38edc2e1b0ad1f2d2d0050e2304aeb695fe9f40bdeaf33fc6ef7",
    "d1.indices": "0ef21c2052e06689ae0d091b14cdb2afddce42f8b98b6fd5b060ca2d783712eb",
    "d1.indptr": "4b6f22b350b72f07278355d21bc42e37a0b885aaaeded7bab2336d7d25a2c1d5",
    "d2.data": "ae6cfa0ad196483c0b6aa42ac441bf87fb3bb07ecf791bc36370fdb41d281919",
    "d2.indices": "f69e435410701389a5f199ce413436783b4d4bcffa332ef60c5afbcfb449420c",
    "d2.indptr": "a75054049fdb48f70fe5fb426336824877c725e14764cec0002e019c1e1f18ee",
}


def test_dec_arrays_are_pinned():
    dec = DECSphere3(TriangulatedSphere(3, 2))
    arrays = {"faces": dec.faces, "edges": dec.edges}
    for name in ("d0", "d1", "d2"):
        M = getattr(dec, name)
        arrays.update({f"{name}.data": M.data, f"{name}.indices": M.indices, f"{name}.indptr": M.indptr})
    assert {k: hashlib.sha256(a.tobytes()).hexdigest() for k, a in arrays.items()} == _DEC2_DIGESTS


def test_whitney_matrix_is_universal():
    K = whitney_pairing_matrix()
    assert K.shape == (6, 4)
    # wedge of an edge with a face not containing complementary vertices vanishes
    assert abs(K).max() <= 1.0 / 12.0 + 1e-15


def test_hopf_whitehead_fibration():
    v3 = hopf_fibration(3)
    assert abs(hopf_whitehead(v3) - 1.0) < 0.05
    v4 = hopf_fibration(4)
    assert abs(hopf_whitehead(v4) - 1.0) < 0.15


def test_hopf_whitehead_constant():
    sph = TriangulatedSphere(3, 3)
    const = SampledSphereMap(sphere=sph, values=np.tile([0.0, 0.0, 1.0], (len(sph.vertices), 1)))
    assert abs(hopf_whitehead(const)) < 1e-8
    assert hopf_linking(const) == 0


def test_hopf_linking_fibration_exact():
    for r in (3, 4):
        assert hopf_linking(hopf_fibration(r)) == 1


def test_hopf_reverse_orientation():
    v = hopf_fibration(4, reverse=True)
    assert hopf_linking(v) == -1
    assert abs(hopf_whitehead(v) + 1.0) < 0.15


def test_hopf_target_squared_gives_four():
    # postcomposing with a degree-2 self-map of the target multiplies by 4
    v = hopf_fibration(4, squared=True)
    lk = hopf_linking(v)
    wh = hopf_whitehead(v)
    assert lk == 4
    assert abs(wh - lk) <= 0.2


def test_whitehead_linking_agreement_corpus():
    for kwargs in ({}, {"reverse": True}):
        v = hopf_fibration(4, **kwargs)
        assert abs(hopf_whitehead(v) - hopf_linking(v)) <= 0.2


def test_linking_value_independence():
    v = hopf_fibration(3)
    q1 = np.array([0.1, 0.2, 0.97])
    q2 = np.array([-0.3, 0.1, -0.94])
    assert hopf_linking(v, q1 / np.linalg.norm(q1), q2 / np.linalg.norm(q2)) == 1


def test_non_closed_form_rejected():
    sph = TriangulatedSphere(3, 1)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(len(sph.vertices), 3))
    vals /= np.linalg.norm(vals, axis=1, keepdims=True)
    v = SampledSphereMap(sphere=sph, values=vals)
    with pytest.raises(NonClosedForm):
        hopf_whitehead(v)


def test_antipodal_edge_is_undersampled():
    """At refinement 1 the reversed fibration has edges between antipodal
    values, whose solid angle is undefined: the map is undersampled, not a
    non-closed form, and it is still a computational fault (exit code 3)."""
    with pytest.raises(Undersampled, match="16 edges join antipodal values.*finer refinement") as err:
        hopf_whitehead(hopf_fibration(1, reverse=True))
    assert isinstance(err.value, ComputationError)
    assert abs(hopf_whitehead(hopf_fibration(2, reverse=True)) + 1.0) < 0.5


def test_dec_reuse_is_cached():
    assert dec_sphere(2) is dec_sphere(2)


def test_hopf_whitehead_rebuilds_dec_for_relabelled_sphere():
    """A complex with as many vertices but other simplices is not reused."""
    sphere = TriangulatedSphere(3, 2)
    perm = np.random.default_rng(1).permutation(len(sphere.vertices))
    relabelled = copy.copy(sphere)
    relabelled.vertices = sphere.vertices[perm]
    relabelled.simplices = np.argsort(perm)[sphere.simplices]
    expected = hopf_whitehead(SampledSphereMap(sphere=sphere, values=hopf_map(sphere.vertices)))
    v = SampledSphereMap(sphere=relabelled, values=hopf_map(relabelled.vertices))
    assert abs(hopf_whitehead(v) - expected) < 1e-6
    assert abs(hopf_whitehead(v, dec=DECSphere3(sphere)) - expected) < 1e-6


def test_cli_hopf_triangulates_once(monkeypatch, capsys):
    built = []
    init = TriangulatedSphere.__init__

    def counted(self, dim, refinement):
        built.append((dim, refinement))
        init(self, dim, refinement)

    dec_sphere.cache_clear()
    monkeypatch.setattr(TriangulatedSphere, "__init__", counted)
    assert main(["hopf", "--refinement", "2"]) == 0
    assert built == [(3, 2)]


def test_hopf_whitehead_builds_dec_on_the_samples_sphere(monkeypatch):
    """On a cold cache the complex is built on the sample's own sphere: S^3
    is not triangulated a second time."""
    v = hopf_fibration(3)
    built = []
    init = TriangulatedSphere.__init__

    def counted(self, dim, refinement):
        built.append((dim, refinement))
        init(self, dim, refinement)

    dec_sphere.cache_clear()
    monkeypatch.setattr(TriangulatedSphere, "__init__", counted)
    assert abs(hopf_whitehead(v) - 1.0) < 0.05
    assert built == []
    assert dec_sphere(3).sphere is v.sphere


@pytest.mark.parametrize("refinement", [1, 2, 3, 4])
def test_peel_pairs_every_cotree_face_once(refinement):
    """The dual tree has T - 1 faces; the peel pairs each other face with its
    own edge, and the V - 1 edges left over form a spanning tree."""
    dec = DECSphere3(TriangulatedSphere(3, refinement))
    V, E, T = len(dec.sphere.vertices), len(dec.edges), len(dec.sphere.simplices)
    assert np.count_nonzero(dec.tree_faces) == T - 1
    assert np.array_equal(np.sort(dec.peel_faces), np.flatnonzero(~dec.tree_faces))
    assert len(np.unique(dec.peel_edges)) == len(dec.peel_edges)
    assert dec.peel_waves[0] == 0 and dec.peel_waves[-1] == len(dec.peel_faces)
    rest = np.setdiff1d(np.arange(E), dec.peel_edges)
    assert len(rest) == V - 1
    a, b = dec.edges[rest].T
    graph = sp.csr_matrix((np.ones(len(rest)), (a, b)), shape=(V, V))
    assert connected_components(graph, directed=False)[0] == 1


@pytest.mark.parametrize("kwargs", [{}, {"reverse": True}, {"squared": True}])
def test_potential_solves_every_face(kwargs):
    v = hopf_fibration(4, **kwargs)
    dec = dec_sphere(4, v.sphere)
    omega = dec.area_cochain(v.values)
    assert np.abs(dec.d1 @ dec.solve_potential(omega) - omega).max() <= 1e-12


@pytest.mark.parametrize("refinement", [3, 4])
def test_whitehead_matches_min_norm_cg(refinement):
    """The tree-cotree potential pairs to the min-norm (conjugate gradient on
    d1 d1^T) potential's value: the pairing ignores the gauge."""
    for kwargs in ({}, {"reverse": True}, {"squared": True}):
        v = hopf_fibration(refinement, **kwargs)
        dec = dec_sphere(refinement, v.sphere)
        omega = dec.area_cochain(v.values)
        y, info = cg((dec.d1 @ dec.d1.T).tocsr(), omega, rtol=1e-11, atol=0.0, maxiter=20000)
        assert info == 0
        reference = dec.wedge_pair(dec.d1.T @ y, omega)
        assert abs(hopf_whitehead(v, dec=dec) - reference) <= 1e-9


def test_potential_residual_is_checked():
    """A spike on one face breaks closure: on a dual-tree face the peel leaves
    it as that face's residual, on a cotree face it shows on a tree face."""
    dec = DECSphere3(TriangulatedSphere(3, 2))
    omega = dec.area_cochain(hopf_fibration(2).values)
    dec.solve_potential(omega)
    for face in (np.flatnonzero(dec.tree_faces)[7], dec.peel_faces[len(dec.peel_faces) // 2]):
        spiked = omega.copy()
        spiked[face] += 1e-3
        with pytest.raises(SolverDivergence, match="residual"):
            dec.solve_potential(spiked)


def test_bench_hopf_traced_smoke():
    """One short traced run of the benchmark's hopf workload passes its checks
    (the tracer wraps sobtop.hopf.cg, so the name must stay)."""
    root = Path(__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hopf", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert '"correct": true' in run.stdout
