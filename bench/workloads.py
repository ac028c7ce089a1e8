"""The four benchmark workloads.

A workload builds its inputs from the seed when it is created (set-up),
warms up, and then runs rounds.  A round is a fixed list of
operations on sobtop's public API; each operation returns plain data taken
from the program's reports, or the error it raised.  ``check`` compares one
round's outputs with values computed apart from the program (see checks.py).

Sizes follow two rules.  Every planar pipeline runs at eta/h >= 16: below
that a +-1 vortex cube can miss the bad-cube threshold, because the excluded
core drops its energy, and the pipeline then leaves the vortex untouched.
And one round takes several seconds, so that no end-to-end time rests on a
sub-second operation.
"""

import numpy as np

# The program imports these inside functions; importing them here puts their
# cost in set-up rather than in the first timed round.
import scipy.integrate  # noqa: F401
import scipy.signal  # noqa: F401
import scipy.sparse.linalg  # noqa: F401

import sobtop
import sobtop.pipeline
from sobtop.errors import ComputationError
from sobtop.util import node_mesh

import checks
import layers


def before_each_op():
    """Called before every operation of a round; run.py points it at the
    reference kernel, whose time it takes out of the round's time."""


def attempt(name, fn, *args):
    """One operation: its outputs, or the computational error it raised."""
    before_each_op()
    try:
        return {"op": name, "out": fn(*args)}
    except ComputationError as e:
        return {"op": name, "error": f"{type(e).__name__}: {e}"}


def _atoms(atoms):
    return [(tuple(float(x) for x in loc), int(d)) for loc, d in atoms]


def _pipeline(u, classification, seed, eta, p, alpha):
    rep = sobtop.run_pipeline(u, sobtop.PipelineParams(eta=eta, p=p, alpha=alpha, seed=seed))
    stages = {s.stage: s for s in rep.stages}
    return {
        "eta": eta,
        "h": u.hmax,
        "final_class": rep.final_class,
        "atoms": _atoms(rep.final_atoms),
        "final_distance": rep.final_distance,
        "stage_distance_sum": rep.extra["stage_distance_sum"],
        "fop_consistency": stages["open"].extra["fop_consistency"],
        "stages": [s.stage for s in rep.stages],
        "bad_centers": [tuple(c) for c in classification.value.bad_cube_centers()],
    }


def _classification():
    """The ``Classification`` of the latest ``run_pipeline`` call; the report
    itself carries only the number of bad cubes."""
    return layers.LastResult("pipeline", "classify_cubes")


def vortex_gas(seed, dims, eta=0.25, cells=(1, 4), jitter=0.05):
    """A seeded gas of +-1 vortices with an exact point mask.

    One vortex sits in each cube (i, j), i and j in ``cells``, of the
    eta-cubication of [-1 + eta, 1 - eta]^2, uniformly within ``jitter * eta``
    of the cube centre; the signs are a seeded permutation of equally many +1
    and -1.  Vortices are then at least 2*eta apart in the sup norm and each
    stays well inside its cube whatever the pipeline's cubication offset.
    With the defaults on 130^2, seeds 1-300 all give 4 bad and 36 padded
    cubes; at jitter 0.1 the bad count ranged from 4 to 7 with the seed,
    because a neighbour cube's window could catch a vortex's energy.
    """
    rng = np.random.default_rng([seed % 2**32, 0x6A5])
    centres = [(-1.0 + eta + (i + 0.5) * eta, -1.0 + eta + (j + 0.5) * eta) for i in cells for j in cells]
    signs = np.array([1, -1] * (len(centres) // 2) + [1] * (len(centres) % 2))
    rng.shuffle(signs)
    locs = [tuple(c + rng.uniform(-jitter * eta, jitter * eta, 2)) for c in centres]
    box = sobtop.unit_box(2)
    pts = node_mesh(box.lo, box.hi, dims)
    z = pts[..., 0] + 1j * pts[..., 1]
    phase = sum(s * np.angle(z - complex(*a)) for a, s in zip(locs, signs))
    vals = np.stack([np.cos(phase), np.sin(phase)], axis=-1)
    mask = sobtop.StructuredSingularSet.points(locs)
    u = sobtop.GridField(box, tuple(dims), vals, target=1, singular_mask=mask)
    return u, [(loc, int(s)) for loc, s in zip(locs, signs)]


class PipelineDipole:
    """The builtin dipole at two cube sides; the full-skeleton opening dominates."""

    DIMS = (138, 138)
    ETAS = (0.5, 0.25)
    P, ALPHA = 1.5, 0.05
    VORTICES = [((-0.3, 0.0), 1), ((0.3, 0.0), -1)]

    def __init__(self, seed):
        self.seed = seed
        self.classification = _classification()
        self.u = sobtop.builtin_field("dipole", self.DIMS)

    def _run(self, eta):
        return _pipeline(self.u, self.classification, self.seed, eta, self.P, self.ALPHA)

    def warmup(self):
        self._run(self.ETAS[0])

    def round(self):
        return [attempt(f"pipeline dipole eta={eta}", self._run, eta) for eta in self.ETAS]

    def check(self, ops):
        outs = [op["out"] for op in ops if "out" in op]
        problems = [p for out in outs for p in checks.pipeline_planar(out, self.VORTICES)]
        if len(outs) == len(ops):
            problems += checks.eta_convergence(outs)
        return problems


class PipelineDense:
    """A seeded vortex gas whose padded cubes cover the whole cubication, and
    the 3-D radial map with an S^2 target."""

    DIMS = (130, 130)
    ETA, P, ALPHA = 0.25, 1.5, 0.05
    DIMS3 = (16, 16, 16)
    ETA3, P3, ALPHA3 = 0.5, 2.5, 0.1

    def __init__(self, seed):
        self.seed = seed
        self.classification = _classification()
        self.gas, self.vortices = vortex_gas(seed, self.DIMS, eta=self.ETA)
        self.radial3 = sobtop.builtin_field("radial", self.DIMS3)

    def _sweep(self):
        return {"atoms": _atoms(sobtop.cell_degree_sweep(self.gas).atoms), "h": self.gas.hmax}

    def _gas(self):
        return _pipeline(self.gas, self.classification, self.seed, self.ETA, self.P, self.ALPHA)

    def _radial3(self):
        return _pipeline(self.radial3, self.classification, self.seed, self.ETA3, self.P3, self.ALPHA3)

    def warmup(self):
        self._sweep()
        self._gas()

    def round(self):
        return [
            attempt("sweep gas", self._sweep),
            attempt("pipeline gas", self._gas),
            attempt("pipeline radial 3-D", self._radial3),
        ]

    def check(self, ops):
        problems = []
        for op in ops:
            if "out" not in op:
                continue
            out = op["out"]
            if op["op"] == "sweep gas":
                problems += [f"sweep: {p}" for p in checks.match_atoms(out["atoms"], self.vortices, out["h"])]
            elif op["op"] == "pipeline gas":
                problems += checks.pipeline_planar(out, self.vortices)
            else:
                problems += checks.radial3(out)
        return problems


def hopf_values(points, reverse=False, squared=False):
    """The Hopf fibration S^3 -> S^2 (invariant 1) at the given points; with
    ``reverse`` precomposed with the reflection x3 -> -x3 (invariant -1), with
    ``squared`` followed by the suspension of z -> z^2 (invariant 4)."""
    x0, x1, x2, x3 = points.T
    if reverse:
        x3 = -x3
    w = 2.0 * ((x0 * x2 + x1 * x3) + 1j * (x1 * x2 - x0 * x3))
    t = x0**2 + x1**2 - x2**2 - x3**2
    if squared:
        r = np.abs(w)
        w = np.where(r > 1e-14, w * w / np.where(r > 1e-14, r, 1.0), 0.0)
    v = np.stack([w.real, w.imag, t], axis=-1)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class Hopf:
    """Whitehead integral and linking number on the triangulated S^3."""

    # (refinement, map, analytic invariant)
    MAPS = ((4, "fibration", 1), (4, "reflected", -1), (4, "squared", 4), (5, "fibration", 1))

    def __init__(self, seed):
        self.decs = {}
        for ref in sorted({m[0] for m in self.MAPS}):
            self.decs[ref] = sobtop.DECSphere3(sobtop.TriangulatedSphere(3, ref))
        self.maps = []
        for ref, name, expected in self.MAPS:
            sphere = self.decs[ref].sphere
            vals = hopf_values(sphere.vertices, reverse=name == "reflected", squared=name == "squared")
            self.maps.append((ref, name, expected, sobtop.SampledSphereMap(sphere=sphere, values=vals)))

    def warmup(self):
        sphere = sobtop.TriangulatedSphere(3, 2)
        v = sobtop.SampledSphereMap(sphere=sphere, values=hopf_values(sphere.vertices))
        sobtop.hopf_whitehead(v, dec=sobtop.DECSphere3(sphere))
        sobtop.hopf_linking(v)

    def _invariants(self, ref, v):
        return {"whitehead": float(sobtop.hopf_whitehead(v, dec=self.decs[ref])), "linking": int(sobtop.hopf_linking(v))}

    def round(self):
        return [
            attempt(f"hopf r{ref} {name}", self._invariants, ref, v) for ref, name, _, v in self.maps
        ]

    def check(self, ops):
        problems = []
        for op, (ref, _, expected, _) in zip(ops, self.maps):
            if "out" in op:
                problems += checks.hopf_values(ref, expected, op["out"]["whitehead"], op["out"]["linking"])
        return problems


def smooth_bump_derivative_norm(p, amplitude=1.2, radius=0.8, n=400001):
    """||D exp(i beta(|x|))||_p for beta = amplitude * exp(-1/(1-(r/radius)^2)),
    the builtin smooth_bump, by a 1-D radial quadrature (Simpson's rule)."""
    r = np.linspace(0.0, radius, n)
    t = np.minimum(r / radius, 1.0 - 1e-15)
    q = 1.0 - t * t
    beta_r = amplitude * np.exp(-1.0 / q) * (-2.0 * t / q**2) / radius
    f = np.abs(beta_r) ** p * 2.0 * np.pi * r
    dr = r[1] - r[0]
    integral = dr / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    return integral ** (1.0 / p)


def rotated(u, angle=1.0):
    """The same field with its S^1 target rotated by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    vals = u.values @ np.array([[c, s], [-s, c]])
    return sobtop.GridField(u.box, u.dims, vals, target=u.target, singular_mask=u.singular_mask)


class Screen:
    """Screening tools on an analytic corpus and the norms of a smooth map."""

    DIMS = (448, 448)
    DISKS = 224
    FAILING_DISK_SEED = 23  # reproduces CurveHitsSingularSet on the dipole
    P = 1.5
    NORM_DIMS = (48, 48)
    RADII = (0.2, 0.4)
    WEDGE_DIMS = (96, 96)
    WEDGE_RADII = (0.1, 0.2, 0.4)
    FRACTIONAL_S = 0.5

    def __init__(self, seed, disk_seed=0):
        box = sobtop.unit_box(2)
        gas, gas_atoms = vortex_gas(seed, self.DIMS)
        # (name, field, analytic atoms, run the oracle); power_2 fails today.
        # The oracle raises CurveHitsSingularSet on some disk sets, because a
        # disk whose samples pass within one cell of a singular point can
        # still be admissible: on the dipole for disk seeds 17 and 23, on the
        # gas for some pairs of gas and disk seeds.  So the disk set does not
        # follow the gas seed, the gas gets no oracle, and the dipole is
        # screened once more on the failing disk seed 23, counted as failed.
        self.corpus = [
            ("radial", sobtop.builtin_field("radial", self.DIMS), [((0.0, 0.0), 1)], True),
            ("dipole", sobtop.builtin_field("dipole", self.DIMS), [((-0.3, 0.0), 1), ((0.3, 0.0), -1)], True),
            ("smooth_bump", sobtop.builtin_field("smooth_bump", self.DIMS), [], True),
            ("loop", sobtop.homogeneous_from_loop(lambda th: 0.8 * np.sin(th), self.DIMS), [], True),
            ("gas", gas, gas_atoms, False),
            ("power_2", sobtop.builtin_field("power_2", self.DIMS), [((0.0, 0.0), 2)], True),
        ]
        self.disks = sobtop.standard_disk_boundaries(box, ell=1, count=self.DISKS, seed=disk_seed)
        self.failing_disks = sobtop.standard_disk_boundaries(box, ell=1, count=self.DISKS, seed=self.FAILING_DISK_SEED)
        self.bump = self.corpus[2][1]
        self.lp_exact = box.volume ** (1.0 / self.P)
        self.derivative_ref = smooth_bump_derivative_norm(self.P)
        small = sobtop.builtin_field("smooth_bump", self.NORM_DIMS)
        self.small = (small, rotated(small))
        pts = node_mesh(box.lo, box.hi, self.WEDGE_DIMS)
        x, y = pts[..., 0], pts[..., 1]
        self.wedge = sobtop.GridField(box, self.WEDGE_DIMS, np.where(x >= 0, 1.0, -1.0))
        self.wedge_mask = ((y >= 0) & (y <= x) & (x <= 1)) | ((y >= 0) & (y <= -x) & (x >= -1))

    def warmup(self):
        _, u, _, oracle = self.corpus[0]
        self._screen(u, oracle)
        small = sobtop.builtin_field("radial", (32, 32))
        sobtop.mean_oscillation(small, radii=(0.5,))
        sobtop.fractional_seminorm(small, s=self.FRACTIONAL_S, p=self.P)

    def _screen(self, u, oracle):
        sweep = sobtop.cell_degree_sweep(u)
        w = sobtop.maximal_function_detector(u, p=self.P)
        out = {"sweep_atoms": _atoms(sweep.atoms), "detector_integral": w.integral, "h": u.hmax}
        if oracle:
            verdict = sobtop.extendability_oracle(u, self.disks, w)
            out.update(verdict=verdict.label, atoms=_atoms(verdict.atoms))
        return out

    def _oracle_failing_disks(self):
        u = self.corpus[1][1]
        verdict = sobtop.extendability_oracle(u, self.failing_disks, sobtop.maximal_function_detector(u, p=self.P))
        return {"verdict": verdict.label, "atoms": _atoms(verdict.atoms), "h": u.hmax}

    def _sobolev(self):
        rep = sobtop.sobolev_norm(self.bump, k=1, p=self.P)
        return {"lp": rep.lp, "derivative": rep.derivative_terms[0]}

    def _oscillation(self):
        return [list(sobtop.mean_oscillation(u, radii=self.RADII).values) for u in self.small]

    def _fractional(self):
        return [sobtop.fractional_seminorm(u, s=self.FRACTIONAL_S, p=self.P).value for u in self.small]

    def _wedge(self):
        return list(sobtop.mean_oscillation(self.wedge, radii=self.WEDGE_RADII, domain_mask=self.wedge_mask).values)

    def round(self):
        ops = [attempt(f"screen {name}", self._screen, u, oracle) for name, u, _, oracle in self.corpus]
        ops.append(attempt("oracle dipole failing disks", self._oracle_failing_disks))
        ops.append(attempt("sobolev smooth_bump", self._sobolev))
        ops.append(attempt("oscillation smooth_bump", self._oscillation))
        ops.append(attempt("fractional smooth_bump", self._fractional))
        ops.append(attempt("oscillation wedge", self._wedge))
        return ops

    def check(self, ops):
        problems = []
        by_name = {op["op"]: op for op in ops}
        for name, _, atoms, oracle in self.corpus:
            out = by_name[f"screen {name}"].get("out")
            if out is None:
                continue
            if oracle:
                problems += [f"{name}: {p}" for p in checks.screen_verdict(out, atoms, out["h"])]
            else:
                problems += [f"{name}: sweep: {p}" for p in checks.match_atoms(out["sweep_atoms"], atoms, out["h"])]
        out = by_name["oracle dipole failing disks"].get("out")
        if out is not None:
            problems += [f"dipole, disk seed {self.FAILING_DISK_SEED}: {p}"
                         for p in checks.oracle_verdict(out, self.corpus[1][2], out["h"])]
        out = by_name["sobolev smooth_bump"].get("out")
        if out is not None:
            problems += checks.sobolev_terms(out, self.lp_exact, self.derivative_ref)
        out = by_name["oscillation smooth_bump"].get("out")
        if out is not None:
            problems += checks.rotation_invariant("mean oscillation", *out)
        out = by_name["fractional smooth_bump"].get("out")
        if out is not None:
            problems += checks.rotation_invariant("fractional seminorm", [out[0]], [out[1]])
        out = by_name["oscillation wedge"].get("out")
        if out is not None:
            problems += checks.wedge_oscillation(out)
        return problems


WORKLOADS = {
    "pipeline_dipole": PipelineDipole,
    "pipeline_dense": PipelineDense,
    "hopf": Hopf,
    "screen": Screen,
}
