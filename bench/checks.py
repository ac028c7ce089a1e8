"""Correctness checks of the benchmark, on plain data taken from sobtop's reports.

Every check returns a list of problems; an empty list means the outputs are
correct.  The expected values are analytic (placed vortices, linking numbers,
exact integrals) or properties the method must have (triangle inequality,
convergence in eta, invariance under a rotation of the target).
"""

import math


def sup_dist(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


def match_atoms(found, expected, tol):
    """Problems unless ``found`` and ``expected`` (lists of (location, degree))
    pair up one to one, each pair within sup distance ``tol`` and with equal
    degrees."""
    problems = []
    left = list(found)
    for loc, deg in expected:
        near = [i for i, (f_loc, _) in enumerate(left) if sup_dist(f_loc, loc) <= tol]
        if len(near) != 1:
            problems.append(f"{len(near)} atoms within {tol:.4g} of {tuple(loc)}, expected 1")
            continue
        f_loc, f_deg = left.pop(near[0])
        if f_deg != deg:
            problems.append(f"atom at {tuple(f_loc)} has degree {f_deg}, expected {deg}")
    if left:
        problems.append(f"unexpected atoms {left}")
    return problems


def pipeline_properties(out):
    """Method properties every pipeline report must have."""
    problems = []
    if not out["final_distance"] <= out["stage_distance_sum"]:
        problems.append(
            f"triangle inequality: final distance {out['final_distance']} > "
            f"stage distance sum {out['stage_distance_sum']}"
        )
    if out["fop_consistency"] != 0.0:
        problems.append(f"fop_consistency {out['fop_consistency']} != 0")
    return problems


def bad_cubes_hold(out, vortices):
    """Every vortex lies in a bad cube (sup distance <= eta/2 from its centre)."""
    r = out["eta"] / 2.0
    return [
        f"vortex {tuple(loc)} is in no bad cube"
        for loc, _ in vortices
        if not any(sup_dist(loc, c) <= r + 1e-12 for c in out["bad_centers"])
    ]


def pipeline_planar(out, vortices):
    """Planar pipeline run: R_0 class, nonzero atoms kept in place, properties."""
    problems = []
    if out["final_class"] != "R_0":
        problems.append(f"final_class {out['final_class']}, expected R_0")
    problems += match_atoms(out["atoms"], vortices, out["eta"] / 2.0 + out["h"])
    problems += pipeline_properties(out)
    problems += bad_cubes_hold(out, vortices)
    return problems


def eta_convergence(outs):
    """final_distance strictly decreases as eta decreases."""
    runs = sorted(outs, key=lambda o: -o["eta"])
    return [
        f"final distance {b['final_distance']} at eta={b['eta']} is not below "
        f"{a['final_distance']} at eta={a['eta']}"
        for a, b in zip(runs, runs[1:])
        if not b["final_distance"] < a["final_distance"]
    ]


def radial3(out):
    """3-D radial run: one +1 atom within eta/2 of the origin and no extend stage."""
    problems = []
    if out["final_class"] != "R_0":
        problems.append(f"final_class {out['final_class']}, expected R_0")
    problems += match_atoms(out["atoms"], [((0.0, 0.0, 0.0), 1)], out["eta"] / 2.0)
    if "extend" in out["stages"]:
        problems.append("S^2 target ran an extend stage")
    problems += pipeline_properties(out)
    return problems


def hopf_values(ref, expected, whitehead, linking):
    """Linking exact, Whitehead close to the analytic invariant, same integer."""
    tol = {4: 0.15, 5: 0.08}[ref] if abs(expected) == 1 else 0.2
    problems = []
    if linking != expected:
        problems.append(f"refinement {ref}: linking {linking}, expected {expected}")
    if not abs(whitehead - expected) <= tol:
        problems.append(f"refinement {ref}: Whitehead {whitehead} not within {tol} of {expected}")
    if round(whitehead) != linking:
        problems.append(f"refinement {ref}: Whitehead {whitehead} and linking {linking} disagree")
    return problems


def oracle_verdict(out, atoms, h):
    """Oracle verdict and atoms against the analytic ones."""
    problems = []
    want = "obstructed" if atoms else "extendable"
    if out["verdict"] != want:
        problems.append(f"verdict {out['verdict']}, expected {want}")
    problems += [f"oracle: {p}" for p in match_atoms(out["atoms"], atoms, h)]
    return problems


def screen_verdict(out, atoms, h):
    """Oracle verdict and atoms, and sweep atoms, against the analytic ones."""
    return oracle_verdict(out, atoms, h) + [f"sweep: {p}" for p in match_atoms(out["sweep_atoms"], atoms, h)]


def sobolev_terms(out, lp_exact, derivative_ref, rel=1e-3):
    problems = []
    if not math.isclose(out["lp"], lp_exact, rel_tol=1e-12):
        problems.append(f"L^p term {out['lp']} != {lp_exact}")
    if not abs(out["derivative"] - derivative_ref) <= rel * derivative_ref:
        problems.append(f"derivative term {out['derivative']} not within {rel:.1%} of {derivative_ref}")
    return problems


def rotation_invariant(name, values, rotated, rel=1e-9):
    if len(values) != len(rotated):
        return [f"{name}: {len(values)} values against {len(rotated)}"]
    return [
        f"{name} {a} changes to {b} under a target rotation"
        for a, b in zip(values, rotated)
        if not math.isclose(a, b, rel_tol=rel)
    ]


def wedge_oscillation(values, tol=0.03):
    return [f"wedge oscillation {v} not within {tol} of 1" for v in values if not abs(v - 1.0) <= tol]
