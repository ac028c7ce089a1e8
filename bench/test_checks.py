"""Each correctness check of the benchmark fails on a deliberately corrupted result.

Run from the root of the repository:  python3 -m pytest bench/test_checks.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

DIPOLE = [((-0.3, 0.0), 1), ((0.3, 0.0), -1)]


def dipole_out(eta=0.25, distance=6.0):
    return {
        "eta": eta,
        "h": 2.0 / 137,
        "final_class": "R_0",
        "atoms": [((-0.26, 0.01), 1), ((0.27, 0.01), -1)],
        "final_distance": distance,
        "stage_distance_sum": 11.0,
        "fop_consistency": 0.0,
        "stages": ["classify", "open", "smooth", "project", "thicken", "extend", "shrink", "final_project"],
        "bad_centers": [(-0.3125, 0.0625), (0.3125, 0.0625), (0.3125, -0.1875)],
    }


def corrupt(out, **changes):
    bad = copy.deepcopy(out)
    bad.update(changes)
    return bad


def test_planar_pipeline_accepts_a_correct_report():
    assert checks.pipeline_planar(dipole_out(), DIPOLE) == []


@pytest.mark.parametrize(
    "changes",
    [
        {"final_class": "smooth"},
        {"atoms": [((-0.26, 0.01), -1), ((0.27, 0.01), -1)]},  # flipped degree
        {"atoms": [((-0.26, 0.01), 1)]},  # atom left out
        {"atoms": [((-0.26, 0.01), 1), ((0.27, 0.01), -1), ((0.0, 0.5), 1)]},  # extra atom
        {"atoms": [((-0.05, 0.01), 1), ((0.27, 0.01), -1)]},  # atom moved beyond eta/2 + h
        {"final_distance": 11.5},  # triangle inequality
        {"fop_consistency": 1e-3},
        {"bad_centers": [(0.3125, 0.0625)]},  # vortex cube not bad
    ],
)
def test_planar_pipeline_rejects_a_corrupted_report(changes):
    assert checks.pipeline_planar(corrupt(dipole_out(), **changes), DIPOLE)


def test_eta_convergence():
    good = [dipole_out(0.5, 7.3), dipole_out(0.25, 5.9)]
    assert checks.eta_convergence(good) == []
    assert checks.eta_convergence([dipole_out(0.5, 5.9), dipole_out(0.25, 7.3)])  # out of eta order
    assert checks.eta_convergence([dipole_out(0.5, 5.9), dipole_out(0.25, 5.9)])  # not strict


def test_gas_atom_left_out():
    gas = [((-0.37, -0.38), 1), ((-0.38, 0.37), -1), ((0.37, -0.37), -1), ((0.38, 0.38), 1)]
    found = [((x + 0.004, y - 0.004), d) for (x, y), d in gas]
    assert checks.match_atoms(found, gas, 2.0 / 129) == []
    assert checks.match_atoms(found[1:], gas, 2.0 / 129)
    assert checks.match_atoms([(found[0][0], -1)] + found[1:], gas, 2.0 / 129)


def radial3_out():
    return {
        "eta": 0.5,
        "final_class": "R_0",
        "atoms": [((0.0, 0.0, 0.0), 1)],
        "final_distance": 0.9,
        "stage_distance_sum": 1.3,
        "fop_consistency": 0.0,
        "stages": ["classify", "open", "smooth", "project", "thicken", "shrink", "final_project"],
    }


@pytest.mark.parametrize(
    "changes",
    [
        {"stages": radial3_out()["stages"] + ["extend"]},
        {"atoms": [((0.0, 0.0, 0.0), -1)]},
        {"atoms": [((0.3, 0.0, 0.0), 1)]},
        {"atoms": []},
        {"final_class": "smooth"},
        {"final_distance": 2.0},
    ],
)
def test_radial3(changes):
    assert checks.radial3(radial3_out()) == []
    assert checks.radial3(corrupt(radial3_out(), **changes))


def test_hopf_values():
    assert checks.hopf_values(5, 1, 1.0000007, 1) == []
    assert checks.hopf_values(4, -1, -0.99, -1) == []
    assert checks.hopf_values(4, 4, 4.01, 4) == []
    assert checks.hopf_values(5, 1, 1.1000007, 1)  # Whitehead value 0.1 off
    assert checks.hopf_values(4, 4, 4.25, 4)
    assert checks.hopf_values(4, -1, -1.0, 1)  # linking sign flipped
    assert checks.hopf_values(4, 1, 1.14, 2)


def test_screen_verdict():
    gas = [((-0.37, -0.38), 1), ((0.38, 0.38), -1)]
    out = {"verdict": "obstructed", "atoms": list(gas), "sweep_atoms": list(gas)}
    assert checks.screen_verdict(out, gas, 0.005) == []
    assert checks.screen_verdict(corrupt(out, verdict="extendable"), gas, 0.005)
    assert checks.screen_verdict(corrupt(out, atoms=gas[:1]), gas, 0.005)  # gas atom left out
    assert checks.screen_verdict(corrupt(out, sweep_atoms=[(gas[0][0], -1), gas[1]]), gas, 0.005)
    assert checks.oracle_verdict(corrupt(out, atoms=[(gas[0][0], -1), gas[1]]), gas, 0.005)  # flipped degree
    assert checks.oracle_verdict(corrupt(out, verdict="extendable"), gas, 0.005)
    smooth = {"verdict": "extendable", "atoms": [], "sweep_atoms": []}
    assert checks.screen_verdict(smooth, [], 0.005) == []
    assert checks.screen_verdict(corrupt(smooth, sweep_atoms=[((0.0, 0.0), 1)]), [], 0.005)


def test_sobolev_terms():
    lp = 4.0 ** (1 / 1.5)
    assert checks.sobolev_terms({"lp": lp, "derivative": 1.1675}, lp, 1.1672) == []
    assert checks.sobolev_terms({"lp": lp * (1 + 1e-9), "derivative": 1.1672}, lp, 1.1672)
    assert checks.sobolev_terms({"lp": lp, "derivative": 1.1672 * 1.002}, lp, 1.1672)


def test_rotation_and_wedge():
    assert checks.rotation_invariant("osc", [0.11, 0.17], [0.11, 0.17]) == []
    assert checks.rotation_invariant("osc", [0.11, 0.17], [0.11, 0.17 * (1 + 1e-6)])
    assert checks.rotation_invariant("osc", [0.11, 0.17], [0.11])
    assert checks.wedge_oscillation([1.0, 0.99, 1.02]) == []
    assert checks.wedge_oscillation([1.0, 0.96])


def test_layer_metrics_self_time_and_nesting():
    tr = layers.Tracer()
    tr.phase = "round1"
    # run_pipeline [0, 10] with a record distance [1, 3] that nests a norm
    # [1.5, 2.5], and a classification [4, 5] holding a sweep [4.2, 4.4]
    tr.spans = [
        ["pipeline.run_pipeline", "round1", 0.0, 10.0, -1],
        ["fields.sobolev", "round1", 1.0, 3.0, 0],
        ["fields.sobolev", "round1", 1.5, 2.5, 1],
        ["pipeline.classify", "round1", 4.0, 5.0, 0],
        ["invariants.sweep", "round1", 4.2, 4.4, 3],
        ["hopf.dec_build", "setup", 0.0, 7.0, -1],
    ]
    tr.counts[("round1", "pipeline.u_cubes")] = 25
    m = {k: v for k, (v, _) in layers.layer_metrics(tr, "round1").items()}
    assert m["fields.sobolev_s"] == pytest.approx(2.0)  # nested norm not counted twice
    assert m["pipeline.record_s"] == pytest.approx(2.0)  # the sweep's parent is not run_pipeline
    assert m["pipeline.self_s"] == pytest.approx(7.0)
    assert m["invariants.sweep_s"] == pytest.approx(0.2)
    assert m["hopf.dec_build_s"] == pytest.approx(7.0)
    assert m["pipeline.u_cubes"] == 25
    assert m["hopf.solve_s"] == 0.0


def test_tracer_wraps_without_changing_results():
    tr = layers.Tracer()
    seen = []

    def inner(x, scale=1):
        seen.append(x)
        return x * scale

    wrapped = tr.wrap("fields.interp", inner, lambda a, k, r: {"fields.interp_points": r})
    assert wrapped(3, scale=2) == 6 and tr.spans == []  # inactive: no span
    tr.active, tr.phase = True, "round1"
    assert wrapped(4, scale=2) == 8
    assert [s[0] for s in tr.spans] == ["fields.interp"]
    assert tr.counts[("round1", "fields.interp_points")] == 8
    assert seen == [3, 4]


def test_reference_kernel_runs_before_each_operation(monkeypatch):
    import workloads
    from sobtop.errors import ComputationError

    order = []
    monkeypatch.setattr(workloads, "before_each_op", lambda: order.append("kernel"))

    def fails():
        order.append("op")
        raise ComputationError("no")

    ops = [workloads.attempt("a", lambda: order.append("op") or 1), workloads.attempt("b", fails)]
    assert order == ["kernel", "op", "kernel", "op"]
    assert ops[0]["out"] == 1 and "error" in ops[1]


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = [(n, u) for n, u, _ in layers.LAYER_METRICS] + [("trace.overhead_s", "s"), ("trace.overhead_pct", "%")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        ("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")
    ]
    assert spec["run_seconds"] == run.RUN_SECONDS  # the default of --seconds
