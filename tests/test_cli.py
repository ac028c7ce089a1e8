import json
import subprocess
import sys

import numpy as np
import pytest

from sobtop import builtin_field, read_field, write_field
from sobtop.cli import main
from sobtop.errors import UnknownBuiltin


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "sobtop.cli", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_field_file_binary_roundtrip(tmp_path):
    u = builtin_field("dipole", (48, 48))
    path = tmp_path / "f.sfld"
    write_field(path, u, binary=True)
    back = read_field(path, target=1)
    assert back.dims == u.dims and back.box == u.box
    assert np.array_equal(back.values, u.values)  # bit exact


def test_field_file_ascii_roundtrip(tmp_path):
    u = builtin_field("smooth_bump", (32, 32))
    path = tmp_path / "f.sfld"
    write_field(path, u, binary=False)
    back = read_field(path, target=1)
    assert np.array_equal(back.values, u.values)  # 17 significant digits round-trip floats exactly


def test_builtin_names():
    u = builtin_field("radial", (64, 64))
    assert u.target == 1 and u.singular_mask.point_locations == [(0.0, 0.0)]
    assert np.allclose(np.linalg.norm(u.values, axis=-1), 1.0)
    with pytest.raises(UnknownBuiltin):
        builtin_field("nope", (32, 32))


def test_cli_detect_json(capsys):
    rc = main(["detect", "--input", "radial", "--dims", "96", "--disks", "48", "--seed", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "obstructed"
    assert out["atoms"][0][1] == 1
    assert out["admissible"] >= 32
    assert out["report_version"] == 1


def test_cli_validation_exit_code(capsys):
    rc = main(["pipeline", "--input", "radial", "--dims", "64", "--rho", "0.7"])
    assert rc == 2


def test_cli_computational_exit_code(capsys):
    # detect with an impossible budget cannot screen 8 admissible disks
    rc = main(["pipeline", "--input", "radial", "--dims", "64", "--p", "1.99", "--k", "1",
               "--eta", "0.5", "--mu", "0.4", "--tau", "0.39"])
    # kp = 1.99 < 2 passes validation; floor(kp) = 1 = m-1 ok; tau/mu valid;
    # this exercises the driver end to end on a tiny grid and must not return 2
    assert rc in (0, 3)


def test_cli_determinism(capsys):
    args = ["invariants", "--input", "dipole", "--dims", "64", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_csv_matches_json(capsys):
    base = ["norms", "--input", "smooth_bump", "--dims", "48"]
    assert main(base) == 0
    as_json = json.loads(capsys.readouterr().out)
    assert main(base + ["--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    rows = {}
    for line in csv_text.strip().splitlines()[1:]:
        k, v = line.split(",", 1)
        rows[k] = v

    def check(prefix, obj):
        if isinstance(obj, dict):
            for k in obj:
                check(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                check(f"{prefix}[{i}]", v)
        elif isinstance(obj, float):
            assert float(rows[prefix]) == obj
        else:
            assert rows[prefix] == str(obj)

    check("", as_json)


def test_cli_module_entrypoint():
    rc, out, err = run_cli(["invariants", "--input", "smooth_bump", "--dims", "48"])
    assert rc == 0
    assert json.loads(out)["atoms"] == []


def test_cli_pipeline_dump_field(tmp_path, capsys):
    dump = tmp_path / "out.sfld"
    rc = main(["pipeline", "--input", "radial", "--dims", "96", "--eta", "0.25",
               "--dump-field", str(dump)])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["final_class"] == "R_0"
    back = read_field(dump, target=1)
    assert back.dims == (96, 96)


def test_cli_pipeline_validation_fault_exit_code(capsys):
    # NonDivisibleEta is a configuration fault raised inside run_pipeline
    assert main(["pipeline", "--input", "radial", "--dims", "64", "--eta", "0.3"]) == 2
    assert "validation error" in capsys.readouterr().err


def test_cli_nonpositive_eta_exit_code(capsys):
    # a zero or negative cube side is a configuration fault, not a stage failure
    for eta in ("0", "-0.25"):
        assert main(["pipeline", "--input", "radial", "--dims", "64", "--eta", eta]) == 2
        assert "eta must be positive" in capsys.readouterr().err


def test_cli_hopf_refinement_below_one_exit_code(capsys):
    # refinement 0 is the bare cross-polytope, on which the fibration reads whitehead 0.0
    for refinement in ("0", "-1"):
        assert main(["hopf", "--refinement", refinement]) == 2
        assert "refinement must be >= 1" in capsys.readouterr().err


def test_cli_grid_too_coarse_exit_code(capsys):
    assert main(["norms", "--input", "radial", "--dims", "-5"]) == 2
    assert main(["norms", "--input", "radial", "--dims", "3"]) == 2


def test_cli_hopf_defaults_to_fibration(capsys):
    assert main(["hopf", "--refinement", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["input"] == "hopf" and rep["linking"] == 1
    assert main(["hopf", "--input", "radial", "--refinement", "2"]) == 2


def test_cli_checks_target_and_kp_against_field(tmp_path, capsys):
    path = tmp_path / "r3.sfld"
    write_field(path, builtin_field("radial", (16, 16, 16)))
    args = ["pipeline", "--input", str(path), "--p", "2.5", "--eta", "0.5", "--alpha", "0.1"]
    assert main(args + ["--target", "s1"]) == 2  # three components are not an S^1 target
    assert main(args + ["--target", "s2"]) == 0  # kp = 2.5 < m = 3
    assert json.loads(capsys.readouterr().out)["final_class"] == "R_0"
