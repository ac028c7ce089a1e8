"""Golden reports: seven CLI commands whose output bytes must not change.

The files under ``tests/golden/`` hold the reports as the CLI printed them
when they were recorded.  A refactor that is meant to keep every number must
keep these bytes.  To record them again after an intended change of output,
run ``PYTHONPATH=src python tests/test_cli_corpus.py`` and say why in
CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sobtop import builtin_field
from sobtop.cli import main
from sobtop.geometry import Cubication
from sobtop.pipeline import _generic_inner_box

GOLDEN = Path(__file__).parent / "golden"

CORPUS = {
    "invariants_dipole_64_seed7.json": ["invariants", "--input", "dipole", "--dims", "64", "--seed", "7"],
    "detect_radial_96_disks48_seed1.json": ["detect", "--input", "radial", "--dims", "96", "--disks", "48",
                                            "--seed", "1"],
    "norms_smooth_bump_48.json": ["norms", "--input", "smooth_bump", "--dims", "48"],
    "hopf_refinement3.json": ["hopf", "--input", "hopf", "--refinement", "3"],
    "pipeline_radial_96_eta0.25.json": ["pipeline", "--input", "radial", "--dims", "96", "--eta", "0.25"],
    "pipeline_dipole_128_eta0.25.csv": ["pipeline", "--input", "dipole", "--dims", "128", "--eta", "0.25",
                                        "--format", "csv"],
    # every cube is bad, so the U cubes are the whole cubication
    "pipeline_dipole_96_eta0.5.json": ["pipeline", "--input", "dipole", "--dims", "96", "--eta", "0.5"],
}


def report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, f"{argv} exited {rc}"
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_report_matches_golden(name):
    assert report(CORPUS[name]) == (GOLDEN / name).read_text()


def test_golden_u_cubes_cover_the_cubication():
    classify = json.loads((GOLDEN / "pipeline_dipole_96_eta0.5.json").read_text())["stages"][0]
    u = builtin_field("dipole", (96, 96))
    cub = Cubication(_generic_inner_box(u, 0.5), 0.5)
    assert classify["n_bad"] >= 1
    assert classify["n_u"] == len(cub.cube_units)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CORPUS.items():
        (GOLDEN / name).write_text(report(argv))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
