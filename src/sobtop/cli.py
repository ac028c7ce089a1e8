"""Command-line interface: configuration, experiment drivers, serialization.

Subcommands: norms, invariants, detect, hopf, pipeline, demo.
Exit codes: 0 success, 2 validation error, 3 computational error (stage named
on stderr).  Reports are JSON (default) or CSV with identical numeric content;
identical configuration and seed give byte-identical output.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field, fields

from . import builtins as builtin_fields
from .detectors import maximal_function_detector
from .errors import ComputationError, SobtopError, StageError, ValidationError
from .fieldfile import read_field, write_field
from .fields import fractional_seminorm, mean_oscillation, sobolev_norm
from .geometry import standard_disk_boundaries
from .hopf import DECSphere3, hopf_linking, hopf_whitehead
from .invariants import cell_degree_sweep, extendability_oracle
from .pipeline import PipelineParams, run_pipeline


@dataclass
class ExperimentConfig:
    """Every CLI option and its default; ``build_parser`` makes one flag per
    field after ``command``."""

    command: str
    input: str = field(default=None, metadata={
        "help": "builtin name or .sfld path (default: hopf for the hopf command, radial otherwise)"})
    target: str = field(default="s1", metadata={"choices": ("s1", "s2")})
    dims: int = 128
    p: float = 1.5
    k: int = 1
    eta: float = 0.25
    rho: float = 0.25
    alpha: float = None
    iota: float = 0.2
    mu: float = 0.25
    tau: float = None
    theta: float = 1.5
    s: float = 0.5
    refinement: int = 4
    disks: int = 64
    seed: int = 0
    out: str = None
    format: str = field(default="json", metadata={"choices": ("json", "csv")})

    def __post_init__(self):
        if self.input is None:
            self.input = "hopf" if self.command == "hopf" else "radial"

    def pipeline_params(self):
        return PipelineParams(
            eta=self.eta, k=self.k, p=self.p, rho=self.rho, mu=self.mu, tau=self.tau,
            theta=self.theta, iota=self.iota, alpha=self.alpha, seed=self.seed,
        )

    def validate(self):
        """Check the refinement and run PipelineParams' checks of eta, p, rho,
        mu and tau for every command; the grid, target and kp are checked
        against the field once it loads."""
        if self.refinement < 1:
            raise ValidationError(f"refinement must be >= 1, got {self.refinement}")
        self.pipeline_params()


def _load(cfg):
    if cfg.input.endswith(".sfld"):
        target = {"s1": 1, "s2": 2}.get(cfg.target)
        return read_field(cfg.input, target=target)
    return builtin_fields.builtin_field(cfg.input, cfg.dims)


def _report_base(cfg):
    return {
        "report_version": 1,
        "command": cfg.command,
        "input": cfg.input,
        "params": {
            "dims": cfg.dims, "p": cfg.p, "k": cfg.k, "eta": cfg.eta, "rho": cfg.rho,
            "alpha": cfg.alpha, "iota": cfg.iota, "mu": cfg.mu, "tau": cfg.tau,
            "theta": cfg.theta, "refinement": cfg.refinement, "disks": cfg.disks,
        },
        "rng": {"algorithm": "philox", "seed": cfg.seed},
    }


def cmd_norms(cfg):
    u = _load(cfg)
    rep = _report_base(cfg)
    sob = sobolev_norm(u, k=cfg.k, p=cfg.p)
    osc = mean_oscillation(u, radii=(0.05, 0.1, 0.2))
    frac = fractional_seminorm(u, s=cfg.s, p=cfg.p)
    rep["sobolev"] = {
        "value": sob.value, "lp": sob.lp,
        "derivative_terms": list(sob.derivative_terms),
        "excluded_volume": sob.excluded_volume,
    }
    rep["oscillation"] = {"radii": list(osc.radii), "values": list(osc.values)}
    rep["fractional"] = {"s": cfg.s, "value": frac.value, "cutoff": frac.cutoff, "stride": frac.stride}
    return rep


def cmd_invariants(cfg):
    u = _load(cfg)
    rep = _report_base(cfg)
    sweep = cell_degree_sweep(u)
    rep["atoms"] = [[list(map(float, loc)), int(d)] for loc, d in sweep.atoms]
    rep["pairings"] = [[i, v] for i, v in sweep.pairings]
    rep["pairing_atom_residual"] = sweep.residual
    rep["excluded_volume"] = sweep.excluded_volume
    return rep


def cmd_detect(cfg):
    u = _load(cfg)
    rep = _report_base(cfg)
    w = maximal_function_detector(u, p=cfg.k * cfg.p)
    disks = standard_disk_boundaries(u.box, ell=u.m - 1 if u.m == 2 else 1, count=cfg.disks, seed=cfg.seed)
    verdict = extendability_oracle(u, disks, w)
    rep["verdict"] = verdict.label
    rep["atoms"] = [[list(map(float, loc)), int(d)] for loc, d in verdict.atoms]
    rep["screened"] = verdict.screened
    rep["admissible"] = verdict.admissible
    rep["degrees"] = [[k, d] for k, d in verdict.degrees]
    rep["max_pairing"] = verdict.max_pairing
    rep["pairing_tol"] = verdict.pairing_tol
    return rep


def cmd_hopf(cfg):
    if cfg.input != "hopf":
        raise ValidationError(f"hopf needs a sample of S^3 (the builtin 'hopf'), not {cfg.input!r}")
    v = builtin_fields.hopf_fibration(cfg.refinement)
    rep = _report_base(cfg)
    rep["whitehead"] = hopf_whitehead(v, dec=DECSphere3(v.sphere))
    rep["linking"] = hopf_linking(v)
    return rep


def cmd_pipeline(cfg):
    out = run_pipeline(_load(cfg), cfg.pipeline_params())
    rep = _report_base(cfg)
    rep.update(out.to_dict())
    rep["_field"] = out.extra.get("field")
    return rep


def cmd_demo(cfg):
    """Run the characteristic corpus end to end at a small size."""
    rep = _report_base(cfg)
    results = {}
    for name in ("radial", "dipole", "smooth_bump"):
        sub = ExperimentConfig(command="detect", input=name, dims=96, seed=cfg.seed,
                               p=cfg.p, k=cfg.k, disks=48)
        results[name] = {"detect": {k: v for k, v in cmd_detect(sub).items()
                                    if k in ("verdict", "atoms", "admissible")}}
    hopf_cfg = ExperimentConfig(command="hopf", input="hopf", refinement=3, seed=cfg.seed)
    results["hopf"] = {k: v for k, v in cmd_hopf(hopf_cfg).items() if k in ("whitehead", "linking")}
    pipe_cfg = ExperimentConfig(command="pipeline", input="dipole", dims=128, eta=0.25,
                                p=cfg.p, k=cfg.k, seed=cfg.seed)
    pipe = cmd_pipeline(pipe_cfg)
    results["pipeline_dipole"] = {k: pipe[k] for k in ("final_class", "final_atoms", "final_distance")}
    rep["demo"] = results
    return rep


_COMMANDS = {
    "norms": cmd_norms,
    "invariants": cmd_invariants,
    "detect": cmd_detect,
    "hopf": cmd_hopf,
    "pipeline": cmd_pipeline,
    "demo": cmd_demo,
}


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k in obj:
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, default=float) + "\n"
    rows = []
    _flatten("", report, rows)
    lines = ["key,value"]
    for k, v in rows:
        if isinstance(v, float):
            lines.append(f"{k},{v:.17g}")
        else:
            lines.append(f"{k},{v}")
    return "\n".join(lines) + "\n"


def build_parser():
    ap = argparse.ArgumentParser(prog="sobtop", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        for f in fields(ExperimentConfig)[1:]:
            sp.add_argument(f"--{f.name}", type=f.type, default=f.default, **f.metadata)
        sp.add_argument("--dump-field", help="write the pipeline output field as SFLD")
    return ap


def main(argv=None):
    ap = build_parser()
    ns = ap.parse_args(argv)
    cfg = ExperimentConfig(**{k: v for k, v in vars(ns).items() if k != "dump_field"})
    try:
        cfg.validate()
        report = _COMMANDS[cfg.command](cfg)
    except StageError as e:
        print(f"computational error in stage '{e.stage}': {e.cause!r}", file=sys.stderr)
        return 3
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except (ComputationError, SobtopError) as e:
        print(f"computational error: {e}", file=sys.stderr)
        return 3
    dumped = report.pop("_field", None)
    if ns.dump_field and dumped is not None:
        write_field(ns.dump_field, dumped)
    text = render(report, cfg.format)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
