"""Command line driver: config ingestion, dispatch, artifact emission.

One JSON config document carries the body, the mesh, and per-run
parameters; flags override scalar fields.  Artifacts are written into
the output directory together with a MANIFEST.json that lists every
completed file, so partial runs remain inspectable.  Exit codes:
0 success, 2 validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from .body import check_dagger, parse_body_spec
from .cheb import chebyshev_constant, directional_constant, transform_grid, transform_to_csv
from .errors import SolverFailure, ValidationError
from .leja import leja_diameter, leja_to_csv
from .mesh import build_mesh, mesh_from_csv
from .order import CGREVLEX, GREVLEX, ORDERINGS
from .tdiam import (
    ReportOptions,
    build_report,
    json_safe,
    report_to_csv,
    report_to_json,
)
from .vdm import fekete_to_dict, max_vdm, strategy_from_config

SUBCOMMANDS = ("body-check", "enumerate", "cheb", "transform", "vdm", "fekete", "leja", "tdiam")


class _Artifacts:
    """Tracks written files and keeps MANIFEST.json current after each one."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.files: list[str] = []
        outdir.mkdir(parents=True, exist_ok=True)
        self._flush()

    def _flush(self):
        with open(self.outdir / "MANIFEST.json", "w") as fh:
            json.dump({"artifacts": self.files}, fh, indent=2)
            fh.write("\n")

    def add(self, name: str):
        self.files.append(name)
        self._flush()

    def write_json(self, name: str, payload):
        with open(self.outdir / name, "w") as fh:
            json.dump(json_safe(payload), fh, indent=2)
            fh.write("\n")
        self.add(name)


def _load_config(path: str | None, overrides: argparse.Namespace) -> dict:
    if path is None:
        raise ValidationError("a --config file is required")
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    run = config.setdefault("run", {})
    for name in ("k", "k_max", "count", "workers", "polygon_m"):
        value = getattr(overrides, name, None)
        if value is not None:
            run[name] = value
    if overrides.alpha is not None:
        run["alpha"] = [int(v) for v in overrides.alpha.split(",")]
    if overrides.ordering is not None:
        run["orderings"] = [overrides.ordering]
    if overrides.strategy is not None:
        run.setdefault("strategy", {})
        if isinstance(run["strategy"], dict):
            run["strategy"]["kind"] = overrides.strategy
        else:
            run["strategy"] = {"kind": overrides.strategy}
    if overrides.theta is not None:
        run["theta"] = [overrides.theta.split(",")]
    if overrides.schedule is not None:
        run["schedule"] = [int(v) for v in overrides.schedule.split(",")]
    if overrides.resolution is not None:
        run["resolution"] = overrides.resolution
    if overrides.emit_plot_data:
        run["emit_plot_data"] = True
    if overrides.output is not None:
        config["output_dir"] = overrides.output
    config.setdefault("output_dir", "ctdiam-out")
    return config


def _mesh_from_config(config: dict):
    spec = config.get("mesh")
    if spec is None:
        raise ValidationError("config has no 'mesh' section")
    if isinstance(spec, dict) and spec.get("kind") == "csv":
        return mesh_from_csv(spec["path"], int(spec["dim"]))
    return build_mesh(spec)


def _workers(run: dict) -> int:
    if "workers" in run:
        return max(1, int(run["workers"]))
    env = os.environ.get("CTDIAM_WORKERS")
    return max(1, int(env)) if env else 1


def _run_body_check(config, artifacts: _Artifacts) -> int:
    body = parse_body_spec(config.get("body"))
    k_max = int(config.get("run", {}).get("k_max", 4))
    report = check_dagger(body, k_max)
    payload = {
        "dim": body.dim,
        "halfspaces": [{"a": [str(x) for x in a], "b": str(b)} for a, b in body.halfspaces],
        "dagger_verdict": report.verdict,
        "witness_pairs": [[list(a), list(b)] for a, b in report.witness_pairs],
        "k_max": k_max,
        "counts": {},
    }
    for k in range(1, k_max + 1):
        m_k, h_k, l_k = body.counts(k)
        payload["counts"][str(k)] = {"M": m_k, "h": h_k, "L": l_k}
        print(f"k={k}: M_k={m_k} h_k={h_k} L_k={l_k}")
    print(f"dagger: {report.verdict} ({len(report.witness_pairs)} witness pairs up to k={k_max})")
    artifacts.write_json("body_check.json", payload)
    return 0


def _run_enumerate(config, artifacts: _Artifacts) -> int:
    body = parse_body_spec(config.get("body"))
    run = config.get("run", {})
    k_max = int(run.get("k_max", run.get("k", 4)))
    name = "lattice.csv"
    with open(artifacts.outdir / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "alpha", "gauge"])
        for k in range(1, k_max + 1):
            pts = body.lattice_points(k)
            print(f"k={k}: {len(pts)} lattice points")
            for alpha in pts:
                writer.writerow([k, " ".join(map(str, alpha)), str(body.gauge(alpha))])
    artifacts.add(name)
    return 0


def _run_cheb(config, artifacts: _Artifacts) -> int:
    body = parse_body_spec(config.get("body"))
    mesh = _mesh_from_config(config)
    run = config.get("run", {})
    if "k" not in run or "alpha" not in run:
        raise ValidationError("cheb needs run.k and run.alpha")
    k = int(run["k"])
    alpha = tuple(int(a) for a in run["alpha"])
    m_phases = int(run.get("polygon_m", 32))
    records = {}
    for ordering in run.get("orderings", list(ORDERINGS)):
        rec = chebyshev_constant(mesh, body, k, alpha, ordering, m_phases)
        records[ordering] = {
            "k": k,
            "alpha": list(alpha),
            "log_nu": rec.log_nu,
            "log_T": rec.log_T,
            "T": math.exp(rec.log_T) if math.isfinite(rec.log_T) else 0.0,
            "bracket_factor": rec.bracket_factor,
            "real_path": rec.real_path,
            "iterations": rec.iterations,
            "coefficients": {
                " ".join(map(str, b)): [c.real, c.imag] for b, c in rec.coefficients.terms.items()
            },
        }
        nu = math.exp(rec.log_nu) if math.isfinite(rec.log_nu) else 0.0
        print(f"k={k} alpha={alpha} {ordering}: nu-opt={nu:.12g} T={records[ordering]['T']:.12g}")
    maybe_theta = run.get("theta")
    if maybe_theta:
        schedule = [int(v) for v in run.get("schedule", [4, 8, 12])]
        for theta in maybe_theta:
            res = directional_constant(mesh, body, theta, schedule,
                                       m_phases=m_phases)
            records.setdefault("directional", []).append(json_safe(res))
            for ordering, value in res.final.items():
                print(f"theta={theta} {ordering}: T~{value:.8g} (+-{res.error_proxy[ordering]:.2g})")
    artifacts.write_json("cheb.json", records)
    return 0


def _run_transform(config, artifacts: _Artifacts) -> int:
    body = parse_body_spec(config.get("body"))
    mesh = _mesh_from_config(config)
    run = config.get("run", {})
    k = int(run.get("k", run.get("k_max", 4)))
    table = transform_grid(mesh, body, k,
                           orderings=tuple(run.get("orderings", ORDERINGS)),
                           m_phases=int(run.get("polygon_m", 32)),
                           workers=_workers(run))
    transform_to_csv(table, artifacts.outdir / "transform.csv")
    artifacts.add("transform.csv")
    solved = sum(1 for row in table.rows if row.records)
    print(f"k={k}: {solved}/{len(table.rows)} transform rows solved")
    if run.get("emit_plot_data"):
        name = "transform_plot.csv"
        with open(artifacts.outdir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            dim = body.dim
            writer.writerow([f"theta_{i + 1}" for i in range(dim)] + ["logT_grevlex", "logT_C"])
            for row in table.rows:
                out = [format(float(t), ".17g") for t in row.theta]
                for ordering in (GREVLEX, CGREVLEX):
                    rec = row.records.get(ordering)
                    out.append(format(rec.log_T, ".17g") if rec else "")
                writer.writerow(out)
        artifacts.add(name)
    return 0


def _run_vdm(config, artifacts: _Artifacts, name="vdm.json") -> int:
    body = parse_body_spec(config.get("body"))
    mesh = _mesh_from_config(config)
    run = config.get("run", {})
    k = int(run.get("k", run.get("k_max", 4)))
    strategy = strategy_from_config(run.get("strategy"))
    result = max_vdm(mesh, body, k, strategy)
    payload = fekete_to_dict(mesh, result)
    print(f"k={k}: log|VDM|={result.value.log_abs:.12g} exact={result.exact} "
          f"points={list(result.value.point_indices)}")
    artifacts.write_json(name, payload)
    return 0


def _run_leja(config, artifacts: _Artifacts) -> int:
    body = parse_body_spec(config.get("body"))
    mesh = _mesh_from_config(config)
    run = config.get("run", {})
    k_max = int(run.get("k_max", 4))
    report = leja_diameter(mesh, body, k_max)
    for row in report.rows:
        print(f"k={row.k}: M_k={row.m_k} L_k={row.l_k} value={row.value:.10g}")
    if report.heuristic:
        print("note: weighted mesh; normalized values are heuristic")
    leja_to_csv(report, artifacts.outdir / "leja.csv")
    artifacts.add("leja.csv")
    return 0


def _run_tdiam(config, artifacts: _Artifacts) -> int:
    body = parse_body_spec(config.get("body"))
    mesh = _mesh_from_config(config)
    run = config.get("run", {})
    options = ReportOptions(
        strategy=strategy_from_config(run.get("strategy")),
        orderings=tuple(run.get("orderings", ORDERINGS)),
        m_phases=int(run.get("polygon_m", 32)),
        include_leja=bool(run.get("include_leja", True)),
        resolution=run.get("resolution", "1/32"),
        subsamples=int(run.get("subsamples", 32)),
        workers=_workers(run),
    )
    from .body import as_fraction

    options.resolution = as_fraction(options.resolution)
    k_max = int(run.get("k_max", 4))
    report = build_report(mesh, body, k_max, options)
    for row in report.rows:
        dvdm = f"{row.d_vdm:.8g}" if row.d_vdm is not None else "-"
        dtr = row.d_transform.get(CGREVLEX)
        dtr = f"{dtr:.8g}" if dtr is not None else "-"
        leja_v = f"{row.leja_value:.8g}" if row.leja_value is not None else "-"
        flag = "" if not row.errors else f"  errors={sorted(row.errors)}"
        print(f"k={row.k}: M={row.m_k} L={row.l_k} D_vdm={dvdm} D_transform={dtr} leja={leja_v}{flag}")
    print(f"A_N={report.a_n:.10g} dagger={report.dagger_verdict} "
          f"delta_vdm={report.final_delta_vdm} delta_transform={report.final_delta_transform}")
    report_to_csv(report, artifacts.outdir / "diameter.csv")
    artifacts.add("diameter.csv")
    report_to_json(report, artifacts.outdir / "report.json", config_echo=config)
    artifacts.add("report.json")
    return 0


_HANDLERS = {
    "body-check": _run_body_check,
    "enumerate": _run_enumerate,
    "cheb": _run_cheb,
    "transform": _run_transform,
    "vdm": _run_vdm,
    "fekete": lambda config, artifacts: _run_vdm(config, artifacts, name="fekete.json"),
    "leja": _run_leja,
    "tdiam": _run_tdiam,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctdiam",
        description="Graded Chebyshev constants, Fekete/Leja points, and transfinite diameter estimates",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=False, help="JSON config path")
    parser.add_argument("--output", help="output directory (overrides config)")
    parser.add_argument("--k", type=int)
    parser.add_argument("--k-max", dest="k_max", type=int)
    parser.add_argument("--alpha", help="comma-separated exponent, e.g. 2,0")
    parser.add_argument("--count", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--polygon-m", dest="polygon_m", type=int)
    parser.add_argument("--ordering", choices=ORDERINGS)
    parser.add_argument("--strategy", choices=("brute-force", "greedy"))
    parser.add_argument("--theta", help="comma-separated rationals, e.g. 1/2,1/4")
    parser.add_argument("--schedule", help="comma-separated increasing levels, e.g. 4,8,12")
    parser.add_argument("--resolution", help="quadrature cell size as a rational, e.g. 1/64")
    parser.add_argument("--emit-plot-data", action="store_true")
    return parser


def run(subcommand: str, config_path: str | None, overrides: argparse.Namespace) -> int:
    config = _load_config(config_path, overrides)
    artifacts = _Artifacts(Path(config["output_dir"]))
    return _HANDLERS[subcommand](config, artifacts)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args.subcommand, args.config, args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
