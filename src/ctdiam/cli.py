"""Command line driver: config ingestion, dispatch, artifact emission.

One JSON config document carries the body, the mesh, and per-run
parameters; flags override scalar fields.  Artifacts are written into
the output directory together with a MANIFEST.json that lists every
completed file and the run's status, so partial runs remain
inspectable.  Exit codes: 0 success, 2 validation error, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .body import as_fraction, as_int, check_dagger, parse_body_spec
from .cheb import ChebyshevRecord, directional_constant, solve_distinct, transform_grid, transform_rows
from .errors import SolverFailure, ValidationError
from .leja import leja_diameter, leja_to_csv
from .mesh import build_mesh, exp_or_inf
from .order import CGREVLEX, ORDERINGS, check_orderings
from .serialize import write_csv, write_json
from .tdiam import ReportOptions, build_report, report_to_csv, report_to_json
from .vdm import fekete_to_dict, max_vdm, strategy_from_config

class _Artifacts:
    """Tracks written files and keeps MANIFEST.json current after each one.

    Its status reads "running" (exit_code null) until `finish` records
    the exit code: "ok" for 0, else "failed".
    """

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.files: list[str] = []
        self.exit_code: int | None = None
        outdir.mkdir(parents=True, exist_ok=True)
        self._flush()

    def _flush(self):
        status = "running" if self.exit_code is None else "ok" if self.exit_code == 0 else "failed"
        write_json(self.outdir / "MANIFEST.json",
                   {"status": status, "exit_code": self.exit_code, "artifacts": self.files})

    def finish(self, exit_code: int):
        self.exit_code = exit_code
        self._flush()

    def add(self, name: str):
        self.files.append(name)
        self._flush()

    def write_json(self, name: str, payload):
        write_json(self.outdir / name, payload)
        self.add(name)

    def write_csv(self, name: str, rows):
        write_csv(self.outdir / name, rows)
        self.add(name)


def _as_ints(values, field: str) -> list[int]:
    """Integers from a JSON list or a comma-separated flag value, read as JSON numbers."""
    if isinstance(values, str):
        try:
            values = json.loads(f"[{values}]")
        except json.JSONDecodeError:
            raise ValidationError(f"{field} must be comma-separated integers, got {values!r}") from None
    if not isinstance(values, list):
        raise ValidationError(f"{field} must be a list of integers, got {values!r}")
    return [as_int(v, field) for v in values]


def _run_int(run: dict, *names: str, default: int) -> int:
    """run[name] as an integer for the first of `names` present, else `default`."""
    for name in names:
        if name in run:
            return as_int(run[name], f"run.{name}")
    return default


def _run_bool(run: dict, name: str, default: bool) -> bool:
    """run[name] as a JSON boolean, else `default`; strings such as "false" are rejected."""
    value = run.get(name, default)
    if not isinstance(value, bool):
        raise ValidationError(f"run.{name} must be true or false, got {value!r}")
    return value


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"config {path} cannot be read: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    run = config.setdefault("run", {})
    if not isinstance(run, dict):
        raise ValidationError("config 'run' must be a JSON object")
    for name in ("k", "k_max", "polygon_m"):
        value = getattr(overrides, name, None)
        if value is not None:
            run[name] = value
    if overrides.alpha is not None:
        run["alpha"] = _as_ints(overrides.alpha, "--alpha")
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
        run["schedule"] = _as_ints(overrides.schedule, "--schedule")
    if overrides.resolution is not None:
        run["resolution"] = overrides.resolution
    if overrides.emit_plot_data:
        run["emit_plot_data"] = True
    if overrides.output is not None:
        config["output_dir"] = overrides.output
    config.setdefault("output_dir", "ctdiam-out")
    return config


def _inputs(config: dict, mesh: bool = True):
    """(body, mesh, run) of a loaded config; the body is parsed before the mesh.

    With `mesh=False` the mesh section is not read and None stands in for it.
    """
    body = parse_body_spec(config.get("body"))
    run = config["run"]
    if not mesh:
        return body, None, run
    if config.get("mesh") is None:
        raise ValidationError("config has no 'mesh' section")
    return body, build_mesh(config["mesh"]), run


def _run_body_check(config, artifacts: _Artifacts):
    body, _, run = _inputs(config, mesh=False)
    k_max = _run_int(run, "k_max", default=4)
    report = check_dagger(body, k_max)
    payload = {
        "dim": body.dim,
        "halfspaces": [{"a": [str(x) for x in a], "b": str(b)} for a, b in body.halfspaces],
        "dagger_verdict": report.verdict,
        "witness_pairs": [[list(a), list(b)] for a, b in report.witness_pairs],
        "witness_pair_count": report.pair_count,
        "k_max": k_max,
        "counts": {},
    }
    for k in range(1, k_max + 1):
        m_k, h_k, l_k = body.counts(k)
        payload["counts"][str(k)] = {"M": m_k, "h": h_k, "L": l_k}
        print(f"k={k}: M_k={m_k} h_k={h_k} L_k={l_k}")
    listed = len(report.witness_pairs)
    cut = f", first {listed} listed" if listed < report.pair_count else ""
    print(f"dagger: {report.verdict} ({report.pair_count} witness pairs up to k={k_max}{cut})")
    artifacts.write_json("body_check.json", payload)


def _run_enumerate(config, artifacts: _Artifacts):
    body, _, run = _inputs(config, mesh=False)
    k_max = _run_int(run, "k_max", "k", default=4)
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    rows = [["k", "alpha", "gauge"]]
    for k in range(1, k_max + 1):
        pts = body.lattice_points(k)
        print(f"k={k}: {len(pts)} lattice points")
        rows += [[k, " ".join(map(str, alpha)), str(body.gauge(alpha))] for alpha in pts]
    artifacts.write_csv("lattice.csv", rows)


def _run_cheb(config, artifacts: _Artifacts):
    body, mesh, run = _inputs(config)
    if "k" not in run or "alpha" not in run:
        raise ValidationError("cheb needs run.k and run.alpha")
    k = as_int(run["k"], "run.k")
    alpha = tuple(_as_ints(run["alpha"], "run.alpha"))
    m_phases = _run_int(run, "polygon_m", default=32)
    thetas = [] if run.get("theta") is None else run["theta"]
    if not isinstance(thetas, list) or not all(isinstance(theta, list) for theta in thetas):
        raise ValidationError(f"run.theta must be a list of directions, each a list of rationals, "
                              f"got {thetas!r}")
    thetas = [tuple(as_fraction(t, "run.theta") for t in theta) for theta in thetas]
    schedule = _as_ints(run.get("schedule", [4, 8, 12]), "run.schedule") if thetas else None
    records = {}
    orderings = check_orderings(run.get("orderings", ORDERINGS), "run.orderings")
    outcomes = solve_distinct(mesh, body, k, [(alpha, o) for o in orderings], m_phases)
    for ordering, rec in zip(orderings, outcomes):
        if not isinstance(rec, ChebyshevRecord):
            raise rec
        records[ordering] = {
            "k": k,
            "alpha": list(alpha),
            "log_nu": rec.log_nu,
            "log_T": rec.log_T,
            "T": exp_or_inf(rec.log_T),
            "bracket_factor": rec.bracket_factor,
            "real_path": rec.real_path,
            "iterations": rec.iterations,
            "coefficients": {
                " ".join(map(str, b)): [c.real, c.imag] for b, c in rec.coefficients.terms.items()
            },
        }
        nu = exp_or_inf(rec.log_nu)
        print(f"k={k} alpha={alpha} {ordering}: nu-opt={nu:.12g} T={records[ordering]['T']:.12g}")
    for theta in thetas:
        res = directional_constant(mesh, body, theta, schedule, orderings=orderings, m_phases=m_phases)
        records.setdefault("directional", []).append(res)
        for ordering, value in res.final.items():
            print(f"theta={','.join(map(str, theta))} {ordering}: "
                  f"T~{value:.8g} (+-{res.error_proxy[ordering]:.2g})")
    artifacts.write_json("cheb.json", records)


def _run_transform(config, artifacts: _Artifacts):
    body, mesh, run = _inputs(config)
    k = _run_int(run, "k", "k_max", default=4)
    emit_plot_data = _run_bool(run, "emit_plot_data", default=False)
    table = transform_grid(mesh, body, k,
                           orderings=check_orderings(run.get("orderings", ORDERINGS), "run.orderings"),
                           m_phases=_run_int(run, "polygon_m", default=32))
    rows = transform_rows(table)
    artifacts.write_csv("transform.csv", rows)
    solved = sum(1 for row in table.rows if row.records)
    print(f"k={k}: {solved}/{len(table.rows)} transform rows solved")
    if emit_plot_data:
        dim = body.dim  # the theta columns, then logT_grevlex and logT_C
        artifacts.write_csv("transform_plot.csv", [row[1:1 + dim] + row[2 + dim:4 + dim] for row in rows])


def _run_vdm(config, artifacts: _Artifacts, name="vdm.json"):
    body, mesh, run = _inputs(config)
    k = _run_int(run, "k", "k_max", default=4)
    strategy = strategy_from_config(run.get("strategy"))
    result = max_vdm(mesh, body, k, strategy)
    payload = fekete_to_dict(mesh, result)
    print(f"k={k}: log|VDM|={result.value.log_abs:.12g} exact={result.exact} "
          f"points={list(result.value.point_indices)}")
    artifacts.write_json(name, payload)


def _run_leja(config, artifacts: _Artifacts):
    body, mesh, run = _inputs(config)
    k_max = _run_int(run, "k_max", default=4)
    report = leja_diameter(mesh, body, k_max)
    for row in report.rows:
        print(f"k={row.k}: M_k={row.m_k} L_k={row.l_k} value={row.value:.10g}")
    if report.heuristic:
        print("note: weighted mesh; normalized values are heuristic")
    leja_to_csv(report, artifacts.outdir / "leja.csv")
    artifacts.add("leja.csv")


def _run_tdiam(config, artifacts: _Artifacts):
    body, mesh, run = _inputs(config)
    options = ReportOptions(
        strategy=strategy_from_config(run.get("strategy")),
        orderings=check_orderings(run.get("orderings", ORDERINGS), "run.orderings"),
        m_phases=_run_int(run, "polygon_m", default=32),
        include_leja=_run_bool(run, "include_leja", default=True),
        resolution=as_fraction(run.get("resolution", "1/32"), "run.resolution"),
        subsamples=_run_int(run, "subsamples", default=32),
    )
    k_max = _run_int(run, "k_max", default=4)
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


# each subcommand's handler and the flags it reads besides --config and --output
_HANDLERS = {
    "body-check": (_run_body_check, ("k_max",)),
    "enumerate": (_run_enumerate, ("k_max",)),
    "cheb": (_run_cheb, ("k", "alpha", "polygon_m", "ordering", "theta", "schedule")),
    "transform": (_run_transform, ("k", "polygon_m", "ordering", "emit_plot_data")),
    "vdm": (_run_vdm, ("k", "strategy")),
    "fekete": (lambda config, artifacts: _run_vdm(config, artifacts, name="fekete.json"),
               ("k", "strategy")),
    "leja": (_run_leja, ("k_max",)),
    "tdiam": (_run_tdiam, ("k_max", "polygon_m", "ordering", "strategy", "resolution")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctdiam",
        description="Graded Chebyshev constants, Fekete/Leja points, and transfinite diameter estimates",
    )
    parser.add_argument("subcommand", choices=tuple(_HANDLERS))
    parser.add_argument("--config", required=False, help="JSON config path")
    parser.add_argument("--output", help="output directory (overrides config)")
    parser.add_argument("--k", type=int)
    parser.add_argument("--k-max", dest="k_max", type=int)
    parser.add_argument("--alpha", help="comma-separated exponent, e.g. 2,0")
    parser.add_argument("--polygon-m", dest="polygon_m", type=int)
    parser.add_argument("--ordering", choices=ORDERINGS)
    parser.add_argument("--strategy", choices=("brute-force", "greedy"))
    parser.add_argument("--theta", help="comma-separated rationals, e.g. 1/2,1/4")
    parser.add_argument("--schedule", help="comma-separated increasing levels, e.g. 4,8,12")
    parser.add_argument("--resolution", help="quadrature cell size as a rational, e.g. 1/64")
    parser.add_argument("--emit-plot-data", action="store_true")
    return parser


def run(subcommand: str, config_path: str | None, overrides: argparse.Namespace) -> int:
    handler, flags = _HANDLERS[subcommand]
    for name, value in vars(overrides).items():
        # an absent flag reads None, or False for --emit-plot-data; --k 0 is given
        if (name not in ("subcommand", "config", "output", *flags)
                and value is not None and value is not False):
            raise ValidationError(f"{subcommand} does not read --{name.replace('_', '-')}")
    config = _load_config(config_path, overrides)
    artifacts = _Artifacts(Path(config["output_dir"]))
    try:
        handler(config, artifacts)
    except BaseException as exc:
        artifacts.finish(_exit_code(exc))
        raise
    artifacts.finish(0)
    return 0


def _exit_code(exc: BaseException) -> int:
    """2 after a validation error, 3 after a solver failure, else 1 (a traceback)."""
    if isinstance(exc, ValidationError):
        return 2
    return 3 if isinstance(exc, SolverFailure) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args.subcommand, args.config, args)
    except (ValidationError, SolverFailure) as exc:
        kind = "validation error" if isinstance(exc, ValidationError) else "solver failure"
        print(f"{kind}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
