"""Fresh-process benchmark of a full `ctdiam tdiam` report.

Run from the repository root:

    python3 bench/run.py --workload torus-complex --seed 0 --seconds 40 --trace 0

Each repetition runs `ctdiam.cli.main(["tdiam", ...])` in a fresh Python
process, because a command-line user pays a cold process on every run.
The loop is closed with one client: the next repetition starts when the
previous process has exited.  The transform pool stays at its default of
one worker, and the environment is passed on untouched (no allocator or
BLAS tuning).  Repetitions continue until `--seconds` would be exceeded.

--trace 0 prints the end-to-end metrics (medians over the repetitions):
  run_s        wall time of the cli.main call, until diameter.csv,
               report.json and MANIFEST.json are written
  setup_s      process start until ctdiam is imported and the config loaded
               (every repetition plus setup-only processes)
  peak_rss_mb  ru_maxrss of the report process
and fail_frac, the failed share of the attempted report cells.  Each
level attempts one vdm cell, one transform cell per ordering and one
Leja cell.  A cell fails if the report carries an `errors` entry for it
or its numbers disagree with the committed reference; a process that
exits non-zero fails every cell.

--trace 1 alternates an untraced and a traced repetition (bench/spans.py
wraps the public functions the report calls) and prints the per-layer
metrics.  The traced run must write the same diameter.csv as the
untraced one.  It also times the top-level transform grid at one and two
workers, each in a fresh process, for cheb.parallel_speedup.

Seeds: seed 0 runs the committed configs in bench/workloads.  Other
seeds flip the signs of seed-chosen coordinates of a torus mesh and may
conjugate all of them (see make_config).  That leaves every reported
number invariant up to rounding, so those runs are compared with the
reference within REL_TOL instead of byte for byte.  Real meshes do not
depend on the seed.

bench/workloads also holds `interval-real` (greedy `max_vdm` on 401
Chebyshev nodes), which runs and checks like the others but is not
listed in BENCHMARK.json: its 2-3 s reports flip between two machine
speed levels, so a 40 s run's median moves by ~30% from run to run.

Every run writes a result file under bench/out/results with the
per-repetition samples and the numpy/OpenBLAS version, core count, BLAS
thread count and source identity, so runs on different set-ups are not
mixed silently.  The last line of stdout is the JSON summary.

To regenerate the references from the current program:
    python3 bench/run.py --workload <name> --write-reference
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = BENCH / "workloads"
REFERENCE = BENCH / "reference"
OUT = BENCH / "out"

MIN_REPS = 3  # report repetitions per timed run, even past --seconds
SETUP_PER_REP = 2  # setup-only processes after each report; setup_s is the
                   # median over these and the report processes
CHILD_TIMEOUT_S = 150
# Seed-mapped meshes change LP rounding only; every reported number is a
# log, determinant ratio or LP optimum that is stable far below this.
REL_TOL = 1e-9

# Layer metrics that must repeat exactly between traced repetitions.
EXACT_COUNTS = ("lp.iterations", "lp.rows", "lp.solves", "cheb.solves",
                "cheb.distinct_problems", "body.witness_pairs", "vdm.calls", "leja.points")


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under `section`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def workload_names() -> list[str]:
    return sorted(p.stem for p in WORKLOADS.glob("*.json"))


# ---------------------------------------------------------------------------
# Inputs from the seed.
# ---------------------------------------------------------------------------

def make_config(name: str, seed: int) -> tuple[dict, list[str] | None]:
    """The workload config for `seed`, and the per-coordinate maps if the mesh changed.

    A non-zero seed flips the sign of some coordinates of a torus mesh and
    may conjugate all of them.  Both are exact in floating point (sign
    flips of real and imaginary parts) and only multiply each monomial by
    a sign or conjugate it, so determinant moduli, and with them the
    greedy Fekete and Leja choices among the torus's many exact ties, stay
    bit-identical.  Each monic class picks up a global sign or is
    conjugated, which permutes the rows of the regular-polygon LP, so the
    Chebyshev constants agree up to rounding.  Conjugating only some
    coordinates would relabel the mesh points, and a general phase
    changes rounding; either makes the greedy searches break ties
    differently and stop at other local optima.
    """
    config = json.loads((WORKLOADS / f"{name}.json").read_text())
    mesh = config["mesh"]
    if seed == 0 or mesh["kind"] != "torus":
        return config, None
    if "radii" in mesh or "centers" in mesh:
        raise ValueError("seeded maps support unit tori centred at the origin")
    import numpy as np

    counts = mesh["counts"]
    variant = random.Random(seed).randrange(1, 2 ** (len(counts) + 1))
    conjugate = variant & 1
    maps, factors = [], []
    for i, count in enumerate(counts):
        negate = (variant >> (i + 1)) & 1
        # the same expression the package uses for its torus factors
        z = np.exp(1j * (2.0 * np.pi * np.arange(count) / count))
        if negate:
            z = -z
        if conjugate:
            z = np.conj(z)
        maps.append(("-" if negate else "") + ("conj(z)" if conjugate else "z"))
        factors.append({"kind": "explicit",
                        "points": [[float(v.real), float(v.imag)] for v in z]})
    mapped = {"kind": "product", "factors": factors}
    if "weight" in mesh:
        mapped["weight"] = mesh["weight"]
    config["mesh"] = mapped
    return config, maps


# ---------------------------------------------------------------------------
# Correctness of one report against the committed reference.
# ---------------------------------------------------------------------------

def _same(a, b, tol: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or tol == 0.0:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=tol, abs_tol=tol)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y, tol) for x, y in zip(a, b))
    return a == b


def _cells(row: dict, options: dict):
    """(cell name, failed by its own error entry, values) for one report row."""
    errors = row["errors"]
    yield "vdm", "vdm" in errors, [row[k] for k in
                                   ("log_vdm", "exact", "delta", "d_vdm", "sandwich_consistent")]
    for ordering in options["orderings"]:
        yield (f"transform:{ordering}",
               "transform" in errors or f"transform:{ordering}" in errors,
               row["d_transform"].get(ordering))
    if options["include_leja"]:
        yield "leja", "leja" in errors, row["leja_value"]


def _csv_same(got: str, ref: str, tol: float) -> bool:
    if tol == 0.0:
        return got == ref
    rows_got = list(csv.reader(io.StringIO(got)))
    rows_ref = list(csv.reader(io.StringIO(ref)))
    if len(rows_got) != len(rows_ref):
        return False
    for rg, rr in zip(rows_got, rows_ref):
        if len(rg) != len(rr):
            return False
        for a, b in zip(rg, rr):
            try:
                ok = math.isclose(float(a), float(b), rel_tol=tol, abs_tol=tol)
            except ValueError:
                ok = a == b
            if not ok:
                return False
    return True


def check_report(outdir: Path, name: str, exact: bool) -> tuple[int, int, list[str]]:
    """(attempted cells, failed cells, notes) for the report written to outdir."""
    ref_dir = REFERENCE / name
    ref = json.loads((ref_dir / "report.json").read_text())
    attempted = sum(1 for row in ref["rows"] for _ in _cells(row, ref["options"]))
    try:
        report_text = (outdir / "report.json").read_text()
        csv_text = (outdir / "diameter.csv").read_text()
        got = json.loads(report_text)
        manifest = json.loads((outdir / "MANIFEST.json").read_text())
    except (OSError, ValueError) as exc:
        return attempted, attempted, [f"output missing or unreadable: {exc}"]
    tol = 0.0 if exact else REL_TOL
    keys = ["a_n", "dagger_verdict", "final_delta_vdm", "final_delta_transform", "options"]
    if exact:
        keys += ["mesh", "config"]
    bad = [k for k in keys if not _same(got.get(k), ref.get(k), tol)]
    if len(got.get("rows", [])) != len(ref["rows"]):
        bad.append("rows")
    if not _csv_same(csv_text, (ref_dir / "diameter.csv").read_text(), tol):
        bad.append("diameter.csv")
    if sorted(manifest.get("artifacts", [])) != ["diameter.csv", "report.json"]:
        bad.append("MANIFEST.json")
    if bad:
        return attempted, attempted, [f"report differs from reference in {bad}"]
    notes = []
    for row, ref_row in zip(got["rows"], ref["rows"]):
        for (cell, err, value), (_, _, ref_value) in zip(_cells(row, ref["options"]),
                                                         _cells(ref_row, ref["options"])):
            if err or not _same(value, ref_value, tol):
                notes.append(f"k={row['k']} {cell}: {row['errors'] or value!r} "
                             f"(reference {ref_value!r})")
    if exact and not notes and report_text != (ref_dir / "report.json").read_text():
        return attempted, attempted, ["report.json differs from the reference bytes"]
    return attempted, len(notes), notes


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CTDIAM_WORKERS", None)  # keep the transform pool at its default
    return env


def spawn(workdir: Path, mode: str, *extra: str) -> dict | None:
    """Run bench/child.py once in `workdir`; its result dict, or None on failure."""
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), mode, "--config", "config.json",
           "--t0", repr(t0), "--result", result_path.name, *extra]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{mode} process timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not result_path.exists():
        print(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["wall_s"] = wall
    if result.get("exit_code", 0) != 0:
        print(f"ctdiam tdiam exited {result['exit_code']}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return result


def run_report(workdir: Path, name: str, exact: bool, *extra: str) -> dict:
    """One report repetition plus its correctness check."""
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    result = spawn(workdir, "report", *extra)
    attempted, failed, notes = check_report(outdir, name, exact)
    if result is None:
        failed = attempted
        notes.append("report process failed")
    for note in notes[:5]:
        print(f"check: {note}", file=sys.stderr)
    csv_path = outdir / "diameter.csv"
    return {"result": result, "attempted": attempted, "failed": failed, "notes": notes,
            "csv": csv_path.read_text() if csv_path.exists() else None}


# ---------------------------------------------------------------------------
# Set-up record.
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    blas_threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                blas_threads = getter()
                break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "env": {k: v for k, v in os.environ.items()
                if k.startswith(("OPENBLAS", "OMP_", "MKL_", "MALLOC_", "CTDIAM_"))},
    }


# ---------------------------------------------------------------------------
# The two kinds of run.
# ---------------------------------------------------------------------------

def timed_run(workdir: Path, name: str, exact: bool, seconds: float) -> dict:
    deadline = time.monotonic() + seconds
    spawn(workdir, "setup")  # warm-up (bytecode, file cache), not counted
    reps, setups, rounds = [], [], []
    while True:
        start = time.monotonic()
        reps.append(run_report(workdir, name, exact))
        # setup-only processes spread over the whole window, not bunched at its end
        for _ in range(SETUP_PER_REP):
            probe = spawn(workdir, "setup")
            if probe is not None:
                setups.append(probe["setup_s"])
        rounds.append(time.monotonic() - start)
        if len(reps) >= MIN_REPS and time.monotonic() + statistics.median(rounds) > deadline:
            break
    ok = [r["result"] for r in reps if r["result"]]
    samples = {
        "run_s": [r["run_s"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok] + setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    return {"reps": reps, "samples": samples}


def traced_run(workdir: Path, name: str, exact: bool, seconds: float, stem: str) -> dict:
    import spans

    deadline = time.monotonic() + seconds
    spawn(workdir, "setup")  # warm-up (bytecode, file cache), not counted
    reps, layers, untraced_s, traced_s, notes = [], [], [], [], []
    while True:
        start = time.monotonic()
        plain = run_report(workdir, name, exact)
        run_id = f"{stem}-{len(reps) // 2}"
        traced = run_report(workdir, name, exact, "--trace", "spans.json", "--run-id", run_id)
        reps += [plain, traced]
        if plain["csv"] != traced["csv"]:
            traced["failed"] = traced["attempted"]
            notes.append("traced diameter.csv differs from the untraced one")
        if plain["result"] and traced["result"]:
            untraced_s.append(plain["result"]["run_s"])
            traced_s.append(traced["result"]["run_s"])
            span_doc = json.loads((workdir / "spans.json").read_text())
            if span_doc["missing"]:
                print(f"spans: names not found, their metrics read 0: {span_doc['missing']}",
                      file=sys.stderr)
            metrics = spans.layer_metrics(span_doc["spans"])
            metrics["proc.minor_faults"] = traced["result"]["minor_faults"]
            layers.append(metrics)
            shutil.copy(workdir / "spans.json", OUT / "results" / f"{run_id}-spans.json")
        if time.monotonic() + (time.monotonic() - start) > deadline:
            break
    grid = {w: spawn(workdir, "grid", "--workers", str(w)) for w in (1, 2)}
    if not layers or None in grid.values():
        return {"reps": reps, "layers": layers, "metrics": None, "notes": notes}
    metrics = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        metrics[key] = values[0] if key in EXACT_COUNTS else statistics.median(values)
        if key in EXACT_COUNTS and len(set(values)) > 1:
            notes.append(f"{key} did not repeat between traced runs: {values}")
    metrics["cheb.parallel_speedup"] = grid[1]["grid_s"] / grid[2]["grid_s"]
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return {"reps": reps, "layers": layers, "metrics": metrics, "notes": notes,
            "grid_s": {str(w): g["grid_s"] for w, g in grid.items()},
            "untraced_run_s": untraced_s, "traced_run_s": traced_s}


def write_reference(name: str) -> int:
    workdir = OUT / f"reference-{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        config, _ = make_config(name, 0)
        (workdir / "config.json").write_text(json.dumps(config, indent=2))
        if spawn(workdir, "report") is None:
            return 1
        dest = REFERENCE / name
        dest.mkdir(parents=True, exist_ok=True)
        for file in ("diameter.csv", "report.json"):
            shutil.copy(workdir / "out" / file, dest / file)
        print(f"wrote {dest}")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate bench/reference/<workload> from the current program")
    args = parser.parse_args()
    if not (ROOT / "src" / "ctdiam" / "cli.py").is_file():
        print(f"ctdiam sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(args.workload)

    config, maps = make_config(args.workload, args.seed)
    exact = maps is None
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    workdir = OUT / f"work-{stem}"
    workdir.mkdir(parents=True)
    (OUT / "results").mkdir(exist_ok=True)
    try:
        (workdir / "config.json").write_text(json.dumps(config, indent=2))
        if args.trace:
            run = traced_run(workdir, args.workload, exact, args.seconds, stem)
        else:
            run = timed_run(workdir, args.workload, exact, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in run["reps"])
    failed = sum(r["failed"] for r in run["reps"])
    notes = run.get("notes", [])
    if args.trace:
        units = metric_units("per_layer")
        measured = run["metrics"] or {}
    else:
        units = metric_units("end_to_end")
        samples = run["samples"]
        measured = {key: statistics.median(values)
                    for key, values in samples.items() if values}
    metrics = {key: measured.get(key, math.nan) for key in units}
    correct = failed == 0 and not notes and all(math.isfinite(v) for v in metrics.values())

    if maps is None:
        inputs = ("committed config" if args.seed == 0 else
                  "committed config: real mesh, the seed does not change it")
    else:
        inputs = f"torus coordinates mapped by {maps}, checked within {REL_TOL}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "environment": environment(),
        "correct": correct, "attempted": attempted, "failed": failed, "notes": notes,
        "metrics": metrics,
        "reps": [{"result": r["result"], "attempted": r["attempted"], "failed": r["failed"],
                  "notes": r["notes"]} for r in run["reps"]],
        **{k: v for k, v in run.items() if k not in ("reps", "metrics", "notes")},
    }
    result_path = OUT / "results" / f"{stem}.json"
    result_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  inputs: {inputs}")
    for key, value in metrics.items():
        extra = ""
        if not args.trace:
            values = samples.get(key, [])
            extra = (f"median of {len(values)} processes (min {min(values):.4g}, "
                     f"max {max(values):.4g})" if values else "no samples")
        print(f"  {key:<24} {value:>14.6g} {units[key]:<6} {extra}")
    print(f"  {'fail_frac':<24} {failed / max(attempted, 1):>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} report cells failed")
    print(f"  result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {key: {"value": value if math.isfinite(value) else 0.0, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
