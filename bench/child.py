"""One fresh-process repetition, started by bench/run.py.

Modes:
  report  time `ctdiam.cli.main(["tdiam", ...])`, optionally with spans
  setup   stop once ctdiam is imported and the config is loaded
  grid    time `transform_grid` at the top level with a given worker count

`--t0` is the parent's monotonic clock just before it started this
process; setup time runs from there until ctdiam is imported and the
workload config is loaded.  The result goes to `--result` as JSON.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("report", "setup", "grid"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--output", default="out")
    parser.add_argument("--trace", help="write spans to this file")
    parser.add_argument("--run-id", default="", help="identifier shared by this run's spans")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    import ctdiam.cli

    with open(args.config) as fh:
        config = json.load(fh)
    result = {"setup_s": time.monotonic() - args.t0}

    if args.mode == "report":
        tracer = None
        if args.trace:
            import spans  # bench/ is on sys.path as this script's directory

            tracer = spans.Tracer(run_id=args.run_id)
            spans.install(tracer)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.monotonic()
            result["exit_code"] = ctdiam.cli.main(
                ["tdiam", "--config", args.config, "--output", args.output])
            result["run_s"] = time.monotonic() - start
        if tracer is not None:
            with open(args.trace, "w") as fh:
                json.dump({"run": tracer.run_id, "missing": tracer.missing,
                           "spans": tracer.spans}, fh)
    elif args.mode == "grid":
        from ctdiam import build_mesh, parse_body_spec, transform_grid

        run = config.get("run", {})
        mesh, body = build_mesh(config["mesh"]), parse_body_spec(config["body"])
        start = time.monotonic()
        transform_grid(mesh, body, int(run.get("k_max", 4)),
                       m_phases=int(run.get("polygon_m", 32)), workers=args.workers)
        result["grid_s"] = time.monotonic() - start

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["minor_faults"] = usage.ru_minflt
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
