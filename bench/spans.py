"""Outside-in layer spans for one traced `ctdiam tdiam` report.

`install` replaces the public functions a report calls with timing
wrappers, under the names the calling module sees (for example
`ctdiam.tdiam.max_vdm`, not `ctdiam.vdm.max_vdm`), so nothing inside
the package changes.  Spans are kept in memory and written out once at
the end; `layer_metrics` turns a span list into the per-layer metrics.
The wrappers assume the report runs on one thread (the default single
transform worker): the open-span stack is shared.
"""

from __future__ import annotations

import functools
import inspect
import resource
import time


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """In-memory span recorder: name, start, end, parent index, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._last_lower = None
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, name: str, record=None):
        """Replace owner.attr by a span-recording wrapper.

        `record(bound_arguments, result)` returns extra span fields.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        signature = inspect.signature(original)
        spans, open_stack, run_id = self.spans, self._open, self.run_id

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {"name": name, "run": run_id,
                    "parent": open_stack[-1] if open_stack else None}
            open_stack.append(len(spans))
            spans.append(span)
            faults = _minor_faults()
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["minor_faults"] = _minor_faults() - faults
                open_stack.pop()
            if record is not None:
                span.update(record(signature.bind(*args, **kwargs).arguments, result))
            return result

        setattr(owner, attr, wrapper)

    def _record_lower(self, arguments, result):
        self._last_lower = tuple(tuple(beta) for beta in result)
        return {}

    def _record_problem(self, arguments, result):
        weighted = not arguments["mesh"].is_unweighted
        key = (tuple(arguments["alpha"]), self._last_lower,
               arguments["k"] if weighted else None)
        return {"problem": repr(key)}


def _solve_fields(arguments, result):
    npts = len(arguments["target_vals"])
    m_phases = arguments.get("m_phases", 32)
    return {"iterations": int(result.iterations),
            "rows": 2 * npts if result.real_path else m_phases * npts,
            "real_path": bool(result.real_path),
            "duality_gap": float(result.duality_gap)}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary a `ctdiam tdiam` report crosses."""
    import ctdiam.body
    import ctdiam.cheb
    import ctdiam.cli
    import ctdiam.leja
    import ctdiam.tdiam
    import ctdiam.vdm

    # Only `counts` and `lattice_points` reach the lattice cache, so a call
    # is cold exactly when the cache's miss count grew since the last call.
    lattice_cache = ctdiam.body._lattice_points
    seen_misses = [lattice_cache.cache_info().misses]

    def cold(arguments, result):
        misses = lattice_cache.cache_info().misses
        grew, seen_misses[0] = misses > seen_misses[0], misses
        return {"cold": grew}

    wrap = tracer.wrap
    wrap(ctdiam.cli, "build_mesh", "mesh.build")
    wrap(ctdiam.cli, "build_report", "tdiam.build_report")
    wrap(ctdiam.cli, "report_to_csv", "tdiam.serialize")
    wrap(ctdiam.cli, "report_to_json", "tdiam.serialize")
    wrap(ctdiam.tdiam, "check_dagger", "body.check_dagger",
         lambda a, r: {"witness_pairs": len(r.witness_pairs)})
    wrap(ctdiam.tdiam, "average_total_degree", "body.quadrature")
    wrap(ctdiam.tdiam, "leja_diameter", "leja.leja_diameter",
         lambda a, r: {"points": len(r.sequence)})
    wrap(ctdiam.tdiam, "max_vdm", "vdm.max_vdm")
    wrap(ctdiam.tdiam, "transform_grid", "cheb.transform_grid")
    wrap(ctdiam.cheb, "chebyshev_constant", "cheb.chebyshev_constant", tracer._record_problem)
    wrap(ctdiam.cheb, "lower_monomials", "cheb.lower_monomials", tracer._record_lower)
    wrap(ctdiam.cheb, "solve_minimax", "lp.solve_minimax", _solve_fields)
    for module in (ctdiam.cheb, ctdiam.vdm, ctdiam.leja):
        wrap(module, "monomial_values", "mesh.monomial_values")
    for method in ("counts", "lattice_points"):
        wrap(ctdiam.body.ConvexBody, method, "body.lattice", cold)


def _durations(spans):
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced report's spans."""
    dur, self_time = _durations(spans)

    def pick(name, **where):
        return [i for i, s in enumerate(spans)
                if s["name"] == name and all(s.get(k) == v for k, v in where.items())]

    def total(name, **where):
        return sum(dur[i] for i in pick(name, **where))

    # a call that raised has no recorded fields; it counts as attempted work only
    solves = pick("lp.solve_minimax")
    lp_s = total("lp.solve_minimax")
    attempts = pick("cheb.chebyshev_constant")
    problems = {spans[i]["problem"] for i in attempts if "problem" in spans[i]}
    cheb_self = pick("cheb.transform_grid") + attempts
    return {
        "tdiam.build_report_s": total("tdiam.build_report"),
        "tdiam.self_s": sum(self_time[i] for i in pick("tdiam.build_report")),
        "tdiam.serialize_s": total("tdiam.serialize"),
        "body.quadrature_s": total("body.quadrature"),
        "body.lattice_s": total("body.lattice", cold=True),
        "body.check_dagger_s": total("body.check_dagger"),
        "body.witness_pairs": sum(spans[i].get("witness_pairs", 0)
                                  for i in pick("body.check_dagger")),
        "mesh.monomial_values_s": total("mesh.monomial_values"),
        "mesh.build_s": total("mesh.build"),
        "cheb.transform_grid_s": total("cheb.transform_grid"),
        "cheb.self_s": sum(self_time[i] for i in cheb_self),
        "cheb.lower_monomials_s": total("cheb.lower_monomials"),
        "cheb.solves": len(attempts),
        "cheb.distinct_problems": len(problems),
        "cheb.useful_ratio": len(problems) / len(attempts) if attempts else 1.0,
        "lp.solve_s": lp_s,
        "lp.solves": len(solves),
        "lp.iterations": sum(spans[i].get("iterations", 0) for i in solves),
        "lp.rows": sum(spans[i].get("rows", 0) for i in solves),
        "lp.complex_share": total("lp.solve_minimax", real_path=False) / lp_s if lp_s else 0.0,
        "lp.max_duality_gap": max((spans[i].get("duality_gap", 0.0) for i in solves),
                                  default=0.0),
        "lp.minor_faults": sum(spans[i]["minor_faults"] for i in solves),
        "vdm.max_vdm_s": total("vdm.max_vdm"),
        "vdm.calls": len(pick("vdm.max_vdm")),
        "vdm.minor_faults": sum(spans[i]["minor_faults"] for i in pick("vdm.max_vdm")),
        "leja.leja_diameter_s": total("leja.leja_diameter"),
        "leja.points": sum(spans[i].get("points", 0) for i in pick("leja.leja_diameter")),
    }
