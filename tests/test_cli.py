import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import ctdiam
from ctdiam.cli import main
from ctdiam.errors import SolverFailure
from ctdiam.mesh import build_mesh, mesh_to_csv
from ctdiam.order import ORDERINGS

SIMPLEX1 = {"dim": 1, "halfspaces": [{"a": ["1"], "b": "1"}]}
SIMPLEX2 = {"dim": 2, "halfspaces": [{"a": ["1", "1"], "b": "1"}]}
CIRCLE32 = {"kind": "circle", "center": [0, 0], "radius": 1, "count": 32, "weight": {"kind": "one"}}
INTERVAL = {"kind": "interval", "a": -1, "b": 1, "count": 401, "spacing": "chebyshev-nodes"}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_tdiam_happy_path(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "circle.json", {
        "body": SIMPLEX1,
        "mesh": CIRCLE32,
        "run": {"k_max": 3, "strategy": {"kind": "greedy", "restarts": 2}, "include_leja": True},
        "output_dir": str(out),
    })
    assert main(["tdiam", "--config", cfg]) == 0
    printed = capsys.readouterr().out
    assert printed.count("k=") >= 3
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["artifacts"] == ["diameter.csv", "report.json"]
    rows = (out / "diameter.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["run"]["k_max"] == 3
    # CSV and JSON agree
    last_csv = rows[-1].split(",")
    assert float(last_csv[4]) == pytest.approx(report["rows"][-1]["log_vdm"])


def test_tdiam_ignores_run_workers(tmp_path):
    # the transform runs serially; a leftover run.workers changes nothing
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    base = {
        "body": SIMPLEX1,
        "mesh": CIRCLE32,
        "run": {"k_max": 2, "strategy": {"kind": "greedy", "restarts": 2}, "include_leja": True},
    }
    cfg1 = write_config(tmp_path, "c1.json", {**base, "output_dir": str(out1)})
    cfg2 = write_config(tmp_path, "c2.json", {**base, "run": {**base["run"], "workers": 3},
                                              "output_dir": str(out2)})
    assert main(["tdiam", "--config", cfg1]) == 0
    assert main(["tdiam", "--config", cfg2]) == 0
    assert (out1 / "diameter.csv").read_bytes() == (out2 / "diameter.csv").read_bytes()


def test_tdiam_reads_a_csv_mesh(tmp_path):
    # the CSV holds every coordinate to 17 digits, so the report is the spec mesh's
    mesh_to_csv(build_mesh(CIRCLE32), tmp_path / "circle.csv")
    csv_mesh = {"kind": "csv", "path": str(tmp_path / "circle.csv"), "dim": 1}
    for name, mesh in (("spec", CIRCLE32), ("csv", csv_mesh)):
        cfg = write_config(tmp_path, f"{name}.json", {"body": SIMPLEX1, "mesh": mesh, "run": {"k_max": 2},
                                                      "output_dir": str(tmp_path / name)})
        assert main(["tdiam", "--config", cfg]) == 0
    report = json.loads((tmp_path / "csv" / "report.json").read_text())
    assert report["mesh"] == f"csv:{tmp_path / 'circle.csv'}"
    assert ((tmp_path / "csv" / "diameter.csv").read_bytes()
            == (tmp_path / "spec" / "diameter.csv").read_bytes())


def test_strategy_flag_keeps_the_config_strategy_fields(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "body": SIMPLEX1, "mesh": CIRCLE32,
        "run": {"k_max": 2, "strategy": {"kind": "brute-force", "restarts": 3}},
        "output_dir": str(out),
    })
    assert main(["tdiam", "--config", cfg, "--strategy", "greedy"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["run"]["strategy"] == {"kind": "greedy", "restarts": 3}
    assert report["options"]["strategy"] == {"restarts": 3, "seed": 0}
    # a strategy that is not an object is replaced by the flag's kind
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": CIRCLE32,
                                              "run": {"k_max": 2, "strategy": "brute-force"},
                                              "output_dir": str(out)})
    assert main(["tdiam", "--config", cfg, "--strategy", "greedy"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["run"]["strategy"] == {"kind": "greedy"}
    assert report["options"]["strategy"] == {"restarts": 4, "seed": 0}


def test_body_check_unbounded_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "body": {"dim": 2, "halfspaces": [{"a": ["1", "-1"], "b": "1"},
                                          {"a": ["-1", "1"], "b": "1"}]},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["body-check", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "unbounded" in err and "(1, 1)" in err


def test_body_check_without_halfspaces_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "orthant.json", {"body": {"dim": 2, "halfspaces": []},
                                                  "output_dir": str(tmp_path / "out")})
    assert main(["body-check", "--config", cfg]) == 2
    assert "the body is unbounded along the direction (1, 0)" in capsys.readouterr().err


def test_body_check_happy(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "body.json", {
        "body": {"dim": 2, "halfspaces": [{"a": ["1", "0"], "b": "1"}, {"a": ["0", "1"], "b": "1"}]},
        "run": {"k_max": 2},
        "output_dir": str(out),
    })
    assert main(["body-check", "--config", cfg]) == 0
    payload = json.loads((out / "body_check.json").read_text())
    assert payload["dagger_verdict"] == "violated"
    assert [[0, 1], [1, 0]] in payload["witness_pairs"]
    assert payload["witness_pair_count"] == len(payload["witness_pairs"])


@pytest.mark.parametrize("halfspaces, verdict", [
    # a quadrilateral with its first facet listed twice
    ([{"a": ["4/3", "3"], "b": "3"}, {"a": ["1", "1/3"], "b": "1"}, {"a": ["8/3", "6"], "b": "6"}],
     "violated"),
    # the unit simplex listed twice
    ([{"a": ["1", "1"], "b": "1"}, {"a": ["2", "2"], "b": "2"}], "holds-simplex"),
], ids=["quadrilateral", "simplex"])
def test_body_check_repeated_halfspace(tmp_path, capsys, halfspaces, verdict):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "body.json", {
        "body": {"dim": 2, "halfspaces": halfspaces}, "run": {"k_max": 3}, "output_dir": str(out),
    })
    assert main(["body-check", "--config", cfg]) == 0
    payload = json.loads((out / "body_check.json").read_text())
    assert payload["dagger_verdict"] == verdict
    count = payload["witness_pair_count"]
    assert f"dagger: {verdict} ({count} witness pairs up to k=3)" in capsys.readouterr().out


def test_body_check_lists_the_first_pairs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "box.json", {
        "body": {"dim": 3, "halfspaces": [{"a": [int(i == j) for i in range(3)], "b": 1} for j in range(3)]},
        "run": {"k_max": 16}, "output_dir": str(out),
    })
    assert main(["body-check", "--config", cfg]) == 0
    payload = json.loads((out / "body_check.json").read_text())
    assert payload["witness_pair_count"] == 1_272_960
    assert len(payload["witness_pairs"]) == 10_000
    assert "(1272960 witness pairs up to k=16, first 10000 listed)" in capsys.readouterr().out


def test_cheb_subcommand_with_overrides(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "interval.json", {
        "body": SIMPLEX1,
        "mesh": INTERVAL,
        "output_dir": str(out),
    })
    assert main(["cheb", "--config", cfg, "--k", "3", "--alpha", "3"]) == 0
    printed = capsys.readouterr().out
    assert "nu-opt" in printed
    payload = json.loads((out / "cheb.json").read_text())
    nu = math.exp(payload["cgrevlex"]["log_nu"])
    assert nu == pytest.approx(0.25, abs=2.5e-3)


def test_cheb_theta_writes_directional_records(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "torus.json", {"body": SIMPLEX2, "mesh": {"kind": "torus", "counts": [8, 8]},
                                                "run": {"k": 2, "alpha": [1, 1]}, "output_dir": str(out)})
    assert main(["cheb", "--config", cfg, "--theta", "1/3,1/3", "--schedule", "3,6"]) == 0
    assert "theta=" in capsys.readouterr().out
    payload = json.loads((out / "cheb.json").read_text())
    [directional] = payload["directional"]
    assert directional["theta"] == ["1/3", "1/3"]
    assert directional["schedule"] == [3, 6]
    assert sorted(directional["final"]) == sorted(ORDERINGS)
    assert all(len(steps) == 2 for steps in directional["steps"].values())


def test_cheb_ordering_flag_reaches_the_directional_estimates(tmp_path):
    # --ordering selects the orders of the (k, alpha) records and of the directional steps alike
    out = tmp_path / "out"
    pentagon = {"dim": 2, "halfspaces": [{"a": ["1", "0"], "b": "1"}, {"a": ["0", "1"], "b": "1"},
                                         {"a": ["1", "1"], "b": "3/2"}]}
    cfg = write_config(tmp_path, "torus.json", {"body": pentagon, "mesh": {"kind": "torus", "counts": [8, 8]},
                                                "output_dir": str(out)})
    assert main(["cheb", "--config", cfg, "--k", "2", "--alpha", "1,1", "--ordering", "cgrevlex",
                 "--theta", "1/3,1/3", "--schedule", "2,3"]) == 0
    payload = json.loads((out / "cheb.json").read_text())
    assert list(payload) == ["cgrevlex", "directional"]
    [directional] = payload["directional"]
    assert list(directional["steps"]) == list(directional["final"]) == ["cgrevlex"]
    assert list(directional["limit_guaranteed"]) == list(directional["error_proxy"]) == ["cgrevlex"]


def test_cheb_polygon_below_three_phases_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "circle.json", {
        "body": SIMPLEX1,
        "mesh": CIRCLE32,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["cheb", "--config", cfg, "--k", "2", "--alpha", "1", "--polygon-m", "2"]) == 2
    assert "m_phases >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("body, flags, message", [
    (SIMPLEX2, ["--alpha", "1,0"], "mesh dimension 1 != body dimension 2"),
    (SIMPLEX1, ["--alpha", "1", "--polygon-m", "2"], "the polygon relaxation needs m_phases >= 3, got 2"),
], ids=["mesh-of-another-dimension", "two-phases"])
def test_cheb_bad_instance_exit_2_before_solving(tmp_path, capsys, count_solves, body, flags, message):
    cfg = write_config(tmp_path, "bad.json", {"body": body, "mesh": CIRCLE32,
                                              "output_dir": str(tmp_path / "out")})
    calls = count_solves()
    assert main(["cheb", "--config", cfg, "--k", "2", *flags]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert calls == []


def test_cheb_solves_a_shared_problem_once(tmp_path, count_solves):
    # on a simplex both orders pose one problem; the file matches per-ordering runs
    def run(name, *flags):
        cfg = write_config(tmp_path, f"{name}.json", {
            "body": SIMPLEX2, "mesh": {"kind": "torus", "counts": [6, 6]},
            "output_dir": str(tmp_path / name)})
        assert main(["cheb", "--config", cfg, "--k", "3", "--alpha", "2,1", *flags]) == 0
        return (tmp_path / name / "cheb.json").read_text()

    calls = count_solves()
    both = run("both")
    assert len(calls) == 1
    merged = {}
    for ordering in ("grevlex", "cgrevlex"):
        merged.update(json.loads(run(ordering, "--ordering", ordering)))
    assert len(calls) == 3
    assert list(json.loads(both)) == ["grevlex", "cgrevlex"]
    assert both == json.dumps(merged, indent=2) + "\n"


def test_cheb_solver_failure_exit_3(tmp_path, capsys, monkeypatch):
    import ctdiam.cheb as cheb_mod

    def failing(*args, **kwargs):
        raise SolverFailure("injected")

    monkeypatch.setattr(cheb_mod, "solve_minimax", failing)
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": INTERVAL9,
                                              "output_dir": str(tmp_path / "out")})
    assert main(["cheb", "--config", cfg, "--k", "2", "--alpha", "2"]) == 3
    assert "solver failure: injected" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "MANIFEST.json").read_text())
    assert (manifest["status"], manifest["exit_code"]) == ("failed", 3)


def test_cheb_oversized_lp_exit_2(tmp_path, capsys, monkeypatch):
    import ctdiam.lp as lp_mod

    # the real LP of x^2 against 1, x on 9 points, one entry over the cap:
    # 3 tableau rows of 2 * 9 + 2 + 2 entries
    monkeypatch.setattr(lp_mod, "_MAX_LP_ENTRIES", 3 * 22 - 1)
    calls = []
    two_phase = lp_mod._two_phase
    monkeypatch.setattr(lp_mod, "_two_phase", lambda *args: calls.append(1) or two_phase(*args))
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": INTERVAL9,
                                              "output_dir": str(tmp_path / "out")})
    assert main(["cheb", "--config", cfg, "--k", "2", "--alpha", "2"]) == 2
    err = capsys.readouterr().err
    assert "2 lower monomials" in err and "9 mesh points" in err and "polygon_m=32" in err
    assert "needs 66 float64 entries, more than 65" in err
    assert calls == []


@pytest.mark.parametrize("subcommand", ["tdiam", "transform"])
@pytest.mark.parametrize("polygon_m", ["2", "-1"])
def test_report_polygon_below_three_phases_exit_2(tmp_path, capsys, subcommand, polygon_m):
    # every transform cell would fail the same way, so the run fails as a whole
    cfg = write_config(tmp_path, "torus.json", {
        "body": {"dim": 2, "halfspaces": [{"a": ["1", "1"], "b": "1"}]},
        "mesh": {"kind": "torus", "counts": [4, 4]},
        "run": {"k_max": 2},
        "output_dir": str(tmp_path / "out"),
    })
    assert main([subcommand, "--config", cfg, f"--polygon-m={polygon_m}"]) == 2
    assert f"m_phases >= 3, got {polygon_m}" in capsys.readouterr().err



@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_enumerate_k_max_below_one_exit_2(tmp_path, capsys, k_max):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "output_dir": str(out)})
    assert main(["enumerate", "--config", cfg, f"--k-max={k_max}"]) == 2
    assert "k_max must be >= 1" in capsys.readouterr().err
    assert not (out / "lattice.csv").exists()

def test_enumerate_and_vdm_and_leja(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "body": SIMPLEX1,
        "mesh": {"kind": "interval", "a": -1, "b": 1, "count": 5, "spacing": "uniform"},
        "run": {"k_max": 2, "k": 2, "strategy": {"kind": "brute-force"}},
        "output_dir": str(out),
    })
    assert main(["enumerate", "--config", cfg]) == 0
    assert main(["vdm", "--config", cfg]) == 0
    assert main(["fekete", "--config", cfg]) == 0
    assert main(["leja", "--config", cfg]) == 0
    vdm = json.loads((out / "vdm.json").read_text())
    assert math.exp(vdm["log_vdm"]) == pytest.approx(2.0, abs=1e-12)
    assert vdm["exact"] is True
    assert vdm["points"] == [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    fek = json.loads((out / "fekete.json").read_text())
    assert fek == vdm
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert "leja.csv" in manifest["artifacts"]


def test_transform_with_plot_data(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "body": SIMPLEX1,
        "mesh": {"kind": "interval", "a": -1, "b": 1, "count": 33, "spacing": "chebyshev-nodes"},
        "run": {"k": 2},
        "output_dir": str(out),
    })
    assert main(["transform", "--config", cfg, "--emit-plot-data"]) == 0
    assert (out / "transform.csv").exists()
    plot = (out / "transform_plot.csv").read_text().strip().splitlines()
    assert plot[0] == "theta_1,logT_grevlex,logT_C"
    assert len(plot) == 4


def test_missing_config_is_validation_error(capsys):
    assert main(["tdiam"]) == 2
    assert main(["tdiam", "--config", "/nonexistent.json"]) == 2


def test_invalid_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["tdiam", "--config", str(path)]) == 2
    path.write_text("[1, 2]")
    assert main(["tdiam", "--config", str(path)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err



@pytest.mark.parametrize("config", ["directory", "not-utf8"])
def test_unreadable_config_exit_2(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    if config == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\x00")
    assert main(["tdiam", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    assert f"config {path} cannot be read" in capsys.readouterr().err


@pytest.mark.parametrize("mesh_path", ["missing", "directory"])
def test_unreadable_csv_mesh_exit_2(tmp_path, capsys, mesh_path):
    path = tmp_path / "mesh.csv"
    if mesh_path == "directory":
        path.mkdir()
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1,
                                              "mesh": {"kind": "csv", "path": str(path), "dim": 1},
                                              "output_dir": str(tmp_path / "out")})
    assert main(["tdiam", "--config", cfg]) == 2
    assert f"csv mesh {path} cannot be read" in capsys.readouterr().err

PENTAGON = {"dim": 2, "halfspaces": [{"a": ["1", "0"], "b": "1"}, {"a": ["0", "1"], "b": "1"},
                                     {"a": ["1", "1"], "b": "3/2"}]}
BOX3 = {"kind": "box2d", "x": [0, 1], "y": [0, 1], "counts": [3, 3]}


@pytest.mark.parametrize("config, flags, message", [
    ({"body": PENTAGON, "run": {"subsamples": 0}}, [], "subsamples"),
    ({"body": PENTAGON}, ["--resolution", "abc"], "'abc'"),
    ({"body": {"dim": 1, "halfspaces": [{"a": ["1/0"], "b": "1"}]}}, [], "'1/0'"),
    ({}, [], "body spec"),
    ({"body": PENTAGON, "run": {"subsamples": 3000}}, [], "subsamples 3000"),
    ({"body": PENTAGON}, ["--resolution", "1/5000"], "resolution 1/5000"),
    ({"body": {"dim": 2, "halfspaces": [{"b": "1"}]}}, [], "body.halfspaces[0]"),
    ({"body": {"dim": 2, "halfspaces": 5}}, [], "body.halfspaces"),
    ({"body": {"dim": 2, "halfspaces": [{"a": "12", "b": "2"}]}}, [], "body.halfspaces[0].a"),
    ({"body": {"dim": 1, "halfspaces": [{"a": ["1"], "b": "x"}]}}, [], "body.halfspaces[0]: "),
    ({"body": PENTAGON, "run": {"k_max": True}}, [], "run.k_max"),
    ({"body": {"dim": 2, "halfspaces": [{"a": ["1", "1"], "b": True}]}}, [], "body.halfspaces[0]: "),
    ({"body": {"dim": True, "halfspaces": [{"a": ["1"], "b": "1"}]}}, [], "dim must be a positive"),
    ({"body": PENTAGON, "run": {"resolution": True}}, [],
     "run.resolution: expected an exact rational"),
    ({"body": PENTAGON, "run": {"resolution": "abc"}}, [], "run.resolution: not an exact rational"),
    ({"body": {"dim": 2, "halfspaces": []}}, [], "the body is unbounded along the direction (1, 0)"),
], ids=["zero-subsamples", "resolution-not-rational", "zero-denominator", "no-body",
        "oversized-subsamples", "oversized-grid", "halfspace-without-a", "halfspaces-not-a-list",
        "normal-is-a-string", "offset-not-rational", "k-max-true", "offset-true", "dim-true",
        "resolution-true", "resolution-config-not-rational", "no-halfspaces"])
def test_tdiam_invalid_input_exit_2(tmp_path, capsys, config, flags, message):
    cfg = write_config(tmp_path, "bad.json", {"mesh": BOX3, "output_dir": str(tmp_path / "out"),
                                              **config})
    assert main(["tdiam", "--config", cfg, *flags]) == 2
    assert message in capsys.readouterr().err


INTERVAL9 = {"kind": "interval", "a": -1, "b": 1, "count": 9}
TORUS4 = {"kind": "torus", "counts": [4, 4]}


@pytest.mark.parametrize("subcommand, config, flags, message", [
    ("cheb", {"run": {"k": 2}}, ["--alpha", "x"], "--alpha"),
    ("cheb", {"run": {"k": 2, "alpha": [1]}}, ["--theta", "1/2", "--schedule", "2,x"],
     "--schedule"),
    ("cheb", {"run": {"k": 2, "alpha": 1}}, [], "run.alpha"),
    ("tdiam", {"run": {"k_max": "two"}}, [], "run.k_max"),
    ("tdiam", {"run": {"k_max": math.inf}}, [], "run.k_max"),
    ("tdiam", {"run": {"k_max": math.nan}}, [], "run.k_max"),
    ("tdiam", {"run": {"k_max": 2.9}}, [], "run.k_max"),
    ("tdiam", {"mesh": {"kind": "csv", "dim": 1}}, [], "'path'"),
    ("tdiam", {"mesh": {"kind": "explicit", "points": [[0, 0], [1, math.nan], [2, 0]]}}, [],
     "mesh point 1 is not finite"),
    ("vdm", {"mesh": {**INTERVAL9, "weight": {"kind": "table", "log_weights": [0] * 8 + [math.inf]}}},
     [], "+inf"),
    ("tdiam", {"mesh": {**INTERVAL9, "count": 9.7}}, [], "mesh.count"),
    ("tdiam", {"mesh": {**INTERVAL9, "count": "abc"}}, [], "mesh.count"),
    ("tdiam", {"mesh": {"kind": "interval", "a": -1, "b": 1}}, [], "mesh.count"),
    ("tdiam", {"mesh": {"kind": "torus", "counts": [3, 3], "radii": ["x", 1]}}, [], "mesh.radii"),
    ("tdiam", {"mesh": {**INTERVAL9, "weight": {"kind": "radial-gaussian", "sigma": "abc"}}}, [],
     "mesh.weight.sigma"),
    ("tdiam", {"mesh": {"kind": "product", "factors": [INTERVAL9, {**INTERVAL9, "count": 2.5}]}}, [],
     "mesh.factors[1].count"),
    ("cheb", {"body": SIMPLEX2, "mesh": TORUS4, "run": {"k": 2}}, ["--alpha=-1,0"],
     "alpha=(-1, 0) is not a lattice point of level 2"),
    ("cheb", {"body": SIMPLEX2, "mesh": TORUS4, "run": {"k": 2}}, ["--alpha=-1,1"],
     "alpha=(-1, 1) is not a lattice point of level 2"),
    ("cheb", {}, ["--k", "2", "--alpha=-1"], "alpha=(-1,) is not a lattice point of level 2"),
    ("cheb", {"run": {"k": 2, "alpha": [1], "theta": [["abc"]]}}, [],
     "theta: not an exact rational: 'abc'"),
    ("cheb", {"body": SIMPLEX2, "run": {"k": 2}}, ["--alpha", "1"],
     "mesh dimension 1 != body dimension 2"),
    ("tdiam", {"run": [2]}, [], "config 'run' must be a JSON object"),
    ("tdiam", {"mesh": None}, [], "config has no 'mesh' section"),
    ("cheb", {"run": {"k": 2}}, [], "cheb needs run.k and run.alpha"),
    ("cheb", {"run": {"alpha": [1]}}, [], "cheb needs run.k and run.alpha"),
    ("tdiam", {"mesh": {"kind": "csv", "path": "mesh.csv"}}, [], "mesh.dim"),
    ("cheb", {"run": {"k": 2, "alpha": [1], "orderings": []}}, [], "run.orderings"),
    ("cheb", {"run": {"k": 2, "alpha": [1], "theta": 0}}, [], "run.theta"),
    ("cheb", {"run": {"k": 2, "alpha": [1], "theta": False}}, [], "run.theta"),
    ("cheb", {"run": {"k": 2, "alpha": [1], "theta": ""}}, [], "run.theta"),
    ("cheb", {"run": {"k": 2, "alpha": [1], "theta": {}}}, [], "run.theta"),
    ("cheb", {"body": SIMPLEX2, "mesh": TORUS4, "run": {"k": 2, "alpha": [1, 0]}},
     ["--theta", "1/3,1/3", "--schedule", "6,3"], "schedule must be a strictly increasing list"),
    ("body-check", {}, ["--k-max", "0"], "k_max must be >= 1"),
    ("tdiam", {}, ["--resolution=-1/32"], "resolution must be positive"),
    ("tdiam", {"run": {"k_max": "2"}}, [], "run.k_max must be an integer, got '2'"),
    ("tdiam", {"run": {"polygon_m": "32"}}, [], "run.polygon_m must be an integer, got '32'"),
    ("tdiam", {"run": {"strategy": {"kind": "greedy", "restarts": "4"}}}, [],
     "run.strategy.restarts must be an integer, got '4'"),
], ids=["alpha-flag", "schedule-flag", "alpha-not-a-list", "k-max-not-int", "k-max-infinity",
        "k-max-nan", "k-max-fractional", "csv-mesh-no-path", "nan-mesh-point", "infinite-log-weight",
        "count-fractional", "count-not-int", "count-missing", "radius-not-real", "sigma-not-real",
        "factor-count-fractional", "alpha-minus-1-0", "alpha-minus-1-1", "alpha-minus-1",
        "theta-not-rational",
        "mesh-body-dimension-mismatch", "run-not-an-object", "no-mesh", "cheb-without-alpha",
        "cheb-without-k", "csv-mesh-no-dim", "cheb-orderings-empty", "theta-zero", "theta-false",
        "theta-empty-string", "theta-mapping", "schedule-decreasing", "body-check-k-max-zero",
        "resolution-negative", "k-max-string", "polygon-m-string", "restarts-string"])
def test_bad_scalar_input_exit_2(tmp_path, capsys, subcommand, config, flags, message):
    cfg = write_config(tmp_path, "bad.json", {"body": SIMPLEX1, "mesh": INTERVAL9,
                                              "output_dir": str(tmp_path / "out"), **config})
    assert main([subcommand, "--config", cfg, *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, flags", [
    ("tdiam", ["--resolution", "-1/32"]),
    ("cheb", ["--k", "2", "--alpha", "-1,0"]),
], ids=["resolution", "alpha"])
def test_negative_rational_as_a_separate_argument_stops_in_argparse(tmp_path, capsys, subcommand, flags):
    # argparse takes a value that is not a plain negative number, such as
    # -1/32 or -1,0, for an option, so the flag has no argument; the
    # --flag=value form reaches the package's check (test_bad_scalar_input_exit_2)
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": INTERVAL9,
                                              "output_dir": str(tmp_path / "out")})
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--config", cfg, *flags])
    assert exc.value.code == 2
    assert f"argument {flags[-2]}: expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _middle_log_weight(value):
    return {**INTERVAL9, "weight": {"kind": "table", "log_weights": [0] * 4 + [value] + [0] * 4}}


def test_tdiam_infinite_weight_power_is_a_cell_error(tmp_path, capsys):
    # log w = -1e308 makes k * log w = -inf at levels 2 and 3: their transform
    # cells carry the error, and the run still ends ok, with nothing on stderr
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": _middle_log_weight(-1e308),
                                              "run": {"k_max": 3}, "output_dir": str(tmp_path / "out")})
    assert main(["tdiam", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "out" / "MANIFEST.json").read_text())
    assert (manifest["status"], manifest["exit_code"]) == ("ok", 0)
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert [sorted(row["errors"]) for row in rows] == [[], *[["transform:cgrevlex", "transform:grevlex"]] * 2]
    assert all(row["d_vdm"] is not None for row in rows)


@pytest.mark.parametrize("log_weight", [1e308, 1000], ids=["1e308", "1000"])
def test_tdiam_writes_inf_where_a_value_leaves_the_float_range(tmp_path, capsys, log_weight):
    # a large finite log weight makes delta_k and the Leja value at level 1
    # (and everything from level 2 on at 1e308) past the float range: they
    # read inf, written "inf", and the run ends ok with nothing on stderr
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": _middle_log_weight(log_weight),
                                              "run": {"k_max": 3}, "output_dir": str(out)})
    assert main(["tdiam", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert (manifest["status"], manifest["exit_code"]) == ("ok", 0)
    first = json.loads((out / "report.json").read_text())["rows"][0]
    assert first["delta"] == first["leja_value"] == "inf"
    header, first_csv = (out / "diameter.csv").read_text().splitlines()[:2]
    cells = dict(zip(header.split(","), first_csv.split(",")))
    assert cells["delta_k"] == cells["leja_value"] == "inf"


@pytest.mark.parametrize("subcommand, flags, artifact, text", [
    ("leja", ["--k-max", "3"], "leja.csv", ",inf\n"),
    ("cheb", ["--k", "1", "--alpha", "0"], "cheb.json", '"T": "inf"'),
], ids=["leja", "cheb"])
def test_values_past_the_float_range_read_inf(tmp_path, capsys, subcommand, flags, artifact, text):
    # log w = 1000: the level-1 Leja value and the constant's T = e^1000 are inf
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": _middle_log_weight(1000),
                                              "output_dir": str(out)})
    assert main([subcommand, "--config", cfg, *flags]) == 0
    assert capsys.readouterr().err == ""
    assert text in (out / artifact).read_text()


@pytest.mark.parametrize("subcommand", ["tdiam", "vdm", "leja", "transform"])
@pytest.mark.parametrize("body, mesh, message", [
    (SIMPLEX1, TORUS4, "mesh dimension 2 != body dimension 1"),
    (SIMPLEX2, INTERVAL9, "mesh dimension 1 != body dimension 2"),
], ids=["mesh-wider", "mesh-narrower"])
def test_mesh_body_dimension_mismatch_exit_2(tmp_path, capsys, subcommand, body, mesh, message):
    cfg = write_config(tmp_path, "bad.json", {"body": body, "mesh": mesh, "run": {"k_max": 2},
                                              "output_dir": str(tmp_path / "out")})
    assert main([subcommand, "--config", cfg]) == 2
    assert message in capsys.readouterr().err


BAD_BODY = {"dim": 1, "halfspaces": [{"b": "1"}]}
BAD_MESH = {"kind": "interval", "a": -1, "b": 1, "count": "abc"}


@pytest.mark.parametrize("subcommand", ["tdiam", "vdm", "fekete", "leja", "transform", "cheb"])
def test_body_is_read_before_the_mesh(tmp_path, capsys, subcommand):
    cfg = write_config(tmp_path, "bad.json", {"body": BAD_BODY, "mesh": BAD_MESH,
                                              "run": {"k": 1, "alpha": [1]},
                                              "output_dir": str(tmp_path / "out")})
    assert main([subcommand, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "body.halfspaces[0]" in err and "mesh.count" not in err


@pytest.mark.parametrize("subcommand", ["body-check", "enumerate"])
def test_body_only_subcommands_ignore_the_mesh(tmp_path, subcommand):
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": BAD_MESH, "run": {"k_max": 2},
                                              "output_dir": str(tmp_path / "out")})
    assert main([subcommand, "--config", cfg]) == 0


def test_manifest_records_run_status(tmp_path, monkeypatch):
    import ctdiam.cli as cli_mod

    def manifest(out):
        return json.loads((out / "MANIFEST.json").read_text())

    failed = tmp_path / "failed"
    cfg = write_config(tmp_path, "bad.json", {"body": SIMPLEX1, "mesh": TORUS4,
                                              "output_dir": str(failed)})
    assert main(["tdiam", "--config", cfg]) == 2
    assert manifest(failed) == {"status": "failed", "exit_code": 2, "artifacts": []}

    ok = tmp_path / "ok"
    seen = []
    build_report = cli_mod.build_report

    def spying(*args):
        seen.append(manifest(ok))
        return build_report(*args)

    monkeypatch.setattr(cli_mod, "build_report", spying)
    cfg = write_config(tmp_path, "ok.json", {"body": SIMPLEX1, "mesh": INTERVAL9,
                                             "run": {"k_max": 1}, "output_dir": str(ok)})
    assert main(["tdiam", "--config", cfg]) == 0
    assert seen == [{"status": "running", "exit_code": None, "artifacts": []}]
    assert manifest(ok) == {"status": "ok", "exit_code": 0,
                            "artifacts": ["diameter.csv", "report.json"]}

    # an exception main does not map leaves a traceback and exit status 1
    monkeypatch.setattr(cli_mod, "build_report", lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(["tdiam", "--config", cfg])
    assert manifest(ok) == {"status": "failed", "exit_code": 1, "artifacts": []}


@pytest.mark.parametrize("subcommand", ["tdiam", "vdm"])
@pytest.mark.parametrize("mesh", [
    {"kind": "explicit", "points": [[], [], []]},
    "csv",
], ids=["explicit", "csv"])
def test_zero_dimensional_mesh_exit_2(tmp_path, capsys, subcommand, mesh):
    if mesh == "csv":
        (tmp_path / "mesh.csv").write_text("0\n0\n0\n")
        mesh = {"kind": "csv", "path": str(tmp_path / "mesh.csv"), "dim": 0}
    cfg = write_config(tmp_path, "bad.json", {"body": SIMPLEX1, "mesh": mesh, "run": {"k_max": 1},
                                              "output_dir": str(tmp_path / "out")})
    assert main([subcommand, "--config", cfg]) == 2
    assert "a mesh needs dimension >= 1, got 0" in capsys.readouterr().err


def test_cheb_flat_theta_exit_2_before_any_solve(tmp_path, capsys):
    # each string of a flat list used to be read as a direction, after the records were solved
    cfg = write_config(tmp_path, "bad.json", {
        "body": SIMPLEX2, "mesh": TORUS4, "output_dir": str(tmp_path / "out"),
        "run": {"k": 2, "alpha": [1, 0], "theta": ["1/3", "1/3"], "schedule": [2, 3]}})
    assert main(["cheb", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert "run.theta must be a list of directions" in err
    assert out == ""
    assert not (tmp_path / "out" / "cheb.json").exists()


@pytest.mark.parametrize("subcommand", ["tdiam", "vdm"])
@pytest.mark.parametrize("strategy, message", [
    ({"kind": "greedy", "restarts": "x"}, "run.strategy.restarts"),
    ({"kind": "greedy", "restarts": 2.5}, "run.strategy.restarts"),
    ({"kind": "brute-force", "cap": "many"}, "run.strategy.cap"),
    ("greedy", "run.strategy must be a JSON object"),
    ({"kind": "greedy", "restarts": -3}, "run.strategy.restarts must be >= 1, got -3"),
    ({"kind": "greedy", "restarts": 0}, "run.strategy.restarts must be >= 1, got 0"),
    ({"kind": "brute-force", "cap": -1}, "run.strategy.cap must be >= 1, got -1"),
    ({"kind": "brute-force", "cap": 0}, "run.strategy.cap must be >= 1, got 0"),
    ({"kind": "greedy", "restarts": True}, "run.strategy.restarts"),
], ids=["restarts-not-int", "restarts-fractional", "cap-not-int", "not-an-object",
        "restarts-negative", "restarts-zero", "cap-negative", "cap-zero", "restarts-true"])
def test_bad_strategy_exit_2(tmp_path, capsys, subcommand, strategy, message):
    cfg = write_config(tmp_path, "bad.json", {"body": SIMPLEX1, "mesh": INTERVAL9,
                                              "run": {"k_max": 2, "strategy": strategy},
                                              "output_dir": str(tmp_path / "out")})
    assert main([subcommand, "--config", cfg]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, field", [("tdiam", "include_leja"),
                                               ("transform", "emit_plot_data")])
@pytest.mark.parametrize("value", ["false", 0], ids=["string", "number"])
def test_non_boolean_switch_exit_2(tmp_path, capsys, subcommand, field, value):
    # bool("false") is True, so only JSON booleans may switch Leja or the plot data
    cfg = write_config(tmp_path, "bad.json", {"body": SIMPLEX1, "mesh": INTERVAL9,
                                              "run": {"k_max": 2, field: value},
                                              "output_dir": str(tmp_path / "out")})
    assert main([subcommand, "--config", cfg]) == 2
    assert f"run.{field}" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["tdiam", "transform"])
@pytest.mark.parametrize("orderings", [["grevlx"], "cgrevlex", []], ids=["misspelt", "string", "empty"])
def test_bad_orderings_exit_2(tmp_path, capsys, subcommand, orderings):
    cfg = write_config(tmp_path, "bad.json", {"body": SIMPLEX1, "mesh": INTERVAL9,
                                              "run": {"k_max": 2, "orderings": orderings},
                                              "output_dir": str(tmp_path / "out")})
    assert main([subcommand, "--config", cfg]) == 2
    assert "run.orderings" in capsys.readouterr().err


FLAG_VALUES = {"--k": ["1"], "--k-max": ["1"], "--alpha": ["1"], "--polygon-m": ["8"],
               "--ordering": ["grevlex"], "--strategy": ["greedy"], "--theta": ["1/2"],
               "--schedule": ["2,4"], "--resolution": ["1/8"], "--emit-plot-data": []}
FLAGS_READ = {
    "body-check": {"--k-max"},
    "enumerate": {"--k-max"},
    "cheb": {"--k", "--alpha", "--polygon-m", "--ordering", "--theta", "--schedule"},
    "transform": {"--k", "--polygon-m", "--ordering", "--emit-plot-data"},
    "vdm": {"--k", "--strategy"},
    "fekete": {"--k", "--strategy"},
    "leja": {"--k-max"},
    "tdiam": {"--k-max", "--polygon-m", "--ordering", "--strategy", "--resolution"},
}


@pytest.mark.parametrize("subcommand, flag", [(sub, flag) for sub, read in FLAGS_READ.items()
                                              for flag in FLAG_VALUES if flag not in read])
def test_unread_flag_exit_2(tmp_path, capsys, subcommand, flag):
    # tdiam --k 1 used to run levels 1 to 4 and exit 0
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": INTERVAL9, "run": {"k": 2},
                                              "output_dir": str(out)})
    assert main([subcommand, "--config", cfg, flag, *FLAG_VALUES[flag]]) == 2
    assert capsys.readouterr().err == f"validation error: {subcommand} does not read {flag}\n"
    assert not (out / "MANIFEST.json").exists()


@pytest.mark.parametrize("subcommand, run, flag, artifact", [
    ("enumerate", {"k": 5}, "--k-max", "lattice.csv"),
    ("transform", {"k_max": 3}, "--k", "transform.csv"),
    ("vdm", {"k_max": 3}, "--k", "vdm.json"),
    ("fekete", {"k_max": 3}, "--k", "fekete.json"),
])
def test_the_level_flag_beats_the_other_level_field(tmp_path, capsys, subcommand, run, flag, artifact):
    # each subcommand reads one level flag, stored in the field its handler reads first
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": INTERVAL9, "run": run,
                                              "output_dir": str(out)})
    assert main([subcommand, "--config", cfg, flag, "2"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("k=1:" if subcommand == "enumerate" else "k=2:")
    assert "k=2:" in printed and "k=3:" not in printed
    assert (out / artifact).exists()


def test_cheb_null_theta_means_no_direction(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": INTERVAL9, "output_dir": str(out),
                                              "run": {"k": 2, "alpha": [1], "theta": None}})
    assert main(["cheb", "--config", cfg]) == 0
    assert "directional" not in json.loads((out / "cheb.json").read_text())


def test_leja_notes_a_weighted_mesh(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "body": SIMPLEX1, "mesh": {**INTERVAL9, "weight": {"kind": "radial-gaussian", "sigma": 2}},
        "run": {"k_max": 2}, "output_dir": str(tmp_path / "out")})
    assert main(["leja", "--config", cfg]) == 0
    assert capsys.readouterr().out.endswith("note: weighted mesh; normalized values are heuristic\n")


def test_count_flag_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"body": SIMPLEX1, "mesh": INTERVAL9,
                                              "output_dir": str(tmp_path / "out")})
    with pytest.raises(SystemExit) as exc:
        main(["leja", "--config", cfg, "--count", "3"])
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err


def test_body_check_refuses_a_huge_lattice(tmp_path, capsys):
    cfg = write_config(tmp_path, "cube.json", {
        "body": {"dim": 3, "halfspaces": [{"a": [int(i == j) for i in range(3)], "b": 1} for j in range(3)]},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["body-check", "--config", cfg, "--k-max", "1000000"]) == 2
    assert "k=1000000 makes" in capsys.readouterr().err


@pytest.mark.parametrize("mesh, message", [
    ({"kind": "torus", "counts": [100000, 100000]}, "mesh.counts makes 10000000000 mesh points"),
    ({"kind": "circle", "count": 2**22 + 1}, "mesh.count makes 4194305 mesh points"),
    ({"kind": "product", "factors": [{"kind": "circle", "count": 4096}] * 3},
     "mesh.factors makes 16777216 mesh points"),
], ids=["torus", "circle", "product"])
def test_tdiam_refuses_an_oversized_mesh(tmp_path, capsys, mesh, message):
    # refused before any array of the mesh is made: the torus would need
    # 160 GB for its point array alone
    cfg = write_config(tmp_path, "mesh.json", {"body": SIMPLEX2, "mesh": mesh,
                                               "output_dir": str(tmp_path / "out")})
    tracemalloc.start()
    try:
        assert main(["tdiam", "--config", cfg]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f"{message}, more than 4194304" in capsys.readouterr().err
    assert peak < 2**20


# scipy is None in sys.modules, so any import of it raises ImportError
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from ctdiam.cli import main
from ctdiam.errors import SolverFailure
sys.exit(main(sys.argv[1:]))
"""


def test_tdiam_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is an oracle of the tests
    cfg = write_config(tmp_path, "torus.json", {
        "body": SIMPLEX2, "mesh": {"kind": "torus", "counts": [6, 6]},
        "run": {"k_max": 2, "include_leja": True}, "output_dir": str(tmp_path / "out")})
    src = os.path.dirname(os.path.dirname(ctdiam.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, "tdiam", "--config", cfg],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
