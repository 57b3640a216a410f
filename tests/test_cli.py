import json
import math
import os

import pytest

from ctdiam.cli import main

SIMPLEX1 = {"dim": 1, "halfspaces": [{"a": ["1"], "b": "1"}]}
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


def test_tdiam_byte_identical_across_worker_counts(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    base = {
        "body": SIMPLEX1,
        "mesh": CIRCLE32,
        "run": {"k_max": 2, "strategy": {"kind": "greedy", "restarts": 2}, "include_leja": True},
    }
    cfg1 = write_config(tmp_path, "c1.json", {**base, "output_dir": str(out1)})
    cfg2 = write_config(tmp_path, "c2.json", {**base, "output_dir": str(out2)})
    assert main(["tdiam", "--config", cfg1, "--workers", "1"]) == 0
    assert main(["tdiam", "--config", cfg2, "--workers", "3"]) == 0
    assert (out1 / "diameter.csv").read_bytes() == (out2 / "diameter.csv").read_bytes()


def test_body_check_unbounded_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "body": {"dim": 2, "halfspaces": [{"a": ["1", "-1"], "b": "1"},
                                          {"a": ["-1", "1"], "b": "1"}]},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["body-check", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "unbounded" in err and "(1, 1)" in err


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


def test_cheb_polygon_below_three_phases_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "circle.json", {
        "body": SIMPLEX1,
        "mesh": CIRCLE32,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["cheb", "--config", cfg, "--k", "2", "--alpha", "1", "--polygon-m", "2"]) == 2
    assert "m_phases >= 3" in capsys.readouterr().err


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


def test_invalid_json_is_validation_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["tdiam", "--config", str(path)]) == 2


PENTAGON = {"dim": 2, "halfspaces": [{"a": ["1", "0"], "b": "1"}, {"a": ["0", "1"], "b": "1"},
                                     {"a": ["1", "1"], "b": "3/2"}]}
BOX3 = {"kind": "box2d", "x": [0, 1], "y": [0, 1], "counts": [3, 3]}


@pytest.mark.parametrize("config, flags, message", [
    ({"body": PENTAGON, "run": {"subsamples": 0}}, [], "subsamples"),
    ({"body": PENTAGON}, ["--resolution", "abc"], "'abc'"),
    ({"body": {"dim": 1, "halfspaces": [{"a": ["1/0"], "b": "1"}]}}, [], "'1/0'"),
    ({}, [], "body spec"),
], ids=["zero-subsamples", "resolution-not-rational", "zero-denominator", "no-body"])
def test_tdiam_invalid_input_exit_2(tmp_path, capsys, config, flags, message):
    cfg = write_config(tmp_path, "bad.json", {"mesh": BOX3, "output_dir": str(tmp_path / "out"),
                                              **config})
    assert main(["tdiam", "--config", cfg, *flags]) == 2
    assert message in capsys.readouterr().err


def test_workers_env_override(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "body": SIMPLEX1,
        "mesh": {"kind": "interval", "a": -1, "b": 1, "count": 17, "spacing": "uniform"},
        "run": {"k": 2},
        "output_dir": str(out),
    })
    monkeypatch.setenv("CTDIAM_WORKERS", "2")
    assert main(["transform", "--config", cfg]) == 0
