"""Every artifact writer on hand-built objects, against literal file text.

The objects hold None, -inf, nan, fractions, booleans and floats that
need all 17 digits, so no solver runs and every format rule shows.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import ctdiam.cli
from ctdiam import Mesh, Polynomial
from ctdiam.cheb import ChebyshevRecord, TransformRow, TransformTable, transform_to_csv
from ctdiam.cli import main
from ctdiam.leja import LejaDiameterReport, LejaDiameterRow, LejaSequence, leja_to_csv
from ctdiam.mesh import mesh_to_csv
from ctdiam.order import CGREVLEX, GREVLEX
from ctdiam.serialize import json_safe
from ctdiam.tdiam import DiameterReport, ReportOptions, ReportRow, report_to_csv, report_to_json


@pytest.mark.parametrize("value, text", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")],
                         ids=["inf", "minus-inf", "nan"])
def test_json_safe_non_finite_numpy_float(value, text):
    # repr(np.float64(inf)) is 'np.float64(inf)'; the string must be a plain float's
    assert json_safe(np.float64(value)) == json_safe(value) == text
    assert json_safe({"x": [np.float64(value)]}) == {"x": [text]}


REPORT = DiameterReport(
    rows=[ReportRow(k=1, m_k=2, h_k=1, l_k=1, log_vdm=0.1, exact=True, delta=1 / 3, d_vdm=-math.inf,
                    d_transform={CGREVLEX: math.nan, GREVLEX: 2.0}, leja_value=None,
                    sandwich_consistent=None, errors={}),
          ReportRow(k=2, m_k=3, h_k=1, l_k=3, log_vdm=None, exact=None, delta=None, d_vdm=None,
                    d_transform={}, leja_value=-0.5, sandwich_consistent=False,
                    errors={"vdm": "SolverFailure: no basis"})],
    a_n=1.5, dagger_verdict="holds-simplex", final_delta_vdm=None, final_delta_transform=math.inf,
    mesh_provenance="explicit(2 points)",
    options=ReportOptions(orderings=(CGREVLEX,), resolution=Fraction(1, 3)))


def test_report_csv_text(tmp_path):
    report_to_csv(REPORT, tmp_path / "diameter.csv")
    assert (tmp_path / "diameter.csv").read_bytes() == (
        b"k,M_k,h_k,L_k,logV,exact,delta_k,D_vdm,D_transform_C,D_transform_grevlex,leja_value\r\n"
        b"1,2,1,1,0.10000000000000001,true,0.33333333333333331,-inf,nan,2,\r\n"
        b"2,3,1,3,,,,,,,-0.5\r\n")


def test_report_json_text(tmp_path):
    report_to_json(REPORT, tmp_path / "report.json",
                   config_echo={"run": {"include_leja": True, "resolution": Fraction(1, 3)}})
    assert (tmp_path / "report.json").read_text() == """{
  "a_n": 1.5,
  "dagger_verdict": "holds-simplex",
  "final_delta_vdm": null,
  "final_delta_transform": "inf",
  "mesh": "explicit(2 points)",
  "rows": [
    {
      "k": 1,
      "m_k": 2,
      "h_k": 1,
      "l_k": 1,
      "log_vdm": 0.1,
      "exact": true,
      "delta": 0.3333333333333333,
      "d_vdm": "-inf",
      "d_transform": {
        "cgrevlex": "nan",
        "grevlex": 2.0
      },
      "leja_value": null,
      "sandwich_consistent": null,
      "errors": {}
    },
    {
      "k": 2,
      "m_k": 3,
      "h_k": 1,
      "l_k": 3,
      "log_vdm": null,
      "exact": null,
      "delta": null,
      "d_vdm": null,
      "d_transform": {},
      "leja_value": -0.5,
      "sandwich_consistent": false,
      "errors": {
        "vdm": "SolverFailure: no basis"
      }
    }
  ],
  "options": {
    "strategy": {
      "restarts": 4,
      "seed": 0
    },
    "orderings": [
      "cgrevlex"
    ],
    "m_phases": 32,
    "include_leja": false,
    "resolution": "1/3",
    "subsamples": 32,
    "workers": 1,
    "transform_method": "lattice-average"
  },
  "config": {
    "run": {
      "include_leja": true,
      "resolution": "1/3"
    }
  }
}
"""


def _record(ordering, log_nu, bracket_factor):
    return ChebyshevRecord(k=2, alpha=(0, 2), ordering=ordering, log_nu=log_nu,
                           coefficients=Polynomial({}), bracket_factor=bracket_factor,
                           iterations=0, real_path=True)


TABLE = TransformTable(k=2, orderings=(GREVLEX, CGREVLEX), rows=[
    TransformRow(alpha=(0, 2), theta=(Fraction(0), Fraction(1)), gauge=Fraction(2, 3),
                 records={GREVLEX: _record(GREVLEX, -math.inf, 1.0), CGREVLEX: _record(CGREVLEX, 0.2, 1.0)},
                 errors={}),
    TransformRow(alpha=(1, 0), theta=(Fraction(1, 2), Fraction(0)), gauge=Fraction(1, 3),
                 records={}, errors={GREVLEX: "SolverFailure: x", CGREVLEX: "SolverFailure: x"}),
    TransformRow(alpha=(1, 1), theta=(Fraction(1, 2), Fraction(1, 2)), gauge=Fraction(4, 3),
                 records={GREVLEX: _record(GREVLEX, math.nan, 2.0)}, errors={CGREVLEX: "SolverFailure: y"}),
])
TRANSFORM_CSV = (b"alpha,theta_1,theta_2,gauge,logT_grevlex,logT_C,bracket_low,bracket_high\r\n"
                 b"0 2,0,1,0.66666666666666663,-inf,0.10000000000000001,0.10000000000000001,"
                 b"0.10000000000000001\r\n"
                 b"1 0,0.5,0,0.33333333333333331,,,,\r\n"
                 b"1 1,0.5,0.5,1.3333333333333333,nan,,nan,nan\r\n")


def test_transform_csv_text(tmp_path):
    transform_to_csv(TABLE, tmp_path / "transform.csv")
    assert (tmp_path / "transform.csv").read_bytes() == TRANSFORM_CSV


def _run_cli(tmp_path, argv, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"body": body, "mesh": {"kind": "torus", "counts": [3, 3]},
                               "output_dir": str(tmp_path / "out")}))
    assert main([*argv, "--config", str(cfg)]) == 0
    return tmp_path / "out"


def test_transform_plot_csv_is_a_projection_of_transform_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(ctdiam.cli, "transform_grid", lambda *args, **kwargs: TABLE)
    out = _run_cli(tmp_path, ["transform", "--emit-plot-data"],
                   {"dim": 2, "halfspaces": [{"a": ["1", "1"], "b": "1"}]})
    assert (out / "transform.csv").read_bytes() == TRANSFORM_CSV
    assert (out / "transform_plot.csv").read_bytes() == (
        b"theta_1,theta_2,logT_grevlex,logT_C\r\n"
        b"0,1,-inf,0.10000000000000001\r\n"
        b"0.5,0,,\r\n"
        b"0.5,0.5,nan,\r\n")
    assert (out / "MANIFEST.json").read_text() == """{
  "status": "ok",
  "exit_code": 0,
  "artifacts": [
    "transform.csv",
    "transform_plot.csv"
  ]
}
"""


def test_lattice_csv_text(tmp_path):
    pentagon = {"dim": 2, "halfspaces": [{"a": ["1", "0"], "b": "1"}, {"a": ["0", "1"], "b": "1"},
                                         {"a": ["1", "1"], "b": "3/2"}]}
    out = _run_cli(tmp_path, ["enumerate", "--k-max", "2"], pentagon)
    assert (out / "lattice.csv").read_bytes() == (
        b"k,alpha,gauge\r\n"
        b"1,0 0,0\r\n1,0 1,1\r\n1,1 0,1\r\n"
        b"2,0 0,0\r\n2,0 1,1\r\n2,1 0,1\r\n2,1 1,4/3\r\n2,0 2,2\r\n2,2 0,2\r\n2,1 2,2\r\n2,2 1,2\r\n")


def test_leja_csv_text(tmp_path):
    mesh = Mesh(1, [[0.1], [1j], [-2 + 0.5j]], [0.0, -math.inf, -0.25])
    sequence = LejaSequence(mesh=mesh, indices=[0, 2, 1], log_values=[0.0, 1 / 3, -math.inf],
                            k_values=[0, 1, 2], exponents=[(0,), (1,), (2,)])
    assert len(sequence) == 3  # leja.points in the benchmark's trace
    report = LejaDiameterReport(rows=[LejaDiameterRow(k=1, m_k=2, l_k=1, log_vdm=1 / 3, value=0.1),
                                      LejaDiameterRow(k=2, m_k=3, l_k=3, log_vdm=-math.inf, value=0.0)],
                                sequence=sequence, heuristic=True)
    leja_to_csv(report, tmp_path / "leja.csv")
    assert (tmp_path / "leja.csv").read_bytes() == (
        b"s,k,re_1,im_1,log_vdm\r\n"
        b"1,0,0.10000000000000001,0,0\r\n"
        b"2,1,-2,0.5,0.33333333333333331\r\n"
        b"3,2,0,1,-inf\r\n"
        b"\r\n"
        b"k,M_k,L_k,log_vdm,value\r\n"
        b"1,2,1,0.33333333333333331,0.10000000000000001\r\n"
        b"2,3,3,-inf,0\r\n")


def test_mesh_csv_text(tmp_path):
    mesh = Mesh(2, [[0.1, 1j], [-2 + 0.5j, 3]], [0.0, -math.inf])
    mesh_to_csv(mesh, tmp_path / "mesh.csv")
    assert (tmp_path / "mesh.csv").read_bytes() == (b"0.10000000000000001,0,0,1,0\r\n"
                                                    b"-2,0.5,3,0,-inf\r\n")
