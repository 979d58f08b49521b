"""Tests for verification reports: JSON form, error caching, CSV columns."""

import csv
import io
import json

from bergkern import ConvergenceError, RegionError, report
from bergkern.report import VerificationReport, error_pair, make_row


def small_report() -> VerificationReport:
    rep = VerificationReport("demo", {"seed": 1, "nu": [0.5, -0.25]})
    rep.rows = [make_row("demo/0", "demo", {"z": 0.25 + 0.5j}, 1.0 + 1e-12j, 1.0, 1e-10),
                make_row("demo/1", "demo", {"v": (1, 2.5)}, 2.0, 2.0 + 3e-9, 1e-10),
                make_row("demo/2", "demo", {}, 1e-14, 0.0, 1e-10)]
    rep.informational = [make_row("demo/alt", "demo", {}, 3.0, 1.0, 1e-10)]
    rep.wall_time_ms = 12
    return rep


def test_json_report_is_one_line_of_the_dict():
    rep = small_report()
    text = rep.to_json()
    assert "\n" not in text
    doc = json.loads(text)
    assert doc == rep.to_dict()
    assert doc["report_version"] == 2
    assert doc["summary"] == {"total": 3, "passed": 2, "failed": 1,
                              "max_rel_err": rep.rows[1].rel_err, "wall_time_ms": 12}
    # the default separators keep '"key": value', which readers may match
    assert '"wall_time_ms": 12' in text


def test_each_row_computes_its_errors_once(monkeypatch):
    calls = []

    def counted(lhs, rhs):
        calls.append((lhs, rhs))
        return error_pair(lhs, rhs)

    monkeypatch.setattr(report, "error_pair", counted)
    rep = small_report()
    assert len(calls) == len(rep.rows) + len(rep.informational)
    rep.to_json()
    rep.summary()
    assert rep.summary()["failed"] != 0
    rep.to_csv()
    assert len(calls) == len(rep.rows) + len(rep.informational)


def test_csv_error_columns_are_the_error_pair_of_each_row():
    rep = small_report()
    rows = list(csv.DictReader(io.StringIO(rep.to_csv())))
    assert [r["case_id"] for r in rows] == ["demo/0", "demo/1", "demo/2", "demo/alt"]
    for r in rows:
        lhs = complex(float(r["lhs_re"]), float(r["lhs_im"]))
        rhs = complex(float(r["rhs_re"]), float(r["rhs_im"]))
        abs_err, rel_err = error_pair(lhs, rhs)
        assert (r["abs_err"], r["rel_err"]) == (repr(abs_err), repr(rel_err))
        assert r["pass"] == str(rel_err <= float(r["tol"]))



def test_a_row_can_carry_the_error_of_its_evaluation():
    # Either side may be the BergkernError its evaluation raised: the row
    # then has null values, fails, and is the only kind with an "error" key.
    rep = small_report()
    plain = rep.to_dict()
    rep.rows.append(make_row("demo/3", "demo", {"z": 0.5j}, ConvergenceError("no luck"), 1.0,
                             1e-10))
    rep.informational.append(make_row("demo/alt2", "demo", {}, 2.0, RegionError("outside"),
                                      1e-10))
    doc = json.loads(rep.to_json())
    assert doc["rows"][3] == {
        "case_id": "demo/3", "suite": "demo", "inputs": {"z": [0.0, 0.5]}, "lhs": None,
        "rhs": None, "abs_err": None, "rel_err": None, "tol": 1e-10, "pass": False,
        "error": "ConvergenceError: no luck"}
    assert doc["informational"][1]["error"] == "RegionError: outside"
    assert doc["rows"][:3] == plain["rows"] and doc["informational"][:1] == plain["informational"]
    assert doc["summary"] == {"total": 4, "passed": 2, "failed": 2,
                              "max_rel_err": rep.rows[1].rel_err, "wall_time_ms": 12}
    # CSV: no column of its own, so empty values and the error with the inputs
    rows = list(csv.DictReader(io.StringIO(rep.to_csv())))
    assert [(r["case_id"], r["pass"]) for r in rows if r["lhs_re"] == ""] \
        == [("demo/3", "False"), ("demo/alt2", "False")]
    assert {rows[3][k] for k in ("lhs_im", "rhs_re", "rhs_im", "abs_err", "rel_err")} == {""}
    assert json.loads(rows[3]["inputs"]) == {"z": [0.0, 0.5], "error": "ConvergenceError: no luck"}
    assert rows[3]["tol"] == "1e-10"
