"""Structured verification reports with JSON and CSV serialization.

A report has gating rows (they decide the exit status) and informational
rows (adjudication comparisons that are reported but never gate). A row
passes when its relative error is within its tolerance; when the reference
magnitude is below 1e-12 the absolute error is used instead. Each row
computes its errors once, when it is made. A row whose evaluation raised a
BergkernError carries it as "error": "<Type>: <message>", with null values
and errors, and fails; only such rows have the key.

JSON reports are single-line (the C encoder) and carry "report_version";
version 2 is the single-line form, version 1 (no key) was indented.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .errors import BergkernError

_ABS_FALLBACK = 1e-12
REPORT_VERSION = 2


def error_pair(lhs: complex, rhs: complex) -> tuple[float, float]:
    """(abs_err, rel_err) of lhs against the reference rhs."""
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if abs(rhs) >= _ABS_FALLBACK else abs_err
    return abs_err, rel_err


def _flatten(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_flatten(v) for v in value]
    return value


@dataclass(frozen=True)
class ReportRow:
    case_id: str
    suite: str
    inputs: dict
    lhs: complex | None
    rhs: complex | None
    tol: float
    error: str | None = None  # set, the values are None and the row fails

    abs_err: float | None = field(init=False)
    rel_err: float | None = field(init=False)

    def __post_init__(self):
        # computed once here; every serialisation and summary reads them
        abs_err, rel_err = (None, None) if self.error else error_pair(self.lhs, self.rhs)
        object.__setattr__(self, "abs_err", abs_err)
        object.__setattr__(self, "rel_err", rel_err)

    @property
    def passed(self) -> bool:
        return not self.error and self.rel_err <= self.tol

    def to_dict(self) -> dict:
        row = {
            "case_id": self.case_id,
            "suite": self.suite,
            "inputs": {k: _flatten(v) for k, v in self.inputs.items()},
            "lhs": None if self.error else {"re": self.lhs.real, "im": self.lhs.imag},
            "rhs": None if self.error else {"re": self.rhs.real, "im": self.rhs.imag},
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tol": self.tol,
            "pass": self.passed,
        }
        if self.error:
            row["error"] = self.error
        return row


def make_row(case_id: str, suite: str, inputs: dict, lhs, rhs, tol: float) -> ReportRow:
    """A row comparing lhs with the reference rhs. Either may instead be the
    BergkernError its evaluation raised: the row then carries that error,
    the first of the two."""
    if isinstance(lhs, BergkernError) or isinstance(rhs, BergkernError):
        error = lhs if isinstance(lhs, BergkernError) else rhs
        return ReportRow(case_id, suite, dict(inputs), None, None, float(tol),
                         f"{type(error).__name__}: {error}")
    return ReportRow(case_id, suite, dict(inputs), complex(lhs), complex(rhs), float(tol))


@dataclass
class VerificationReport:
    suite: str
    parameters: dict
    rows: list = field(default_factory=list)
    informational: list = field(default_factory=list)
    wall_time_ms: int = 0

    def sort(self) -> None:
        self.rows.sort(key=lambda r: r.case_id)
        self.informational.sort(key=lambda r: r.case_id)

    def summary(self) -> dict:
        passed = sum(1 for r in self.rows if r.passed)
        return {
            "total": len(self.rows),
            "passed": passed,
            "failed": len(self.rows) - passed,
            "max_rel_err": max((r.rel_err for r in self.rows if not r.error), default=0.0),
            "wall_time_ms": self.wall_time_ms,
        }

    def to_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "suite": self.suite,
            "parameters": self.parameters,
            "rows": [r.to_dict() for r in self.rows],
            "informational": [r.to_dict() for r in self.informational],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        # No indent: json.dumps only uses its C encoder without one. A report
        # is a tree of dicts and lists, so the cycle check is skipped.
        return json.dumps(self.to_dict(), check_circular=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["case_id", "suite", "gating", "lhs_re", "lhs_im",
                         "rhs_re", "rhs_im", "abs_err", "rel_err", "tol",
                         "pass", "inputs"])
        for gating, rows in ((True, self.rows), (False, self.informational)):
            for r in rows:
                inputs = {k: _flatten(v) for k, v in r.inputs.items()}
                if r.error:
                    # the header has no error column: empty values, the error in inputs
                    values = [""] * 6
                    inputs["error"] = r.error
                else:
                    values = [repr(r.lhs.real), repr(r.lhs.imag), repr(r.rhs.real),
                              repr(r.rhs.imag), repr(r.abs_err), repr(r.rel_err)]
                writer.writerow([r.case_id, r.suite, gating, *values, repr(r.tol), r.passed,
                                 json.dumps(inputs, separators=(",", ":"))])
        return buf.getvalue()
