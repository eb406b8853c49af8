"""Check records and verification reports.

Every verification routine in the package reports its findings as a list of
CheckRecord values wrapped in a VerificationReport.  A record is auditable on
its own: the verdict is derived from the recorded residual/bound pair and from
nothing else.  Informational records (verdict "info") carry measurements that
are reported but never gate a run, e.g. the open spectral-problem residuals.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Optional

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INFO = "info"


@dataclass(frozen=True)
class CheckRecord:
    """One verified statement: residual <= bound, or an informational value."""

    check_id: str
    suite: str
    equation: str
    residual: float
    bound: float
    verdict: str
    detail: str = ""

    def failed(self) -> bool:
        return self.verdict == FAIL


def make_record(
    check_id: str,
    suite: str,
    equation: str,
    residual: float,
    bound: float,
    detail: str = "",
) -> CheckRecord:
    """Build a record; the verdict comes only from residual <= bound."""
    residual = float(residual)
    bound = float(bound)
    verdict = PASS if residual <= bound else FAIL
    return CheckRecord(check_id, suite, equation, residual, bound, verdict, detail)


def info_record(
    check_id: str, suite: str, equation: str, residual: float, detail: str = ""
) -> CheckRecord:
    """A record that reports a residual and never gates: verdict info, bound 0."""
    return CheckRecord(check_id, suite, equation, float(residual), 0.0, INFO, detail)


@dataclass
class VerificationReport:
    """Aggregated results of one verification run."""

    name: str
    records: tuple[CheckRecord, ...] = ()
    scenario: Optional[dict] = None

    def __post_init__(self) -> None:
        self.records = tuple(self.records)

    def sorted(self) -> "VerificationReport":
        ordered = tuple(sorted(self.records, key=lambda r: (r.suite, r.check_id)))
        return replace(self, records=ordered)

    def failed_records(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if r.failed())

    def all_passed(self) -> bool:
        return not self.failed_records()

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, INFO: 0}
        for r in self.records:
            out[r.verdict] += 1
        return out


def merge_reports(name: str, reports: Iterable[VerificationReport]) -> VerificationReport:
    records: list[CheckRecord] = []
    for rep in reports:
        records.extend(rep.records)
    return VerificationReport(name=name, records=tuple(records))


def render_text(report: VerificationReport) -> str:
    rep = report.sorted()
    counts = rep.counts()
    lines = [
        f"report: {rep.name}",
        f"tool version: {TOOL_VERSION}",
        f"checks: {len(rep.records)}  pass={counts[PASS]}  fail={counts[FAIL]}  info={counts[INFO]}",
    ]
    for r in rep.records:
        lines.append(
            f"[{r.verdict.upper():4s}] {r.suite}/{r.check_id}"
            f"  residual={r.residual:.6e}  bound={r.bound:.6e}  :: {r.equation}"
            + (f"  ({r.detail})" if r.detail else "")
        )
    lines.append("RESULT: " + ("PASS" if rep.all_passed() else "FAIL"))
    return "\n".join(lines) + "\n"


def render_structured(report: VerificationReport) -> str:
    """Deterministic JSON rendering.

    No wall-clock timing is recorded, so identical runs emit byte-identical
    documents.
    """
    rep = report.sorted()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": rep.name,
        "tool_version": TOOL_VERSION,
        "scenario": rep.scenario,
        # a record's fields, under their own names, are its JSON object
        "checks": [vars(r) for r in rep.records],
        "result": "pass" if rep.all_passed() else "fail",
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
