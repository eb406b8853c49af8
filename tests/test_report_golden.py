"""Structured reports of the catalog fixtures stay byte-identical.

Every catalog fixture is verified at the README defaults in exact and in float
mode, and the sha256 of each structured report is compared with the golden
table `report_golden.json`.  The table also holds the scenarios of
`EXPLICIT`: an explicit-operator instance, because the catalog is mostly
nilpotent, so its series tails vanish, while that instance makes every
truncation bound nonzero; a catalog fixture with `degree`, `cutoff`, both
sample lists and the `scalar` block away from their defaults; and the two exact
exterior-algebra suites on sections of their own.  A change that is meant to
alter what a report says rewrites the table:

    PYTHONPATH=src python3 tests/test_report_golden.py
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from heavenlab.cli import main
from heavenlab.prolong import catalog_names

GOLDEN = Path(__file__).with_name("report_golden.json")
MODES = ("exact", "float")

# name -> extra scenario keys
EXPLICIT = {
    # L is not nilpotent and ad_L[M0] = M0 / 2
    "explicit-diagonalizable3": {
        "instance": {
            "operators": {
                "L": [[1, 1, 0], [0, -1, 0], [0, 0, "1/2"]],
                "M0": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
                "P0": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            }
        },
        "u_samples": [-2, 0, 1],
    },
    # degree, cutoff, t_samples, u_samples and scalar away from their defaults
    "nilpotent4-params": {
        "instance": {"catalog": "nilpotent4"},
        "degree": 12,
        "cutoff": 5,
        "t_samples": ["1/3", "3/2"],
        "u_samples": [-1.5, 0.5],
        "scalar": {"omega": "2/3", "p0": "3", "m0": "-1/2", "t_samples": ["1/4", "5/2"]},
    },
    # the eds suites alone, on sections whose printed polynomial (the `f = ...`
    # detail) has several variables per monomial, negative and rational
    # coefficients, a constant term, and monomials written out of order
    "eds-sections": {
        "instance": None,
        "suites": ["eds-proposition1", "eds-closure"],
        "sections": [
            {"z*x^2": "-3/2", "y*z^2": "2/5", "x*z": -1, "1": "7/3"},
            {"z^3": "1/4", "y*x*y": -2, "x*y*z": "5", "1": "-1"},
        ],
    },
}


def report_digest(fixture: str, mode: str, workdir: Path) -> str:
    scenario = workdir / f"{fixture}-{mode}.json"
    report = workdir / f"{fixture}-{mode}.report.json"
    doc = {"name": f"{fixture}-{mode}", "instance": {"catalog": fixture}, "mode": mode}
    doc.update(EXPLICIT.get(fixture, {}))
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    main(["verify", str(scenario), "--format", "structured", "--out", str(report)])
    return hashlib.sha256(report.read_bytes()).hexdigest()


def _cases() -> list[str]:
    fixtures = (*catalog_names(), *EXPLICIT)
    return [f"{fixture}/{mode}" for fixture in fixtures for mode in MODES]


def test_golden_table_covers_every_fixture_and_mode():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(_cases())


@pytest.mark.parametrize("case", _cases())
def test_structured_report_matches_golden(case, tmp_path):
    fixture, mode = case.split("/")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert report_digest(fixture, mode, tmp_path) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {case: report_digest(*case.split("/"), Path(tmp)) for case in _cases()}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
