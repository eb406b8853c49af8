"""Command line front end: run verification suites from a scenario file.

    heavenlab verify scenario.json [--suite NAME]... [--format text|structured]
    heavenlab catalog list
    heavenlab catalog show <name>

Exit status: 0 all required checks passed, 1 at least one failed, 2 the
scenario or command line could not be parsed.  Structured output is
deterministic: same scenario, same seed, byte-identical report.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .besselop import RELATIONS, check_recurrence, sum_rule_residual
from .eds import (
    Section,
    check_proposition1,
    closure_check,
    constraint_residuals,
    random_section,
)
from .opcore import EXACT, FLOAT, NonFiniteError, Operator, determinant
from .prolong import (
    ProlongationInstance,
    bch_check,
    catalog_instance,
    catalog_names,
    compatibility_check,
    equivalence_check,
    initial_condition_check,
    ode_check,
    prolongation_residual,
    scalar_check,
)
from .report import (
    VerificationReport,
    make_record,
    merge_reports,
    render_structured,
    render_text,
)

class ScenarioError(Exception):
    """Scenario file is syntactically or semantically invalid."""


@dataclass(frozen=True)
class Scenario:
    name: str
    instance_spec: Optional[dict]
    mode: str
    degree: int
    cutoff: int
    t_samples: tuple[Fraction, ...]
    u_samples: tuple[float, ...]
    k_range: tuple[int, int]
    seed: int
    suites: tuple[str, ...]
    scalar: Optional[dict]
    sections: tuple
    closure_cap: int


def _fraction(value, what: str) -> Fraction:
    try:
        if isinstance(value, float):
            return Fraction(value)
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise ScenarioError(f"{what}: not a rational number: {value!r}") from e


def _integer(value, what: str) -> int:
    """A JSON integer; an integral float such as 16.0 also counts, a bool does not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return value


def _operator(rows, what: str) -> Operator:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ScenarioError(f"{what}: expected a list of rows")
    try:
        return Operator.from_rows(
            [[_fraction(x, what) for x in row] for row in rows], EXACT
        )
    except ValueError as e:
        raise ScenarioError(f"{what}: {e}") from e


def build_instance(spec: dict) -> ProlongationInstance:
    if "catalog" in spec:
        try:
            return catalog_instance(spec["catalog"])
        except KeyError as e:
            raise ScenarioError(str(e.args[0])) from e
    if "operators" not in spec:
        raise ScenarioError("instance needs either 'catalog' or 'operators'")
    ops = spec["operators"]
    for required in ("L", "M0", "P0"):
        if required not in ops:
            raise ScenarioError(f"operators: missing {required}")
    L = _operator(ops["L"], "operators.L")
    M0 = _operator(ops["M0"], "operators.M0")
    P0 = _operator(ops["P0"], "operators.P0")
    n = L.dim
    N = _operator(ops["N"], "operators.N") if "N" in ops else Operator.zero(n, EXACT)
    A = _operator(ops["A"], "operators.A") if "A" in ops else Operator.identity(n, EXACT)
    B = _operator(ops["B"], "operators.B") if "B" in ops else Operator.identity(n, EXACT)
    if determinant(B) == 0:
        raise ScenarioError("operators.B: singular; B must be invertible")
    name = spec.get("name", "custom")
    try:
        return ProlongationInstance(name=name, L=L, M0=M0, P0=P0, N=N, A=A, B=B)
    except ValueError as e:
        raise ScenarioError(f"instance: {e}") from e


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    known = {
        "name", "instance", "mode", "degree", "cutoff", "t_samples", "u_samples",
        "k_range", "seed", "suites", "scalar", "sections", "closure_cap",
    }
    extra = set(doc) - known
    if extra:
        raise ScenarioError(f"unknown scenario keys: {sorted(extra)}")
    if "name" not in doc or not isinstance(doc["name"], str) or not doc["name"]:
        raise ScenarioError("scenario needs a nonempty string 'name'")
    mode = doc.get("mode", EXACT)
    if mode not in (EXACT, FLOAT):
        raise ScenarioError(f"mode must be 'exact' or 'float', got {mode!r}")
    degree = _integer(doc.get("degree", 16), "degree")
    if degree < 4:
        raise ScenarioError("degree must be >= 4")
    cutoff = _integer(doc.get("cutoff", 8), "cutoff")
    if cutoff < 1:
        raise ScenarioError("cutoff must be >= 1")
    closure_cap = _integer(doc.get("closure_cap", 3), "closure_cap")
    if closure_cap < 1:
        raise ScenarioError("closure_cap must be >= 1")
    t_samples = tuple(
        _fraction(v, "t_samples") for v in doc.get("t_samples", ["1/2", "1", "2"])
    )
    if any(t <= 0 for t in t_samples):
        raise ScenarioError("t_samples must be positive")
    u_raw = doc.get("u_samples", [-2, -1, 0])
    if not isinstance(u_raw, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in u_raw
    ):
        raise ScenarioError(f"u_samples must be a list of numbers, got {u_raw!r}")
    u_samples = tuple(float(v) for v in u_raw)
    k_raw = doc.get("k_range", [-4, 4])
    if not isinstance(k_raw, list) or len(k_raw) != 2:
        raise ScenarioError("k_range must be [lo, hi] with integer lo <= hi")
    k_range = (_integer(k_raw[0], "k_range"), _integer(k_raw[1], "k_range"))
    if k_range[0] > k_range[1]:
        raise ScenarioError("k_range must be [lo, hi] with integer lo <= hi")
    seed = _integer(doc.get("seed", 2026), "seed")
    instance_spec = doc.get("instance")
    if instance_spec is not None:
        if not isinstance(instance_spec, dict):
            raise ScenarioError("instance must be an object")
        build_instance(instance_spec)  # validate eagerly
    suites_raw = doc.get("suites")
    if suites_raw is None:
        suites = SUITES if instance_spec is not None else INSTANCE_FREE
    else:
        if not isinstance(suites_raw, list) or not suites_raw:
            raise ScenarioError("suites must be a nonempty list")
        bad = [s for s in suites_raw if s not in SUITES]
        if bad:
            raise ScenarioError(f"unknown suites: {bad}; available: {list(SUITES)}")
        suites = tuple(dict.fromkeys(suites_raw))
    needs_instance = [s for s in suites if s not in INSTANCE_FREE]
    if needs_instance and instance_spec is None:
        raise ScenarioError(f"suites {needs_instance} need an 'instance'")
    scalar = doc.get("scalar")
    if scalar is not None:
        if not isinstance(scalar, dict):
            raise ScenarioError("scalar must be an object")
        bad = set(scalar) - {"omega", "p0", "m0", "t_samples"}
        if bad:
            raise ScenarioError(f"unknown scalar keys: {sorted(bad)}")
    sections = doc.get("sections", ())
    if sections and not all(isinstance(s, dict) for s in sections):
        raise ScenarioError("sections must be polynomial objects")
    return Scenario(
        name=doc["name"],
        instance_spec=instance_spec,
        mode=mode,
        degree=degree,
        cutoff=cutoff,
        t_samples=t_samples,
        u_samples=u_samples,
        k_range=k_range,
        seed=seed,
        suites=suites,
        scalar=scalar,
        sections=tuple(sections),
        closure_cap=closure_cap,
    )


def scenario_digest(sc: Scenario) -> dict:
    """Normalized scenario echo embedded in reports (all values JSON-safe)."""
    return {
        "name": sc.name,
        "instance": sc.instance_spec,
        "mode": sc.mode,
        "degree": sc.degree,
        "cutoff": sc.cutoff,
        "t_samples": [str(t) for t in sc.t_samples],
        "u_samples": list(sc.u_samples),
        "k_range": list(sc.k_range),
        "seed": sc.seed,
        "suites": list(sc.suites),
        "scalar": sc.scalar,
        "sections": [dict(s) for s in sc.sections],
        "closure_cap": sc.closure_cap,
    }


def _suite_seed(seed: int, suite: str) -> int:
    h = hashlib.sha256(f"{seed}:{suite}".encode()).hexdigest()
    return int(h[:12], 16)


def _mode_instance(sc: Scenario, inst: ProlongationInstance) -> ProlongationInstance:
    return inst if sc.mode == EXACT else inst.to_float()


# -- suite runners ------------------------------------------------------------


def _run_bessel(sc: Scenario, inst: ProlongationInstance, rng) -> VerificationReport:
    mi = _mode_instance(sc, inst)
    k_lo, k_hi = sc.k_range
    reports = [
        check_recurrence(rel, mi.L, sc.degree, range(k_lo, k_hi + 1))
        for rel in RELATIONS
    ]
    records = []
    for t in sc.t_samples:
        tv = t if sc.mode == EXACT else float(t)
        resid, bound = sum_rule_residual(mi.L, tv, sc.cutoff, sc.degree)
        records.append(
            make_record(
                f"sum-rule[t={t}]",
                "bessel-recurrences",
                "sum_{|m|<=K} J_m(tL) = 1",
                resid,
                bound,
                detail=f"K={sc.cutoff} D={sc.degree}",
            )
        )
    reports.append(VerificationReport(name="sum-rule", records=tuple(records)))
    return merge_reports("bessel-recurrences", reports)


def _run_prolongation(sc: Scenario, inst: ProlongationInstance, rng) -> VerificationReport:
    return merge_reports(
        "prolongation",
        [prolongation_residual(inst, u, sc.degree) for u in sc.u_samples],
    )


def _run_scalar(sc: Scenario, inst, rng) -> VerificationReport:
    params = sc.scalar or {}
    omega = _fraction(params.get("omega", 1), "scalar.omega")
    p0 = _fraction(params.get("p0", 1), "scalar.p0")
    m0 = _fraction(params.get("m0", 1), "scalar.m0")
    ts = tuple(
        _fraction(v, "scalar.t_samples") for v in params.get("t_samples", [])
    ) or sc.t_samples
    return scalar_check(omega, p0, m0, ts, sc.degree)


_DEFAULT_SECTIONS = (
    {"1": "0"},
    {"x^2": "1"},
    {"x*y*z": "1/2", "z^2": "-1"},
)


def _run_proposition1(sc: Scenario, inst, rng: random.Random) -> VerificationReport:
    specs = list(sc.sections) if sc.sections else list(_DEFAULT_SECTIONS)
    reports = []
    for i, spec in enumerate(specs):
        try:
            section = Section(spec)
        except (ValueError, KeyError) as e:
            raise ScenarioError(f"sections[{i}]: {e}") from e
        rep = check_proposition1(section)
        reports.append(_prefix_records(rep, f"fixed{i}"))
    for i in range(3):
        rep = check_proposition1(random_section(rng))
        reports.append(_prefix_records(rep, f"random{i}"))
    return merge_reports("eds-proposition1", reports)


def _prefix_records(rep: VerificationReport, tag: str) -> VerificationReport:
    records = tuple(
        dataclasses.replace(r, check_id=f"{tag}:{r.check_id}") for r in rep.records
    )
    return dataclasses.replace(rep, records=records)


# suite -> (needs operator initial data, runner(sc, inst, rng)), in the order
# a default run uses and every report echoes
_SUITE_TABLE = {
    "bessel-recurrences": (True, _run_bessel),
    "ode-residuals": (
        True,
        lambda sc, inst, rng: ode_check(_mode_instance(sc, inst), sc.degree),
    ),
    "solution-equivalence": (
        True,
        lambda sc, inst, rng: equivalence_check(
            _mode_instance(sc, inst), sc.t_samples, sc.cutoff, sc.degree
        ),
    ),
    "bch": (True, lambda sc, inst, rng: bch_check(inst, sc.t_samples, sc.degree)),
    "prolongation": (True, _run_prolongation),
    "initial-conditions": (
        True,
        lambda sc, inst, rng: initial_condition_check(_mode_instance(sc, inst), sc.degree),
    ),
    "scalar-reduction": (False, _run_scalar),
    "eds-proposition1": (False, _run_proposition1),
    "eds-closure": (False, lambda sc, inst, rng: closure_check(cap=sc.closure_cap)),
    "eds-constraints": (
        True,
        lambda sc, inst, rng: constraint_residuals(inst, u_samples=sc.u_samples, D=sc.degree),
    ),
    "compatibility": (True, lambda sc, inst, rng: compatibility_check(inst)),
}
SUITES = tuple(_SUITE_TABLE)
INSTANCE_FREE = tuple(s for s, (needs, _) in _SUITE_TABLE.items() if not needs)


def run_suite(
    sc: Scenario, suite: str, inst: Optional[ProlongationInstance]
) -> VerificationReport:
    """One suite's report; a float overflow inside it is recorded as a failed check.

    numpy's overflow warnings are silenced: the finiteness check on every
    float result is what reports an overflow.
    """
    needs_instance, runner = _SUITE_TABLE[suite]
    assert inst is not None or not needs_instance
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return runner(sc, inst, random.Random(_suite_seed(sc.seed, suite)))
    except (NonFiniteError, OverflowError) as e:
        record = make_record(
            "numeric-breakdown",
            suite,
            "every intermediate value is finite",
            math.inf,
            0.0,
            detail=f"{type(e).__name__}: {e}",
        )
        return VerificationReport(name=suite, records=(record,))


def run_scenario(sc: Scenario, only: Optional[Sequence[str]] = None) -> VerificationReport:
    suites = tuple(only) if only else sc.suites
    if "bessel-recurrences" in suites:
        need = max(abs(k) for k in sc.k_range) + 2
        if sc.degree < need:
            raise ScenarioError(
                f"degree {sc.degree} is too low for k_range {list(sc.k_range)}: "
                f"bessel-recurrences needs degree >= max|k| + 2 = {need}"
            )
    inst = build_instance(sc.instance_spec) if sc.instance_spec is not None else None
    needs = [s for s in suites if s not in INSTANCE_FREE]
    if needs and inst is None:
        raise ScenarioError(f"suites {needs} need an 'instance'")
    reports = [run_suite(sc, suite, inst) for suite in suites]
    merged = merge_reports(sc.name, reports)
    return dataclasses.replace(merged, scenario=scenario_digest(sc))


# -- entry point ---------------------------------------------------------------


def _cmd_verify(args) -> int:
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: cannot read scenario: {e}", file=sys.stderr)
        return 2
    try:
        sc = parse_scenario(text)
        if args.seed is not None:
            sc = dataclasses.replace(sc, seed=args.seed)
        report = run_scenario(sc, only=args.suite or None)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = render_structured(report) if args.format == "structured" else render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
            if not out.endswith("\n"):
                fh.write("\n")
    else:
        print(out)
    return 0 if report.all_passed() else 1


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return 0
    try:
        inst = catalog_instance(args.name)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2
    compat = compatibility_check(inst)
    doc = {
        "name": inst.name,
        "dim": inst.dim,
        "mode": inst.mode,
        "operators": {
            "L": inst.L.to_jsonable(),
            "M0": inst.M0.to_jsonable(),
            "P0": inst.P0.to_jsonable(),
            "N": inst.N.to_jsonable(),
            "A": inst.A.to_jsonable(),
            "B": inst.B.to_jsonable(),
        },
        "compatibility": {
            r.check_id: r.verdict for r in compat.sorted().records
        },
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="heavenlab",
        description="verification suites for the prolongation operator calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run suites from a scenario file")
    p_verify.add_argument("scenario", help="path to a scenario JSON file")
    p_verify.add_argument(
        "--suite",
        action="append",
        choices=SUITES,
        help="run only this suite (repeatable)",
    )
    p_verify.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_verify.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output format"
    )
    p_verify.add_argument("--out", default=None, help="write the report to a file")
    p_verify.set_defaults(func=_cmd_verify)

    p_cat = sub.add_parser("catalog", help="inspect the fixture catalog")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list", help="list fixture names").set_defaults(func=_cmd_catalog)
    p_show = cat_sub.add_parser("show", help="print one fixture as JSON")
    p_show.add_argument("name")
    p_show.set_defaults(func=_cmd_catalog)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
