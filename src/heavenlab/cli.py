"""Command line front end: run verification suites from a scenario file.

    heavenlab verify scenario.json [--suite NAME]... [--format text|structured]
    heavenlab catalog list
    heavenlab catalog show <name>

Exit status: 0 all required checks passed, 1 at least one failed or stdout
was closed early (quietly), 2 the scenario or command line could not be
parsed, or the report file could not be opened; 2 comes before any suite
runs.  Structured output is deterministic: same scenario, same seed,
byte-identical report.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .besselop import RELATIONS, check_recurrence, sum_rule_check
from .eds import (
    Section,
    check_proposition1,
    closure_check,
    constraint_residuals,
    random_section,
)
from .opcore import EXACT, FLOAT, NonFiniteError, Operator, eliminate
from .prolong import (
    OPERATORS,
    CouplingError,
    ProlongationInstance,
    bch_check,
    catalog_instance,
    catalog_names,
    compatibility_check,
    equivalence_check,
    initial_condition_check,
    make_instance,
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
    built_sections: tuple[Section, ...]
    built_scalar: tuple  # (omega, p0, m0, t_samples) of scalar-reduction


_BUILT = ("built_sections", "built_scalar")  # neither keys nor echoed


def _fraction(value, what: str) -> Fraction:
    """value as a Fraction, refused unless its numerator and its denominator
    each have at most MAX_BITS bits.  A decimal exponent past MAX_EXPONENT is
    refused before Fraction would build its power of 10."""
    text = str(value)
    exponent = _EXPONENT.search(text)
    digits = exponent and exponent[1].replace("_", "").lstrip("0")
    if digits and (len(digits) > 5 or int(digits) > MAX_EXPONENT):
        raise ScenarioError(f"{what}: a decimal exponent may be at most {MAX_EXPONENT}")
    try:
        f = Fraction(value) if isinstance(value, float) else Fraction(text)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise ScenarioError(f"{what}: not a rational number: {value!r}") from e
    _check_bits(max(f.numerator.bit_length(), f.denominator.bit_length()), what)
    return f


# Upper limits on the size of a scenario, so that none can ask for hours of
# exact arithmetic.  An exact verify with one of them at its limit and the
# rest at their defaults takes seconds (README.md gives the times).
MAX_DEGREE = 128
MAX_CUTOFF = 32
MAX_DIM = 12  # rows and columns of an explicit operator
MAX_LIST = 32  # entries of t_samples, u_samples, scalar.t_samples and sections
MAX_TERMS = 64  # terms of one section polynomial
# bits of a rational's numerator and of its denominator, and of an explicit
# operator's shared denominator and of each numerator over it
MAX_BITS = 2048
# absolute decimal exponent of a rational written as a string: no mantissa
# Python parses (4300 digits at most) brings a value past it within MAX_BITS
MAX_EXPONENT = 10_000
# the exponent digits of a decimal string, as Fraction() spells them
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _check_bits(bits: int, what: str) -> None:
    if bits > MAX_BITS:
        raise ScenarioError(
            f"{what}: numerators and denominators may have at most {MAX_BITS} bits, got {bits}"
        )


def _integer(value, what: str, least: Optional[int] = None, most: Optional[int] = None) -> int:
    """A JSON integer in [least, most], each end when given; an integral
    float such as 16.0 also counts, a bool does not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ScenarioError(f"{what} must be >= {least}")
    if most is not None and value > most:
        raise ScenarioError(f"{what} must be <= {most}, got {value}")
    return value


def _list(doc: dict, key: str, default: list, what: str) -> list:
    """doc[key] (or default when absent), a JSON list of at most MAX_LIST entries."""
    value = doc.get(key, default)
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a list, got {value!r}")
    if len(value) > MAX_LIST:
        raise ScenarioError(f"{what} may have at most {MAX_LIST} entries, got {len(value)}")
    return value


def _operator(rows, what: str) -> Operator:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ScenarioError(f"{what}: expected a list of rows")
    n = max(len(rows), *map(len, rows))
    if n > MAX_DIM:
        raise ScenarioError(f"{what}: dimension may be at most {MAX_DIM}, got {n}")
    try:
        op = Operator.from_rows([[_fraction(x, what) for x in row] for row in rows], EXACT)
    except ValueError as e:
        raise ScenarioError(f"{what}: {e}") from e
    bits = max(x.bit_length() for x in op.numerators.flat)
    _check_bits(max(bits, op.denominator.bit_length()), what)
    return op


def build_instance(spec: dict) -> ProlongationInstance:
    extra = set(spec) - {"name", "catalog", "operators"}
    if extra:
        raise ScenarioError(f"unknown instance keys: {sorted(extra)}")
    if "catalog" in spec and "operators" in spec:
        raise ScenarioError("instance takes either 'catalog' or 'operators', not both")
    name = spec.get("name", "custom")
    if not isinstance(name, str):
        raise ScenarioError(f"instance.name must be a string, got {name!r}")
    if "catalog" in spec:
        fixture = spec["catalog"]
        if not isinstance(fixture, str):
            raise ScenarioError(f"instance.catalog must be a fixture name, got {fixture!r}")
        try:
            inst = catalog_instance(fixture)
        except KeyError as e:
            raise ScenarioError(str(e.args[0])) from e
        # only a name given in the scenario renames the fixture
        return dataclasses.replace(inst, name=name) if "name" in spec else inst
    if "operators" not in spec:
        raise ScenarioError("instance needs either 'catalog' or 'operators'")
    ops = spec["operators"]
    if not isinstance(ops, dict):
        raise ScenarioError(f"instance.operators must be an object, got {ops!r}")
    extra = set(ops) - set(OPERATORS)
    if extra:
        raise ScenarioError(f"unknown instance.operators keys: {sorted(extra)}")
    for required in ("L", "M0", "P0"):
        if required not in ops:
            raise ScenarioError(f"operators: missing {required}")
    given = {k: _operator(ops[k], f"operators.{k}") for k in OPERATORS if k in ops}
    if "B" in given:
        # B is invertible iff its numerator rows have full rank
        if eliminate([dict(enumerate(row)) for row in given["B"].numerators]).rank < given["B"].dim:
            raise ScenarioError("operators.B: singular; B must be invertible")
    try:
        return make_instance(name, **given)
    except ValueError as e:
        raise ScenarioError(f"instance: {e}") from e


def _scalar_args(scalar: Optional[dict], t_samples: tuple) -> tuple:
    """(omega, p0, m0, t_samples) of the scalar-reduction suite; its own
    t_samples, when given, replace the scenario's."""
    scalar = {} if scalar is None else scalar
    if not isinstance(scalar, dict):
        raise ScenarioError("scalar must be an object")
    bad = set(scalar) - {"omega", "p0", "m0", "t_samples"}
    if bad:
        raise ScenarioError(f"unknown scalar keys: {sorted(bad)}")
    own = _list(scalar, "t_samples", [], "scalar.t_samples")
    return (
        *(_fraction(scalar.get(k, 1), f"scalar.{k}") for k in ("omega", "p0", "m0")),
        tuple(_fraction(v, "scalar.t_samples") for v in own) or t_samples,
    )


def _section(i: int, spec) -> Section:
    if not isinstance(spec, dict):
        raise ScenarioError("sections must be polynomial objects")
    if len(spec) > MAX_TERMS:
        raise ScenarioError(f"sections[{i}] may have at most {MAX_TERMS} terms, got {len(spec)}")
    try:
        return Section({m: _fraction(c, f"sections[{i}]") for m, c in spec.items()})
    except (ValueError, KeyError) as e:
        raise ScenarioError(f"sections[{i}]: {e}") from e


def parse_scenario(
    text: str, suites: Optional[Sequence[str]] = None, seed: Optional[int] = None
) -> Scenario:
    """The checked scenario; `suites` and `seed`, when given, replace the
    file's, as `--suite` and `--seed` do.

    Every input rule is checked here, whether or not its suite is selected,
    so that run_scenario only computes.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except ValueError as e:  # an integer literal past Python's digit limit
        raise ScenarioError(f"invalid JSON: {e}")
    except RecursionError:
        raise ScenarioError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    known = {f.name for f in dataclasses.fields(Scenario)} - {"instance_spec", *_BUILT}
    extra = set(doc) - known - {"instance"}
    if extra:
        raise ScenarioError(f"unknown scenario keys: {sorted(extra)}")
    if "name" not in doc or not isinstance(doc["name"], str) or not doc["name"]:
        raise ScenarioError("scenario needs a nonempty string 'name'")
    mode = doc.get("mode", EXACT)
    if mode not in (EXACT, FLOAT):
        raise ScenarioError(f"mode must be 'exact' or 'float', got {mode!r}")
    degree = _integer(doc.get("degree", 16), "degree", 4, MAX_DEGREE)
    cutoff = _integer(doc.get("cutoff", 8), "cutoff", 1, MAX_CUTOFF)
    closure_cap = _integer(doc.get("closure_cap", 3), "closure_cap", 1)
    t_samples = tuple(
        _fraction(v, "t_samples")
        for v in _list(doc, "t_samples", ["1/2", "1", "2"], "t_samples")
    )
    if not t_samples or any(t <= 0 for t in t_samples):
        raise ScenarioError("t_samples must be a nonempty list of positive numbers")
    u_raw = _list(doc, "u_samples", [-2, -1, 0], "u_samples")
    # abs(v) <= max is false for nan, inf and an int no float can hold
    if not u_raw or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
        for v in u_raw
    ):
        raise ScenarioError(f"u_samples must be a nonempty list of finite numbers, got {u_raw!r}")
    u_samples = tuple(float(v) for v in u_raw)
    k_raw = doc.get("k_range", [-4, 4])
    if not isinstance(k_raw, list) or len(k_raw) != 2:
        raise ScenarioError("k_range must be [lo, hi] with integer lo <= hi")
    k_range = (_integer(k_raw[0], "k_range"), _integer(k_raw[1], "k_range"))
    if k_range[0] > k_range[1]:
        raise ScenarioError("k_range must be [lo, hi] with integer lo <= hi")
    doc_seed = _integer(doc.get("seed", 2026), "seed")
    instance_spec = doc.get("instance")
    if instance_spec is not None:
        if not isinstance(instance_spec, dict):
            raise ScenarioError("instance must be an object")
        build_instance(instance_spec)  # validate eagerly
    suites_raw = doc.get("suites")
    if suites_raw is not None and (not isinstance(suites_raw, list) or not suites_raw):
        raise ScenarioError("suites must be a nonempty list")
    bad = [s for s in [*(suites_raw or ()), *(suites or ())] if s not in SUITES]
    if bad:
        raise ScenarioError(f"unknown suites: {bad}; available: {list(SUITES)}")
    default = SUITES if instance_spec is not None else INSTANCE_FREE
    suites = tuple(dict.fromkeys(suites or suites_raw or default))
    needs_instance = [s for s in suites if s not in INSTANCE_FREE]
    if needs_instance and instance_spec is None:
        raise ScenarioError(f"suites {needs_instance} need an 'instance'")
    need = max(abs(k) for k in k_range) + 2
    if "bessel-recurrences" in suites and degree < need:
        raise ScenarioError(
            f"degree {degree} is too low for k_range {list(k_range)}: "
            f"bessel-recurrences needs degree >= max|k| + 2 = {need}"
        )
    scalar = doc.get("scalar")
    sections = _list(doc, "sections", [], "sections")
    return Scenario(
        name=doc["name"],
        instance_spec=instance_spec,
        mode=mode,
        degree=degree,
        cutoff=cutoff,
        t_samples=t_samples,
        u_samples=u_samples,
        k_range=k_range,
        seed=doc_seed if seed is None else seed,
        suites=suites,
        scalar=scalar,
        sections=tuple(sections),
        closure_cap=closure_cap,
        built_sections=tuple(_section(i, spec) for i, spec in enumerate(sections)),
        built_scalar=_scalar_args(scalar, t_samples),
    )


def scenario_digest(sc: Scenario) -> dict:
    """Normalized scenario echo embedded in reports (all values JSON-safe)."""
    doc = {f.name: getattr(sc, f.name) for f in dataclasses.fields(sc) if f.name not in _BUILT}
    doc["instance"] = doc.pop("instance_spec")
    doc["t_samples"] = [str(t) for t in sc.t_samples]
    return doc


def _suite_seed(seed: int, suite: str) -> int:
    h = hashlib.sha256(f"{seed}:{suite}".encode()).hexdigest()
    return int(h[:12], 16)


# -- suite runners ------------------------------------------------------------


def _run_bessel(sc: Scenario, inst: ProlongationInstance) -> VerificationReport:
    L = inst.L
    ks = range(sc.k_range[0], sc.k_range[1] + 1)
    reports = [check_recurrence(rel, L, sc.degree, ks) for rel in RELATIONS]
    reports.append(sum_rule_check(L, sc.t_samples, sc.cutoff, sc.degree))
    return merge_reports("bessel-recurrences", reports)


def _run_prolongation(sc: Scenario, inst: ProlongationInstance) -> VerificationReport:
    return merge_reports(
        "prolongation", [prolongation_residual(inst, u, sc.degree) for u in sc.u_samples]
    )


_DEFAULT_SECTIONS = (
    {"1": "0"},
    {"x^2": "1"},
    {"x*y*z": "1/2", "z^2": "-1"},
)


def _run_proposition1(sc: Scenario, _) -> VerificationReport:
    reports = [
        _prefix_records(check_proposition1(section), f"fixed{i}")
        for i, section in enumerate(sc.built_sections or map(Section, _DEFAULT_SECTIONS))
    ]
    rng = random.Random(_suite_seed(sc.seed, "eds-proposition1"))
    reports += [
        _prefix_records(check_proposition1(random_section(rng)), f"random{i}")
        for i in range(3)
    ]
    return merge_reports("eds-proposition1", reports)


def _prefix_records(rep: VerificationReport, tag: str) -> VerificationReport:
    records = tuple(
        dataclasses.replace(r, check_id=f"{tag}:{r.check_id}") for r in rep.records
    )
    return dataclasses.replace(rep, records=records)


_MODE = "mode"  # the instance in the scenario's mode, rounded in a float scenario
# suite -> (the instance it reads: None, EXACT or _MODE; runner(sc, inst)), in
# the order a default run uses and every report echoes; bch, prolongation and
# eds-constraints read the exact instance and round it themselves
_SUITE_TABLE = {
    "bessel-recurrences": (_MODE, _run_bessel),
    "ode-residuals": (_MODE, lambda sc, inst: ode_check(inst, sc.degree)),
    "solution-equivalence": (
        _MODE,
        lambda sc, inst: equivalence_check(inst, sc.t_samples, sc.cutoff, sc.degree),
    ),
    "bch": (EXACT, lambda sc, inst: bch_check(inst, sc.t_samples, sc.degree)),
    "prolongation": (EXACT, _run_prolongation),
    "initial-conditions": (_MODE, lambda sc, inst: initial_condition_check(inst, sc.degree)),
    "scalar-reduction": (None, lambda sc, _: scalar_check(*sc.built_scalar, sc.degree)),
    "eds-proposition1": (None, _run_proposition1),
    "eds-closure": (None, lambda sc, _: closure_check(cap=sc.closure_cap)),
    "eds-constraints": (
        EXACT,
        lambda sc, inst: constraint_residuals(inst, u_samples=sc.u_samples, D=sc.degree),
    ),
    "compatibility": (EXACT, lambda sc, inst: compatibility_check(inst)),
}
SUITES = tuple(_SUITE_TABLE)
INSTANCE_FREE = tuple(s for s, (reads, _) in _SUITE_TABLE.items() if reads is None)


def run_suite(sc: Scenario, suite: str, inst: Optional[ProlongationInstance]) -> VerificationReport:
    """One suite's report, on `inst` (exact, or None without an instance) in
    the arithmetic that the suite's `_SUITE_TABLE` entry names.

    A suite that cannot run is recorded as one failed check in place of its
    own: `coupling-precondition` when the instance breaks [L, P0] = [L, M0],
    which the cal form needs, and `numeric-breakdown` when float arithmetic
    overflows.  numpy's overflow warnings are silenced: the finiteness check
    on every float result is what reports an overflow.
    """
    reads, runner = _SUITE_TABLE[suite]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if reads == _MODE and sc.mode == FLOAT:
                inst = inst.to_float()
            return runner(sc, inst)
    except CouplingError as e:
        record = make_record(
            "coupling-precondition",
            suite,
            "[L, P0] = [L, M0]",
            e.residual,
            e.bound,
            detail=str(e),
        )
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


def run_scenario(sc: Scenario) -> VerificationReport:
    """The report of every suite of `sc`, a scenario parse_scenario checked."""
    # keeping parse_scenario's instance would be simpler, but perfbench pins the 1374 exact
    # matmuls of a nilpotent6 verify, two builds of 4 each among them; keeping it reads 1370
    inst = None if sc.instance_spec is None else build_instance(sc.instance_spec)
    reports = [run_suite(sc, suite, inst) for suite in sc.suites]
    merged = merge_reports(sc.name, reports)
    return dataclasses.replace(merged, scenario=scenario_digest(sc))


# -- entry point ---------------------------------------------------------------


def _cmd_verify(args) -> int:
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read scenario: {e}", file=sys.stderr)
        return 2
    try:
        sc = parse_scenario(text, suites=args.suite, seed=args.seed)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # the report file is opened before any suite runs, so that a path that
    # cannot be written exits 2 at once, like every other bad input
    try:
        out_fh = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as e:
        print(f"error: cannot write report: {e}", file=sys.stderr)
        return 2
    with out_fh or contextlib.nullcontext():
        report = run_scenario(sc)
        out = render_structured(report) if args.format == "structured" else render_text(report)
        if out_fh is None:
            sys.stdout.write(out)
        else:
            # a full disk shows only here, when the buffered report is
            # written or flushed on close; a failed close still closes
            try:
                out_fh.write(out)  # both renderings end with a newline
                out_fh.close()
            except OSError as e:
                print(f"error: cannot write report: {e}", file=sys.stderr)
                return 2
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
        "operators": {k: getattr(inst, k).to_jsonable() for k in OPERATORS},
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
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
    except BrokenPipeError:
        # the flush at exit then writes to devnull (Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
