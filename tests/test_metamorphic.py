"""Metamorphic relations: changes of input whose effect on the verdicts is known.

Change of basis: conjugating every operator of an instance by an invertible
rational S describes the same operators in another basis, so `verify` gives
the same exit code and fails the same checks.  Mode: exact and float mode
report the same checks; a check that exact mode passes with residual 0 passes
in float mode, and one that exact mode fails by more than the float bound
fails in float mode.  Input contract: a mutated scenario exits 0, 1 or 2,
prints no traceback and no warning, and prints the same report when it is run
again.
"""
import dataclasses
import json
import random
import traceback
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heavenlab import cli
from heavenlab.cli import main
from heavenlab.opcore import EXACT, Operator
from heavenlab.prolong import OPERATORS, catalog_instance, catalog_names
from heavenlab.report import make_record

# -- change of basis -------------------------------------------------------------

FIXTURES = ("expected-fail2", "nilpotent4", "heisenberg3", "diag2", "commuting2")


def _unit_triangular(rng: random.Random, n: int, lower: bool) -> Operator:
    """Unit diagonal, entries in {-1, 0, 1} on one side of it."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (j < i) if lower else (j > i):
                rows[i][j] = rng.choice((-1, 0, 0, 1))
    return Operator.from_rows(rows, EXACT)


def _unit_triangular_inverse(T: Operator) -> Operator:
    """T = I - N with N strictly triangular, so N^n = 0 and
    T^-1 = I + N + ... + N^(n-1)."""
    identity = Operator.identity(T.dim, EXACT)
    N = identity - T
    inverse = term = identity
    for _ in range(T.dim - 1):
        term = term @ N
        inverse = inverse + term
    return inverse


def _bases() -> dict[str, tuple[Operator, Operator]]:
    """S = (unit lower)(unit upper) and S^-1 for each fixture, drawn in
    fixture order from one random.Random(3); a draw of S = I is redrawn."""
    rng = random.Random(3)
    out = {}
    for name in FIXTURES:
        n = catalog_instance(name).dim
        while True:
            lower, upper = _unit_triangular(rng, n, True), _unit_triangular(rng, n, False)
            if lower @ upper != Operator.identity(n, EXACT):
                break
        inverse = _unit_triangular_inverse(upper) @ _unit_triangular_inverse(lower)
        out[name] = (lower @ upper, inverse)
    return out


BASES = _bases()


def _report(tmp_path, capsys, name: str, mode: str, instance: dict, **keys) -> tuple:
    """(exit code, the structured report's checks) of verify, at the
    defaults but for `keys`."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": name, "mode": mode, "instance": instance, **keys}))
    capsys.readouterr()
    code = main(["verify", str(path), "--format", "structured"])
    return code, json.loads(capsys.readouterr().out)["checks"]


def _verdicts(tmp_path, capsys, name: str, mode: str, instance: dict) -> tuple:
    """(exit code, sorted failed suite/check ids) of verify at the defaults."""
    code, checks = _report(tmp_path, capsys, name, mode, instance)
    return code, sorted(f"{c['suite']}/{c['check_id']}" for c in checks if c["verdict"] == "fail")


def _conjugated(name: str) -> dict:
    """The fixture's operators, each X as S X S^-1, as an instance spec."""
    S, S_inv = BASES[name]
    inst = catalog_instance(name)
    ops = {k: (S @ getattr(inst, k) @ S_inv).to_jsonable() for k in OPERATORS}
    return {"name": name, "operators": ops}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", FIXTURES)
def test_change_of_basis_keeps_every_verdict(tmp_path, capsys, name, mode):
    S, S_inv = BASES[name]
    identity = Operator.identity(S.dim, EXACT)
    assert S != identity and S @ S_inv == identity
    want = _verdicts(tmp_path, capsys, name, mode, {"catalog": name})
    assert _verdicts(tmp_path, capsys, name, mode, _conjugated(name)) == want
    # the fixture that breaks compatibility fails checks in either basis
    assert (want[0] == 1) == (name == "expected-fail2")


def test_change_of_basis_sees_a_basis_dependent_residual(tmp_path, capsys, monkeypatch):
    """A residual that reads the entry L[0, 0] moves under conjugation, so
    the relation breaks."""
    compatibility_check = cli.compatibility_check

    def planted(inst):
        report = compatibility_check(inst)
        r = report.records[0]
        bumped = make_record(
            r.check_id, r.suite, r.equation, r.residual + abs(inst.L.data[0][0]), r.bound
        )
        return dataclasses.replace(report, records=(bumped, *report.records[1:]))

    monkeypatch.setattr(cli, "compatibility_check", planted)
    broken = [
        (name, mode)
        for name in FIXTURES
        for mode in ("exact", "float")
        if _verdicts(tmp_path, capsys, name, mode, {"catalog": name})
        != _verdicts(tmp_path, capsys, name, mode, _conjugated(name))
    ]
    assert broken


# -- mode ----------------------------------------------------------------------

# a dense L: no ad_L^j[M0] through j = 16 is zero, so no series ends early
NONCOMMUTING3 = {
    "L": [["1/2", -1, 1], [2, -1, "1/2"], [-1, 2, -2]],
    "M0": [[0, 0, 0], [1, 0, 0], [1, 0, 0]],
    "P0": [[0, 0, 0], [1, 0, 0], [1, 0, 0]],
}
MODE_INSTANCES = {
    **{name: {"catalog": name} for name in catalog_names()},
    "noncommuting3": {"name": "noncommuting3", "operators": NONCOMMUTING3},
}


def _mode_violations(tmp_path, capsys, name: str) -> list[str]:
    """The checks of `name` at D = 16 that break the mode relation.

    Records are paired in report order: a check id repeats across u samples,
    in the same order in both modes.  A suite that float mode reports as
    `numeric-breakdown` has no float checks to compare.
    """
    instance = MODE_INSTANCES[name]
    _, exact = _report(tmp_path, capsys, name, "exact", instance, degree=16)
    _, floats = _report(tmp_path, capsys, name, "float", instance, degree=16)
    broken = {c["suite"] for c in floats if c["check_id"] == "numeric-breakdown"}
    exact = [c for c in exact if c["suite"] not in broken]
    floats = [c for c in floats if c["suite"] not in broken]
    ids = [[f"{c['suite']}/{c['check_id']}" for c in checks] for checks in (exact, floats)]
    if ids[0] != ids[1]:
        return ["check ids differ"]
    out = []
    for check, e, f in zip(ids[0], exact, floats):
        if e["verdict"] == "pass" and e["residual"] == 0.0 and f["verdict"] != "pass":
            out.append(f"{check}: exact pass at residual 0, float {f['verdict']}")
        if e["verdict"] == "fail" and e["residual"] > f["bound"] and f["verdict"] != "fail":
            out.append(f"{check}: exact fail above the float bound, float {f['verdict']}")
    return out


@pytest.mark.parametrize("name", sorted(MODE_INSTANCES))
def test_float_mode_keeps_every_exact_verdict_it_can_see(tmp_path, capsys, name):
    assert _mode_violations(tmp_path, capsys, name) == []


def _plant_float_fields(monkeypatch, check: str, **fields) -> None:
    """Float verify reports every record `check` (suite/check_id) with
    `fields` replaced and its verdict recomputed."""
    run_suite = cli.run_suite

    def replaced(r):
        if f"{r.suite}/{r.check_id}" != check:
            return r
        r = dataclasses.replace(r, **fields)
        return make_record(r.check_id, r.suite, r.equation, r.residual, r.bound, r.detail)

    def planted(sc, suite):
        report = run_suite(sc, suite)
        if sc.mode == EXACT:
            return report
        return dataclasses.replace(report, records=tuple(map(replaced, report.records)))

    monkeypatch.setattr(cli, "run_suite", planted)


@pytest.mark.parametrize(
    "name, check, fields, want",
    [
        # the float residual here is roundoff, so a bound of 0 fails it
        (
            "noncommuting3",
            "bessel-recurrences/derivative_diff[k=-1]",
            {"bound": 0.0},
            "exact pass at residual 0, float fail",
        ),
        # the exact residual of each u sample is far above the float bound
        (
            "expected-fail2",
            "prolongation/commutation",
            {"residual": 0.0},
            "exact fail above the float bound, float pass",
        ),
    ],
    ids=["bound-below-roundoff", "residual-dropped"],
)
def test_mode_relation_sees_a_planted_float_verdict(
    tmp_path, capsys, monkeypatch, name, check, fields, want
):
    _plant_float_fields(monkeypatch, check, **fields)
    violations = _mode_violations(tmp_path, capsys, name)
    assert violations and all(v == f"{check}: {want}" for v in violations)


# -- input contract --------------------------------------------------------------

BASE = {
    "name": "heis",
    "instance": {"catalog": "heisenberg3"},
    "degree": 12,
    "cutoff": 6,
    "t_samples": ["1/2", "1"],
    "u_samples": [-1, 0],
    "k_range": [-2, 2],
    "seed": 7,
}

_SMALL_NUMBERS = st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3", "0.25", "7"])
_EXTREME_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300, 1.7976931348623157e308,
    700.0, 800.0, float("nan"), float("inf"), float("-inf"),
]) | st.floats(allow_nan=True, allow_infinity=True)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _key_paths(value, prefix=()):
    """Every key path into nested objects and lists."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _key_paths(v, prefix + (k,))


def _set(doc: dict, path: tuple, value) -> None:
    for k in path[:-1]:
        doc = doc[k]
    doc[path[-1]] = value


# a change is (key path, value): it replaces the value at a path of BASE or
# adds a top-level key
_RETYPED = st.tuples(st.sampled_from(list(_key_paths(BASE))), _JSON_VALUES)
_AT_AND_PAST_LIMITS = st.sampled_from([
    (("degree",), v) for v in (3, 4, cli.MAX_DEGREE, cli.MAX_DEGREE + 1)
] + [
    (("cutoff",), v) for v in (0, 1, cli.MAX_CUTOFF, cli.MAX_CUTOFF + 1)
] + [
    (("closure_cap",), v) for v in (0, 1)
] + [
    ((key,), [entry] * k)
    for key, entry in (("t_samples", "1/3"), ("u_samples", 0.5), ("sections", {"x": 1}))
    for k in (0, cli.MAX_LIST, cli.MAX_LIST + 1)
] + [
    (("k_range",), [-(cli.MAX_DEGREE - 2), 1]),
    (("k_range",), [2, 1]),
    (("seed",), -(2**70)),
    (("t_samples",), [f"1/{2 ** (cli.MAX_BITS - 1)}"]),
    (("t_samples",), [f"1/{2 ** cli.MAX_BITS}"]),
    (("t_samples",), ["1e-10000", "1e10000"]),
    (("t_samples",), ["1e-10001"]),
])
_FLOATS_IN = st.tuples(
    st.sampled_from([("t_samples", 0), ("u_samples", 0), ("u_samples", 1), ("seed",)]),
    _EXTREME_FLOATS,
)


@st.composite
def _operators(draw):
    n = draw(st.integers(1, 3))
    keys = ["L", "M0", "P0"] + draw(st.lists(st.sampled_from(["N", "A", "B"]), unique=True))
    rows = st.lists(st.lists(_SMALL_NUMBERS, min_size=n, max_size=n), min_size=n, max_size=n)
    return ("instance",), {"operators": {k: draw(rows) for k in keys}}


_MONOMIALS = st.sampled_from(["1", "x", "y", "z", "x^2", "x*y*z", "z^2", "y^3", "w", "x^-1", ""])
_SECTIONS = st.tuples(
    st.just(("sections",)),
    st.lists(st.dictionaries(_MONOMIALS, _SMALL_NUMBERS, max_size=3), max_size=2),
)
_SCALAR = st.tuples(
    st.just(("scalar",)),
    st.dictionaries(
        st.sampled_from(["omega", "p0", "m0", "t_samples", "nu"]),
        _SMALL_NUMBERS | st.lists(_SMALL_NUMBERS, max_size=2),
        max_size=3,
    ),
)
_MUTATIONS = st.lists(
    _RETYPED | _AT_AND_PAST_LIMITS | _FLOATS_IN | _operators() | _SECTIONS | _SCALAR,
    min_size=1,
    max_size=2,
)


def _run(path, capsys) -> tuple:
    """(exit code, stdout, stderr, warnings raised) of one in-process verify.

    An exception that escapes main ends the run as the interpreter would end
    `heavenlab verify`: SystemExit with its code, anything else with exit
    code 1 and its traceback on stderr.
    """
    capsys.readouterr()
    escaped = ""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(["verify", str(path)])
        except SystemExit as e:
            code = e.code
        except Exception:
            code, escaped = 1, traceback.format_exc()
    out, err = capsys.readouterr()
    return code, out, err + escaped, [str(w.message) for w in caught]


def _check_input_contract(tmp_path, capsys, doc: dict) -> None:
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err, caught = _run(path, capsys)
    assert code in (0, 1, 2), f"exit code {code}"
    assert "Traceback" not in err, "traceback on stderr"
    assert "Warning" not in err and caught == [], "warning"
    assert _run(path, capsys) == (code, out, err, caught), "rerun differs"


@settings(
    max_examples=80,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mode=st.sampled_from(["exact", "float"]), mutations=_MUTATIONS)
def test_mutated_scenario_keeps_the_input_contract(tmp_path, capsys, mode, mutations):
    doc = json.loads(json.dumps({**BASE, "mode": mode}))
    for path, value in mutations:
        try:
            _set(doc, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier change removed the path's parent
    _check_input_contract(tmp_path, capsys, doc)


@pytest.mark.parametrize(
    "exit_path, broken",
    [(KeyError("planted"), "traceback on stderr"), (SystemExit(3), "exit code 3")],
    ids=["escaped-KeyError", "exit-3"],
)
def test_input_contract_sees_a_planted_exit_path(tmp_path, capsys, monkeypatch, exit_path, broken):
    """A parser that leaves by `exit_path` on a marker key breaks the
    contract; the same scenario without the marker keeps it."""
    parse_scenario = cli.parse_scenario

    def planted(text, *args, **kwargs):
        if "planted" in json.loads(text):
            raise exit_path
        return parse_scenario(text, *args, **kwargs)

    monkeypatch.setattr(cli, "parse_scenario", planted)
    doc = {**BASE, "mode": "exact"}
    _check_input_contract(tmp_path, capsys, doc)
    with pytest.raises(AssertionError, match=broken):
        _check_input_contract(tmp_path, capsys, {**doc, "planted": 1})
