"""Metamorphic relations: changes of input whose effect on the verdicts is known.

Change of basis: conjugating every operator of an instance by an invertible
rational S describes the same operators in another basis, so `verify` gives
the same exit code and fails the same checks.  Input contract: a mutated
scenario exits 0, 1 or 2, prints no traceback and no warning, and prints the
same report when it is run again.
"""
import dataclasses
import json
import random
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heavenlab import cli
from heavenlab.cli import main
from heavenlab.opcore import EXACT, Operator
from heavenlab.prolong import OPERATORS, catalog_instance
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


def _verdicts(tmp_path, capsys, name: str, mode: str, instance: dict) -> tuple:
    """(exit code, sorted failed suite/check ids) of verify at the defaults."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": name, "mode": mode, "instance": instance}))
    capsys.readouterr()
    code = main(["verify", str(path), "--format", "structured"])
    checks = json.loads(capsys.readouterr().out)["checks"]
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
    """(exit code, stdout, stderr, warnings raised) of one in-process verify."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", str(path)])
    out, err = capsys.readouterr()
    return code, out, err, [str(w.message) for w in caught]


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
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err, caught = _run(path, capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err and caught == []
    assert _run(path, capsys) == (code, out, err, caught)
