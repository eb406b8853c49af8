"""Scenario parsing, suite dispatch, exit codes, report determinism."""
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heavenlab import cli, eds
from heavenlab.cli import (
    INSTANCE_FREE,
    SUITES,
    Scenario,
    ScenarioError,
    build_instance,
    main,
    parse_scenario,
    run_scenario,
)
from heavenlab.opcore import EXACT, Operator
from heavenlab.report import render_structured

HEIS = {
    "name": "heis",
    "instance": {"catalog": "heisenberg3"},
    "degree": 12,
    "cutoff": 6,
    "t_samples": ["1/2", "1"],
    "u_samples": [-1, 0],
    "seed": 7,
}


# -- scenario parsing ------------------------------------------------------------


def test_parse_minimal_scenario_defaults():
    sc = parse_scenario(json.dumps({"name": "x", "instance": {"catalog": "diag2"}}))
    assert sc.mode == "exact"
    assert sc.degree == 16 and sc.cutoff == 8
    assert sc.suites == SUITES


def test_parse_no_instance_restricts_suites():
    sc = parse_scenario(json.dumps({"name": "x"}))
    assert sc.suites == INSTANCE_FREE


def test_parse_rejects_bad_json_with_position():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario("{")


def test_parse_rejects_integer_past_digit_limit():
    # json raises a plain ValueError, not JSONDecodeError, past 4300 digits
    with pytest.raises(ScenarioError, match="invalid JSON"):
        parse_scenario('{"name": "x", "degree": ' + "1" * 5000 + "}")


def test_parse_rejects_unknown_keys():
    # the fields a Scenario builds from its keys are no scenario keys
    for key in ("wat", "built_sections", "built_scalar", "built_instance"):
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            parse_scenario(json.dumps({"name": "x", key: 1}))


def test_parse_rejects_unknown_suites():
    doc = {"name": "x", "instance": {"catalog": "diag2"}, "suites": ["nope"]}
    with pytest.raises(ScenarioError, match="unknown suites"):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_instance_needing_suites_without_instance():
    doc = {"name": "x", "suites": ["bch"]}
    with pytest.raises(ScenarioError, match="need an 'instance'"):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_bad_fraction():
    doc = {"name": "x", "instance": {"catalog": "diag2"}, "t_samples": ["1/0"]}
    with pytest.raises(ScenarioError, match="not a rational"):
        parse_scenario(json.dumps(doc))


def test_build_instance_from_operator_rows():
    spec = {
        "operators": {
            "L": [["0", "1"], ["0", "0"]],
            "M0": [["0", "0"], ["0", "0"]],
            "P0": [["0", "0"], ["0", "0"]],
        },
        "name": "inline",
    }
    inst = build_instance(spec)
    assert inst.dim == 2 and inst.name == "inline"
    assert inst.A.entry(0, 0) == 1  # defaults to the identity


def test_build_instance_rejects_non_square():
    spec = {"operators": {"L": [["0", "1"]], "M0": [["0"]], "P0": [["0"]]}}
    with pytest.raises(ScenarioError, match="square"):
        build_instance(spec)


def test_build_instance_rejects_missing_block():
    with pytest.raises(ScenarioError, match="missing P0"):
        build_instance({"operators": {"L": [["0"]], "M0": [["0"]]}})


def test_build_instance_unknown_catalog():
    with pytest.raises(ScenarioError, match="unknown catalog"):
        build_instance({"catalog": "nope"})


# -- suite runs ---------------------------------------------------------------------


def test_run_scenario_heisenberg_all_suites_pass():
    sc = parse_scenario(json.dumps(HEIS))
    rep = run_scenario(sc)
    assert rep.all_passed(), [r.check_id for r in rep.failed_records()]
    suites_seen = {r.suite for r in rep.records}
    assert suites_seen == set(SUITES)


def test_run_scenario_suite_filter():
    sc = parse_scenario(json.dumps(HEIS), suites=["compatibility"])
    rep = run_scenario(sc)
    assert {r.suite for r in rep.records} == {"compatibility"}


def test_run_scenario_expected_fail_fails():
    doc = dict(HEIS, name="xfail", instance={"catalog": "expected-fail2"})
    doc["suites"] = ["compatibility"]
    rep = run_scenario(parse_scenario(json.dumps(doc)))
    assert not rep.all_passed()


def test_structured_report_round_trip():
    sc = parse_scenario(json.dumps(HEIS), suites=["initial-conditions"])
    rep = run_scenario(sc)
    back = json.loads(render_structured(rep))
    assert back["name"] == rep.name
    assert [c["check_id"] for c in back["checks"]] == [
        r.check_id for r in rep.sorted().records
    ]


def test_structured_output_deterministic():
    sc = parse_scenario(json.dumps(HEIS))
    a = render_structured(run_scenario(sc))
    b = render_structured(run_scenario(sc))
    assert a == b


def test_seed_changes_are_isolated_to_random_content():
    sc1 = parse_scenario(json.dumps(dict(HEIS, seed=1)), suites=["initial-conditions"])
    sc2 = parse_scenario(json.dumps(dict(HEIS, seed=2)), suites=["initial-conditions"])
    r1 = run_scenario(sc1)
    r2 = run_scenario(sc2)
    # deterministic suites agree check-for-check regardless of seed
    assert [r.check_id for r in r1.sorted().records] == [
        r.check_id for r in r2.sorted().records
    ]


# -- entry point -----------------------------------------------------------------------


def test_main_verify_exit_codes(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(dict(HEIS, suites=["compatibility"])))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["verify", str(bad)]) == 2

    xfail = tmp_path / "x.json"
    xfail.write_text(
        json.dumps(
            {
                "name": "x",
                "instance": {"catalog": "expected-fail2"},
                "suites": ["compatibility"],
            }
        )
    )
    assert main(["verify", str(xfail)]) == 1


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_stdout_report_equals_out_file(tmp_path, capsys, fmt):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(dict(HEIS, suites=["compatibility"])))
    capsys.readouterr()
    assert main(["verify", str(path), "--format", fmt]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "r.out"
    assert main(["verify", str(path), "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.encode("utf-8") == out.read_bytes()


def test_tiny_exact_residual_fails_its_zero_bound(tmp_path):
    # [[L, M0], M0] has entries 4e-200, so its sum of squares underflows a
    # float; the exact residual is nonzero and must not pass bound 0
    doc = {
        "name": "tiny-residual",
        "degree": 8,
        "instance": {
            "operators": {
                "L": [[0, "1e-200"], ["1e-200", 0]],
                "M0": [[1, 0], [0, -1]],
                "P0": [[1, 0], [0, -1]],
            }
        },
        "suites": ["compatibility"],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--format", "structured", "--out", str(out)]) == 1
    by_id = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    assert by_id["ad-commutation"]["verdict"] == "fail"
    assert by_id["ad-commutation"]["residual"] > 0.0
    assert by_id["coupling"]["verdict"] == "pass"


@pytest.mark.parametrize(
    "key, value",
    [
        ("u_samples", ["x"]),
        ("u_samples", [True]),
        ("u_samples", 0),
        ("degree", "abc"),
        ("degree", True),
        ("degree", 16.5),
        ("cutoff", "8"),
        ("cutoff", False),
        ("seed", "s"),
        ("seed", 1.5),
        ("k_range", [True, 2]),
        ("k_range", [-1, 2.5]),
        ("closure_cap", True),
        ("closure_cap", "3"),
        ("t_samples", 5),
        ("t_samples", "12"),
        ("t_samples", []),
        ("u_samples", []),
        ("sections", 5),
        ("sections", None),
        ("scalar", {"t_samples": 5}),
        ("instance", {"catalog": ["x"]}),
        ("instance", {"operators": 5}),
        ("u_samples", [10**400]),
        ("u_samples", [float("nan")]),
        ("u_samples", [0, float("inf")]),
        ("u_samples", [-float("inf")]),
        # checked although only compatibility runs
        ("scalar", {"omega": "abc"}),
        ("sections", [{"q^2": "zz"}]),
    ],
)
def test_main_rejects_mistyped_scenario_value(tmp_path, capsys, key, value):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**HEIS, "suites": ["compatibility"], key: value}))
    assert main(["verify", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_main_checks_every_key_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    def run_suite(*args):
        raise AssertionError(f"suite {args[1]} ran on an unchecked scenario")

    monkeypatch.setattr(cli, "run_suite", run_suite)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        **HEIS, "suites": ["compatibility", "scalar-reduction"], "scalar": {"omega": "abc"},
    }))
    assert main(["verify", str(path)]) == 2
    assert "scalar.omega" in capsys.readouterr().err


def test_main_echoes_the_suites_that_ran(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(HEIS))
    out = tmp_path / "r.json"
    argv = ["verify", str(path), "--suite", "compatibility", "--format", "structured"]
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scenario"]["suites"] == ["compatibility"]


@pytest.mark.parametrize("cap", [-1, 0])
def test_main_rejects_closure_cap_below_one(tmp_path, capsys, cap):
    # a cap below 1 would leave the witness search too short to find d theta4,
    # turning the eds-closure gate into info records
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": "x", "closure_cap": cap}))
    assert main(["verify", str(path)]) == 2
    assert "closure_cap must be >= 1" in capsys.readouterr().err


def test_parse_accepts_integral_float_for_integer_keys():
    sc = parse_scenario(json.dumps({"name": "x", "degree": 12.0, "seed": 5.0}))
    assert sc.degree == 12 and isinstance(sc.degree, int) and sc.seed == 5


def test_parse_reads_a_json_float_as_one_number_in_every_key():
    # a JSON number is the exact value of its float; a quoted decimal is read as written
    sc = parse_scenario(
        json.dumps({"name": "x", "t_samples": [0.1], "sections": [{"x*z": 0.1, "y": "0.1"}]})
    )
    t = sc.t_samples[0]
    assert t == Fraction(0.1) != Fraction(1, 10)
    f = sc.built_sections[0].f
    R = f.ring
    assert f == R.monomial({"x": 1, "z": 1}, 0, t) + R.monomial({"y": 1}, 0, Fraction(1, 10))


def test_main_builds_each_section_and_the_scalar_arguments_once(tmp_path, monkeypatch):
    built = {"Section": 0, "_scalar_args": 0}
    section_init, scalar_args = eds.Section.__init__, cli._scalar_args

    def counting_section_init(self, *args):
        built["Section"] += 1
        section_init(self, *args)

    def counting_scalar_args(*args):
        built["_scalar_args"] += 1
        return scalar_args(*args)

    monkeypatch.setattr(eds.Section, "__init__", counting_section_init)
    monkeypatch.setattr(cli, "_scalar_args", counting_scalar_args)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "name": "x", "sections": [{"x^2": 1}, {"y*z": "1/3"}], "scalar": {"omega": 2},
    }))
    assert main(["verify", str(path)]) == 0
    # the 2 given sections, and the 3 random ones of eds-proposition1
    assert built == {"Section": 5, "_scalar_args": 1}


def test_main_verify_missing_file():
    assert main(["verify", "/does/not/exist.json"]) == 2


@pytest.mark.parametrize("scenario, out", [
    pytest.param(json.dumps(HEIS).encode(), "no-such-dir/r.json", id="out-into-missing-dir"),
    pytest.param(b"\xff\xfe{}", None, id="not-utf-8"),
    pytest.param(b'{"name": "x", "sections": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 None, id="nested-too-deep"),
])
def test_main_bad_invocation_exits_2_before_any_suite(tmp_path, capsys, monkeypatch, scenario, out):
    def run_suite(*args):
        raise AssertionError(f"suite {args[1]} ran on a bad invocation")

    monkeypatch.setattr(cli, "run_suite", run_suite)
    path = tmp_path / "s.json"
    path.write_bytes(scenario)
    argv = ["verify", str(path)] + (["--out", str(tmp_path / out)] if out else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_out_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(dict(HEIS, suites=["initial-conditions"])))
    out = tmp_path / "report.json"
    code = main(["verify", str(path), "--format", "structured", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "heis"
    assert doc["scenario"]["seed"] == 7


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_main_report_that_cannot_be_written_exits_2(tmp_path, capsys):
    # /dev/full opens, but every write to it fails with ENOSPC
    path = tmp_path / "s.json"
    path.write_text(json.dumps(dict(HEIS, suites=["initial-conditions"])))
    assert main(["verify", str(path), "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report: ") and err.count("\n") == 1


def test_main_catalog_list_and_show(capsys):
    assert main(["catalog", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "heisenberg3" in names and names == sorted(names)

    assert main(["catalog", "show", "heisenberg3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 3
    assert doc["operators"]["L"][0][1] == "1"
    assert doc["compatibility"] == {"ad-commutation": "pass", "coupling": "pass"}

    assert main(["catalog", "show", "nope"]) == 2


@pytest.mark.parametrize("argv", [
    ["catalog", "show", "nilpotent6"],
    ["catalog", "list"],
    ["verify", "{scenario}"],
])
def test_closed_stdout_ends_every_command_quietly(tmp_path, argv):
    # the read end is closed before the command starts, so its first write or
    # flush to stdout fails, however short the output, unlike a pipe into head
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"name": "n6", "instance": {"catalog": "nilpotent6"}}))
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "heavenlab", *(a.format(scenario=scenario) for a in argv)],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.decode()) == (1, "")


def test_main_rejects_unknown_suite_flag(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(HEIS))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path), "--suite", "bogus"])
    assert exc.value.code == 2


def test_scenario_override_seed(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(dict(HEIS, suites=["eds-proposition1"])))
    code = main(["verify", str(path), "--seed", "99", "--format", "structured",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["scenario"]["seed"] == 99


@pytest.mark.parametrize("entry", ["Infinity", "-Infinity", "1e400", "NaN"])
def test_main_rejects_non_finite_matrix_entry(tmp_path, capsys, entry):
    # json reads Infinity and 1e400 as float('inf'), which Fraction refuses
    # with OverflowError rather than ValueError
    path = tmp_path / "s.json"
    path.write_text(
        '{"name": "x", "instance": {"operators": {'
        f'"L": [[{entry}, 0], [0, 1]], "M0": [[0, 0], [0, 0]], "P0": [[0, 0], [0, 0]]'
        "}}}"
    )
    assert main(["verify", str(path)]) == 2
    assert "operators.L: not a rational number" in capsys.readouterr().err


def test_main_asymmetric_k_range(tmp_path):
    # negative_index reads J[-k], outside min(k)-1..max(k)+1 when k_range is lopsided
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "name": "x",
        "instance": {"catalog": "diag2"},
        "k_range": [-3, 5],
        "suites": ["bessel-recurrences"],
    }))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--format", "structured", "--out", str(out)]) == 0
    ids = {c["check_id"] for c in json.loads(out.read_text())["checks"]}
    assert {"negative_index[k=5]", "negative_index[k=-3]", "recurrence_2k[k=5]"} <= ids


@pytest.mark.parametrize(
    "doc, argv",
    [
        ({"degree": 4}, []),
        ({"degree": 6, "k_range": [-2, 5]}, []),
        ({"degree": 4, "suites": ["compatibility"]}, ["--suite", "bessel-recurrences"]),
    ],
)
def test_main_rejects_degree_below_k_range(tmp_path, capsys, doc, argv):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": "x", "instance": {"catalog": "diag2"}, **doc}))
    assert main(["verify", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert "degree" in err and "k_range" in err


def test_main_degree_below_k_range_ok_without_recurrences(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "name": "x", "instance": {"catalog": "diag2"}, "degree": 4, "suites": ["compatibility"],
    }))
    assert main(["verify", str(path)]) == 0


NON_FINITE = "NonFiniteError: non-finite value"


# numpy's overflow RuntimeWarning would be noise beside the recorded failure
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("suite, doc, detail", [
    pytest.param("prolongation", {"u_samples": [800]}, NON_FINITE, id="prolongation"),
    pytest.param("eds-constraints", {"u_samples": [800]}, NON_FINITE, id="eds-constraints"),
    # float Horner overflows at t = 1e200 and is checked once, at its end
    pytest.param("bessel-recurrences", {"mode": "float", "t_samples": ["1e200"]}, NON_FINITE,
                 id="float-bessel-recurrences"),
    pytest.param("solution-equivalence", {"mode": "float", "t_samples": ["1e200"]}, NON_FINITE,
                 id="float-solution-equivalence"),
    # invertible over the rationals, but diag(0, 1) in float64
    pytest.param("eds-constraints", {"instance": {"operators": {
        "L": [[0, 1], [0, 0]], "M0": [[1, 0], [0, 1]], "P0": [[1, 0], [0, 1]],
        "B": [["1e-400", "0"], ["0", "1"]],
    }}}, "NonFiniteError: singular B in float64", id="float-singular-B"),
])
def test_main_records_numeric_breakdown_as_failure(tmp_path, capsys, suite, doc, detail):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "name": "x", "instance": {"catalog": "diag2"}, "suites": [suite], **doc,
    }))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--format", "structured", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    (check,) = json.loads(out.read_text())["checks"]
    assert check["check_id"] == "numeric-breakdown" and check["suite"] == suite
    assert check["verdict"] == "fail"
    assert detail in check["detail"]


_OVERFLOW = {
    "name": "overflow",
    "degree": 8,
    "instance": {"operators": {
        "L": [["1e400", 0], [0, 0]], "M0": [[0, 1], [0, 0]], "P0": [[0, 1], [0, 0]],
    }},
}
_TOO_LARGE = "OverflowError: integer division result too large for a float"


# L's entry 10^400 is exact, but no float holds it: each suite that converts
# the instance to floats records that once, in place of its own checks
@pytest.mark.parametrize("mode, broken", [
    ("float", [s for s in SUITES if s not in (*INSTANCE_FREE, "compatibility")]),
    ("exact", ["bch", "prolongation", "eds-constraints"]),
])
def test_main_records_float_conversion_overflow_per_suite(tmp_path, capsys, mode, broken):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**_OVERFLOW, "mode": mode}))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--format", "structured", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    checks = json.loads(out.read_text())["checks"]
    for suite in broken:
        (check,) = [c for c in checks if c["suite"] == suite]
        assert check["check_id"] == "numeric-breakdown" and _TOO_LARGE in check["detail"]
    compat = [c for c in checks if c["suite"] == "compatibility"]
    assert len(compat) == 2 and all(c["verdict"] == "pass" for c in compat)
    if mode == "exact":
        # exact coefficient checks read no tail, so they take no float norm of L
        for suite in ("ode-residuals", "initial-conditions"):
            records = [c for c in checks if c["suite"] == suite]
            assert records and all(c["verdict"] == "pass" and c["residual"] == 0.0 for c in records)


def test_main_rejects_singular_B(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "name": "x",
        "instance": {"operators": {
            "L": [[0, 1], [0, 0]], "M0": [[1, 0], [0, 1]], "P0": [[1, 0], [0, 1]],
            "B": [["1/2", 1], [1, 2]],
        }},
    }))
    assert main(["verify", str(path)]) == 2
    assert "operators.B: singular" in capsys.readouterr().err


def test_build_instance_refuses_exactly_the_singular_B():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.6 else Fraction(0)
             for _ in range(n)]
            for _ in range(n)
        ]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = [2 * x for x in rows[0]]
        ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
        singular = ref.rank() < n
        zero = [[0] * n for _ in range(n)]
        B = [[str(x) for x in r] for r in rows]
        spec = {"operators": {"L": zero, "M0": zero, "P0": zero, "B": B}}
        if singular:
            with pytest.raises(ScenarioError, match="operators.B: singular"):
                build_instance(spec)
        else:
            assert build_instance(spec).B == Operator.from_rows(rows, EXACT)


# [L, P0] = -e12 but [L, M0] = e11 - e22: the cal form does not apply
COUPLING_BROKEN = {
    "name": "coupling",
    "instance": {"operators": {
        "L": [[0, 1], [0, 0]], "M0": [[0, 0], [1, 0]], "P0": [[1, 0], [0, 0]],
    }},
}
CAL_FORM_SUITES = (
    "ode-residuals", "solution-equivalence", "prolongation", "initial-conditions",
    "eds-constraints",
)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_main_records_coupling_precondition_failure(tmp_path, capsys, mode):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**COUPLING_BROKEN, "mode": mode}))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--format", "structured", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    by_suite = {}
    for check in json.loads(out.read_text())["checks"]:
        by_suite.setdefault(check["suite"], []).append(check)
    for suite in CAL_FORM_SUITES:
        (check,) = by_suite[suite]
        assert check["check_id"] == "coupling-precondition"
        assert check["verdict"] == "fail" and check["residual"] > check["bound"]
    compat = {c["check_id"]: c["verdict"] for c in by_suite["compatibility"]}
    assert compat == {"coupling": "fail", "ad-commutation": "fail"}
    assert all(c["verdict"] == "pass" for c in by_suite["bessel-recurrences"] + by_suite["bch"])


@pytest.mark.parametrize(
    "instance, named",
    [
        ({"catalog": "diag2", "seed": 1}, "'seed'"),
        ({"operators": {"L": [[0, 1], [0, 0]], "M0": [[1, 0], [0, 1]],
                        "P0": [[1, 0], [0, 1]], "b": [[2, 0], [0, 2]]}}, "'b'"),
        ({"catalog": "diag2", "operators": {"L": [[1]], "M0": [[1]], "P0": [[1]]}},
         "'catalog' or 'operators'"),
        ({"name": 5, "catalog": "diag2"}, "instance.name"),
        ({"name": None, "operators": {"L": [[1]], "M0": [[1]], "P0": [[1]]}}, "instance.name"),
    ],
    ids=["instance-key", "operators-key", "catalog-and-operators", "name-number", "name-null"],
)
def test_main_rejects_bad_instance_keys(tmp_path, capsys, instance, named):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": "x", "instance": instance, "suites": ["compatibility"]}))
    assert main(["verify", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "instance, named",
    [({"catalog": "diag2", "name": "mine"}, "mine"), ({"catalog": "diag2"}, "diag2")],
    ids=["given-name", "fixture-name"],
)
def test_main_names_catalog_instance(tmp_path, instance, named):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": "x", "instance": instance, "suites": ["compatibility"]}))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--format", "structured", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks and all(c["detail"] == named for c in checks)


# small valid scenarios (exit 0), one per way of giving the instance
SMALL = {
    "name": "small",
    "instance": {"catalog": "diag2"},
    "mode": "exact",
    "degree": 4,
    "cutoff": 1,
    "t_samples": ["1/2"],
    "u_samples": [0],
    "k_range": [-1, 1],
    "seed": 1,
    "suites": ["scalar-reduction", "compatibility", "eds-proposition1"],
    "scalar": {"omega": 1, "t_samples": ["1"]},
    "sections": [{"x*y": "-1/2"}],
    "closure_cap": 1,
}
SMALL_OPERATORS = {
    **SMALL,
    "instance": {
        "operators": {"L": [[0, 1], [0, 0]], "M0": [[0, 0], [0, 0]], "P0": [[1, 0], [0, 1]]}
    },
}


def _paths(value, prefix=()):
    """Every key path into nested objects and lists."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, prefix + (k,))


def _json_type(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


def _at(doc, path: tuple):
    for k in path:
        doc = doc[k]
    return doc


def _retyped(doc: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return doc


_RETYPE_SITES = [(base, path) for base in (SMALL, SMALL_OPERATORS) for path in _paths(base)]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@pytest.mark.parametrize("base", [SMALL, SMALL_OPERATORS], ids=["catalog", "operators"])
def test_small_scenarios_pass(tmp_path, base):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(base))
    assert main(["verify", str(path), "--out", str(tmp_path / "r.txt")]) == 0


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(site=st.sampled_from(_RETYPE_SITES), data=st.data())
def test_main_survives_any_retyped_value(tmp_path, site, data):
    # one value of a valid scenario becomes a value of another JSON type:
    # main reports a verdict or rejects the file, never raises
    base, key_path = site
    original = _at(base, key_path)
    value = data.draw(_JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(original)))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_retyped(base, key_path, value)))
    assert main(["verify", str(path), "--out", str(tmp_path / "r.txt")]) in (0, 1, 2)


# -- upper limits -------------------------------------------------------------


def _no_suite(*args):
    raise AssertionError(f"suite {args[1]} ran on a scenario past a limit")


def _zeros(n):
    return [[0] * n for _ in range(n)]


def _with_entry(rows, i, j, x):
    rows = [list(r) for r in rows]
    rows[i][j] = x
    return rows


# a denominator and a numerator of MAX_BITS bits
_LONGEST_DEN = f"1/{2 ** (cli.MAX_BITS - 1)}"
_LONGEST_NUM = 2**cli.MAX_BITS - 1
_AT_LIMITS = {
    **SMALL,
    "degree": cli.MAX_DEGREE,
    "cutoff": cli.MAX_CUTOFF,
    "t_samples": [_LONGEST_DEN] * cli.MAX_LIST,
    "u_samples": [0] * cli.MAX_LIST,
    "scalar": {"omega": _LONGEST_NUM, "t_samples": ["1"] * cli.MAX_LIST},
    "sections": [{f"x^{i}": 1 for i in range(cli.MAX_TERMS)}] * cli.MAX_LIST,
    "instance": {"operators": {
        "L": _with_entry(_zeros(cli.MAX_DIM), 0, 1, _LONGEST_DEN),
        "M0": _with_entry(_zeros(cli.MAX_DIM), 0, 1, _LONGEST_NUM),
        "P0": _zeros(cli.MAX_DIM),
    }},
}


def test_parse_accepts_every_value_at_its_limit():
    sc = parse_scenario(json.dumps(_AT_LIMITS))
    assert (sc.degree, sc.cutoff) == (cli.MAX_DEGREE, cli.MAX_CUTOFF)
    assert len(sc.t_samples) == len(sc.u_samples) == cli.MAX_LIST
    assert len(sc.sections) == cli.MAX_LIST
    assert sc.t_samples[0].denominator.bit_length() == cli.MAX_BITS
    L = cli.build_instance(sc.instance_spec).L
    assert L.denominator.bit_length() == cli.MAX_BITS


# two denominators of 1501 bits each, coprime: an operator holding both has a
# shared denominator of 3001 bits
_COPRIME_DENS = [[f"1/{2**1500 + 1}", 0], [0, f"1/{2**1500 + 3}"]]


@pytest.mark.parametrize("key, value, message", [
    ("degree", cli.MAX_DEGREE + 1, f"degree must be <= {cli.MAX_DEGREE}"),
    ("cutoff", cli.MAX_CUTOFF + 1, f"cutoff must be <= {cli.MAX_CUTOFF}"),
    ("t_samples", ["1"] * (cli.MAX_LIST + 1), "t_samples may have at most"),
    ("u_samples", [0] * (cli.MAX_LIST + 1), "u_samples may have at most"),
    ("scalar", {"t_samples": ["1"] * (cli.MAX_LIST + 1)}, "scalar.t_samples may have at most"),
    ("sections", [{"x": 1}] * (cli.MAX_LIST + 1), "sections may have at most"),
    ("sections", [{"x": 1}, {f"x^{i}": 1 for i in range(cli.MAX_TERMS + 1)}],
     f"sections[1] may have at most {cli.MAX_TERMS} terms"),
    ("instance", {"operators": {k: _zeros(cli.MAX_DIM + 1) for k in ("L", "M0", "P0")}},
     f"operators.L: dimension may be at most {cli.MAX_DIM}"),
    ("instance", {"operators": {"L": [[0] * (cli.MAX_DIM + 1)], "M0": [[0]], "P0": [[0]]}},
     "operators.L: dimension may be at most"),
    ("t_samples", [f"1/{2**cli.MAX_BITS}"],
     f"t_samples: numerators and denominators may have at most {cli.MAX_BITS} bits"),
    ("scalar", {"omega": 2**cli.MAX_BITS}, "scalar.omega: numerators and denominators"),
    ("instance", {"operators": {"L": _COPRIME_DENS, "M0": _zeros(2), "P0": _zeros(2)}},
     f"operators.L: numerators and denominators may have at most {cli.MAX_BITS} bits, got 3001"),
])
def test_main_refuses_a_value_past_its_limit(tmp_path, capsys, monkeypatch, key, value, message):
    monkeypatch.setattr(cli, "run_suite", _no_suite)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**_AT_LIMITS, key: value}))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("key, value, message", [
    ("t_samples", ["1e-4000000"], "t_samples: a decimal exponent may be at most"),
    # 0 with such an exponent is refused too, before Fraction builds 10**e
    ("scalar", {"omega": "0e4000000"}, "scalar.omega: a decimal exponent may be at most"),
    # section coefficients get the limits of every other rational
    ("sections", [{"x*z": "1e-200000"}], "sections[0]: a decimal exponent may be at most"),
    ("sections", [{"x*z": "1e-1000"}], "sections[0]: numerators and denominators may have"),
])
def test_main_refuses_a_long_exponent_at_once(tmp_path, capsys, monkeypatch, key, value, message):
    monkeypatch.setattr(cli, "run_suite", _no_suite)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**HEIS, key: value}))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["1E+0_000_1", " 15e-1 ", "1e0_000000_1", "2.5e+000000000000003", "7e-3"])
def test_fraction_reads_each_exponent_spelling_within_the_bound(text):
    assert cli._fraction(text, "t_samples") == Fraction(text)


def _long_lists(entry):
    # longer than every list limit
    return st.integers(max(cli.MAX_LIST, cli.MAX_DIM) + 1, 300).map(lambda k: [entry] * k)


_HUGE = st.integers(10**3, 10**40) | st.floats(1e3, 1e300)
_NEGATIVE = st.integers(-(10**40), -1) | st.floats(-1e300, -1.0)
# 2**b has b + 1 bits, one more than MAX_BITS at the least
_LONG_BITS = st.integers(cli.MAX_BITS, 3 * cli.MAX_BITS)
_LONG_INT = _LONG_BITS.map(lambda b: 2**b)
_LONG_TEXT = _LONG_BITS.flatmap(
    lambda b: st.sampled_from([f"{2**b}/3", f"1/{2**b}", f"1e-{b}"])
)
# mutations that keep a value's JSON type but that a limit refuses: a huge or
# negative degree or cutoff, a negative closure_cap, a section with too many
# terms, any list but `suites` made long, and a rational (a t, a scalar value,
# an operator entry) made longer than MAX_BITS
_LIMIT_SITES = [
    (base, path, values)
    for base in (SMALL, SMALL_OPERATORS)
    for path, values in [
        (("degree",), _HUGE | _NEGATIVE),
        (("cutoff",), _HUGE | _NEGATIVE),
        (("closure_cap",), _NEGATIVE),
        (("sections", 0), st.integers(cli.MAX_TERMS + 1, 300).map(
            lambda k: {f"x^{i}": 1 for i in range(k)}
        )),
        *(
            (path, _long_lists(_at(base, path)[0]))
            for path in _paths(base)
            if isinstance(_at(base, path), list) and path != ("suites",)
        ),
        *(
            (path, _LONG_TEXT if isinstance(_at(base, path), str) else _LONG_INT)
            for path in _paths(base)
            if (path[0] in ("t_samples", "scalar") or path[:2] == ("instance", "operators"))
            and not isinstance(_at(base, path), (dict, list))
        ),
    ]
]


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(site=st.sampled_from(_LIMIT_SITES), data=st.data())
def test_main_refuses_type_keeping_values_past_a_limit(tmp_path, monkeypatch, site, data):
    # the parser alone refuses the scenario: no suite runs
    monkeypatch.setattr(cli, "run_suite", _no_suite)
    base, key_path, values = site
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_retyped(base, key_path, data.draw(values))))
    assert main(["verify", str(path), "--out", str(tmp_path / "r.txt")]) == 2
