"""Scenario parsing, suite dispatch, exit codes, report determinism."""
import json

import pytest

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
from heavenlab.report import parse_structured, render_structured

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


def test_parse_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        parse_scenario(json.dumps({"name": "x", "wat": 1}))


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
    sc = parse_scenario(json.dumps(HEIS))
    rep = run_scenario(sc, only=["compatibility"])
    assert {r.suite for r in rep.records} == {"compatibility"}


def test_run_scenario_expected_fail_fails():
    doc = dict(HEIS, name="xfail", instance={"catalog": "expected-fail2"})
    doc["suites"] = ["compatibility"]
    rep = run_scenario(parse_scenario(json.dumps(doc)))
    assert not rep.all_passed()


def test_structured_report_round_trip():
    sc = parse_scenario(json.dumps(HEIS))
    rep = run_scenario(sc, only=["initial-conditions"])
    text = render_structured(rep)
    back = parse_structured(text)
    assert back.name == rep.name
    assert [r.check_id for r in back.sorted().records] == [
        r.check_id for r in rep.sorted().records
    ]


def test_structured_output_deterministic():
    sc = parse_scenario(json.dumps(HEIS))
    a = render_structured(run_scenario(sc))
    b = render_structured(run_scenario(sc))
    assert a == b


def test_seed_changes_are_isolated_to_random_content():
    sc1 = parse_scenario(json.dumps(dict(HEIS, seed=1)))
    sc2 = parse_scenario(json.dumps(dict(HEIS, seed=2)))
    r1 = run_scenario(sc1, only=["initial-conditions"])
    r2 = run_scenario(sc2, only=["initial-conditions"])
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
    ],
)
def test_main_rejects_mistyped_scenario_value(tmp_path, capsys, key, value):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**HEIS, "suites": ["compatibility"], key: value}))
    assert main(["verify", str(path)]) == 2
    assert key in capsys.readouterr().err


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


def test_main_verify_missing_file():
    assert main(["verify", "/does/not/exist.json"]) == 2


def test_main_out_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(dict(HEIS, suites=["initial-conditions"])))
    out = tmp_path / "report.json"
    code = main(["verify", str(path), "--format", "structured", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "heis"
    assert doc["scenario"]["seed"] == 7


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


# numpy's overflow RuntimeWarning would be noise beside the recorded failure
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("suite", ["prolongation", "eds-constraints"])
def test_main_records_numeric_breakdown_as_failure(tmp_path, capsys, suite):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "name": "x", "instance": {"catalog": "diag2"}, "u_samples": [800], "suites": [suite],
    }))
    out = tmp_path / "r.json"
    assert main(["verify", str(path), "--format", "structured", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    (check,) = json.loads(out.read_text())["checks"]
    assert check["check_id"] == "numeric-breakdown" and check["suite"] == suite
    assert check["verdict"] == "fail"
    assert "NonFiniteError: non-finite value" in check["detail"]


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
