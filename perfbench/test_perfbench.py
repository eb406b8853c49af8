"""Tests of the benchmark itself: its checks can fail and its trace is complete.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import hashlib
import sys
from fractions import Fraction

import pytest

import run
import tracing
import workloads


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    """heavenlab.cli and the exact-catalog cases at the default seed."""
    cli, cases, setup_s = run.setup("exact-catalog", run.DEFAULT_SEED, tmp_path_factory.mktemp("sc"))
    assert setup_s > 0
    return cli, {case.name: case for case in cases}


def test_scenarios_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.scenarios(workload, 3) == workloads.scenarios(workload, 3)
    assert workloads.scenarios("exact-dense", 3) != workloads.scenarios("exact-dense", 4)


@pytest.mark.parametrize("n", workloads.DENSE_DIMS)
def test_dense_tower_is_a_multiple_of_m0(n):
    ops = workloads.dense_operators(n, seed=11)
    L, M0 = ([[Fraction(x) for x in row] for row in ops[k]] for k in ("L", "M0"))
    ad = [[a - b for a, b in zip(r1, r2)]
          for r1, r2 in zip(workloads._matmul(L, M0), workloads._matmul(M0, L))]
    ratios = {ad[i][j] / M0[i][j] for i in range(n) for j in range(n) if M0[i][j]}
    assert len(ratios) == 1 and ratios != {0}
    assert all(ad[i][j] == 0 for i in range(n) for j in range(n) if not M0[i][j])


def test_expected_failures_are_expected_output(catalog, tmp_path):
    cli, cases = catalog
    outcome = run.verify(cli, cases["expected-fail2-exact"], tmp_path / "r.json")
    assert outcome.ok and outcome.checks == 123


def test_corrupted_verdict_counts_as_error(catalog, tmp_path):
    cli, cases = catalog
    case = cases["commuting2-exact"]
    assert run.verify(cli, case, tmp_path / "r.json").ok
    expected = dict(case.expected, **{"compatibility/coupling": ["fail"]})
    corrupted = dataclasses.replace(case, expected=expected)
    assert not run.verify(cli, corrupted, tmp_path / "r.json").ok


def test_exit_2_counts_as_error(catalog, tmp_path):
    cli, cases = catalog
    case = cases["commuting2-exact"]
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    outcome = run.verify(cli, dataclasses.replace(case, path=broken), tmp_path / "r.json")
    assert not outcome.ok


def test_digest_store_covers_the_default_seed():
    digests = run.load_digests()
    for workload in workloads.WORKLOADS:
        for doc, _ in workloads.scenarios(workload, run.DEFAULT_SEED):
            sha = hashlib.sha256(run.scenario_text(doc).encode()).hexdigest()
            assert sha in digests, (workload, doc["name"])


def test_nilpotent6_counters_match_the_roadmap(catalog, tmp_path):
    """Exact nilpotent6 at defaults: 1374 exact and 1232 float matmuls, 7 solves."""
    cli, cases = catalog
    case = cases["nilpotent6-exact"]
    with tracing.Tracer() as tracer:
        assert run.verify(cli, case, tmp_path / "r.json", tracer.verify).ok
    assert tracer.verifies == 1
    assert tracer.totals["opcore.matmul.exact"][0] == 1374
    assert tracer.totals["opcore.matmul.float"][0] == 1232
    assert tracer.totals["prolong.solution_cal_form"][0] == 7
    assert tracer.membership_attempts == 5 and tracer.membership_found == 4
    assert {f"cli.suite.{s}" for s in cli.SUITES} <= set(tracer.totals)


def test_tracer_restores_every_binding(catalog):
    cli, _ = catalog
    mods = {m: sys.modules[f"heavenlab.{m}"] for m in tracing.MODULES}
    owners = list(mods.values()) + [mods["opcore"].Operator, mods["prolong"].ProlongationInstance]
    before = [dict(vars(owner)) for owner in owners]
    matmul, check_recurrence = mods["opcore"].Operator.__matmul__, cli.check_recurrence
    with tracing.Tracer():
        assert mods["opcore"].Operator.__matmul__ is not matmul
        assert cli.check_recurrence is not check_recurrence
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys()
        assert all(now[k] is saved[k] for k in saved)


def test_self_times_add_up_to_the_verify(catalog, tmp_path):
    cli, cases = catalog
    case = cases["heisenberg3-exact"]
    with tracing.Tracer() as tracer:
        run.verify(cli, case, tmp_path / "r.json", tracer.verify)
    self_total = sum(row[2] for row in tracer.totals.values())
    assert self_total == pytest.approx(tracer.totals[tracing.VERIFY_SPAN][1], rel=1e-9)
