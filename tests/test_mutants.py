"""Mutant smoke test: a planted error in the maths must fail a required check.

Each mutant swaps one function for a wrong one in every module of the
package that holds its name; monkeypatch restores every binding afterwards.
On diag2 a clean run fails no check, in exact and in float mode, and each
mutant fails at least one.
"""
import json

import pytest

from heavenlab import adjoint, besselop, cli, eds, opcore, prolong
from heavenlab.cli import parse_scenario, run_scenario
from heavenlab.opcore import commutator

MODULES = (opcore, besselop, adjoint, prolong, eds, cli)


def _swap(monkeypatch, name, make):
    """Replace `name` by make(original) wherever a module holds the original."""
    original = getattr(next(m for m in MODULES if hasattr(m, name)), name)
    mutant = make(original)
    for m in MODULES:
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, mutant)


def _reversed_ad(original):
    # ad_L[A] taken as [A, L] = -[L, A]
    return lambda ctx, a: commutator(a, ctx.L)


def _damped_terms(original):
    # every J_m coefficient q_j divided by j + 1 from j = 3 on
    def terms(m, D):
        for deg, q in original(m, D):
            j = (deg - abs(m)) // 2
            yield deg, q / (j + 1) if j >= 3 else q

    return terms


def _doubled_p(original):
    # J_1 and its tail doubled: P loses its factor 1/2
    def cal_bessel(ctx, A, nu, D):
        s = original(ctx, A, nu, D)
        if nu != 1:
            return s
        doubled = s.scale(2)
        doubled.tail_fn = lambda t_abs: 2 * s.tail_fn(t_abs)
        return doubled

    return cal_bessel


MUTANTS = {
    "ad-reversed": ("ad_apply", _reversed_ad),
    "bessel-terms-damped": ("bessel_terms", _damped_terms),
    "p-without-half": ("cal_bessel", _doubled_p),
}


def _failed(mode):
    doc = {"name": "mutant", "instance": {"catalog": "diag2"}, "mode": mode}
    return run_scenario(parse_scenario(json.dumps(doc))).failed_records()


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_clean_run_fails_no_check(mode):
    assert _failed(mode) == ()


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_fails_a_required_check(monkeypatch, mode, mutant):
    name, make = MUTANTS[mutant]
    _swap(monkeypatch, name, make)
    assert _failed(mode), f"{mutant} passed every check in {mode} mode"

