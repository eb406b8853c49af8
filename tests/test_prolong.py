"""Closed-form prolongation solutions: ODEs, route equivalence, residuals."""
import dataclasses
import math
import random
from fractions import Fraction

import pytest
import scipy.special

from heavenlab import besselop, prolong
from heavenlab.adjoint import AdjointContext
from heavenlab.besselop import bessel_series, series_eval
from heavenlab.eds import constraint_residuals
from heavenlab.opcore import EXACT, FLOAT, Operator, commutator, frobenius
from heavenlab.prolong import (
    ProlongationInstance,
    catalog_instance,
    catalog_names,
    compatibility_check,
    eval_at_u,
    initial_condition_check,
    ode_residual,
    prolongation_residual,
    scalar_check,
    scalar_reduction,
    solution_L_form,
    solution_cal_form,
)

from _helpers import random_rational_operator


# -- oracles first ------------------------------------------------------------


def test_scalar_reduction_frozen_exact_values():
    """Truncated classical series at t = 2, degree 6, by hand:

    J_1 partial: x/2 - x^3/16 + x^5/384 at x = 2 -> 7/12, kappa = (t/2) 7/12
    J_0 partial: 1 - x^2/4 + x^4/64 - x^6/2304 at x = 2 -> 2/9
    """
    kappa, chi = scalar_reduction(Fraction(1), Fraction(1), Fraction(1), Fraction(2), 6)
    assert kappa == Fraction(7, 12)
    assert chi == Fraction(2, 9)


def test_scalar_reduction_matches_scipy():
    for omega, t in ((1.0, 2.0), (0.5, 1.0), (1.5, 3.0)):
        kappa, chi = scalar_reduction(omega, 1.0, 1.0, t, 60)
        assert abs(kappa - (t / 2) * scipy.special.jv(1, t * omega)) < 1e-12
        assert abs(chi - scipy.special.jv(0, t * omega)) < 1e-12


def test_scalar_reduction_equals_1x1_operator_route_exactly():
    omega, p0, m0, t = Fraction(3, 2), Fraction(2), Fraction(1, 3), Fraction(5, 7)
    D = 24
    kappa, chi = scalar_reduction(omega, p0, m0, t, D)
    X = Operator.from_rows([[omega]], EXACT)
    v1, _ = series_eval(bessel_series(X, 1, D), t)
    v0, _ = series_eval(bessel_series(X, 0, D), t)
    assert kappa == p0 * (t / 2) * v1.entry(0, 0)
    assert chi == m0 * v0.entry(0, 0)


def test_scalar_check_fails_on_a_wrong_bessel_coefficient(monkeypatch):
    """scalar_reduction shares no coefficient routine with the operator
    route: doubling every bessel_terms coefficient from degree 3 fails every
    record."""
    terms = besselop.bessel_terms
    doubled = lambda m, D: ((deg, 2 * q if deg >= 3 else q) for deg, q in terms(m, D))
    # wherever the routine is bound, so that no route keeps the right one
    monkeypatch.setattr(besselop, "bessel_terms", doubled)
    monkeypatch.setattr(prolong, "bessel_terms", doubled, raising=False)
    t_samples = (Fraction(1, 2), Fraction(1), Fraction(2))
    report = scalar_check(Fraction(3, 2), Fraction(1), Fraction(1), t_samples, 16)
    assert len(report.records) == 6 and all(r.failed() for r in report.records)


def test_diag_eigen_oracle():
    """Diagonal L: the solutions factor through classical Bessel entrywise.

        M(t)_ab = J_0(t (l_a - l_b)) M0_ab
        P(t)_ab = (t/2) J_1(t (l_a - l_b)) P0_ab
    """
    inst = catalog_instance("diag2").to_float()
    lam = (1.0, -1.0)
    sol = solution_cal_form(inst, 40)
    for t in (0.5, 1.0, 2.0):
        P, _ = series_eval(sol.p, t)
        M, _ = series_eval(sol.m, t)
        for a in range(2):
            for b in range(2):
                gap = lam[a] - lam[b]
                want_m = scipy.special.jv(0, t * gap) * inst.M0.entry(a, b)
                want_p = (t / 2) * scipy.special.jv(1, t * gap) * inst.P0.entry(a, b)
                assert abs(M.entry(a, b) - want_m) < 1e-12
                assert abs(P.entry(a, b) - want_p) < 1e-12


def test_heisenberg_p_series_frozen():
    # ad[P0] = e13, ad^2[P0] = 0: P = (t^2/4) e13 and M = M0, exactly
    inst = catalog_instance("heisenberg3")
    sol = solution_cal_form(inst, 12)
    e13 = Operator.unit(3, 0, 2)
    assert sol.p.coefficient(2) == e13.scale(Fraction(1, 4))
    assert all(sol.p.coefficient(d).is_zero() for d in range(13) if d != 2)
    assert sol.m.coefficient(0) == inst.M0
    assert all(sol.m.coefficient(d).is_zero() for d in range(1, 13))


# -- the two ODEs --------------------------------------------------------------


@pytest.mark.parametrize("name", ["heisenberg3", "diag2", "nilpotent4", "nilpotent5"])
def test_ode_residuals_vanish_exactly(name):
    inst = catalog_instance(name)
    D = 18
    sol = solution_cal_form(inst, D)
    rp = ode_residual(sol.p, "P2", sol.ctx)
    rm = ode_residual(sol.m, "M2", sol.ctx)
    assert rp.max_coeff_norm() == 0.0
    assert rm.max_coeff_norm() == 0.0


def test_ode_residuals_vanish_on_random_rationals():
    rng = random.Random(41)
    for _ in range(5):
        L = random_rational_operator(rng, 3)
        M0 = random_rational_operator(rng, 3)
        inst = ProlongationInstance(
            name="random",
            L=L,
            M0=M0,
            P0=M0,
            N=Operator.zero(3, EXACT),
            A=Operator.identity(3, EXACT),
            B=Operator.identity(3, EXACT),
        )
        sol = solution_cal_form(inst, 12)
        assert ode_residual(sol.p, "P2", sol.ctx).max_coeff_norm() == 0.0
        assert ode_residual(sol.m, "M2", sol.ctx).max_coeff_norm() == 0.0


def test_ode_residual_rejects_bad_input():
    inst = catalog_instance("heisenberg3")
    sol = solution_cal_form(inst, 8)
    with pytest.raises(ValueError, match="P-kind"):
        ode_residual(sol.m, "P2", sol.ctx)  # M has M(0) = M0 != 0
    with pytest.raises(ValueError):
        ode_residual(sol.p, "X9", sol.ctx)


# -- route equivalence -----------------------------------------------------------


def test_cal_form_equals_L_form_exact_within_tails():
    inst = catalog_instance("diag2")
    D, K = 40, 20
    sol = solution_cal_form(inst, D)
    for t in (Fraction(1, 2), Fraction(3, 2)):
        pc, ptb = series_eval(sol.p, t)
        mc, mtb = series_eval(sol.m, t)
        lf = solution_L_form(inst, t, K, D)
        assert frobenius(pc - lf.p) <= ptb.value + lf.p_tail
        assert frobenius(mc - lf.m) <= mtb.value + lf.m_tail


def test_cal_form_equals_L_form_float():
    inst = catalog_instance("diag2").to_float()
    D, K = 40, 20
    sol = solution_cal_form(inst, D)
    for t in (0.5, 1.5):
        pc, ptb = series_eval(sol.p, t)
        mc, mtb = series_eval(sol.m, t)
        lf = solution_L_form(inst, t, K, D)
        roundoff = 1e-12
        assert frobenius(pc - lf.p) <= ptb.value + lf.p_tail + roundoff
        assert frobenius(mc - lf.m) <= mtb.value + lf.m_tail + roundoff


def test_L_form_builds_only_the_indices_its_sums_read(monkeypatch):
    # the sums over |k| <= K read J_k and J_{k+1}
    asked = []

    def recording(X_powers, m, t):
        asked.append(m)
        return besselop.bessel_eval(X_powers, m, t)

    monkeypatch.setattr(prolong, "bessel_eval", recording)
    solution_L_form(catalog_instance("diag2"), Fraction(1, 2), 3, 12)
    assert sorted(asked) == list(range(-3, 5))


def test_L_form_tails_match_per_index_majorants(monkeypatch):
    """Each majorant g_|k| is computed once per call, and the tails keep the
    bits of evaluating scalar_bessel_majorant at every use."""
    inst, t, K, D = catalog_instance("heisenberg3"), Fraction(5, 2), 3, 12
    calls = []

    def counted(r, k, from_j=0):
        calls.append(abs(k))
        return besselop.scalar_bessel_majorant(r, k, from_j)

    monkeypatch.setattr(prolong, "scalar_bessel_majorant", counted)
    lf = solution_L_form(inst, t, K, D)
    assert len(calls) == len(set(calls))

    g = lambda k: besselop.scalar_bessel_majorant(r, k)
    r = float(t) * frobenius(inst.L) / 2.0
    tau = lambda k: besselop.bessel_tail(r, k, D)

    def outside(offset):
        total = 0.0
        for sign in (1, -1):
            k = sign * (K + 1)
            while True:
                term = g(k + offset) * g(k)
                total += term
                if term == 0.0 or term < 1e-32 * max(total, 1e-300):
                    break
                k += sign
        return total

    nm0, np0, half = frobenius(inst.M0), frobenius(inst.P0), float(t) / 2.0
    m_tail, p_tail = nm0 * outside(0), half * np0 * outside(1)
    for k in range(-K, K + 1):
        m_tail += nm0 * (g(k) * tau(k) * 2 + tau(k) * tau(k))
        p_tail += half * np0 * (g(k + 1) * tau(k) + tau(k + 1) * g(k) + tau(k + 1) * tau(k))
    assert (lf.m_tail.hex(), lf.p_tail.hex()) == (m_tail.hex(), p_tail.hex())


def test_L_form_requires_positive_cutoff():
    inst = catalog_instance("diag2")
    with pytest.raises(ValueError):
        solution_L_form(inst, Fraction(1), 0, 10)


# -- prolongation equations -------------------------------------------------------


def test_heisenberg_residuals_bitwise_zero():
    """exp_u = (t/2)^2 by construction, so the heisenberg residuals are 0.0."""
    inst = catalog_instance("heisenberg3")
    for u in (-4.0, -2.0, -1.0, 0.0):
        rep = prolongation_residual(inst, u, 16)
        assert rep.all_passed()
        assert all(r.residual == 0.0 for r in rep.records)


@pytest.mark.parametrize("name", ["diag2", "nilpotent4", "nilpotent6", "commuting2"])
def test_prolongation_residuals_catalog(name):
    inst = catalog_instance(name)
    for u in (-2.0, 0.0):
        rep = prolongation_residual(inst, u, 20)
        assert rep.all_passed(), (name, u, rep.failed_records())


# [L, P0] = [L, M0] = 0 with M0 = 0, so every term of the M-derivative tail is 0
ZERO_M0 = dataclasses.replace(
    catalog_instance("diag2"), name="zero-m0", M0=Operator.zero(2, EXACT),
    P0=Operator.diag([1, 2]),
)


@pytest.mark.parametrize(
    "inst, u",
    [(catalog_instance("diag2"), -100.0), (catalog_instance("diag2"), -2000.0), (ZERO_M0, 0.0)],
    ids=["diag2-tiny-t", "diag2-zero-t", "zero-m0"],
)
def test_prolongation_bounds_finite_when_tail_terms_vanish(inst, u):
    # t = 2 e^{u/2} is 3.9e-22 at u = -100 and 0.0 at u = -2000, so every
    # dropped derivative term is 0.0; a vanishing tail must not read inf or nan
    reports = (prolongation_residual(inst, u, 16), constraint_residuals(inst, u_samples=(u,), D=16))
    for rep in reports:
        assert rep.all_passed(), rep.failed_records()
        assert all(math.isfinite(r.bound) for r in rep.records), rep.records


def test_expected_fail_instance_flagged():
    inst = catalog_instance("expected-fail2")
    rep = compatibility_check(inst)
    verdicts = {r.check_id: r.verdict for r in rep.records}
    assert verdicts["coupling"] == "pass"
    assert verdicts["ad-commutation"] == "fail"


def test_compatibility_check_refuses_float_instance():
    # its bounds are 0, which only an exact residual can meet
    with pytest.raises(ValueError, match="exact instance"):
        compatibility_check(catalog_instance("diag2").to_float())


def test_compatibility_passes_on_solvable_catalog():
    for name in catalog_names():
        if name == "expected-fail2":
            continue
        assert compatibility_check(catalog_instance(name)).all_passed(), name


def test_coupling_violation_raises_with_named_condition():
    # P0 chosen so [L, P0] != [L, M0]
    L = Operator.unit(2, 0, 1)
    M0 = Operator.unit(2, 1, 0)
    P0 = Operator.diag([1, 0])
    inst = ProlongationInstance(
        name="bad-coupling",
        L=L,
        M0=M0,
        P0=P0,
        N=Operator.zero(2, EXACT),
        A=Operator.identity(2, EXACT),
        B=Operator.identity(2, EXACT),
    )
    with pytest.raises(ValueError, match="coupling condition violated"):
        solution_cal_form(inst, 8)


def test_prolongation_fd_convergence_order():
    """Central differences in u converge at second order to the series P_u.

    Halving h must cut the FD-vs-chain-rule gap by about 4; the ratio test is
    robust to the constant in front.
    """
    inst = catalog_instance("diag2").to_float()
    D = 30
    sol = solution_cal_form(inst, D)
    u = -0.5

    p_at = lambda uu: eval_at_u(inst, sol, uu).P
    exact_pu = eval_at_u(inst, sol, u).Pu
    errs = []
    for h in (0.05, 0.025):
        fd = (p_at(u + h) - p_at(u - h)).scale(1.0 / (2 * h))
        errs.append(frobenius(fd - exact_pu))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0, errs


# -- initial conditions and the heavenly substitution -----------------------------


def test_initial_conditions_all_catalog():
    for name in catalog_names():
        if name == "expected-fail2":
            continue
        rep = initial_condition_check(catalog_instance(name), 8)
        assert rep.all_passed(), name
        assert all(r.bound == 0.0 for r in rep.records)


def test_heavenly_variable_construction():
    fi = catalog_instance("diag2").to_float()
    sol = solution_cal_form(fi, 8)
    at = eval_at_u(fi, sol, 0.0)
    assert at.u == 0.0 and at.t == 2.0 and at.exp_u == 1.0
    at2 = eval_at_u(fi, sol, -2.0)
    assert abs(at2.t - 2 * math.exp(-1.0)) < 1e-16
    # float contract: exp_u is the exact square of the stored half-t
    assert at2.exp_u == at2.half_t * at2.half_t


def test_build_HFG_heisenberg_at_zero():
    fi = catalog_instance("heisenberg3").to_float()
    H, F, G = eval_at_u(fi, solution_cal_form(fi, 12), 0.0).hfg(fi, 0.0, 0.0, 1.0)
    # H = e^u u_z L + P(2) = e12 + e13 (P(2) = (4/4) e13)
    assert H.shape == F.shape == G.shape == (3, 3)
    assert (H == (Operator.unit(3, 0, 1, mode=FLOAT) + Operator.unit(3, 0, 2, mode=FLOAT)).data).all()
    assert not F.any()
    assert (G == Operator.unit(3, 1, 2, mode=FLOAT).data).all()  # u_x = 0: G = M = M0


def test_addition_theorem_convention():
    """sum_k J_{k+n}(a) J_k(b) = J_n(a - b): the index convention the

    bilateral route leans on, checked against scipy directly."""
    for n in (0, 1, 2):
        for a, b in ((1.0, 0.4), (2.0, 2.0), (0.7, 1.9)):
            acc = sum(
                scipy.special.jv(k + n, a) * scipy.special.jv(k, b)
                for k in range(-40, 41)
            )
            assert abs(acc - scipy.special.jv(n, a - b)) < 1e-12


# -- instance plumbing --------------------------------------------------------------


def test_instance_validation():
    with pytest.raises(ValueError):
        ProlongationInstance(
            name="mixed-dims",
            L=Operator.identity(2, EXACT),
            M0=Operator.identity(3, EXACT),
            P0=Operator.identity(3, EXACT),
            N=Operator.zero(3, EXACT),
            A=Operator.identity(3, EXACT),
            B=Operator.identity(3, EXACT),
        )


def test_catalog_names_sorted_and_unknown_raises():
    names = catalog_names()
    assert list(names) == sorted(names)
    with pytest.raises(KeyError, match="unknown catalog instance"):
        catalog_instance("unobtainium")


def test_to_float_round_trip_values():
    inst = catalog_instance("nilpotent4")
    fi = inst.to_float()
    assert fi.mode == FLOAT
    assert fi.L.entry(0, 1) == float(inst.L.entry(0, 1))


@pytest.mark.parametrize("name", ["nilpotent4", "heisenberg3"])
def test_to_float_converts_once(name):
    """The float twin is built on the first call and returned on every later
    one; each operator has the bits of a fresh conversion."""
    inst = catalog_instance(name)
    fi = inst.to_float()
    assert inst.to_float() is fi and fi.to_float() is fi
    for k in prolong.OPERATORS:
        fresh = getattr(inst, k).to_float()
        assert getattr(fi, k).data.tobytes() == fresh.data.tobytes(), k
