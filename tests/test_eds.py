"""Exterior system: wedge algebra, closure witnesses, pullback, constraints."""
import math
import random
from fractions import Fraction

import pytest

from heavenlab import eds
from heavenlab.eds import (
    BASE_RING,
    DifferentialForm,
    _solve_exact,
    Ring,
    Section,
    base_ideal,
    check_proposition1,
    closure_check,
    constraint_residuals,
    ext_d,
    form_from_wedge,
    ideal_membership,
    one_form,
    parse_polynomial,
    random_section,
    wedge,
)
from heavenlab.opcore import Operator
from heavenlab.prolong import catalog_instance

R = BASE_RING


def _random_form(rng: random.Random, ring: Ring, degree: int) -> DifferentialForm:
    form = DifferentialForm.zero(ring, degree)
    for _ in range(3):
        w = tuple(rng.sample(ring.coords, degree))
        powers = {}
        for v in (rng.choice(ring.coords) for _ in range(rng.randint(0, 2))):
            powers[v] = powers.get(v, 0) + 1
        c = ring.monomial(
            powers, rng.choice((-1, 0, 1)), Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        )
        if degree == 0:
            form = form + c
        else:
            form = form + form_from_wedge(ring, w, c)
    return form


def _random_system(rng: random.Random):
    n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 9)
    rows = []
    for _ in range(n_rows):
        cols = rng.sample(range(n_cols), rng.randint(0, min(n_cols, 4)))
        row = {c: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for c in cols}
        rows.append({c: v for c, v in row.items() if v})
    if n_rows > 1 and rng.random() < 0.4:
        # a combination of two rows, so rank deficiency is common
        a, b = rng.sample(range(n_rows), 2)
        comb = dict(rows[a])
        for c, v in rows[b].items():
            comb[c] = comb.get(c, Fraction(0)) + 2 * v
        rows.append({c: v for c, v in comb.items() if v})
    if rng.random() < 0.5:
        # right-hand side in the column space, so the system is consistent
        x = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n_cols)]
        rhs = [sum((v * x[c] for c, v in row.items()), Fraction(0)) for row in rows]
    else:
        rhs = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in rows]
    return rows, rhs, n_cols


# -- wedge algebra -------------------------------------------------------------


def test_wedge_anticommutes_on_one_forms():
    dx, dy = one_form(R, "x"), one_form(R, "y")
    assert wedge(dx, dy) == -wedge(dy, dx)
    assert wedge(dx, dx).is_zero()


def test_wedge_written_order_normalizes():
    assert form_from_wedge(R, ("z", "x", "y")) == form_from_wedge(R, ("x", "y", "z"))
    assert form_from_wedge(R, ("y", "x")) == form_from_wedge(R, ("x", "y")).scale(-1)
    assert form_from_wedge(R, ("x", "x")).is_zero()


def test_wedge_associative_random():
    rng = random.Random(17)
    for _ in range(25):
        a = _random_form(rng, R, 1)
        b = _random_form(rng, R, 1)
        c = _random_form(rng, R, 2)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_graded_commutativity():
    rng = random.Random(18)
    for da, db in ((1, 1), (1, 2), (2, 2), (2, 3)):
        a = _random_form(rng, R, da)
        b = _random_form(rng, R, db)
        sign = -1 if (da * db) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_d_squared_is_zero():
    rng = random.Random(19)
    for _ in range(100):
        form = _random_form(rng, R, rng.randint(0, 2))
        assert ext_d(ext_d(form)).is_zero()


def test_d_leibniz_rule():
    # d(a ^ b) = da ^ b + (-1)^|a| a ^ db
    rng = random.Random(20)
    for _ in range(25):
        a = _random_form(rng, R, 1)
        b = _random_form(rng, R, 2)
        lhs = ext_d(wedge(a, b))
        rhs = wedge(ext_d(a), b) - wedge(a, ext_d(b))
        assert (lhs - rhs).is_zero()


def test_exponential_derivative_rule():
    # d(e^-u) = -e^-u du on the base ring
    c0 = R.exp(-1)
    assert ext_d(c0) == one_form(R, "u", R.exp(-1).scale(-1))


def test_coefficient_arithmetic_and_diff():
    x, u = R.var("x"), R.var("u")
    c = (x + u) * (x - u)
    assert c == x * x - u * u
    assert c.diff("x") == x.scale(2)
    e2 = R.exp(2)
    assert (e2 * x).diff("u") == (e2 * x).scale(2)


def test_rings_do_not_mix():
    other = Ring(("x", "y"))
    with pytest.raises(ValueError):
        R.var("x") + other.var("x")


# -- the four generators ---------------------------------------------------------


def test_base_ideal_frozen_shape():
    th1, th2, th3, th4 = base_ideal()
    assert th1 == form_from_wedge(R, ("u", "x", "y")) - form_from_wedge(
        R, ("x", "y", "z"), R.var("r")
    )
    assert th2 == form_from_wedge(R, ("u", "y", "z")) - form_from_wedge(
        R, ("x", "y", "z"), R.var("p")
    )
    assert th3 == form_from_wedge(R, ("u", "x", "z")) + form_from_wedge(
        R, ("x", "y", "z"), R.var("q")
    )
    exp_u = R.exp(1)
    assert th4 == (
        form_from_wedge(R, ("p", "y", "z"))
        - form_from_wedge(R, ("q", "x", "z"))
        + form_from_wedge(R, ("r", "x", "y"), exp_u)
        + form_from_wedge(R, ("x", "y", "z"), exp_u * R.var("r", 2))
    )


def test_closure_hand_witnesses():
    """d theta_i = sigma ^ theta_4 for i = 1..3; d theta_4 splits over theta_1."""
    th1, th2, th3, th4 = base_ideal()
    for th, sigma in (
        (th1, one_form(R, "z", R.exp(-1))),
        (th2, one_form(R, "x")),
        (th3, one_form(R, "y").scale(-1)),
    ):
        assert (ext_d(th) - wedge(sigma, th4)).is_zero()
    s1 = one_form(R, "u", (R.var("r") * R.exp(1)).scale(-1)) + one_form(
        R, "r", R.exp(1).scale(-1)
    )
    s4 = one_form(R, "z", R.var("r").scale(-1))
    assert (ext_d(th4) - wedge(s1, th1) - wedge(s4, th4)).is_zero()


def test_closure_check_finds_all_witnesses():
    rep = closure_check()
    assert rep.all_passed()
    degs = {r.check_id: r.detail for r in rep.records}
    assert "degree 0" in degs["dtheta1-membership"]
    assert "degree 1" in degs["dtheta4-membership"]


def test_closure_check_without_witness_is_inconclusive():
    # d theta4 needs multiplier degree 1, so a cap of 0 exhausts its ladder
    rep = closure_check(cap=0)
    by_id = {r.check_id: r for r in rep.records}
    for i in (1, 2, 3):
        r = by_id[f"dtheta{i}-membership"]
        assert r.verdict == "pass" and r.detail == "witness verified at multiplier degree 0"
    r4 = by_id["dtheta4-membership"]
    assert r4.verdict == "info" and r4.residual == 4.0
    assert r4.detail == "inconclusive: no witness up to degree 0"
    assert rep.all_passed()


# -- ideal membership solver ------------------------------------------------------


def test_solve_exact_random_sparse_systems_against_sympy_rank():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    consistent = 0
    for _ in range(120):
        rows, rhs, n_cols = _random_system(rng)
        sol = _solve_exact(rows, rhs)
        A = sympy.Matrix(
            [[sympy.Rational(str(row.get(c, 0))) for c in range(n_cols)] for row in rows]
        )
        b = sympy.Matrix([sympy.Rational(str(v)) for v in rhs])
        solvable = A.rank() == A.row_join(b).rank()
        assert (sol is not None) == solvable
        if sol is not None:
            consistent += 1
            for row, v in zip(rows, rhs):
                assert sum((x * sol.get(c, 0) for c, x in row.items()), Fraction(0)) == v
    assert 40 < consistent < 100


def test_membership_finds_and_verifies_simple_case():
    th = base_ideal()
    target = wedge(one_form(R, "z"), th[0])
    w = ideal_membership(target, th, multiplier_degree=1)
    assert w is not None
    acc = DifferentialForm.zero(R, 4)
    for sigma, g in zip(w.multipliers, th):
        acc = acc + wedge(sigma, g)
    assert (acc - target).is_zero()


def test_membership_found_with_full_ideal_but_not_theta1_alone():
    th = base_ideal()
    target = form_from_wedge(R, ("x", "y", "z", "p"))
    found = ideal_membership(target, th, multiplier_degree=2)
    assert found is not None
    # the true cofactor against theta1 alone would need 1/r: bounded search fails
    assert ideal_membership(target, [th[0]], multiplier_degree=3) is None


def test_membership_zero_degree_gap():
    th1 = base_ideal()[0]
    target = th1 * R.var("p")
    w = ideal_membership(target, [th1], multiplier_degree=1)
    assert w is not None
    assert w.multipliers[0].degree == 0


def test_membership_rejects_large_degree_gap():
    th1 = base_ideal()[0]
    five_form = wedge(form_from_wedge(R, ("p", "q")), th1)  # degree 5: gap of 2
    with pytest.raises(ValueError, match="degree gap"):
        ideal_membership(five_form, [th1], multiplier_degree=1)


# -- pullback along jet sections ----------------------------------------------------


def test_proposition1_zero_section():
    rep = check_proposition1(Section({"1": "0"}))
    assert rep.all_passed()


def test_proposition1_harmonic_and_generic_sections():
    for spec in ({"x^2": 1, "y^2": -1}, {"x^2": 1}, {"x*y*z": "1/2", "z^2": "-1"}):
        rep = check_proposition1(Section(spec))
        assert rep.all_passed(), spec


def test_proposition1_random_sections():
    rng = random.Random(2026)
    for _ in range(10):
        rep = check_proposition1(random_section(rng))
        assert rep.all_passed()


def test_proposition1_residual_below_float_range_still_fails(monkeypatch):
    # theta1 + 1e-400 dx^dy^dz pulls back to a residual whose l1 norm rounds
    # to 0.0 as a float; it must still fail its bound of 0
    thetas = base_ideal()
    tiny = form_from_wedge(R, ("x", "y", "z"), Fraction("1e-400"))
    monkeypatch.setattr(eds, "base_ideal", lambda: (thetas[0] + tiny,) + thetas[1:])
    rep = check_proposition1(Section({"x^2": 1}))
    by_id = {r.check_id: r for r in rep.records}
    assert by_id["theta1-pullback"].failed()
    assert by_id["theta1-pullback"].residual == math.ulp(0.0)
    assert not any(by_id[f"theta{i}-pullback"].failed() for i in (2, 3, 4))


def test_pullback_commutes_with_d():
    sec = Section({"x^2": 1, "y*z": "1/3"})
    for th in base_ideal():
        assert (sec.pullback(ext_d(th)) - ext_d(sec.pullback(th))).is_zero()


def test_pullback_heavenly_coefficient_example():
    # f = x^2: f_xx = 2, everything else 0: theta4 pulls to 2 dx^dy^dz
    sec = Section({"x^2": 1})
    pulled = sec.pullback(base_ideal()[3])
    want = form_from_wedge(sec.ring, ("x", "y", "z"), sec.ring.const(2))
    assert (pulled - want).is_zero()


def test_pullback_rejects_pseudopotential_forms():
    ring = Ring((*BASE_RING.coords, "xi1", "xi2"))
    sec = Section({"x": 1})
    bad = one_form(ring, "xi1")
    with pytest.raises(ValueError):
        sec.pullback(bad)


def test_parse_polynomial_round_trip():
    ring3 = Ring(("x", "y", "z"))
    pp = parse_polynomial({"x^2*y": "3/2", "1": 2, "z": "-1/3"}, ring3)
    want = (
        ring3.monomial({"x": 2, "y": 1}, 0, Fraction(3, 2))
        + ring3.const(2)
        + ring3.var("z").scale(Fraction(-1, 3))
    )
    assert pp == want


# -- constraints ---------------------------------------------------------------------


def test_constraint_residuals_heisenberg_all_zero():
    rep = constraint_residuals(catalog_instance("heisenberg3"))
    assert rep.all_passed()
    required = [r for r in rep.records if r.verdict != "info"]
    assert all(r.residual == 0.0 for r in required)


def test_constraint_residuals_diag2():
    rep = constraint_residuals(catalog_instance("diag2"))
    assert rep.all_passed(), rep.failed_records()


def test_constraint_residuals_expected_fail():
    rep = constraint_residuals(catalog_instance("expected-fail2"))
    failed = {r.check_id for r in rep.failed_records()}
    assert failed == {"structure-equation"}


def test_constraint_residuals_singular_B():
    inst = catalog_instance("heisenberg3")
    bad = type(inst)(
        name="singularB",
        L=inst.L,
        M0=inst.M0,
        P0=inst.P0,
        N=inst.N,
        A=inst.A,
        B=Operator.zero(3, "exact"),
    )
    with pytest.raises(ValueError, match="singular B"):
        constraint_residuals(bad)


def test_spectral_residuals_reported_as_info():
    rep = constraint_residuals(catalog_instance("heisenberg3"))
    info = {r.check_id for r in rep.records if r.verdict == "info"}
    assert info == {"spectral-linear", "spectral-quadratic"}
