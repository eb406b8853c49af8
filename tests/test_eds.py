"""Exterior system: wedge algebra, closure witnesses, pullback, constraints."""
import heapq
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from heavenlab import eds
from heavenlab.eds import (
    BASE_RING,
    DifferentialForm,
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
)
from heavenlab.opcore import (
    EPS,
    FLOAT,
    NonFiniteError,
    Operator,
    as_coeff,
    commutator,
    eliminate,
    frobenius,
)
from heavenlab.prolong import (
    ProlongationInstance,
    catalog_instance,
    catalog_names,
    eval_at_u,
    solution_cal_form,
)

from _helpers import random_rational_operator

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
    assert dx * dy == -(dy * dx)
    assert (dx * dx).is_zero()


def test_wedge_written_order_normalizes():
    assert form_from_wedge(R, ("z", "x", "y")) == form_from_wedge(R, ("x", "y", "z"))
    assert form_from_wedge(R, ("y", "x")) == R.const(-1) * form_from_wedge(R, ("x", "y"))
    assert form_from_wedge(R, ("x", "x")).is_zero()


def test_wedge_associative_random():
    rng = random.Random(17)
    for _ in range(25):
        a = _random_form(rng, R, 1)
        b = _random_form(rng, R, 1)
        c = _random_form(rng, R, 2)
        assert (a * b) * c == a * (b * c)


def test_wedge_graded_commutativity():
    rng = random.Random(18)
    for da, db in ((1, 1), (1, 2), (2, 2), (2, 3)):
        a = _random_form(rng, R, da)
        b = _random_form(rng, R, db)
        sign = -1 if (da * db) % 2 else 1
        assert a * b == R.const(sign) * (b * a)


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
        lhs = ext_d(a * b)
        rhs = ext_d(a) * b - a * ext_d(b)
        assert (lhs - rhs).is_zero()


def test_exponential_derivative_rule():
    # d(e^-u) = -e^-u du on the base ring
    c0 = R.exp(-1)
    assert ext_d(c0) == R.const(-1) * R.exp(-1) * one_form(R, "u")


def test_coefficient_arithmetic_and_diff():
    x, u = R.var("x"), R.var("u")
    c = (x + u) * (x - u)
    assert c == x * x - u * u
    assert c.diff("x") == R.const(2) * x
    e2 = R.exp(2)
    assert (e2 * x).diff("u") == R.const(2) * (e2 * x)


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
        (th1, R.exp(-1) * one_form(R, "z")),
        (th2, one_form(R, "x")),
        (th3, R.const(-1) * one_form(R, "y")),
    ):
        assert (ext_d(th) - sigma * th4).is_zero()
    s1 = (
        R.const(-1) * (R.var("r") * R.exp(1)) * one_form(R, "u")
        + R.const(-1) * R.exp(1) * one_form(R, "r")
    )
    s4 = R.const(-1) * R.var("r") * one_form(R, "z")
    assert (ext_d(th4) - s1 * th1 - s4 * th4).is_zero()


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


def _assert_coefficients(values) -> None:
    """Every coefficient is an int, or a Fraction that is not integral."""
    for c in values:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_form_coefficients_are_int_or_fraction():
    rng = random.Random(21)
    forms = [_random_form(rng, R, d) for d in (0, 1, 1, 2) for _ in range(15)]
    forms += [R.const(c) for c in (2, Fraction(4, 2), 1.5, "-3/6", 0.25, 0)]
    forms += list(base_ideal())
    out = []
    for a, b in zip(forms, forms[1:]):
        scaled = (R.const(Fraction(2, 3)) * a) * (R.const(3) * b)
        out += [a * b, ext_d(a), a.diff("u"), a.diff("x"), scaled]
        if a.degree == b.degree:
            out += [a + b, a - b, a + R.const(-1) * b]
    sec = Section({"x^2": "1/2", "y*z": 3, "z": "-2/3"})
    out += [sec.pullback(th) for th in base_ideal()] + [sec.pullback(ext_d(f)) for f in forms]
    for form in forms + out:
        _assert_coefficients(form.terms.values())
        assert all(form.terms.values()), "a zero coefficient is stored"
    # the ideal is integral, and so are the exterior derivatives of its generators
    for th in base_ideal():
        assert all(type(c) is int for c in ext_d(th).terms.values())
    assert type(R.const(1.5).l1()) is Fraction and R.const(Fraction(4, 2)).l1() == 2


def _integer_system(rng: random.Random):
    """An int system with a solution in the integers, so it stays int."""
    n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 9)
    rows = []
    for _ in range(n_rows):
        cols = rng.sample(range(n_cols), rng.randint(0, min(n_cols, 4)))
        rows.append({c: v for c in cols if (v := rng.choice((-2, -1, 1, 2)))})
    x = [rng.randint(-2, 2) for _ in range(n_cols)]
    rhs = [sum(v * x[c] for c, v in row.items()) for row in rows]
    if rng.random() < 0.3:
        rhs = [v + rng.randint(0, 1) for v in rhs]
    return rows, rhs, n_cols


def test_eliminate_coefficients_int_or_fraction_against_sympy_rank():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261019)
    solved = {"integer": 0, "rational": 0}
    for kind, make in (("integer", _integer_system), ("rational", _random_system)):
        for _ in range(80):
            rows, rhs, n_cols = make(rng)
            elim = eliminate(rows)
            sol = elim.solve(rhs)
            A = sympy.Matrix(
                [[sympy.Rational(str(row.get(c, 0))) for c in range(n_cols)] for row in rows]
            )
            b = sympy.Matrix([sympy.Rational(str(v)) for v in rhs])
            assert elim.rank == A.rank()
            assert (sol is not None) == (A.rank() == A.row_join(b).rank())
            if sol is None:
                continue
            solved[kind] += 1
            _assert_coefficients(sol.values())
            for row, v in zip(rows, rhs):
                assert sum(x * sol.get(c, 0) for c, x in row.items()) == v
    assert solved["integer"] > 20 and solved["rational"] > 20
    # the closure systems are integral: every witness multiplier is an int
    for th in base_ideal():
        w = ideal_membership(ext_d(th), base_ideal(), multiplier_degree=1)
        assert all(type(c) is int for sigma in w for c in sigma.terms.values())


def test_eliminate_random_sparse_systems_against_sympy_rank():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    consistent = 0
    for _ in range(120):
        rows, rhs, n_cols = _random_system(rng)
        elim = eliminate(rows)
        sol = elim.solve(rhs)
        A = sympy.Matrix(
            [[sympy.Rational(str(row.get(c, 0))) for c in range(n_cols)] for row in rows]
        )
        b = sympy.Matrix([sympy.Rational(str(v)) for v in rhs])
        assert elim.rank == A.rank()
        solvable = A.rank() == A.row_join(b).rank()
        assert (sol is not None) == solvable
        if sol is not None:
            consistent += 1
            for row, v in zip(rows, rhs):
                assert sum((x * sol.get(c, 0) for c, x in row.items()), Fraction(0)) == v
    assert 40 < consistent < 100


def test_membership_finds_and_verifies_simple_case():
    th = base_ideal()
    target = one_form(R, "z") * th[0]
    w = ideal_membership(target, th, multiplier_degree=1)
    assert w is not None
    acc = DifferentialForm.zero(R, 4)
    for sigma, g in zip(w, th):
        acc = acc + sigma * g
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
    assert w[0].degree == 0


def test_membership_rejects_large_degree_gap():
    th1 = base_ideal()[0]
    five_form = form_from_wedge(R, ("p", "q")) * th1  # degree 5: gap of 2
    with pytest.raises(ValueError, match="degree gap"):
        ideal_membership(five_form, [th1], multiplier_degree=1)


# -- pullback along jet sections ----------------------------------------------------


def test_section_reads_a_float_coefficient_as_ring_monomial_does():
    # its exact binary value, not the decimal its str prints; each Section has
    # a ring of its own, so the terms are compared
    assert Section({"x*z": 0.1}).f.terms == Section({"x*z": Fraction(0.1)}).f.terms


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
        + ring3.const(Fraction(-1, 3)) * ring3.var("z")
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


def _hfg_per_slope(fi, at, ux, uy, uz):
    """The prolongation ansatz at one slope triple, written out with Operator
    arithmetic: H = e^u u_z L + P, F = -u_y L + N, G = u_x L + M."""
    L = fi.L
    return L.scale(at.exp_u * uz) + at.P, L.scale(-uy) + fi.N, L.scale(ux) + at.M


# the per-slope route of constraint_residuals, one Operator per matrix: the
# reference that the slope-grid arrays must reproduce bit for bit.  It returns
# the worst sample of each check, and every residual in the order the grid
# computes them: per u, the 8 slope-derivative norms, then the
# structure-equation, spectral-linear and spectral-quadratic norms at the 27
# slopes
def _per_slope_constraints(inst, u_samples, D=16):
    fi = inst.to_float()
    L, nL = fi.L, frobenius(fi.L)
    worst, samples = {}, []

    def record_sample(cid, residual, bound, where):
        prev = worst.get(cid)
        if prev is None or residual - bound > prev[0] - prev[1]:
            worst[cid] = (residual, bound, where)

    Binv = Operator.from_rows(np.linalg.inv(fi.B.data), FLOAT)
    sol = solution_cal_form(fi, D)
    for u in u_samples:
        at = eval_at_u(fi, sol, u)
        eu = at.exp_u
        rough = 64.0 * EPS * (D + 2) * max(1.0, nL) ** 2 * max(
            1.0, frobenius(at.P) + frobenius(at.M) + frobenius(fi.N) + 1.0
        ) * max(1.0, at.t) ** D
        H0, F0, G0 = _hfg_per_slope(fi, at, 0.0, 0.0, 0.0)
        Hx, Fx, Gx = _hfg_per_slope(fi, at, 1.0, 0.0, 0.0)
        Hy, Fy, Gy = _hfg_per_slope(fi, at, 0.0, 1.0, 0.0)
        Hz, Fz, Gz = _hfg_per_slope(fi, at, 0.0, 0.0, 1.0)
        H_ux, H_uy, H_uz = Hx - H0, Hy - H0, Hz - H0
        F_ux, F_uy, F_uz = Fx - F0, Fy - F0, Fz - F0
        G_ux, G_uy, G_uz = Gx - G0, Gy - G0, Gz - G0
        fd, grid = [], ([], [], [])
        samples += [fd, *grid]
        for cid, mat in (("coupled-H", H_uz - G_ux.scale(eu)), ("coupled-F", F_uy + G_ux),
                         ("vanishing-H_ux", H_ux), ("vanishing-H_uy", H_uy),
                         ("vanishing-F_ux", F_ux), ("vanishing-F_uz", F_uz),
                         ("vanishing-G_uy", G_uy), ("vanishing-G_uz", G_uz)):
            fd.append(frobenius(mat))
            record_sample(cid, fd[-1], rough, f"u={u:g}")
        b1, b2, b3 = at.structure_bounds(nL, rough)
        for ux in (-1.0, 0.0, 1.0):
            for uy in (-1.0, 0.0, 1.0):
                for uz in (-1.0, 0.0, 1.0):
                    H, Fm, G = _hfg_per_slope(fi, at, ux, uy, uz)
                    Hu = L.scale(eu * uz) + at.Pu
                    Fu = Operator.zero(fi.dim, FLOAT)
                    struct = (Hu.scale(uz) - Fu.scale(uy) + at.Mu.scale(ux)
                              - G_ux.scale(eu * uz * uz) + commutator(G, H))
                    bound = 10.0 * (abs(uz) * b1 + abs(ux) * b2 + b3) + rough
                    where = f"u={u:g},slopes=({ux:g},{uy:g},{uz:g})"
                    spec1 = Fm - G @ fi.A - H @ fi.B
                    spec2 = Fm @ Binv @ G - G @ Binv @ Fm
                    for cid, mat, b, out in (("structure-equation", struct, bound, grid[0]),
                                             ("spectral-linear", spec1, -1.0, grid[1]),
                                             ("spectral-quadratic", spec2, -1.0, grid[2])):
                        out.append(frobenius(mat))
                        record_sample(cid, out[-1], b, where)
    record_sample("AB-commute", frobenius(commutator(fi.A, fi.B)), 64 * EPS * max(
        1.0, frobenius(fi.A) * frobenius(fi.B)), "initial data")
    return worst, samples


def _outcome(fn):
    """What a run gives: its value, or the type and message it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn()
    except (NonFiniteError, OverflowError) as e:
        return (type(e), str(e))


def _assert_same_as_per_slope(monkeypatch, inst, u_samples):
    seen = []
    norms = eds.frobenius_stack
    monkeypatch.setattr(
        eds, "frobenius_stack", lambda stack: seen.append(norms(stack)) or seen[-1]
    )
    want = _outcome(lambda: _per_slope_constraints(inst, u_samples))
    got = _outcome(lambda: constraint_residuals(inst, u_samples))
    if not isinstance(got, eds.VerificationReport):
        assert got == want, (inst.name, u_samples)
        return
    want, samples = want
    hexes = lambda runs: [[float(x).hex() for x in run] for run in runs]
    assert hexes(seen) == hexes(samples), (inst.name, u_samples)
    assert {r.check_id for r in got.records} == set(want)
    for r in got.records:
        residual, bound, where = want[r.check_id]
        assert r.residual.hex() == float(residual).hex(), (inst.name, r.check_id)
        assert r.detail == where, (inst.name, r.check_id)
        if r.verdict != "info":
            assert r.bound.hex() == float(bound).hex(), (inst.name, r.check_id)


@pytest.mark.parametrize("name", catalog_names())
def test_constraint_grid_equals_per_slope_route_on_catalog(monkeypatch, name):
    inst = catalog_instance(name)
    for mode_inst in (inst, inst.to_float()):
        _assert_same_as_per_slope(monkeypatch, mode_inst, (-2.0, -1.0, 0.0))
        _assert_same_as_per_slope(monkeypatch, mode_inst, (-0.5, 0.75, 1.5))
    # near and past the float range: the same values, or the same breakdown
    for u in (60.0, 75.0, 80.0, 90.0, 100.0, 800.0):
        _assert_same_as_per_slope(monkeypatch, inst, (u,))


def test_constraint_grid_equals_per_slope_route_on_random_instances(monkeypatch):
    rng = random.Random(1913)
    tried = 0
    while tried < 12:
        n = rng.choice((2, 3, 4))
        L, M0, N, A, B = (random_rational_operator(rng, n) for _ in range(5))
        if abs(np.linalg.det(B.to_float().data)) < 1e-3:
            continue
        tried += 1
        # P0 = M0 meets the coupling precondition [L, P0] = [L, M0]
        inst = ProlongationInstance(f"random{tried}", L, M0, M0, N, A, B)
        u_samples = tuple(rng.uniform(-3.0, 2.0) for _ in range(3))
        _assert_same_as_per_slope(monkeypatch, inst, u_samples)


def _hexes(arr):
    return [float(x).hex() for x in np.asarray(arr).ravel()]


def _assert_hfg_grid_is_per_slope_formula(inst, u_samples):
    """SolutionAt.hfg over the slope grid, and at each scalar slope triple,
    gives the bits of the ansatz written out per slope."""
    fi = inst.to_float()
    sol = solution_cal_form(fi, 16)
    for u in u_samples:
        at = eval_at_u(fi, sol, u)
        grid = at.hfg(fi, eds._UX, eds._UY, eds._UZ)
        assert all(X.shape == (len(eds._GRID), fi.dim, fi.dim) for X in grid)
        for k, slopes in enumerate(eds._GRID):
            want = _hfg_per_slope(fi, at, *slopes)
            for X, x, w in zip(grid, at.hfg(fi, *slopes), want):
                assert _hexes(X[k]) == _hexes(w.data), (inst.name, u, slopes)
                assert _hexes(x) == _hexes(w.data), (inst.name, u, slopes)


@pytest.mark.parametrize("name", catalog_names())
def test_hfg_on_slope_grid_is_the_per_slope_formula_on_catalog(name):
    _assert_hfg_grid_is_per_slope_formula(catalog_instance(name), (-2.0, -0.5, 0.0, 1.5))


def test_hfg_on_slope_grid_is_the_per_slope_formula_on_random_instances():
    rng = random.Random(2113)
    for i in range(12):
        n = rng.choice((2, 3, 4))
        L, M0, N, A, B = (random_rational_operator(rng, n) for _ in range(5))
        # P0 = M0 meets the coupling precondition; hfg reads neither A nor B
        inst = ProlongationInstance(f"random{i}", L, M0, M0, N, A, B)
        _assert_hfg_grid_is_per_slope_formula(
            inst, tuple(rng.uniform(-3.0, 2.0) for _ in range(3))
        )


# -- shared membership systems -----------------------------------------------------


def _one_pass_solve(rows, rhs):
    """The elimination with the right-hand side carried along, in one pass:
    the reference for `eliminate` and `Elimination.solve`, its two passes.
    Each division is as_coeff(Fraction(a, b)), the value and type of the
    eliminator's own exact quotient."""
    work = [({k: x for k, x in row.items() if x}, v) for row, v in zip(rows, rhs)]
    col_rows = {}
    for ridx, (row, _) in enumerate(work):
        for k in row:
            col_rows.setdefault(k, set()).add(ridx)
    heap = [(len(row), ridx) for ridx, (row, _) in enumerate(work) if row]
    heapq.heapify(heap)
    active = [True] * len(work)
    order = []
    while heap:
        length, best = heapq.heappop(heap)
        row, val = work[best]
        if not active[best] or len(row) != length:
            continue
        active[best] = False
        piv = min(row)
        a = row[piv]
        for k in row:
            col_rows[k].discard(best)
        for ridx in col_rows.pop(piv):
            r2, v2 = work[ridx]
            f = as_coeff(Fraction(r2.pop(piv), a))
            for k, x in row.items():
                if k == piv:
                    continue
                nx = as_coeff(r2.get(k, 0) - f * x)
                if nx:
                    r2[k] = nx
                    col_rows.setdefault(k, set()).add(ridx)
                elif k in r2:
                    del r2[k]
                    col_rows[k].discard(ridx)
            work[ridx] = (r2, as_coeff(v2 - f * val))
            if r2:
                heapq.heappush(heap, (len(r2), ridx))
        order.append((piv, row, val))
    if any(active[ridx] and val for ridx, (_, val) in enumerate(work)):
        return None
    solution = {}
    for piv, row, val in reversed(order):
        acc = val - sum(x * solution[k] for k, x in row.items() if k in solution)
        solution[piv] = as_coeff(Fraction(acc, row[piv]))
    return solution


def test_two_pass_solve_equals_one_pass_on_random_sparse_systems():
    """Same solutions, value and type, and the same None; and one
    elimination serves several right-hand sides."""
    rng = random.Random(20261020)
    for make in (_integer_system, _random_system):
        for _ in range(150):
            rows, rhs, n_cols = make(rng)
            want = _one_pass_solve(rows, rhs)
            elim = eliminate(rows)
            got = elim.solve(rhs)
            assert got == want
            if got is not None:
                assert {c: type(v) for c, v in got.items()} == {c: type(v) for c, v in want.items()}
            for _ in range(3):
                other = [rng.randint(-2, 2) * rng.randint(0, 1) for _ in rows]
                assert elim.solve(other) == _one_pass_solve(rows, other)


def test_shared_workspace_gives_the_same_witnesses():
    """ideal_membership with one workspace for every target returns the
    witnesses it returns alone, for each d theta_i at each degree."""
    thetas = base_ideal()
    workspace = eds.MembershipWorkspace(thetas)
    for deg in (0, 1):
        for th in thetas:
            target = ext_d(th)
            alone = ideal_membership(target, thetas, multiplier_degree=deg)
            shared = ideal_membership(target, thetas, multiplier_degree=deg, workspace=workspace)
            assert (alone is None) == (shared is None)
            if alone is not None:
                assert all(a.terms == b.terms for a, b in zip(alone, shared))
    with pytest.raises(ValueError, match="other generators"):
        ideal_membership(ext_d(thetas[0]), thetas[:2], multiplier_degree=1, workspace=workspace)


def test_closure_check_builds_each_product_and_system_once(monkeypatch):
    """closure_check(3) makes 6 searches over 4 distinct systems: 4
    eliminations, and each dv ^ theta_j expanded once."""
    eliminations, products = [], []
    product = eds.MembershipWorkspace._product

    def counting_product(self, j, dw):
        if (j, dw) not in self._products:
            products.append((j, dw))
        return product(self, j, dw)

    monkeypatch.setattr(eds, "eliminate", lambda rows: eliminations.append(1) or eliminate(rows))
    monkeypatch.setattr(eds.MembershipWorkspace, "_product", counting_product)
    report = closure_check(3)
    assert [r.verdict for r in report.records] == ["pass"] * 4
    assert len(eliminations) == 4
    assert len(products) == len(set(products)) == 4 * len(BASE_RING.coords)
