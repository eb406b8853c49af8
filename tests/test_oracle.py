"""The cal form against true values that share no code with the lab.

`oracle` sums M(t) = J_0(t ad_L)[M0] and P(t) = (t/2) J_1(t ad_L)[P0] in
closed form where M0 and P0 are eigenvectors of ad_L, with mpmath's Bessel
functions, and as finite Fraction sums where the towers of M0 and P0 end.  At
each u, the float P and M of `eval_at_u` must lie within their reported tails
of those values, plus a roundoff allowance: where the tail is below the float
spacing of the value, as on explicit-diagonalizable3 at D = 32 and u <= -1,
even a correctly rounded sum is farther from the true value than the tail.
Where the towers end, the exact cal form at a rational t is the finite sum.
"""
import ast
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import oracle
from heavenlab.besselop import series_eval
from heavenlab.opcore import EPS, EXACT, Operator, frobenius
from heavenlab.prolong import catalog_instance, eval_at_u, make_instance, solution_cal_form
from perfbench.workloads import DENSE_DIMS, dense_operators

# the explicit-operator instance of the golden reports: ad_L[M0] = M0 / 2
DIAGONALIZABLE3 = {
    "L": [[1, 1, 0], [0, -1, 0], [0, 0, "1/2"]],
    "M0": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    "P0": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
}
# the catalog fixtures whose M0 and P0 are eigenvectors of ad_L
ORACLE_CATALOG = ("commuting2", "diag2")
# the catalog fixtures whose towers end: ad_L^j[M0] = 0 from this j on (M0 = P0)
ENDED = {"heisenberg3": 2, "nilpotent3": 2, "nilpotent4": 3, "nilpotent5": 4, "nilpotent6": 3}
INSTANCES = {
    "explicit-diagonalizable3": DIAGONALIZABLE3,
    **{name: {k: getattr(catalog_instance(name), k).to_jsonable() for k in ("L", "M0", "P0")}
       for name in (*ORACLE_CATALOG, *ENDED)},
    **{f"dense{n}-seed1": dense_operators(n, 1) for n in DENSE_DIMS},
}
U_SAMPLES = (-2, -1, 0, 1)


def _distance(got: Operator, want: list[list]) -> mpmath.mpf:
    """Frobenius distance of a float operator from rows of mpmath numbers,
    each difference of the exact float and the true value rounded once, or
    from rows of Fractions, the sum of squares exact and rounded once."""
    pairs = [(g, w) for grow, wrow in zip(got.data, want) for g, w in zip(grow, wrow)]
    if isinstance(want[0][0], Fraction):
        sq = sum((Fraction(g) - w) ** 2 for g, w in pairs)
        return mpmath.sqrt(mpmath.mpf(sq.numerator) / sq.denominator)
    return mpmath.sqrt(sum((mpmath.mpf(g) - w) ** 2 for g, w in pairs))


def _roundoff(L: Operator, A: Operator, nu: int, t: float, D: int) -> float:
    """(D + 2) n EPS times a bound on the sum of the norms of the float
    terms of J_nu(t ad_L)[A]: ||ad_L^j[A]|| <= (2||L||)^j ||A||, and the
    series of J_nu with every term taken positive is I_nu."""
    majorant = mpmath.besseli(nu, 2 * t * frobenius(L)) * frobenius(A)
    return (D + 2) * L.dim * EPS * float(majorant)


def test_oracle_eigenvalues():
    assert oracle.eigenvalue(DIAGONALIZABLE3["L"], DIAGONALIZABLE3["M0"]) == Fraction(1, 2)
    assert oracle.eigenvalue(INSTANCES["diag2"]["L"], INSTANCES["diag2"]["M0"]) == 2
    with pytest.raises(ValueError, match="not an eigenvector"):
        oracle.eigenvalue([[0, 1], [0, 0]], [[0, 0], [1, 0]])


@pytest.mark.parametrize("D", [16, 32])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_float_cal_form_within_its_tails_of_the_true_value(name, D):
    ops = INSTANCES[name]
    truth = oracle.ended_cal_form if name in ENDED else oracle.cal_form
    fi = make_instance(name, **{k: Operator.from_rows(v, EXACT) for k, v in ops.items()}).to_float()
    sol = solution_cal_form(fi, D)
    for u in U_SAMPLES:
        at = eval_at_u(fi, sol, u)
        P, M = truth(ops["L"], ops["M0"], ops["P0"], at.t)
        m_bound = at.m_tail + _roundoff(fi.L, fi.M0, 0, at.t, D)
        p_bound = at.p_tail + at.t / 2 * _roundoff(fi.L, fi.P0, 1, at.t, D - 1)
        assert _distance(at.M, M) <= m_bound, (u, "M")
        assert _distance(at.P, P) <= p_bound, (u, "P")


def test_oracle_towers_end_where_the_fixtures_say():
    for name, r in ENDED.items():
        ops = INSTANCES[name]
        assert len(oracle.tower(ops["L"], ops["M0"])) == len(oracle.tower(ops["L"], ops["P0"])) == r
    with pytest.raises(ValueError, match="does not end"):
        oracle.tower(INSTANCES["diag2"]["L"], INSTANCES["diag2"]["M0"])


# D = 4 is the least degree that holds nilpotent5's P: (t/2) J_1 reaches ad_L^3
@pytest.mark.parametrize("D", [4, 16])
@pytest.mark.parametrize("name", sorted(ENDED))
def test_exact_cal_form_is_the_finite_sum(name, D):
    ops = INSTANCES[name]
    sol = solution_cal_form(catalog_instance(name), D)
    for t in (Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(-2)):
        P, M = oracle.ended_cal_form(ops["L"], ops["M0"], ops["P0"], t)
        assert series_eval(sol.p, t)[0] == Operator.from_rows(P, EXACT), (t, "P")
        assert series_eval(sol.m, t)[0] == Operator.from_rows(M, EXACT), (t, "M")


def test_oracle_imports_nothing_from_the_lab():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module)
    assert imported == {"__future__", "fractions", "mpmath"}
