"""Scenario generator for the heavenlab verify benchmark.

Each workload is a list of scenarios.  A scenario is the JSON document that
`heavenlab verify` reads, plus the check-to-verdict map the generator
predicts for it.  The same seed always gives the same scenarios.

The generator does its own exact arithmetic with `fractions.Fraction` and
never imports heavenlab, so the program under test only ever sees the
generated files.
"""
from __future__ import annotations

import random
from fractions import Fraction

CATALOG = (
    "commuting2",
    "diag2",
    "expected-fail2",
    "heisenberg3",
    "nilpotent3",
    "nilpotent4",
    "nilpotent5",
    "nilpotent6",
)
DENSE_DIMS = (4, 5, 6, 7, 8)
DENSE_DEGREE = 32

# README defaults, which the parser fills in when a key is absent
DEFAULT_T = ("1/2", "1", "2")
DEFAULT_U = (-2, -1, 0)
DEFAULT_K = (-4, 4)
# eds-proposition1 checks 3 built-in sections and 3 seeded random ones
FIXED_SECTIONS = 3
RANDOM_SECTIONS = 3

RELATIONS = (
    "negative_index",
    "recurrence_2k",
    "derivative_diff",
    "positive_derivative",
    "negative_derivative",
)
CONSTRAINT_CHECKS = (
    "AB-commute",
    "coupled-F",
    "coupled-H",
    "structure-equation",
    "vanishing-F_ux",
    "vanishing-F_uz",
    "vanishing-G_uy",
    "vanishing-G_uz",
    "vanishing-H_ux",
    "vanishing-H_uy",
)
INFO_CHECKS = ("eds-constraints/spectral-linear", "eds-constraints/spectral-quadratic")

# expected-fail2 violates [[L, M0], M0] = 0, so these checks fail by design;
# the prolongation check fails once per u sample
EXPECTED_FAILURES = {
    "expected-fail2": (
        "prolongation/commutation",
        "eds-constraints/structure-equation",
        "compatibility/ad-commutation",
    ),
}

# |lambda| values of the dense spectrum, one per dimension slot; the seed
# picks signs and order only, so every seed does the same amount of
# big-rational work (denominators 1..4 all occur, numerators up to 3)
DENSE_SPECTRUM = (
    Fraction(3, 4),
    Fraction(2, 3),
    Fraction(1, 2),
    Fraction(3),
    Fraction(1, 4),
    Fraction(2),
    Fraction(3, 2),
    Fraction(1),
)

# upper limit on the squared Frobenius norm of a dense L
DENSE_NORM2_MAX = 48**2

WORKLOADS = ("exact-dense", "exact-catalog", "float-sweep")


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _unit_triangular(rng: random.Random, n: int, lower: bool):
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (j < i) if lower else (j > i):
                m[i][j] = Fraction(rng.choice((-1, 0, 0, 1)))
    return m


def _unit_triangular_inverse(m, lower: bool):
    """Inverse of a unit triangular matrix by substitution, column by column."""
    n = len(m)
    inv = [[Fraction(0)] * n for _ in range(n)]
    rows = range(n) if lower else range(n - 1, -1, -1)
    for col in range(n):
        for i in rows:
            acc = Fraction(int(i == col))
            ks = range(i) if lower else range(i + 1, n)
            for k in ks:
                acc -= m[i][k] * inv[k][col]
            inv[i][col] = acc
    return inv


def dense_operators(n: int, seed: int) -> dict:
    """L = S Lambda S^-1 and M0 = P0 = S e_01 S^-1, as exact "p/q" rows.

    S = lower * upper with unit diagonals and entries in {-1, 0, 1}, so S is
    unimodular and S^-1 is an integer matrix.  S is redrawn until L has no
    zero entry and a Frobenius norm of at most 48.  Every ad_L^j[M0] equals
    (lambda_0 - lambda_1)^j M0, so every check of every suite holds, while
    the powers of L stay dense and their entries keep growing.
    """
    rng = random.Random(f"dense:{seed}:{n}")
    lam = [x * rng.choice((-1, 1)) for x in DENSE_SPECTRUM[:n]]
    rng.shuffle(lam)
    diag = [[lam[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    while True:
        lo = _unit_triangular(rng, n, lower=True)
        up = _unit_triangular(rng, n, lower=False)
        S = _matmul(lo, up)
        S_inv = _matmul(_unit_triangular_inverse(up, lower=False), _unit_triangular_inverse(lo, lower=True))
        L = _matmul(_matmul(S, diag), S_inv)
        # zero entries make exact products cheaper and large norms make the
        # float majorants loop longer; redrawing until L has neither keeps
        # the work of an instance nearly the same for every seed
        if all(x for row in L for x in row) and sum(x * x for row in L for x in row) <= DENSE_NORM2_MAX:
            break
    e01 = [[Fraction(int((i, j) == (0, 1))) for j in range(n)] for i in range(n)]
    M0 = _matmul(_matmul(S, e01), S_inv)
    rows = lambda m: [[str(x) for x in row] for row in m]
    return {"L": rows(L), "M0": rows(M0), "P0": rows(M0)}


def predicted_verdicts(doc: dict, failing: tuple[str, ...] = ()) -> dict[str, list[str]]:
    """Check-to-verdict map for a scenario that runs all suites.

    Keys are "suite/check_id"; a check that occurs once per u sample maps to
    one verdict per sample, in report order.  Everything passes unless it is
    listed in `failing` or is one of the informational spectral residuals.
    """
    ts = [str(Fraction(t)) for t in doc.get("t_samples", DEFAULT_T)]
    n_u = len(doc.get("u_samples", DEFAULT_U))
    k_lo, k_hi = doc.get("k_range", DEFAULT_K)
    ids: dict[str, int] = {}

    def add(suite: str, check_id: str, times: int = 1) -> None:
        ids[f"{suite}/{check_id}"] = times

    for rel in RELATIONS:
        for k in range(k_lo, k_hi + 1):
            add("bessel-recurrences", f"{rel}[k={k}]")
    for t in ts:
        add("bessel-recurrences", f"sum-rule[t={t}]")
        add("solution-equivalence", f"P-route[t={t}]")
        add("solution-equivalence", f"M-route[t={t}]")
        add("bch", f"bch-M0[t={t}]")
        add("bch", f"bch-P0[t={t}]")
        add("scalar-reduction", f"kappa[t={t}]")
        add("scalar-reduction", f"chi[t={t}]")
    add("ode-residuals", "P2-coefficients")
    add("ode-residuals", "M2-coefficients")
    for cid in ("P_u-equation", "M_u-equation", "commutation"):
        add("prolongation", cid, n_u)
    for cid in ("P(0)=0", "P_t(0)=0", "M(0)=M0", "M_t(0)=0"):
        add("initial-conditions", cid)
    for tag, count in (("fixed", FIXED_SECTIONS), ("random", RANDOM_SECTIONS)):
        for i in range(count):
            for j in range(1, 5):
                add("eds-proposition1", f"{tag}{i}:theta{j}-pullback")
    for i in range(1, 5):
        add("eds-closure", f"dtheta{i}-membership")
    for cid in CONSTRAINT_CHECKS:
        add("eds-constraints", cid)
    for key in INFO_CHECKS:
        ids[key] = 1
    add("compatibility", "coupling")
    add("compatibility", "ad-commutation")

    unknown = set(failing) - set(ids)
    if unknown:
        raise ValueError(f"predicted failures name unknown checks: {sorted(unknown)}")
    out = {}
    for key in sorted(ids):
        verdict = "fail" if key in failing else "info" if key in INFO_CHECKS else "pass"
        out[key] = [verdict] * ids[key]
    return out


def observed_verdicts(report: dict) -> dict[str, list[str]]:
    """The same map, read from a structured report."""
    out: dict[str, list[str]] = {}
    for c in report["checks"]:
        out.setdefault(f"{c['suite']}/{c['check_id']}", []).append(c["verdict"])
    return out


def scenarios(workload: str, seed: int) -> list[tuple[dict, dict]]:
    """(scenario document, predicted verdicts) pairs of one pass, in pass order.

    The catalog scenarios are the README defaults and do not depend on the
    seed; the seed draws the dense instances and the order of the pass.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    mode = "float" if workload == "float-sweep" else "exact"
    docs = []
    if workload != "exact-dense":
        for name in CATALOG:
            docs.append((
                {"name": f"{name}-{mode}", "instance": {"catalog": name}, "mode": mode},
                EXPECTED_FAILURES.get(name, ()),
            ))
    if workload != "exact-catalog":
        for n in DENSE_DIMS:
            docs.append((
                {
                    "name": f"dense{n}-{mode}",
                    "instance": {"name": f"dense{n}", "operators": dense_operators(n, seed)},
                    "mode": mode,
                    "degree": DENSE_DEGREE,
                },
                (),
            ))
    random.Random(f"order:{workload}:{seed}").shuffle(docs)
    return [(doc, predicted_verdicts(doc, failing)) for doc, failing in docs]
