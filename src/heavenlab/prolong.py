"""Closed-form solutions of the prolongation operator ODEs and their checks.

The first-order system coming out of the prolongation structure is

    P_u = e^u [L, M],   M_u = -[L, P],   [M, P] = 0,

with initial data P(0) = 0, P_t(0) = 0, M(0) = M0, M_t(0) = 0 in the variable
t = 2 e^{u/2} (so d/du = (t/2) d/dt).  Eliminating one unknown gives the
Bessel-type operator equations

    P_tt - (1/t) P_t + ad_L^2[P] = 0,
    M_tt + (1/t) M_t + ad_L^2[M] = 0,

whose residuals are formed here in t-multiplied polynomial shape, so nothing
is ever divided by t:

    P-kind: t S'' - S' + t ad_L^2[S]
    M-kind: t S'' + S' + t ad_L^2[S]

Two closed forms are implemented and cross-checked: the adjoint-argument
("cal") form P = (t/2) J_1(t ad_L)[P0], M = J_0(t ad_L)[M0], and the bilateral
("L") form P = (t/2) sum_k J_{k+1}(tL) P0 J_k(tL), M = sum_k J_k(tL) M0 J_k(tL).
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .adjoint import (
    AdjointContext,
    ad_apply,
    ad_tower,
    bch_conjugate,
    bch_remainder_bound,
    bch_series,
)
from .besselop import (
    OperatorSeries,
    bessel_eval,
    bessel_family,
    bessel_series,
    bessel_tail,
    scalar_bessel_majorant,
    series_eval,
)
from .opcore import (
    EPS,
    EXACT,
    FLOAT,
    DimensionMismatchError,
    ModeMismatchError,
    Operator,
    check_finite,
    commutator,
    frobenius,
    mode_scalar,
    powers,
)
from .report import VerificationReport, make_record

# the operators of an instance, in the order of its fields
OPERATORS = ("L", "M0", "P0", "N", "A", "B")


@dataclass(frozen=True)
class ProlongationInstance:
    """One verification instance: L, initial data, and the auxiliary fields.

    N enters the middle 2-form coefficient F = -u_y L + N; A and B are the
    pseudopotential coupling matrices (B must stay invertible where it is
    used).  All operators share mode and dimension.
    """

    name: str
    L: Operator
    M0: Operator
    P0: Operator
    N: Operator
    A: Operator
    B: Operator

    def __post_init__(self) -> None:
        dim, mode = self.L.dim, self.L.mode
        for op in (getattr(self, k) for k in OPERATORS):
            if op.dim != dim:
                raise DimensionMismatchError(f"{self.name}: operator dimensions differ")
            if op.mode != mode:
                raise ModeMismatchError(f"{self.name}: operator modes differ")

    @property
    def dim(self) -> int:
        return self.L.dim

    @property
    def mode(self) -> str:
        return self.L.mode

    def coupling_residual(self) -> Operator:
        """[L, P0] - [L, M0]; zero is required before the cal form applies."""
        return commutator(self.L, self.P0) - commutator(self.L, self.M0)

    def to_float(self) -> "ProlongationInstance":
        """The instance in float mode: itself, or its float twin, converted
        on the first call and kept."""
        if self.mode == FLOAT:
            return self
        return self._float_twin

    @functools.cached_property
    def _float_twin(self) -> "ProlongationInstance":
        return replace(self, **{k: getattr(self, k).to_float() for k in OPERATORS})


def make_instance(name: str, L, M0, P0, N=None, A=None, B=None) -> ProlongationInstance:
    """An exact instance whose N defaults to zero, and A and B to the identity."""
    n = L.dim
    N = Operator.zero(n, EXACT) if N is None else N
    A = Operator.identity(n, EXACT) if A is None else A
    B = Operator.identity(n, EXACT) if B is None else B
    return ProlongationInstance(name, L, M0, P0, N, A, B)


def cal_bessel(ctx: AdjointContext, A: Operator, nu: int, D: int) -> OperatorSeries:
    """J_nu(t ad_L)[A] truncated at degree D, for nu in {0, 1}.

        J_0: sum_m (-1)^m/(m!)^2 (t/2)^{2m} ad_L^{2m}[A]
        J_1: sum_m (-1)^m/(m!(m+1)!) (t/2)^{1+2m} ad_L^{1+2m}[A]
    """
    if nu not in (0, 1):
        raise ValueError("nu must be 0 or 1")
    if D < 0:
        raise ValueError("degree must be >= 0")
    if A.dim != ctx.L.dim or A.mode != ctx.L.mode:
        raise DimensionMismatchError("A incompatible with context")
    s = bessel_family(ad_tower(ctx, A, D), (nu,), D)[0]
    # ||ad_L^j[A]|| <= (2||L||)^j ||A||; the norms are taken when the tail is read
    s.tail_fn = lambda t: frobenius(A) * bessel_tail(t * (2.0 * frobenius(ctx.L)) / 2.0, nu, D)
    return s


class CouplingError(ValueError):
    """[L, P0] != [L, M0], so the cal form does not solve the system.

    Carries the residual norm and the bound it exceeded.
    """

    def __init__(self, name: str, residual: float, bound: float):
        super().__init__(f"coupling condition violated: [L, P0] != [L, M0] on {name}")
        self.residual = residual
        self.bound = bound


class CalSolution(NamedTuple):
    p: OperatorSeries
    m: OperatorSeries
    ctx: AdjointContext


def solution_cal_form(inst: ProlongationInstance, D: int) -> CalSolution:
    """P = (t/2) J_1(t ad_L)[P0], M = J_0(t ad_L)[M0], truncated at degree D.

    Requires the coupling condition [L, P0] = [L, M0]: exactly in exact mode,
    up to a roundoff allowance in float mode.  A violation raises
    `CouplingError`.
    """
    if D < 2:
        raise ValueError("degree must be >= 2")
    resid = inst.coupling_residual()
    if not resid.is_zero():
        residual, bound = frobenius(resid), 0.0
        if inst.mode == FLOAT:
            bound = 64 * EPS * max(
                1.0, frobenius(inst.L) * (frobenius(inst.P0) + frobenius(inst.M0))
            )
        if inst.mode == EXACT or residual > bound:
            raise CouplingError(inst.name, residual, bound)
    ctx = AdjointContext(inst.L)
    p_inner = cal_bessel(ctx, inst.P0, 1, D - 1)
    p = p_inner.shift(1).scale(Fraction(1, 2))
    p.tail_fn = lambda t_abs: 0.5 * t_abs * p_inner.tail_fn(t_abs)
    m = cal_bessel(ctx, inst.M0, 0, D)
    return CalSolution(p=p, m=m, ctx=ctx)


class LFormSolution(NamedTuple):
    p: Operator
    m: Operator
    p_tail: float
    m_tail: float


def solution_L_form(inst: ProlongationInstance, t, K: int, D: int) -> LFormSolution:
    """Bilateral form, truncated at index |k| <= K and series degree D:

        P = (t/2) sum_k J_{k+1}(tL) P0 J_k(tL)
        M = sum_k J_k(tL) M0 J_k(tL)

    Works in either mode (exact mode needs rational t).  The reported tails
    bound the dropped |k| > K block plus the per-index degree truncation,
    using ||J_k(tX)|| <= (r^|k|/|k|!) I_0(2r) style majorants at
    r = |t| ||L|| / 2.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    mode = inst.mode
    t = mode_scalar(t, mode)
    L_powers = powers(inst.L, D)
    # the sums below read index k and k + 1 for -K <= k <= K
    ks = range(-K, K + 2)
    J: dict[int, Operator] = {k: bessel_eval(L_powers, k, t) for k in ks}
    t_abs = abs(float(t))
    r = t_abs * frobenius(inst.L) / 2.0
    # g(k), the J_k norm majorant at r, depends on |k| only: each one once
    by_abs = functools.cache(lambda m: scalar_bessel_majorant(r, m))
    g = lambda k: by_abs(abs(k))
    tau = {k: bessel_tail(r, k, D) for k in ks}

    m_acc = Operator.zero(inst.dim, mode)
    p_acc = Operator.zero(inst.dim, mode)
    for k in range(-K, K + 1):
        m_acc = m_acc + J[k] @ inst.M0 @ J[k]
        p_acc = p_acc + J[k + 1] @ inst.P0 @ J[k]
    p_acc = p_acc.scale(Fraction(1, 2) * t)

    nm0, np0 = frobenius(inst.M0), frobenius(inst.P0)
    # dropped indices |k| > K
    m_tail = nm0 * _pair_tail_outside(g, K, 0)
    p_tail = (t_abs / 2.0) * np0 * _pair_tail_outside(g, K, 1)
    # per-index degree truncation: |J~ J~ - J J| <= g' tau + tau' g + tau tau'
    for k in range(-K, K + 1):
        m_tail += nm0 * (g(k) * tau[k] * 2 + tau[k] * tau[k])
        p_tail += (t_abs / 2.0) * np0 * (
            g(k + 1) * tau[k] + tau[k + 1] * g(k) + tau[k + 1] * tau[k]
        )
    return LFormSolution(p=p_acc, m=m_acc, p_tail=p_tail, m_tail=m_tail)


def _pair_tail_outside(g, K: int, offset: int) -> float:
    """sum_{|k| > K} g(k + offset) g(k) with g(k) the J_k norm majorant."""
    total = 0.0
    for sign in (1, -1):
        k = sign * (K + 1)
        for _ in range(10_000):
            term = g(k + offset) * g(k)
            total += term
            if term == 0.0 or term < 1e-32 * max(total, 1e-300):
                break
            k += sign
    return total


def ode_residual(S: OperatorSeries, kind: str, ctx: AdjointContext) -> OperatorSeries:
    """Residual series of the t-multiplied operator Bessel equation.

        kind "P2": t S'' - S' + t ad_L^2[S]
        kind "M2": t S'' + S' + t ad_L^2[S]

    For input degree D the returned series stops at degree D-1, where t S''
    and S' stop (a sum keeps the lower degree), and is complete through it;
    the caller asserts those coefficients vanish.

    Exact mode forms ad_L^2 of each coefficient with `ad_apply`.  Float mode
    forms np.dot(L, c) - np.dot(c, L) on the raw coefficient stack, twice,
    with one finiteness check per application: the bits of the commutators
    `ad_apply` forms, since a non-finite product stays non-finite under -.
    """
    if kind not in ("P2", "M2"):
        raise ValueError("kind must be 'P2' or 'M2'")
    if kind == "P2":
        c0, c1 = S.coefficient(0), S.coefficient(1)
        if not (c0.is_zero() and c1.is_zero()):
            raise ValueError("P-kind series must vanish to second order at t=0")
    if S.degree < 2:
        raise ValueError("series degree must be >= 2")
    d1 = S.derivative()
    d2 = d1.derivative()
    if S.mode == EXACT:
        ad2 = OperatorSeries([ad_apply(ctx, ad_apply(ctx, c)) for c in S.coeffs])
    else:
        L = ctx.L._arr
        ad = lambda stack: np.stack([np.dot(L, c) - np.dot(c, L) for c in stack])
        ad2 = OperatorSeries._checked(ad(check_finite(ad(S._arr))))
    t_d2 = d2.shift(1)
    return (t_d2 - d1 if kind == "P2" else t_d2 + d1) + ad2.shift(1)


def ode_residual_bound(
    S: OperatorSeries, kind: str, ctx: AdjointContext, t_abs: float
) -> float:
    """Float-mode evaluation bound for the residual series at |t|.

    Exact arithmetic makes the residual coefficients identically zero through
    degree D-1; in floats they are pure roundoff, so the bound is a computed
    roundoff majorant plus the D-truncation tail of the t-multiplied equation.
    """
    D = S.degree
    twoL = 2.0 * frobenius(ctx.L)
    # omitted t-degrees >= D contribute at most these magnitudes
    tail = 0.0
    s_tail = S.tail_fn(t_abs) if S.tail_fn else 0.0
    # t S'' and S': coefficient d picks (d+1)(d) c_{d+1}; first omitted is c_{D+1}
    tail += (D + 2) * (D + 1) * s_tail + (D + 1) * s_tail
    tail += t_abs * twoL * twoL * s_tail
    horner = _ode_roundoff(S, twoL) * max(1.0, t_abs) ** max(D - 1, 1)
    return tail + horner


def _ode_roundoff(S: OperatorSeries, twoL: float) -> float:
    """Roundoff allowance for each float coefficient of `ode_residual(S, ...)`.

    twoL is 2 ||L||, the norm bound of ad_L.
    """
    big = S.max_coeff_norm()
    return 64.0 * EPS * (S.degree + 2) ** 2 * max(1.0, twoL * twoL) * max(1.0, big)


def ode_check(inst: ProlongationInstance, D: int) -> VerificationReport:
    """The residual series of both Bessel-type ODEs, on the cal form at degree D.

    Every coefficient through degree D-1 must vanish: exactly in exact mode,
    up to `_ode_roundoff` in float mode.
    """
    sol = solution_cal_form(inst, D)
    records = []
    for kind, S, eq in (
        ("P2", sol.p, "t P'' - P' + t ad_L^2[P] = 0"),
        ("M2", sol.m, "t M'' + M' + t ad_L^2[M] = 0"),
    ):
        residual = ode_residual(S, kind, sol.ctx).max_coeff_norm()
        bound = 0.0 if inst.mode == EXACT else _ode_roundoff(S, 2.0 * frobenius(inst.L))
        records.append(
            make_record(
                f"{kind}-coefficients",
                "ode-residuals",
                eq,
                residual,
                bound,
                detail=f"complete through degree {D - 1}",
            )
        )
    return VerificationReport(name="ode-residuals", records=tuple(records))


def equivalence_check(
    inst: ProlongationInstance, t_samples, K: int, D: int
) -> VerificationReport:
    """Cal form against bilateral form (index cutoff K) at each t.

    The bound is the sum of both truncation tails, plus a roundoff allowance
    in float mode.
    """
    sol = solution_cal_form(inst, D)
    nL = frobenius(inst.L)
    scale = max(1.0, frobenius(inst.M0) + frobenius(inst.P0))
    records = []
    for t in t_samples:
        tv = mode_scalar(t, inst.mode)
        pc, ptb = series_eval(sol.p, tv)
        mc, mtb = series_eval(sol.m, tv)
        lf = solution_L_form(inst, tv, K, D)
        roundoff = 0.0
        if inst.mode == FLOAT:
            r = tv * nL / 2.0
            roundoff = (
                64.0
                * EPS
                * (2 * K + 3)
                * (D + 2)
                * max(1.0, nL) ** 2
                * scale
                * math.exp(min(2 * r, 700.0))
            )
        for label, cal_val, cal_tail, l_val, l_tail in (
            ("P", pc, ptb.value, lf.p, lf.p_tail),
            ("M", mc, mtb.value, lf.m, lf.m_tail),
        ):
            records.append(
                make_record(
                    f"{label}-route[t={t}]",
                    "solution-equivalence",
                    f"{label}: adjoint-series route = bilateral-sum route",
                    frobenius(cal_val - l_val),
                    cal_tail + l_tail + roundoff,
                    detail=f"K={K} D={D}",
                )
            )
    return VerificationReport(name="solution-equivalence", records=tuple(records))


def bch_check(inst: ProlongationInstance, t_samples, D: int) -> VerificationReport:
    """exp(it ad_L)[A] against exp(itL) A exp(-itL) for A = M0, P0, in floats.

    The bound is the degree-D series remainder plus a roundoff allowance for
    both routes.
    """
    fi = inst.to_float()
    ctx = AdjointContext(fi.L)
    nL = frobenius(fi.L)
    records = []
    for label, a0 in (("M0", fi.M0), ("P0", fi.P0)):
        for t in t_samples:
            tv = float(t)
            s = bch_series(ctx, a0, tv, D)
            c = bch_conjugate(ctx, a0, tv)
            rb = bch_remainder_bound(ctx, a0, tv, D)
            r = tv * nL
            conj_err = (1e-12 + 64.0 * EPS * (D + 2)) * max(
                1.0, frobenius(a0)
            ) * math.exp(min(2 * r, 700.0))
            records.append(
                make_record(
                    f"bch-{label}[t={t}]",
                    "bch",
                    "exp(it ad_L)[A] = exp(itL) A exp(-itL)",
                    frobenius(s - c),
                    rb + conj_err,
                    detail=f"D={D}",
                )
            )
    return VerificationReport(name="bch", records=tuple(records))


def prolongation_residual(
    inst: ProlongationInstance, u: float, D: int
) -> VerificationReport:
    """Residuals of the three prolongation equations at one value of u.

    Uses the cal-form series, its exact formal derivative, and the chain rule
    P_u = (t/2) P_t at t = 2 e^{u/2}; e^u is evaluated as (t/2)^2 so the
    nilpotent fixture cancels exactly in float arithmetic.
    """
    fi = inst.to_float()
    at = eval_at_u(fi, solution_cal_form(fi, D), u)
    t, L = at.t, fi.L

    r1 = at.Pu - commutator(L, at.M).scale(at.exp_u)
    r2 = at.Mu + commutator(L, at.P)
    r3 = commutator(at.M, at.P)

    nL = frobenius(L)
    np0, nm0 = frobenius(fi.P0), frobenius(fi.M0)
    nM, nP = frobenius(at.M), frobenius(at.P)
    rough = 64.0 * EPS * (D + 2) * max(1.0, nL) * max(1.0, nM + nP, np0 + nm0) * max(1.0, t) ** D
    b1, b2, b3 = at.structure_bounds(nL, rough)

    mk = lambda cid, eq, res, bnd: make_record(
        cid, "prolongation", eq, res, bnd, detail=f"u={u:g}, t={t:.6g}, degree {D}"
    )
    records = (
        mk("P_u-equation", "P_u = e^u [L, M]", frobenius(r1), 10 * b1),
        mk("M_u-equation", "M_u = -[L, P]", frobenius(r2), 10 * b2),
        mk("commutation", "[M, P] = 0", frobenius(r3), 10 * b3),
    )
    return VerificationReport(name=f"prolongation:{inst.name}@u={u:g}", records=records)


@dataclass(frozen=True)
class SolutionAt:
    """The cal-form solution at one u, where t = 2 e^{u/2}; float mode.

    P and M are the values, Pu and Mu their u-derivatives, and each tail
    bounds the truncation of the value it is named after.
    """

    u: float
    t: float
    P: Operator
    M: Operator
    Pu: Operator
    Mu: Operator
    p_tail: float
    m_tail: float
    dp_tail: float
    dm_tail: float

    @property
    def exp_u(self) -> float:
        """e^u, as (t/2)^2.

        Float evaluations of e^u then agree bit-for-bit wherever the chain
        rule produces the same product; this is what makes the nilpotent
        fixture's residuals vanish exactly in float arithmetic.
        """
        h = self.t / 2.0
        return h * h

    @property
    def half_t(self) -> float:
        return self.t / 2.0

    def structure_bounds(self, nL: float, rough: float) -> tuple[float, float, float]:
        """Truncation bounds b1, b2, b3 on the residuals of

            P_u - e^u [L, M],   M_u + [L, P],   [M, P]

        here, nL being ||L||, each plus the caller's roundoff allowance `rough`.
        """
        p_tail, m_tail = self.p_tail, self.m_tail
        b1 = self.half_t * self.dp_tail + self.exp_u * 2 * nL * m_tail + rough
        b2 = self.half_t * self.dm_tail + 2 * nL * p_tail + rough
        nM, nP = frobenius(self.M), frobenius(self.P)
        b3 = 2 * (nM * p_tail + nP * m_tail + p_tail * m_tail) + rough
        return b1, b2, b3

    def hfg(self, fi: ProlongationInstance, u_x, u_y, u_z) -> tuple[np.ndarray, ...]:
        """The three 2-form coefficient matrices of the prolongation ansatz,

            H = e^u u_z L + P(u),  F = -u_y L + N,  G = u_x L + M(u),

        as float arrays: (n, n) at scalar slopes, and a (k, n, n) stack when
        the slopes are (k, 1, 1) arrays, one matrix per slope triple.  Each
        entry has the bits of the Operator arithmetic L.scale(e^u u_z) + P,
        and likewise for F and G; an inf or nan raises NonFiniteError.
        """
        L = fi.L.data
        H = check_finite(L * (self.exp_u * u_z) + self.P.data)
        F = check_finite(L * -u_y + fi.N.data)
        G = check_finite(L * u_x + self.M.data)
        return H, F, G


def eval_at_u(fi: ProlongationInstance, sol: CalSolution, u: float) -> SolutionAt:
    """The solution `sol` at t = 2 e^{u/2}, for the float instance `fi`.

    u-derivatives use the chain rule P_u = (t/2) P_t on the formal derivative
    series; the derivative tails are term-wise differentiated majorants.
    """
    t = 2.0 * math.exp(u / 2.0)
    P, p_tb = series_eval(sol.p, t)
    M, m_tb = series_eval(sol.m, t)
    Pt, _ = series_eval(sol.p.derivative(), t)
    Mt, _ = series_eval(sol.m.derivative(), t)
    twoL = 2.0 * frobenius(fi.L)
    rr = t * twoL / 2.0
    dp_tail = _cal_derivative_tail(rr, 1, sol.p.degree, frobenius(fi.P0), t)
    dm_tail = _cal_derivative_tail(rr, 0, sol.m.degree, frobenius(fi.M0), t)
    half_t = t / 2.0
    return SolutionAt(
        u=float(u),
        t=t,
        P=P,
        M=M,
        Pu=Pt.scale(half_t),
        Mu=Mt.scale(half_t),
        p_tail=p_tb.value,
        m_tail=m_tb.value,
        dp_tail=dp_tail,
        dm_tail=dm_tail,
    )


def _cal_derivative_tail(r: float, nu: int, D: int, nA: float, t_abs: float) -> float:
    """Majorant for the dropped tail of d/dt of a cal series at |t|.

    Terms of J_nu(t ad_L)[A] have degree nu+2m and norm <=
    nA (t ||L||)^{nu+2m} / (m!(m+nu)!); differentiation multiplies each by its
    degree over t.

    A term that is 0.0 ends the sum, which the relative test alone would not
    end if every term is 0.0.  Then nA = 0, or the term is below the float
    range while the terms shrink (were r^2 >= m(m+nu), the term would be at
    least nA).  Stopping there is sound: prolongation_residual and
    eds.constraint_residuals multiply the tail by t/2 and add a roundoff
    allowance of at least 64*EPS*(D+2), far above any tail that underflows.
    """
    total = 0.0
    m = (D - nu) // 2 + 1
    for _ in range(500):
        deg = nu + 2 * m
        try:
            term = nA * r ** deg / (math.factorial(m) * math.factorial(m + nu))
        except OverflowError:
            return math.inf
        total += deg * term / max(t_abs, 1e-300)
        if term == 0.0 or term < 1e-30 * max(total, 1e-300):
            break
        m += 1
    return total


def compatibility_check(inst: ProlongationInstance) -> VerificationReport:
    """Exact evaluation of the two closure conditions on the initial data:

        coupling      [L, P0] = [L, M0]
        compatibility [ad_L[M0], M0] = 0

    Both modes' suites pass the exact instance, so every bound is 0.
    """
    if inst.mode != EXACT:
        raise ValueError("compatibility_check needs the exact instance")
    return _exact_zero_report("compatibility", inst.name, (
        ("coupling", "[L, P0] = [L, M0]", inst.coupling_residual()),
        ("ad-commutation", "[[L, M0], M0] = 0", commutator(commutator(inst.L, inst.M0), inst.M0)),
    ))


def initial_condition_check(inst: ProlongationInstance, D: int) -> VerificationReport:
    """P(0) = 0, P_t(0) = 0, M(0) = M0, M_t(0) = 0, as exact coefficient facts."""
    sol = solution_cal_form(inst, D)
    return _exact_zero_report("initial-conditions", inst.name, (
        ("P(0)=0", "P(0) = 0", sol.p.coefficient(0)),
        ("P_t(0)=0", "P_t(0) = 0", sol.p.coefficient(1)),
        ("M(0)=M0", "M(0) = M0", sol.m.coefficient(0) - inst.M0),
        ("M_t(0)=0", "M_t(0) = 0", sol.m.coefficient(1)),
    ))


def _exact_zero_report(suite: str, name: str, checks) -> VerificationReport:
    """Report `suite:name` with one record per (id, equation, operator) of
    `checks`: the operator's norm against bound 0."""
    records = tuple(
        make_record(cid, suite, eq, frobenius(op), 0.0, detail=name) for cid, eq, op in checks
    )
    return VerificationReport(name=f"{suite}:{name}", records=records)


def scalar_reduction(omega, p0, m0, t, D: int):
    """Classical reduction: kappa = p0 (t/2) J_1(t w), chi = m0 J_0(t w).

    Computed with exact rational arithmetic throughout (float inputs are
    binary rationals and convert exactly), truncated at overall t-degree D,
    and rounded at most once on output.  Each J_nu(x) = sum_j a_j x^{nu+2j}
    is summed from its own term ratio, a_0 = 1/(2^nu nu!) and
    a_{j+1}/a_j = -1/(4(j+1)(j+1+nu)), not from `bessel_terms`, so that
    `scalar_check` compares two independent routes.
    """
    wants_float = any(isinstance(x, float) for x in (omega, p0, m0, t))
    p0f, m0f, tf = Fraction(p0), Fraction(m0), Fraction(t)
    x = tf * Fraction(omega)
    minus_x2 = -x * x

    def classical(nu: int) -> Fraction:
        term, total = x**nu / (2**nu * math.factorial(nu)), Fraction(0)
        for j in range((D - nu) // 2 + 1):
            total += term
            term *= minus_x2 / (4 * (j + 1) * (j + 1 + nu))
        return total

    j0, j1 = classical(0), classical(1)
    kappa = p0f * (tf / 2) * j1
    chi = m0f * j0
    if wants_float:
        return float(kappa), float(chi)
    return kappa, chi


def scalar_check(omega, p0, m0, t_samples, D: int) -> VerificationReport:
    """`scalar_reduction` against the 1x1 operator route J_m(t [omega]).

    Both are exact rationals, so each residual must be exactly zero.
    """
    X = Operator.from_rows([[omega]], EXACT)
    s0 = bessel_series(X, 0, D)
    s1 = bessel_series(X, 1, D)
    records = []
    for t in t_samples:
        kappa, chi = scalar_reduction(omega, p0, m0, t, D)
        v1, _ = series_eval(s1, t)
        v0, _ = series_eval(s0, t)
        for cid, eq, value, via_op in (
            ("kappa", "p0 (t/2) J_1(t w)", kappa, p0 * (t / 2) * v1.entry(0, 0)),
            ("chi", "m0 J_0(t w)", chi, m0 * v0.entry(0, 0)),
        ):
            records.append(
                make_record(
                    f"{cid}[t={t}]",
                    "scalar-reduction",
                    f"{eq} = 1x1 operator route",
                    abs(float(value - via_op)),
                    0.0,
                    detail=f"omega={omega} D={D}",
                )
            )
    return VerificationReport(name="scalar-reduction", records=tuple(records))


# -- fixture catalog ---------------------------------------------------------


def _heisenberg3() -> ProlongationInstance:
    L = Operator.unit(3, 0, 1)
    M0 = Operator.unit(3, 1, 2)
    return make_instance("heisenberg3", L, M0, M0)


def _diag2() -> ProlongationInstance:
    L = Operator.diag([1, -1])
    M0 = Operator.unit(2, 0, 1)
    return make_instance("diag2", L, M0, M0)


def _commuting2() -> ProlongationInstance:
    L = Operator.unit(2, 0, 1)
    return make_instance("commuting2", L, L, L)


def _expected_fail2() -> ProlongationInstance:
    L = Operator.unit(2, 0, 1)
    M0 = Operator.unit(2, 1, 0)
    return make_instance("expected-fail2", L, M0, M0)


def _nilpotent(n: int) -> ProlongationInstance:
    """Random strictly upper L with M0 = P0 = e_{n-1,n}.

    M0 L = 0 structurally, so the adjoint tower is ad^j[M0] = L^j M0, all
    supported in the last column; that makes [[L, M0], M0] = 0 and [M, P] = 0
    hold exactly while the tower itself stays nontrivial.
    """
    rng = random.Random(n)

    def strict_upper() -> Operator:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        return Operator.from_rows(rows, EXACT)

    M0 = Operator.unit(n, n - 2, n - 1)
    while True:
        L = strict_upper()
        ad1 = commutator(L, M0)
        if ad1.is_zero():
            continue
        # ask for tower depth >= 2 where the dimension allows it
        if n >= 4 and commutator(L, ad1).is_zero():
            continue
        return make_instance(f"nilpotent{n}", L, M0, M0)


_CATALOG = {
    "heisenberg3": _heisenberg3,
    "diag2": _diag2,
    "commuting2": _commuting2,
    "expected-fail2": _expected_fail2,
    "nilpotent3": lambda: _nilpotent(3),
    "nilpotent4": lambda: _nilpotent(4),
    "nilpotent5": lambda: _nilpotent(5),
    "nilpotent6": lambda: _nilpotent(6),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def catalog_instance(name: str) -> ProlongationInstance:
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog instance {name!r}; available: {', '.join(catalog_names())}"
        ) from None
    return builder()
