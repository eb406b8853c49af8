"""Exterior differential system for u_xx + u_yy + (e^u)_zz = 0.

Forms live over a fixed coordinate ring (x, y, z, u, p, q, r, xi^1..xi^N) with
coefficients that are exact rational polynomials times integer powers of a
tracked exponential e^{s u}.  Everything symbolic here is exact: wedge,
exterior derivative, pullback along a jet section, and ideal membership with
verified multiplier witnesses.

Bracket sign convention (fixed in this one place): for linear pseudopotential
fields with component matrices G, H acting on xi, the bracket entering the
structure equation is realized as the matrix commutator GH - HG.  That is the
unique sign under which the structure equation

    u_z H_u - u_y F_u + u_x G_u - e^u u_z^2 G_{u_x} + [G, H] = 0

reduces, for the ansatz H = e^u u_z L + P(u), F = -u_y L + N, G = u_x L + M(u),
to exactly u_z (P_u - e^u[L,M]) + u_x (M_u + [L,P]) + [M,P]; the nilpotent
catalog fixture then satisfies every residual identically.
"""
from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .opcore import FLOAT, Operator, commutator, frobenius
from .prolong import (
    ProlongationInstance,
    eval_at_u,
    hfg_at,
    solution_cal_form,
    structure_bounds,
)
from .besselop import EPS
from .report import VerificationReport, info_record, make_record

Monomial = tuple[tuple[str, int], ...]
TermKey = tuple[Monomial, int]  # (monomial, exponential power s)


class Ring:
    """Polynomial-with-exponential coefficient ring over named coordinates.

    exp_derivs gives the derivative of the tracked exponent with respect to
    each coordinate (as a plain polynomial Coefficient); on the base ring the
    exponent is the coordinate u itself, so the rule is {u: 1}.
    """

    __slots__ = ("coords", "_index", "exp_label", "exp_derivs")

    def __init__(self, coords: Sequence[str], exp_label: str = "u"):
        self.coords = tuple(coords)
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("duplicate coordinate names")
        self._index = {v: i for i, v in enumerate(self.coords)}
        self.exp_label = exp_label
        self.exp_derivs: dict[str, "Coefficient"] = {}

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise KeyError(f"unknown coordinate {v!r}") from None

    # -- element constructors -------------------------------------------

    def zero(self) -> "Coefficient":
        return Coefficient(self, {})

    def const(self, c) -> "Coefficient":
        c = Fraction(c)
        return Coefficient(self, {((), 0): c} if c else {})

    def one(self) -> "Coefficient":
        return self.const(1)

    def var(self, name: str, power: int = 1) -> "Coefficient":
        self.index(name)
        return Coefficient(self, {(((name, power),), 0): Fraction(1)})

    def exp(self, s: int = 1) -> "Coefficient":
        """e^{s * exponent}."""
        return Coefficient(self, {((), int(s)): Fraction(1)})

    def monomial(self, powers: dict[str, int], s: int = 0, c=1) -> "Coefficient":
        mono = tuple(sorted(
            ((v, e) for v, e in powers.items() if e), key=lambda ve: self.index(ve[0])
        ))
        for v, e in mono:
            if e < 0:
                raise ValueError("negative exponent in monomial")
        c = Fraction(c)
        return Coefficient(self, {(mono, int(s)): c} if c else {})


def base_ring(n_xi: int = 0) -> Ring:
    """The canonical coordinate ring (memoized per pseudopotential count)."""
    try:
        return _BASE_RINGS[n_xi]
    except KeyError:
        pass
    coords = ["x", "y", "z", "u", "p", "q", "r"] + [f"xi{i+1}" for i in range(n_xi)]
    ring = Ring(coords)
    ring.exp_derivs = {"u": ring.one()}
    _BASE_RINGS[n_xi] = ring
    return ring


_BASE_RINGS: dict[int, Ring] = {}


def _mono_mul(a: Monomial, b: Monomial, ring: Ring) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    acc: dict[str, int] = dict(a)
    for v, e in b:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items(), key=lambda ve: ring.index(ve[0])))


class Coefficient:
    """Exact element: sum of (rational) * monomial * e^{s*exponent}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict[TermKey, Fraction]):
        self.ring = ring
        self.terms = {k: v for k, v in terms.items() if v}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        raise TypeError("coefficients are not hashable")

    def _require(self, other: "Coefficient") -> None:
        if self.ring is not other.ring:
            raise ValueError("coefficients from different rings")

    def __add__(self, other: "Coefficient") -> "Coefficient":
        self._require(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Coefficient(self.ring, out)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        self._require(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) - v
        return Coefficient(self.ring, out)

    def __neg__(self) -> "Coefficient":
        return Coefficient(self.ring, {k: -v for k, v in self.terms.items()})

    def scale(self, c) -> "Coefficient":
        c = Fraction(c)
        if not c:
            return self.ring.zero()
        return Coefficient(self.ring, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        self._require(other)
        out: dict[TermKey, Fraction] = {}
        for (ma, sa), ca in self.terms.items():
            for (mb, sb), cb in other.terms.items():
                key = (_mono_mul(ma, mb, self.ring), sa + sb)
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return Coefficient(self.ring, out)

    def power(self, e: int) -> "Coefficient":
        if e < 0:
            raise ValueError("negative power")
        acc = self.ring.one()
        for _ in range(e):
            acc = acc * self
        return acc

    def diff(self, v: str) -> "Coefficient":
        ring = self.ring
        ring.index(v)
        out: dict[TermKey, Fraction] = {}
        dexp = ring.exp_derivs.get(v)
        for (mono, s), c in self.terms.items():
            for i, (name, e) in enumerate(mono):
                if name != v:
                    continue
                rest = mono[:i] + ((name, e - 1),) + mono[i + 1 :]
                rest = tuple(ve for ve in rest if ve[1])
                key = (rest, s)
                out[key] = out.get(key, Fraction(0)) + c * e
            if s and dexp is not None and not dexp.is_zero():
                base = Coefficient(ring, {(mono, s): c * s})
                for k2, v2 in (base * dexp).terms.items():
                    out[k2] = out.get(k2, Fraction(0)) + v2
        return Coefficient(ring, out)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for (mono, _s), _c in self.terms.items():
            out.update(v for v, _ in mono)
        return out

    def l1(self) -> Fraction:
        return sum((abs(v) for v in self.terms.values()), Fraction(0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ring = self.ring
        parts = []
        for (mono, s), c in sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][1], tuple((ring.index(v), e) for v, e in kv[0][0])),
        ):
            bits = []
            if c != 1 or (not mono and not s):
                bits.append(str(c))
            for v, e in mono:
                bits.append(v if e == 1 else f"{v}^{e}")
            if s:
                sl = ring.exp_label
                if s == 1:
                    bits.append(f"e^{sl}")
                elif s == -1:
                    bits.append(f"e^-{sl}")
                else:
                    bits.append(f"e^{s}{sl}")
            parts.append("*".join(bits) if bits else "1")
        return " + ".join(parts)


def _merge_wedge(ring: Ring, wa: tuple[str, ...], wb: tuple[str, ...]):
    """Merge two ascending wedge tuples; returns (sign, merged) or (0, None)."""
    ia = [ring.index(v) for v in wa]
    ib = [ring.index(v) for v in wb]
    out: list[str] = []
    sign = 1
    i = j = 0
    while i < len(ia) and j < len(ib):
        if ia[i] == ib[j]:
            return 0, None
        if ia[i] < ib[j]:
            out.append(wa[i])
            i += 1
        else:
            if (len(ia) - i) % 2:
                sign = -sign
            out.append(wb[j])
            j += 1
    out.extend(wa[i:])
    out.extend(wb[j:])
    return sign, tuple(out)


def _sort_wedge(ring: Ring, w: Sequence[str]):
    """Sort an arbitrary wedge tuple; returns (sign, tuple) or (0, None)."""
    sign = 1
    acc: tuple[str, ...] = ()
    for v in w:
        s2, acc2 = _merge_wedge(ring, acc, (v,))
        if s2 == 0:
            return 0, None
        sign *= s2
        acc = acc2
    return sign, acc


class DifferentialForm:
    """Exact differential form of homogeneous degree."""

    __slots__ = ("ring", "degree", "terms")

    def __init__(self, ring: Ring, degree: int, terms: dict[tuple[str, ...], Coefficient]):
        self.ring = ring
        self.degree = degree
        clean: dict[tuple[str, ...], Coefficient] = {}
        for w, c in terms.items():
            if len(w) != degree:
                raise ValueError(f"wedge {w} has wrong length for degree {degree}")
            if not c.is_zero():
                clean[w] = c
        self.terms = clean

    @classmethod
    def zero(cls, ring: Ring, degree: int) -> "DifferentialForm":
        return cls(ring, degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("forms are not hashable")

    def _require(self, other: "DifferentialForm") -> None:
        if self.ring is not other.ring:
            raise ValueError("forms from different rings")
        if self.degree != other.degree:
            raise ValueError("forms of different degree")

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._require(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return DifferentialForm(self.ring, self.degree, out)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._require(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] - c if w in out else -c
        return DifferentialForm(self.ring, self.degree, out)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(
            self.ring, self.degree, {w: -c for w, c in self.terms.items()}
        )

    def scale(self, c) -> "DifferentialForm":
        return DifferentialForm(
            self.ring, self.degree, {w: co.scale(c) for w, co in self.terms.items()}
        )

    def mul_coeff(self, c: Coefficient) -> "DifferentialForm":
        if c.ring is not self.ring:
            raise ValueError("coefficient from different ring")
        return DifferentialForm(
            self.ring, self.degree, {w: co * c for w, co in self.terms.items()}
        )

    def l1(self) -> Fraction:
        return sum((c.l1() for c in self.terms.values()), Fraction(0))

    def variables(self) -> set[str]:
        out: set[str] = set()
        for c in self.terms.values():
            out |= c.variables()
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ring = self.ring
        parts = []
        for w, c in sorted(
            self.terms.items(), key=lambda wc: tuple(ring.index(v) for v in wc[0])
        ):
            dw = "^".join(f"d{v}" for v in w) if w else "1"
            cs = str(c)
            if "+" in cs:
                cs = f"({cs})"
            parts.append(f"{cs} {dw}".strip())
        return " + ".join(parts)


def one_form(ring: Ring, var: str, coeff: Optional[Coefficient] = None) -> DifferentialForm:
    """coeff * d(var)."""
    ring.index(var)
    return DifferentialForm(ring, 1, {(var,): coeff if coeff is not None else ring.one()})


def form_from_wedge(ring: Ring, wedge_vars: Sequence[str], coeff=None) -> DifferentialForm:
    """coeff * d(v1)^d(v2)^... with the written order (sign normalized)."""
    sign, w = _sort_wedge(ring, tuple(wedge_vars))
    if sign == 0:
        return DifferentialForm.zero(ring, len(wedge_vars))
    c = coeff if isinstance(coeff, Coefficient) else ring.const(coeff if coeff is not None else 1)
    return DifferentialForm(ring, len(wedge_vars), {w: c.scale(sign)})


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    if a.ring is not b.ring:
        raise ValueError("forms from different rings")
    ring = a.ring
    out: dict[tuple[str, ...], Coefficient] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            sign, w = _merge_wedge(ring, wa, wb)
            if sign == 0:
                continue
            c = (ca * cb).scale(sign)
            out[w] = out[w] + c if w in out else c
    return DifferentialForm(ring, a.degree + b.degree, out)


def wedge_all(forms: Sequence[DifferentialForm]) -> DifferentialForm:
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


def ext_d(a: DifferentialForm) -> DifferentialForm:
    """Exterior derivative: d(c dW) = sum_v (dc/dv) dv ^ dW."""
    ring = a.ring
    out: dict[tuple[str, ...], Coefficient] = {}
    for w, c in a.terms.items():
        for v in ring.coords:
            if v in w:
                continue
            dc = c.diff(v)
            if dc.is_zero():
                continue
            sign, merged = _merge_wedge(ring, (v,), w)
            if sign == 0:
                continue
            dc = dc.scale(sign)
            out[merged] = out[merged] + dc if merged in out else dc
    return DifferentialForm(ring, a.degree + 1, out)


# -- the exterior ideal ------------------------------------------------------


def base_ideal(ring: Optional[Ring] = None) -> tuple[DifferentialForm, ...]:
    """The four generators:

        theta1 = du^dx^dy - r dx^dy^dz
        theta2 = du^dy^dz - p dx^dy^dz
        theta3 = du^dx^dz + q dx^dy^dz
        theta4 = dp^dy^dz - dq^dx^dz + e^u dr^dx^dy + e^u r^2 dx^dy^dz
    """
    if ring is None:
        ring = base_ring()
    f = lambda *vs: form_from_wedge(ring, vs)
    dxdydz = f("x", "y", "z")
    theta1 = f("u", "x", "y") - dxdydz.mul_coeff(ring.var("r"))
    theta2 = f("u", "y", "z") - dxdydz.mul_coeff(ring.var("p"))
    theta3 = f("u", "x", "z") + dxdydz.mul_coeff(ring.var("q"))
    theta4 = (
        f("p", "y", "z")
        - f("q", "x", "z")
        + f("r", "x", "y").mul_coeff(ring.exp(1))
        + dxdydz.mul_coeff(ring.exp(1) * ring.var("r", 2))
    )
    return (theta1, theta2, theta3, theta4)


# -- sections and pullback ---------------------------------------------------


def parse_polynomial(spec: dict, ring: Ring) -> Coefficient:
    """Polynomial from {"x^2*y": "3/2", "1": 2, ...} over the given ring."""
    acc = ring.zero()
    for mono_s, coeff in spec.items():
        powers: dict[str, int] = {}
        text = mono_s.strip()
        if text not in ("", "1"):
            for factor in text.replace(" ", "").split("*"):
                if "^" in factor:
                    v, e = factor.split("^", 1)
                    powers[v] = powers.get(v, 0) + int(e)
                else:
                    powers[factor] = powers.get(factor, 0) + 1
        acc = acc + ring.monomial(powers, 0, Fraction(str(coeff)))
    return acc


class Section:
    """Jet section u = f(x,y,z), p = f_x, q = f_y, r = f_z.

    f is an exact polynomial; the pullback target ring tracks E = e^f with
    dE/dv = f_v E.
    """

    def __init__(self, f_spec: Union[dict, Coefficient]):
        ring = Ring(("x", "y", "z"), exp_label="f")
        if isinstance(f_spec, Coefficient):
            f = Coefficient(ring, dict(f_spec.terms))
        else:
            f = parse_polynomial(f_spec, ring)
        self.ring = ring
        self.f = f
        self.fx, self.fy, self.fz = (f.diff(v) for v in ("x", "y", "z"))
        ring.exp_derivs = {"x": self.fx, "y": self.fy, "z": self.fz}
        self._subs = {"u": self.f, "p": self.fx, "q": self.fy, "r": self.fz}
        self._dsubs = {
            "x": one_form(ring, "x"),
            "y": one_form(ring, "y"),
            "z": one_form(ring, "z"),
            "u": self._grad(self.f),
            "p": self._grad(self.fx),
            "q": self._grad(self.fy),
            "r": self._grad(self.fz),
        }

    def _grad(self, g: Coefficient) -> DifferentialForm:
        ring = self.ring
        out = DifferentialForm.zero(ring, 1)
        for v in ("x", "y", "z"):
            dg = g.diff(v)
            if not dg.is_zero():
                out = out + one_form(ring, v, dg)
        return out

    def pull_coefficient(self, c: Coefficient) -> Coefficient:
        ring = self.ring
        acc = ring.zero()
        for (mono, s), val in c.terms.items():
            piece = ring.const(val)
            if s:
                piece = piece * ring.exp(s)
            for v, e in mono:
                if v in ("x", "y", "z"):
                    piece = piece * ring.var(v, e)
                elif v in self._subs:
                    piece = piece * self._subs[v].power(e)
                else:
                    raise ValueError(f"cannot pull back coordinate {v!r}")
            acc = acc + piece
        return acc

    def pullback(self, form: DifferentialForm) -> DifferentialForm:
        ring = self.ring
        out = DifferentialForm.zero(ring, form.degree)
        for w, c in form.terms.items():
            try:
                pulled = [self._dsubs[v] for v in w]
            except KeyError as e:
                raise ValueError(f"cannot pull back d{e.args[0]}") from None
            pc = self.pull_coefficient(c)
            if pc.is_zero():
                continue
            if w:
                piece = wedge_all(pulled).mul_coeff(pc)
            else:
                piece = DifferentialForm(ring, 0, {(): pc})
            out = out + piece
        return out


def random_section(rng: random.Random, degree: int = 3, n_terms: int = 6) -> Section:
    """Seeded random polynomial section of total degree <= degree."""
    ring3 = Ring(("x", "y", "z"))
    acc = ring3.zero()
    monos = [
        m
        for d in range(degree + 1)
        for m in itertools.combinations_with_replacement(("x", "y", "z"), d)
    ]
    for _ in range(n_terms):
        m = rng.choice(monos)
        powers: dict[str, int] = {}
        for v in m:
            powers[v] = powers.get(v, 0) + 1
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        acc = acc + ring3.monomial(powers, 0, c)
    return Section(acc)


def check_proposition1(section: Section) -> VerificationReport:
    """Pull the four generators back along the section.

    theta1..theta3 must vanish identically; theta4 must pull back to
    (f_xx + f_yy + e^f (f_zz + f_z^2)) dx^dy^dz, the heavenly operator on f.
    """
    thetas = base_ideal()
    pulled = [section.pullback(th) for th in thetas]
    ring = section.ring
    records = []
    for i, pf in enumerate(pulled[:3], start=1):
        records.append(
            make_record(
                f"theta{i}-pullback",
                "eds-proposition1",
                f"section* theta{i} = 0",
                float(pf.l1()),
                0.0,
                detail=f"f = {section.f}",
            )
        )
    fxx = section.fx.diff("x")
    fyy = section.fy.diff("y")
    fzz = section.fz.diff("z")
    heavenly = fxx + fyy + (fzz + section.fz * section.fz) * ring.exp(1)
    expected = form_from_wedge(ring, ("x", "y", "z"), heavenly)
    diff = pulled[3] - expected
    records.append(
        make_record(
            "theta4-pullback",
            "eds-proposition1",
            "section* theta4 = (f_xx + f_yy + e^f (f_zz + f_z^2)) dx^dy^dz",
            float(diff.l1()),
            0.0,
            detail=f"f = {section.f}",
        )
    )
    return VerificationReport(name="proposition1", records=tuple(records))


# -- ideal membership --------------------------------------------------------


@dataclass(frozen=True)
class MembershipWitness:
    """Verified multipliers sigma_j with sum_j sigma_j ^ theta_j = target."""

    multipliers: tuple[DifferentialForm, ...]
    degree: int


def _monomials_up_to(varset: Sequence[str], degree: int, ring: Ring) -> list[Monomial]:
    out: list[Monomial] = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(sorted(varset), d):
            powers: dict[str, int] = {}
            for v in combo:
                powers[v] = powers.get(v, 0) + 1
            out.append(
                tuple(sorted(powers.items(), key=lambda ve: ring.index(ve[0])))
            )
    return out


def _solve_exact(
    rows: list[dict[int, Fraction]], rhs: list[Fraction]
) -> Optional[dict[int, Fraction]]:
    """Sparse exact elimination; one solution with free unknowns = 0, or None.

    A pivot row p with pivot a clears b from row r as r <- r - (b/a) p.  A
    column -> rows index finds the rows a pivot touches, and a heap of
    (length, row) picks the next pivot row.  Deterministic: the sparsest row
    wins, ties go to the lower row index, and within a row the smallest
    unknown index is the pivot.
    """
    work = [({k: x for k, x in row.items() if x}, v) for row, v in zip(rows, rhs)]
    col_rows: dict[int, set[int]] = {}
    for ridx, (row, _) in enumerate(work):
        for k in row:
            col_rows.setdefault(k, set()).add(ridx)
    heap = [(len(row), ridx) for ridx, (row, _) in enumerate(work) if row]
    heapq.heapify(heap)
    active = [True] * len(work)
    order: list[tuple[int, dict[int, Fraction], Fraction]] = []
    while heap:
        length, best = heapq.heappop(heap)
        row, val = work[best]
        if not active[best] or len(row) != length:
            continue  # a stale entry: the row was pivoted or changed since
        active[best] = False
        piv = min(row)
        a = row[piv]
        for k in row:
            col_rows[k].discard(best)
        for ridx in col_rows.pop(piv):
            r2, v2 = work[ridx]
            f = r2.pop(piv) / a
            for k, x in row.items():
                if k == piv:
                    continue
                nx = r2.get(k, 0) - f * x
                if nx:
                    r2[k] = nx
                    col_rows.setdefault(k, set()).add(ridx)
                elif k in r2:
                    del r2[k]
                    col_rows[k].discard(ridx)
            work[ridx] = (r2, v2 - f * val)
            if r2:
                heapq.heappush(heap, (len(r2), ridx))
        order.append((piv, row, val))
    if any(active[ridx] and val for ridx, (_, val) in enumerate(work)):
        return None
    solution: dict[int, Fraction] = {}
    for piv, row, val in reversed(order):
        # the pivot itself is not solved yet, so `k in solution` skips it
        acc = val - sum(x * solution[k] for k, x in row.items() if k in solution)
        solution[piv] = acc / row[piv]
    return solution


def ideal_membership(
    target: DifferentialForm,
    generators: Sequence[DifferentialForm],
    multiplier_degree: int = 2,
) -> Optional[MembershipWitness]:
    """Search for multipliers sigma_j with sum sigma_j ^ theta_j = target.

    The ansatz space is monomials of total degree <= multiplier_degree over
    the variables occurring in the target and generators, times e^{s u} for
    s in {-1, 0, 1}, times the coordinate differentials (or scalars when the
    degrees already match).  Solved exactly; any witness found is verified by
    exact re-expansion before being returned.  A None result means the
    bounded search failed, not a proof of non-membership.
    """
    ring = target.ring
    gens = list(generators)
    if not gens:
        raise ValueError("no generators")
    for g in gens:
        if g.ring is not ring:
            raise ValueError("generator ring mismatch")
        gap = target.degree - g.degree
        if gap not in (0, 1):
            raise ValueError("multiplier degree gap must be 0 or 1")
    var_target = sorted(target.variables())
    var_all = sorted(set(var_target) | set().union(*(g.variables() for g in gens)))
    for varset in ([var_target, var_all] if var_target != var_all else [var_all]):
        witness = _membership_attempt(target, gens, multiplier_degree, varset)
        if witness is not None:
            return witness
    return None


def _membership_attempt(
    target: DifferentialForm,
    gens: list[DifferentialForm],
    degree: int,
    varset: list[str],
) -> Optional[MembershipWitness]:
    """One bounded search: the linear system of sum sigma_j ^ theta_j = target.

    A basis multiplier is mono e^{s u} dv, so its product with theta_j is
    dv ^ theta_j with every monomial multiplied by mono and every exponent
    shifted by s.  dv ^ theta_j is expanded once per (j, dv); each column is
    that expansion with shifted keys.  Shifting is injective, so a column is
    zero exactly when dv ^ theta_j is.
    """
    ring = target.ring
    monos = _monomials_up_to(varset, degree, ring)
    s_values = (-1, 0, 1)
    basis: list[tuple[int, Optional[str], Monomial, int]] = []
    row_keys: dict[tuple[tuple[str, ...], TermKey], int] = {}
    rows: list[dict[int, Fraction]] = []

    def row_index(key) -> int:
        idx = row_keys.setdefault(key, len(rows))
        if idx == len(rows):
            rows.append({})
        return idx

    for j, g in enumerate(gens):
        gap = target.degree - g.degree
        dvs: Sequence[Optional[str]] = ring.coords if gap == 1 else (None,)
        for dv in dvs:
            prod = wedge(one_form(ring, dv), g) if dv is not None else g
            terms = [
                (w, m, sm, val) for w, c in prod.terms.items() for (m, sm), val in c.terms.items()
            ]
            if not terms:
                continue
            for mono in monos:
                shifted = [(w, _mono_mul(mono, m, ring), sm, val) for w, m, sm, val in terms]
                for s in s_values:
                    ci = len(basis)
                    basis.append((j, dv, mono, s))
                    for w, m, sm, val in shifted:
                        rows[row_index((w, (m, s + sm)))][ci] = val
    rhs_map: dict[int, Fraction] = {}
    for w, c in target.terms.items():
        for tk, val in c.terms.items():
            rhs_map[row_index((w, tk))] = val
    rhs = [rhs_map.get(i, Fraction(0)) for i in range(len(rows))]
    sol = _solve_exact(rows, rhs)
    if sol is None:
        return None
    multipliers = []
    for j, g in enumerate(gens):
        gap = target.degree - g.degree
        acc = DifferentialForm.zero(ring, gap)
        multipliers.append(acc)
    for ci, (j, dv, mono, s) in enumerate(basis):
        c = sol.get(ci, Fraction(0))
        if not c:
            continue
        coeff = Coefficient(ring, {(mono, s): c})
        if dv is not None:
            piece = one_form(ring, dv, coeff)
        else:
            piece = DifferentialForm(ring, 0, {(): coeff})
        multipliers[j] = multipliers[j] + piece
    # exact verification is part of the contract
    acc = DifferentialForm.zero(ring, target.degree)
    for sigma, g in zip(multipliers, gens):
        if sigma.degree == 0:
            c = sigma.terms.get((), ring.zero())
            acc = acc + g.mul_coeff(c)
        else:
            acc = acc + wedge(sigma, g)
    if not (acc - target).is_zero():
        return None
    return MembershipWitness(multipliers=tuple(multipliers), degree=degree)


def closure_check(cap: int = 3) -> VerificationReport:
    """d(theta_i) in the ideal, with degree-laddered witness search.

    An exhausted ladder marks the check inconclusive (info) rather than
    failed, since bounded search cannot prove non-membership.
    """
    thetas = base_ideal()
    records = []
    for i, th in enumerate(thetas, start=1):
        dth = ext_d(th)
        found = None
        for deg in range(0, cap + 1):
            found = ideal_membership(dth, thetas, multiplier_degree=deg)
            if found is not None:
                break
        if found is not None:
            records.append(
                make_record(
                    f"dtheta{i}-membership",
                    "eds-closure",
                    f"d theta{i} in <theta1..theta4>",
                    0.0,
                    0.0,
                    detail=f"witness verified at multiplier degree {found.degree}",
                )
            )
        else:
            records.append(
                info_record(
                    f"dtheta{i}-membership",
                    "eds-closure",
                    f"d theta{i} in <theta1..theta4>",
                    float(dth.l1()),
                    detail=f"inconclusive: no witness up to degree {cap}",
                )
            )
    return VerificationReport(name="eds-closure", records=tuple(records))


# -- the constraint system of the prolongation ansatz -----------------------


def constraint_residuals(
    inst: ProlongationInstance,
    u_samples: Sequence[float] = (-2.0, -1.0, 0.0),
    slope_values: Sequence[float] = (-1.0, 0.0, 1.0),
    D: int = 16,
) -> VerificationReport:
    """Every closure constraint of the prolongation ansatz, numerically.

    Slope derivatives of the builders are exact finite differences (the
    dependence is linear); u-derivatives go through the chain rule
    d/du = (t/2) d/dt on the cal-form series.  Each constraint reports the
    worst (residual - bound) sample.  The two spectral residuals are open:
    reported informationally, never gating.
    """
    fi = inst.to_float()
    n = fi.dim
    L = fi.L
    nL = frobenius(L)
    worst: dict[str, tuple[float, float, str]] = {}

    def record_sample(cid: str, residual: float, bound: float, where: str) -> None:
        prev = worst.get(cid)
        if prev is None or residual - bound > prev[0] - prev[1]:
            worst[cid] = (residual, bound, where)

    try:
        Binv_arr = np.linalg.inv(fi.B.data)
    except np.linalg.LinAlgError:
        raise ValueError("singular B") from None
    Binv = Operator(np.ascontiguousarray(Binv_arr), FLOAT)

    sol = solution_cal_form(fi, D)
    for u in u_samples:
        pt = eval_at_u(fi, sol, u)
        hv, P, M, Pu, Mu = pt[:5]
        eu = hv.exp_u
        rough = 64.0 * EPS * (D + 2) * max(1.0, nL) ** 2 * max(
            1.0, frobenius(P) + frobenius(M) + frobenius(fi.N) + 1.0
        ) * max(1.0, hv.t) ** D
        # slope-derivative structure (exact FD; the dependence is linear)
        H0, F0, G0 = hfg_at(fi, hv, P, M, 0.0, 0.0, 0.0)
        Hx, Fx, Gx = hfg_at(fi, hv, P, M, 1.0, 0.0, 0.0)
        Hy, Fy, Gy = hfg_at(fi, hv, P, M, 0.0, 1.0, 0.0)
        Hz, Fz, Gz = hfg_at(fi, hv, P, M, 0.0, 0.0, 1.0)
        H_ux, H_uy, H_uz = Hx - H0, Hy - H0, Hz - H0
        F_ux, F_uy, F_uz = Fx - F0, Fy - F0, Fz - F0
        G_ux, G_uy, G_uz = Gx - G0, Gy - G0, Gz - G0

        record_sample(
            "coupled-H",
            frobenius(H_uz - G_ux.scale(eu)),
            rough,
            f"u={u:g}",
        )
        record_sample("coupled-F", frobenius(F_uy + G_ux), rough, f"u={u:g}")
        for cid, mat in (
            ("vanishing-H_ux", H_ux),
            ("vanishing-H_uy", H_uy),
            ("vanishing-F_ux", F_ux),
            ("vanishing-F_uz", F_uz),
            ("vanishing-G_uy", G_uy),
            ("vanishing-G_uz", G_uz),
        ):
            record_sample(cid, frobenius(mat), rough, f"u={u:g}")

        b1, b2, b3 = structure_bounds(pt, nL, rough)

        for ux in slope_values:
            for uy in slope_values:
                for uz in slope_values:
                    H, Fm, G = hfg_at(fi, hv, P, M, ux, uy, uz)
                    Hu = L.scale(eu * uz) + Pu
                    Fu = Operator.zero(n, FLOAT)
                    Gu = Mu
                    struct = (
                        Hu.scale(uz)
                        - Fu.scale(uy)
                        + Gu.scale(ux)
                        - G_ux.scale(eu * uz * uz)
                        + commutator(G, H)
                    )
                    bound = 10.0 * (abs(uz) * b1 + abs(ux) * b2 + b3) + rough
                    where = f"u={u:g},slopes=({ux:g},{uy:g},{uz:g})"
                    record_sample("structure-equation", frobenius(struct), bound, where)
                    spec1 = Fm - G @ fi.A - H @ fi.B
                    spec2 = Fm @ Binv @ G - G @ Binv @ Fm
                    record_sample("spectral-linear", frobenius(spec1), -1.0, where)
                    record_sample("spectral-quadratic", frobenius(spec2), -1.0, where)

    record_sample("AB-commute", frobenius(commutator(fi.A, fi.B)), 64 * EPS * max(
        1.0, frobenius(fi.A) * frobenius(fi.B)
    ), "initial data")

    equations = {
        "coupled-H": "H_{u_z} - e^u G_{u_x} = 0",
        "coupled-F": "F_{u_y} + G_{u_x} = 0",
        "vanishing-H_ux": "H_{u_x} = 0",
        "vanishing-H_uy": "H_{u_y} = 0",
        "vanishing-F_ux": "F_{u_x} = 0",
        "vanishing-F_uz": "F_{u_z} = 0",
        "vanishing-G_uy": "G_{u_y} = 0",
        "vanishing-G_uz": "G_{u_z} = 0",
        "structure-equation": "u_z H_u - u_y F_u + u_x G_u - e^u u_z^2 G_{u_x} + [G,H] = 0",
        "spectral-linear": "F_xi = G_xi A + H_xi B (open)",
        "spectral-quadratic": "F_xi B^-1 G = G_xi B^-1 F (open)",
        "AB-commute": "[A, B] = 0",
    }
    records = []
    for cid, eq in equations.items():
        residual, bound, where = worst[cid]
        if cid.startswith("spectral"):
            records.append(
                info_record(cid, "eds-constraints", eq, residual, detail=where)
            )
        else:
            records.append(
                make_record(cid, "eds-constraints", eq, residual, bound, detail=where)
            )
    return VerificationReport(name=f"eds-constraints:{inst.name}", records=tuple(records))
