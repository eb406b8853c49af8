"""Exterior differential system for u_xx + u_yy + (e^u)_zz = 0.

Forms live over one fixed coordinate ring, BASE_RING (x, y, z, u, p, q, r).  One
sparse type, DifferentialForm, holds every degree: a sum of rational terms
c * monomial * e^{s u} * dW, so a 0-form is a coefficient-ring element and *
is the wedge product, the only one.  Everything symbolic here is exact: *,
exterior derivative, pullback along a jet section, and ideal membership with
verified multipliers.

A coefficient c is a Python int where it is integral and a
fractions.Fraction only where it is not; never a float.  The ideal's
coefficients are +-1 and +-2, so closure and pullback run on int arithmetic,
and a Fraction appears only where a section or a solve brings one in.

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

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .opcore import (
    EPS,
    Coeff,
    NonFiniteError,
    Operator,
    as_coeff,
    check_finite,
    commutator,
    eliminate,
    frobenius,
    frobenius_stack,
)
from .prolong import ProlongationInstance, eval_at_u, solution_cal_form
from .report import VerificationReport, info_record, make_record

Monomial = tuple[tuple[int, int], ...]  # ascending (coordinate index, exponent)
Wedge = tuple[int, ...]  # ascending coordinate indices
TermKey = tuple[Wedge, Monomial, int]  # (wedge, monomial, exponential power s)


class Ring:
    """Polynomial-with-exponential coefficient ring over named coordinates.

    exp_derivs gives the derivative of the tracked exponent with respect to
    each coordinate (as a polynomial 0-form); on the base ring the exponent is
    the coordinate u itself, so the rule is {u: 1}.
    """

    __slots__ = ("coords", "_index", "exp_label", "exp_derivs")

    def __init__(self, coords: Sequence[str], exp_label: str = "u"):
        self.coords = tuple(coords)
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("duplicate coordinate names")
        self._index = {v: i for i, v in enumerate(self.coords)}
        self.exp_label = exp_label
        self.exp_derivs: dict[str, "DifferentialForm"] = {}

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise KeyError(f"unknown coordinate {v!r}") from None

    # -- element constructors: ring elements are 0-forms -----------------

    def const(self, c) -> "DifferentialForm":
        return self.monomial({}, 0, c)

    def one(self) -> "DifferentialForm":
        return self.const(1)

    def var(self, name: str, power: int = 1) -> "DifferentialForm":
        self.index(name)
        return self.monomial({name: power})

    def exp(self, s: int = 1) -> "DifferentialForm":
        """e^{s * exponent}."""
        return self.monomial({}, s)

    def monomial(self, powers: dict[str, int], s: int = 0, c=1) -> "DifferentialForm":
        """c * prod v^e * e^{s * exponent}, for any c that Fraction() takes:
        c becomes an int or a Fraction here, and a zero c the zero form."""
        mono = tuple(sorted((self.index(v), e) for v, e in powers.items() if e))
        for _i, e in mono:
            if e < 0:
                raise ValueError("negative exponent in monomial")
        c = as_coeff(c)
        return DifferentialForm(self, 0, {((), mono, int(s)): c} if c else {})


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def _merge_wedge(wa: Wedge, wb: Wedge) -> tuple[int, Wedge]:
    """Merge two ascending wedges; returns (sign, merged), or (0, ()) on a repeat."""
    if not wa or not wb:
        return 1, wa or wb
    out: list[int] = []
    sign = 1
    i = j = 0
    while i < len(wa) and j < len(wb):
        if wa[i] == wb[j]:
            return 0, ()
        if wa[i] < wb[j]:
            out.append(wa[i])
            i += 1
        else:
            if (len(wa) - i) % 2:
                sign = -sign
            out.append(wb[j])
            j += 1
    out.extend(wa[i:])
    out.extend(wb[j:])
    return sign, tuple(out)


def _add_term(out: dict[TermKey, Coeff], key: TermKey, v: Coeff) -> None:
    """Add the nonzero coefficient v at key; a sum that cancels is removed."""
    x = out.get(key)
    if x is None:
        out[key] = v
    else:
        x = as_coeff(x + v)
        if x:
            out[key] = x
        else:
            del out[key]


class DifferentialForm:
    """Exact differential form of homogeneous degree.

    terms maps (wedge, monomial, s) to the nonzero coefficient c of the term
    c * monomial * e^{s*exponent} * d(wedge): an int where c is integral, a
    Fraction where it is not.  The constructor takes terms as given; a raw
    coefficient enters only by `Ring.monomial`.  A 0-form is a ring element,
    and * is the wedge product.
    """

    __slots__ = ("ring", "degree", "terms")

    def __init__(self, ring: Ring, degree: int, terms: dict[TermKey, Coeff]):
        self.ring = ring
        self.degree = degree
        self.terms = terms

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

    def _require(self, other: "DifferentialForm") -> None:
        if self.ring is not other.ring:
            raise ValueError("forms from different rings")
        if self.degree != other.degree:
            raise ValueError("forms of different degree")

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._require(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            _add_term(out, k, v)
        return DifferentialForm(self.ring, self.degree, out)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + -other

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(
            self.ring, self.degree, {k: -v for k, v in self.terms.items()}
        )

    def __mul__(self, other: "DifferentialForm") -> "DifferentialForm":
        """Wedge product; for 0-forms, the ring product."""
        if self.ring is not other.ring:
            raise ValueError("forms from different rings")
        out: dict[TermKey, Coeff] = {}
        for (wa, ma, sa), ca in self.terms.items():
            for (wb, mb, sb), cb in other.terms.items():
                sign, w = _merge_wedge(wa, wb)
                if sign:
                    v = as_coeff(ca * cb)
                    _add_term(out, (w, _mono_mul(ma, mb), sa + sb), v if sign > 0 else -v)
        return DifferentialForm(self.ring, self.degree + other.degree, out)

    def power(self, e: int) -> "DifferentialForm":
        if e < 0:
            raise ValueError("negative power")
        acc = self.ring.one()
        for _ in range(e):
            acc = acc * self
        return acc

    def diff(self, v: str) -> "DifferentialForm":
        """Partial derivative of every coefficient with respect to v."""
        ring = self.ring
        i = ring.index(v)
        dexp = ring.exp_derivs.get(v)
        out: dict[TermKey, Coeff] = {}
        for (w, mono, s), c in self.terms.items():
            for pos, (j, e) in enumerate(mono):
                if j == i:
                    lowered = ((j, e - 1),) if e > 1 else ()
                    _add_term(out, (w, mono[:pos] + lowered + mono[pos + 1 :], s), as_coeff(c * e))
                    break
            if s and dexp is not None:
                for (_w, m2, s2), c2 in dexp.terms.items():
                    _add_term(out, (w, _mono_mul(mono, m2), s + s2), as_coeff(c * s * c2))
        return DifferentialForm(ring, self.degree, out)

    def l1(self) -> Coeff:
        return as_coeff(sum(abs(v) for v in self.terms.values()))

    def variables(self) -> set[str]:
        return {self.ring.coords[i] for _w, mono, _s in self.terms for i, _e in mono}

    def __str__(self) -> str:
        by_wedge: dict[Wedge, list[str]] = {}
        for (w, mono, s), c in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0], kv[0][2], kv[0][1])
        ):
            by_wedge.setdefault(w, []).append(self._term_str(mono, s, c))
        parts = []
        for w, bits in by_wedge.items():
            cs = " + ".join(bits)
            if w:
                dw = "^".join(f"d{self.ring.coords[i]}" for i in w)
                cs = f"({cs}) {dw}" if len(bits) > 1 else f"{cs} {dw}"
            parts.append(cs)
        return " + ".join(parts) or "0"

    def _term_str(self, mono: Monomial, s: int, c: Coeff) -> str:
        bits = []
        if c != 1 or (not mono and not s):
            bits.append(str(c))
        for i, e in mono:
            v = self.ring.coords[i]
            bits.append(v if e == 1 else f"{v}^{e}")
        if s:
            sl = self.ring.exp_label
            if s == 1:
                bits.append(f"e^{sl}")
            elif s == -1:
                bits.append(f"e^-{sl}")
            else:
                bits.append(f"e^{s}{sl}")
        return "*".join(bits)


# the coordinate ring of every form of the ideal; forms over different rings
# never mix, so every caller shares this one object
BASE_RING = Ring(("x", "y", "z", "u", "p", "q", "r"))
BASE_RING.exp_derivs = {"u": BASE_RING.one()}


def one_form(ring: Ring, var: str) -> DifferentialForm:
    """d(var)."""
    return DifferentialForm(ring, 1, {((ring.index(var),), (), 0): 1})


def form_from_wedge(ring: Ring, wedge_vars: Sequence[str], coeff=1) -> DifferentialForm:
    """coeff * d(v1)^d(v2)^... in the written order."""
    acc = coeff if isinstance(coeff, DifferentialForm) else ring.const(coeff)
    for v in wedge_vars:
        acc = acc * one_form(ring, v)
    return acc


def ext_d(a: DifferentialForm) -> DifferentialForm:
    """Exterior derivative: d a = sum_v dv ^ (da/dv)."""
    ring = a.ring
    out = DifferentialForm.zero(ring, a.degree + 1)
    for v in ring.coords:
        out = out + one_form(ring, v) * a.diff(v)
    return out


# -- the exterior ideal ------------------------------------------------------


@functools.cache
def base_ideal() -> tuple[DifferentialForm, ...]:
    """The four generators, built on the first call and shared after it (no
    form is ever changed in place):

        theta1 = du^dx^dy - r dx^dy^dz
        theta2 = du^dy^dz - p dx^dy^dz
        theta3 = du^dx^dz + q dx^dy^dz
        theta4 = dp^dy^dz - dq^dx^dz + e^u dr^dx^dy + e^u r^2 dx^dy^dz
    """
    ring = BASE_RING
    f = lambda *vs: form_from_wedge(ring, vs)
    dxdydz = f("x", "y", "z")
    theta1 = f("u", "x", "y") - ring.var("r") * dxdydz
    theta2 = f("u", "y", "z") - ring.var("p") * dxdydz
    theta3 = f("u", "x", "z") + ring.var("q") * dxdydz
    theta4 = (
        f("p", "y", "z")
        - f("q", "x", "z")
        + ring.exp(1) * f("r", "x", "y")
        + ring.exp(1) * ring.var("r", 2) * dxdydz
    )
    return (theta1, theta2, theta3, theta4)


# -- sections and pullback ---------------------------------------------------


def parse_polynomial(spec: dict, ring: Ring) -> DifferentialForm:
    """Polynomial from {"x^2*y": "3/2", "1": 2, ...} over the given ring."""
    acc = DifferentialForm.zero(ring, 0)
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
        acc = acc + ring.monomial(powers, 0, coeff)
    return acc


class Section:
    """Jet section u = f(x,y,z), p = f_x, q = f_y, r = f_z.

    f is an exact polynomial; the pullback target ring tracks E = e^f with
    dE/dv = f_v E.
    """

    def __init__(self, f_spec: dict):
        ring = Ring(("x", "y", "z"), exp_label="f")
        f = parse_polynomial(f_spec, ring)
        self.ring = ring
        self.f = f
        self.fx, self.fy, self.fz = (f.diff(v) for v in ("x", "y", "z"))
        ring.exp_derivs = {"x": self.fx, "y": self.fy, "z": self.fz}
        self._subs = {v: ring.var(v) for v in ring.coords}
        self._subs.update(u=f, p=self.fx, q=self.fy, r=self.fz)
        self._dsubs = {v: ext_d(g) for v, g in self._subs.items()}

    def pullback(self, form: DifferentialForm) -> DifferentialForm:
        ring = self.ring
        names = form.ring.coords
        # pull each wedge's coefficient first, so it is multiplied once into
        # the wedge of the pulled differentials
        coeffs: dict[Wedge, DifferentialForm] = {}
        for (w, mono, s), c in form.terms.items():
            piece = DifferentialForm(ring, 0, {((), (), s): c})
            for i, e in mono:
                try:
                    piece = piece * self._subs[names[i]].power(e)
                except KeyError:
                    raise ValueError(f"cannot pull back coordinate {names[i]!r}") from None
            coeffs[w] = coeffs[w] + piece if w in coeffs else piece
        out = DifferentialForm.zero(ring, form.degree)
        for w, pc in coeffs.items():
            dw = ring.one()
            for i in w:
                try:
                    dw = dw * self._dsubs[names[i]]
                except KeyError:
                    raise ValueError(f"cannot pull back d{names[i]}") from None
            out = out + pc * dw
        return out


def random_section(rng: random.Random, degree: int = 3) -> Section:
    """Seeded random polynomial section of total degree <= degree, from 6
    random terms."""
    monos = [
        "*".join(m) or "1"
        for d in range(degree + 1)
        for m in itertools.combinations_with_replacement(("x", "y", "z"), d)
    ]
    spec: dict[str, Fraction] = {}
    for _ in range(6):
        m = rng.choice(monos)
        spec[m] = spec.get(m, 0) + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Section(spec)


def _float_residual(x: Coeff) -> float:
    """float(x), but at least the smallest subnormal when x is nonzero.

    A residual judged against bound 0 must not round to a pass.
    """
    return float(x) or (math.ulp(0.0) if x else 0.0)


def check_proposition1(section: Section) -> VerificationReport:
    """Pull the four generators back along the section.

    theta1..theta3 must vanish identically; theta4 must pull back to
    (f_xx + f_yy + e^f (f_zz + f_z^2)) dx^dy^dz, the heavenly operator on f.
    """
    ring = section.ring
    fz = section.fz
    heavenly = section.fx.diff("x") + section.fy.diff("y") + (fz.diff("z") + fz * fz) * ring.exp(1)
    expected = [(DifferentialForm.zero(ring, 3), "0")] * 3 + [
        (
            form_from_wedge(ring, ("x", "y", "z"), heavenly),
            "(f_xx + f_yy + e^f (f_zz + f_z^2)) dx^dy^dz",
        )
    ]
    detail = f"f = {section.f}"
    records = [
        make_record(
            f"theta{i}-pullback",
            "eds-proposition1",
            f"section* theta{i} = {rhs}",
            _float_residual((section.pullback(th) - want).l1()),
            0.0,
            detail=detail,
        )
        for i, (th, (want, rhs)) in enumerate(zip(base_ideal(), expected), start=1)
    ]
    return VerificationReport(name="proposition1", records=tuple(records))


# -- ideal membership --------------------------------------------------------


def _monomials_up_to(varset: Sequence[str], degree: int, ring: Ring) -> list[Monomial]:
    out: list[Monomial] = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(sorted(varset), d):
            powers: dict[int, int] = {}
            for v in combo:
                i = ring.index(v)
                powers[i] = powers.get(i, 0) + 1
            out.append(tuple(sorted(powers.items())))
    return out


class MembershipWorkspace:
    """What the membership systems over one tuple of generators share.

    A basis multiplier is mono e^{s u} dv, so its product with theta_j is
    dv ^ theta_j with every monomial multiplied by mono and every exponent
    shifted by s.  Each dv ^ theta_j is expanded once, and each system, the
    columns of one (target degree, multiplier degree, variable set), is
    built and eliminated once, for every target that reads it.  A workspace
    lives for one call, so nothing it holds outlives a change to the maths.
    """

    def __init__(self, generators: Sequence[DifferentialForm]):
        self.gens = tuple(generators)
        self._products: dict[tuple[int, Wedge], DifferentialForm] = {}
        self._systems: dict[tuple, tuple] = {}

    def _product(self, j: int, dw: Wedge) -> DifferentialForm:
        prod = self._products.get((j, dw))
        if prod is None:
            g = self.gens[j]
            prod = DifferentialForm(g.ring, len(dw), {(dw, (), 0): 1}) * g
            self._products[j, dw] = prod
        return prod

    def system(self, target_degree: int, degree: int, varset: Sequence[str]) -> tuple:
        """(basis, row index of each term key, elimination) of the system.

        Column ci is basis[ci] = (j, dw, mono, s); it is the expansion of
        dw ^ theta_j with shifted keys.  Shifting is injective, so a column
        is zero exactly when dw ^ theta_j is.
        """
        key = (target_degree, degree, tuple(varset))
        system = self._systems.get(key)
        if system is not None:
            return system
        ring = self.gens[0].ring
        monos = _monomials_up_to(varset, degree, ring)
        basis: list[tuple[int, Wedge, Monomial, int]] = []
        row_keys: dict[TermKey, int] = {}
        rows: list[dict[int, Coeff]] = []
        for j, g in enumerate(self.gens):
            gap = target_degree - g.degree
            for dw in [(i,) for i in range(len(ring.coords))] if gap else [()]:
                prod = self._product(j, dw)
                if prod.is_zero():
                    continue
                for mono in monos:
                    shifted = [
                        (w, _mono_mul(mono, m), sm, val) for (w, m, sm), val in prod.terms.items()
                    ]
                    for s in (-1, 0, 1):
                        ci = len(basis)
                        basis.append((j, dw, mono, s))
                        for w, m, sm, val in shifted:
                            idx = row_keys.setdefault((w, m, s + sm), len(rows))
                            if idx == len(rows):
                                rows.append({})
                            rows[idx][ci] = val
        system = self._systems[key] = (basis, row_keys, eliminate(rows))
        return system


def ideal_membership(
    target: DifferentialForm,
    generators: Sequence[DifferentialForm],
    multiplier_degree: int = 2,
    workspace: Optional[MembershipWorkspace] = None,
) -> Optional[tuple[DifferentialForm, ...]]:
    """Search for multipliers sigma_j with sum sigma_j ^ theta_j = target,
    returned in the order of the generators.

    The ansatz space is monomials of total degree <= multiplier_degree over
    the variables occurring in the target and generators, times e^{s u} for
    s in {-1, 0, 1}, times the coordinate differentials (or scalars when the
    degrees already match).  Solved exactly; any witness found is verified by
    exact re-expansion before being returned.  A None result means the
    bounded search failed, not a proof of non-membership.  A `workspace`
    built for these generators shares its systems with the caller's other
    searches; the witness is the same with or without it.
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
    if workspace is None:
        workspace = MembershipWorkspace(gens)
    elif workspace.gens != tuple(gens):
        raise ValueError("workspace built for other generators")
    var_target = sorted(target.variables())
    var_all = sorted(set(var_target) | set().union(*(g.variables() for g in gens)))
    for varset in ([var_target, var_all] if var_target != var_all else [var_all]):
        witness = _membership_attempt(target, workspace, multiplier_degree, varset)
        if witness is not None:
            return witness
    return None


def _membership_attempt(
    target: DifferentialForm,
    workspace: MembershipWorkspace,
    degree: int,
    varset: list[str],
) -> Optional[tuple[DifferentialForm, ...]]:
    """One bounded search: the linear system of sum sigma_j ^ theta_j =
    target, the workspace's system with the target's right-hand side."""
    ring = target.ring
    gens = workspace.gens
    basis, row_keys, elim = workspace.system(target.degree, degree, varset)
    rhs: list[Coeff] = [0] * len(row_keys)
    for key, val in target.terms.items():
        idx = row_keys.get(key)
        if idx is None:
            return None  # a term that no column reaches
        rhs[idx] = val
    sol = elim.solve(rhs)
    if sol is None:
        return None
    sigma_terms: list[dict[TermKey, Coeff]] = [{} for _ in gens]
    for ci, (j, dw, mono, s) in enumerate(basis):
        if sol.get(ci):
            sigma_terms[j][(dw, mono, s)] = sol[ci]
    multipliers = tuple(
        DifferentialForm(ring, target.degree - g.degree, terms)
        for g, terms in zip(gens, sigma_terms)
    )
    # exact verification is part of the contract
    acc = DifferentialForm.zero(ring, target.degree)
    for sigma, g in zip(multipliers, gens):
        acc = acc + sigma * g
    if not (acc - target).is_zero():
        return None
    return multipliers


def closure_check(cap: int = 3) -> VerificationReport:
    """d(theta_i) in the ideal, with degree-laddered witness search.

    An exhausted ladder marks the check inconclusive (info) rather than
    failed, since bounded search cannot prove non-membership.  The searches
    share one `MembershipWorkspace`, made for this call.
    """
    thetas = base_ideal()
    workspace = MembershipWorkspace(thetas)
    records = []
    for i, th in enumerate(thetas, start=1):
        dth = ext_d(th)
        found = None
        for deg in range(0, cap + 1):
            found = ideal_membership(dth, thetas, multiplier_degree=deg, workspace=workspace)
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
                    detail=f"witness verified at multiplier degree {deg}",
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

# the slopes u_x, u_y, u_z at which the structure equation is sampled, and
# their triples in the order of three nested loops over them, u_z innermost
_SLOPES = (-1.0, 0.0, 1.0)
_GRID = tuple(itertools.product(_SLOPES, repeat=3))
_UX, _UY, _UZ = (np.array(c).reshape(-1, 1, 1) for c in zip(*_GRID))
# the grid rows at slopes 0, e_x, e_y and e_z
_ORIGIN = _GRID.index((0.0, 0.0, 0.0))
_UNITS = [_GRID.index(e) for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
# every check of constraint_residuals, id -> equation, in report order; the
# first 8, the checks on the slope derivatives, are in the order
# constraint_residuals stacks their matrices
_CONSTRAINTS = {
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


def constraint_residuals(
    inst: ProlongationInstance,
    u_samples: Sequence[float] = (-2.0, -1.0, 0.0),
    D: int = 16,
) -> VerificationReport:
    """Every closure constraint of the prolongation ansatz, numerically.

    Slope derivatives of the builders are exact finite differences (the
    dependence is linear); u-derivatives go through the chain rule
    d/du = (t/2) d/dt on the cal-form series.  Each constraint reports the
    worst (residual - bound) sample.  The two spectral residuals are open:
    reported informationally, never gating.

    At each u the 27 slope triples of _GRID are one axis of a stack: H, F
    and G are `SolutionAt.hfg` over that axis, H_u, the finite differences,
    and the linear parts of the structure equation and of both spectral
    residuals are each one numpy expression over it, and the norms of each
    stack come from one `frobenius_stack`.  Elementwise
    + - * round each entry as the per-slope Operator arithmetic did, so
    every residual is the same float.  An inf or nan stays non-finite under
    + - *, so one finiteness check of each array that becomes an Operator
    or a norm raises wherever a per-operation check would have.  The 8
    matrix products of a slope stay one `Operator.__matmul__` (one np.dot)
    each: a batched np.matmul need not round as np.dot does, and it would
    change the float-matmul count that perfbench pins.
    """
    fi = inst.to_float()
    nL = frobenius(fi.L)
    worst: dict[str, tuple[float, float, str]] = {}

    def record_sample(cid: str, residual: float, bound: float, where: str) -> None:
        prev = worst.get(cid)
        if prev is None or residual - bound > prev[0] - prev[1]:
            worst[cid] = (residual, bound, where)

    try:
        Binv_arr = np.linalg.inv(fi.B.data)
    except np.linalg.LinAlgError:
        # build_instance refuses a B that is singular over the rationals, so
        # only its rounding to float64 can be singular
        raise NonFiniteError("singular B in float64: B^-1 is not finite") from None
    Binv = Operator._checked(np.ascontiguousarray(Binv_arr))

    sol = solution_cal_form(fi, D)
    for u in u_samples:
        at = eval_at_u(fi, sol, u)
        eu = at.exp_u
        rough = 64.0 * EPS * (D + 2) * max(1.0, nL) ** 2 * max(
            1.0, frobenius(at.P) + frobenius(at.M) + frobenius(fi.N) + 1.0
        ) * max(1.0, at.t) ** D
        H, F, G = at.hfg(fi, _UX, _UY, _UZ)
        # slope derivatives (H_{u_x}, H_{u_y}, H_{u_z}) and likewise for F
        # and G: exact finite differences, as the dependence is linear
        dH, dF, dG = (X[_UNITS] - X[_ORIGIN] for X in (H, F, G))
        fd = check_finite(np.array(
            [dH[2] - dG[0] * eu, dF[1] + dG[0], dH[0], dH[1], dF[0], dF[2], dG[1], dG[2]]
        ))
        # zip stops at the 8 norms, the first 8 ids of _CONSTRAINTS
        for cid, residual in zip(_CONSTRAINTS, frobenius_stack(fd)):
            record_sample(cid, residual, rough, f"u={u:g}")

        products = []
        for Hk, Fk, Gk in zip(*(map(Operator._float, X) for X in (H, F, G))):
            products.append([
                (Gk @ Hk).data,
                (Hk @ Gk).data,
                (Gk @ fi.A).data,
                (Hk @ fi.B).data,
                (Fk @ Binv @ Gk).data,
                (Gk @ Binv @ Fk).data,
            ])
        GH, HG, GA, HB, FBG, GBF = (np.array(p) for p in zip(*products))
        # u_z H_u - u_y F_u + u_x G_u - e^u u_z^2 G_{u_x} + [G, H], where
        # H_u = e^u u_z L + P_u, G_u = M_u, and F_u = 0 drops out: a zero
        # term can change only the sign of a zero entry, not a norm
        Hu = fi.L.data * (eu * _UZ) + at.Pu.data
        struct = check_finite(
            Hu * _UZ + at.Mu.data * _UX - dG[0] * (eu * _UZ * _UZ) + (GH - HG)
        )
        spec1 = check_finite(F - GA - HB)
        spec2 = check_finite(FBG - GBF)

        b1, b2, b3 = at.structure_bounds(nL, rough)
        for (ux, uy, uz), r_struct, r_spec1, r_spec2 in zip(
            _GRID, frobenius_stack(struct), frobenius_stack(spec1), frobenius_stack(spec2)
        ):
            bound = 10.0 * (abs(uz) * b1 + abs(ux) * b2 + b3) + rough
            where = f"u={u:g},slopes=({ux:g},{uy:g},{uz:g})"
            record_sample("structure-equation", r_struct, bound, where)
            record_sample("spectral-linear", r_spec1, -1.0, where)
            record_sample("spectral-quadratic", r_spec2, -1.0, where)

    record_sample("AB-commute", frobenius(commutator(fi.A, fi.B)), 64 * EPS * max(
        1.0, frobenius(fi.A) * frobenius(fi.B)
    ), "initial data")

    records = []
    for cid, eq in _CONSTRAINTS.items():
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
