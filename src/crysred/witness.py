"""Witness functions certifying which constituent of the terminal quotient
survives.

Each scenario builds an explicit rational function f on the tree, certifies
that (T - A) f is integral (A the symbolic eigenvalue), reads its residue
mod p in the same walk as sparse monomial entries, sends each monomial
straight to its class in V_r/V** and projects all values into the terminal
quotient as one matrix, and identifies the image against the predicted
generator, computed independently by the module engine; the classes of
the monomials and theta multiples that the checks name are read by index
too.  ``SCENARIOS``
holds each scenario family's hypotheses, function and slope branch; a tag
in ``TAGS`` is a family, with a -low/-high suffix on T8.7 and T9.1 that
must name the branch of the case's slope.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import (
    DEFAULT_PRECISION,
    ApCoeff,
    ResidueExpr,
    choose_alphas,
    choose_alphas_modp2,
    choose_betas,
    choose_gammas_modp2,
    class_sum_S,
    inv_mod,
    padic_val,
)
from .classify import HYP_STAR, CaseDescriptor, case_descriptor
from .errors import DomainError, HypothesisError
from .hecke import (
    IDENTITY,
    IndFunction,
    ResidueFunction,
    ValuationReport,
    audit_valuations,
    g0,
    modp_T,
    residue_terms,
    t_minus_ap,
    teich_table,
)
from .linalg import FpSpace
from .symrep import (
    JHLabel,
    gamma_iso,
    jh_label,
    quotient_Q,
    socle_simples,
    sym_power,
    weight_module,
)

TAGS = (
    "T8.2",
    "T8.4",
    "T8.6",
    "T8.7-low",
    "T8.7-high",
    "T8.8-i",
    "T8.8-ii",
    "T9.1-low",
    "T9.1-high",
    "T9.2",
)


@dataclass(frozen=True)
class WitnessCase:
    tag: str
    p: int
    r: int
    sigma: Fraction
    hyp_star: str = "unknown"
    ubar: int | None = None
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        object.__setattr__(self, "sigma", Fraction(self.sigma))


@dataclass
class WitnessReport:
    """Audit result; ``image_factor`` names the constituent the reduced image
    lands on (the eliminated one, except in the separation scenarios where
    the image refines the Hecke action on the survivor itself)."""

    case: WitnessCase
    integral: bool
    min_valuation: Fraction
    image_coset: str
    image_factor: JHLabel | None
    constant: str
    constant_nonzero: bool
    factorization: str | None
    checks: list[tuple[str, bool]] = field(default_factory=list)
    #: ``ValuationReport.margin`` of (T - A)f; not part of the verdict
    precision_margin: Fraction | None = None

    @property
    def ok(self) -> bool:
        return self.integral and self.constant_nonzero and all(ok for _, ok in self.checks)


# ---------------------------------------------------------------------------
# the scenarios' functions


def _rat(p: int, num, den=1, d=0) -> ApCoeff:
    return ApCoeff.rational(Fraction(num, den), d, p=p)


def _teich_coeff(case: WitnessCase, base: ApCoeff, lam: int, k: int) -> ApCoeff:
    """base * [lam]^k."""
    table = teich_table(case.p, case.precision)
    return base.scale_trunc(table.power(lam, k), case.precision)


def _build_T82_family(case: WitnessCase, desc: CaseDescriptor) -> IndFunction:
    p, r, a = case.p, case.r, desc.a
    f = IndFunction(p, r, case.precision)
    # two-level part: (1/p)(Y^r - X^(p-1) Y^(r-p+1)) over the depth-2 cosets
    for lam in range(p):
        f.add_term(g0(2, (0, lam)), {r: _rat(p, 1, p), r - p + 1: _rat(p, -1, p)})
    # depth-1 part: ((p-1)/p) A^-1 * sum alpha_j X^(r-j) Y^j
    alphas = choose_alphas(r, a, p)
    f.add_term(g0(1, (0,)),
               {j: _rat(p, (p - 1) * alpha, p, d=-1) for j, alpha in alphas.items()})
    if a == p - 1:
        f.add_term(IDENTITY, {0: _rat(p, 1 - p, p), p - 1: _rat(p, p - 1, p)})
    return f


def _build_T86_family(case: WitnessCase, desc: CaseDescriptor) -> IndFunction:
    p, r, b = case.p, case.r, desc.b
    f = IndFunction(p, r, case.precision)
    base = _rat(p, p, 1, d=-1)
    for lam in range(1, p):
        c = _teich_coeff(case, base, lam, p - 2)
        f.add_term(g0(1, (lam,)), {r: c, b: c.scale(-1)})
    c0 = _rat(p, r * (1 - p), 1, d=-1)
    f.add_term(g0(1, (0,)), {r - 1: c0, b - 1: c0.scale(-1)})
    betas = choose_betas(r, b, p)
    f.add_term(IDENTITY,
               {j: _rat(p, p * (p - 1) * beta, 1, d=-2) for j, beta in betas.items()})
    return f


def _build_T88_i(case: WitnessCase, desc: CaseDescriptor) -> IndFunction:
    p, r = case.p, case.r
    f = IndFunction(p, r, case.precision)
    base = _rat(p, 1, p)
    for lam in range(1, p):
        c = _teich_coeff(case, base, lam, p - 2)
        f.add_term(g0(2, (0, lam)), {r: c, p: c.scale(-1)})
    betas = choose_betas(r, p, p)
    f.add_term(g0(1, (0,)),
               {j: _rat(p, (p - 1) * beta, p, d=-1) for j, beta in betas.items()})
    f.add_term(IDENTITY, {0: _rat(p, 1 - p, p), r - p: _rat(p, p - 1, p)})
    return f


def _build_T88_ii(case: WitnessCase, desc: CaseDescriptor) -> IndFunction:
    p, r = case.p, case.r
    f = IndFunction(p, r, case.precision)
    base = _rat(p, 1, 1, d=-1)
    for lam in range(1, p):
        c = _teich_coeff(case, base, lam, p - 2)
        f.add_term(g0(2, (0, lam)), {r: c, p: c.scale(-1)})
    c0 = _rat(p, (1 - p) * r, p, d=-1)
    f.add_term(g0(2, (0, 0)), {r - 1: c0, p - 1: c0.scale(-1)})
    gammas = choose_gammas_modp2(r, p)
    f.add_term(g0(1, (0,)),
               {j: _rat(p, (p - 1) * gamma, 1, d=-2) for j, gamma in gammas.items()})
    f.add_term(IDENTITY, {0: _rat(p, 1 - p, 1, d=-1), r - p: _rat(p, p - 1, 1, d=-1)})
    return f


def _build_T91(case: WitnessCase, desc: CaseDescriptor) -> IndFunction:
    p, r = case.p, case.r
    f = IndFunction(p, r, case.precision)
    # theta * (X^(s-1) Y - Y^s), s = r - p - 1, with exact signed coefficients;
    # at r = 2p+1 the middle indices coincide and must accumulate
    terms: dict[int, int] = {}
    for idx, c in ((2, 1), (p + 1, -1), (r - p, -1), (r - 1, 1)):
        terms[idx] = terms.get(idx, 0) + c
    poly = {j: _rat(p, c, 1, d=-1) for j, c in terms.items() if c}
    for lam in range(p):
        f.add_term(g0(2, (0, lam)), poly)
    alphas = choose_alphas(r - 1, 2, p)
    f.add_term(g0(1, (0,)),
               {j: _rat(p, (p - 1) * p * alpha, 1, d=-2) for j, alpha in alphas.items()})
    if p == 3:
        f.add_term(IDENTITY, {0: _rat(p, (1 - p) * p, 1, d=-1),
                              p - 1: _rat(p, (p - 1) * p, 1, d=-1)})
    return f


def _build_T92(case: WitnessCase, desc: CaseDescriptor) -> IndFunction:
    p, r = case.p, case.r
    f = IndFunction(p, r, case.precision)
    for lam in range(p):
        for mu in range(1, p):
            f.add_term(g0(2, (lam, mu)), {r: _rat(p, 1, 1, d=-1), p: _rat(p, -1, 1, d=-1)})
        f.add_term(g0(2, (lam, 0)), {r: _rat(p, 1 - p, 1, d=-1), p: _rat(p, p - 1, 1, d=-1)})
    alphas = choose_alphas_modp2(r, p)
    poly1 = {j: _rat(p, (p - 1) * alpha, 1, d=-2) for j, alpha in alphas.items()}
    for lam in range(p):
        f.add_term(g0(1, (lam,)), poly1)
    # X^(r-1) Y - X^(r-p) Y^p, i.e. coefficient indices 1 and p
    f.add_term(IDENTITY, {1: _rat(p, r, p, d=-1), p: _rat(p, -r, p, d=-1)})
    return f


# ---------------------------------------------------------------------------
# the scenario table

HALF3 = Fraction(3, 2)


class Scenario(NamedTuple):
    """One scenario family: its hypotheses on (p, r) and their statement,
    its low-branch function, the slopes on its high branch (where the
    function is the low-branch one times A^2/p^3), and the residue of the
    unit symbol that the genericity hypothesis excludes at slope 3/2."""

    admits: Callable[[int, int, CaseDescriptor], bool]
    needs: str
    build: Callable[[WitnessCase, CaseDescriptor], IndFunction]
    high: Callable[[int, int, Fraction], bool] = lambda p, r, sig: False
    critical: Callable[[int, int], int | None] = lambda p, r: None


def _p3_high(p: int, r: int, sig: Fraction) -> bool:
    return p == 3 and sig >= HALF3


def _p3_critical(p: int, r: int) -> int | None:
    return 1 if p == 3 else None


SCENARIOS = {
    "T8.2": Scenario(
        lambda p, r, d: p >= 5 and 3 <= d.a <= p - 1 and r > 2 * p and not d.p_div_r_minus_b,
        "p >= 5, 3 <= a <= p-1, r > 2p, p coprime to r-a", _build_T82_family),
    "T8.4": Scenario(
        lambda p, r, d: d.a == 2 and r > 2 * p and (d.p_div_r or d.p_div_r_minus_1),
        "a = 2, r > 2p, p | r(r-1)", _build_T82_family),
    "T8.6": Scenario(
        lambda p, r, d: p >= 5 and 4 <= d.b <= p - 1 and r > 2 * p and d.p_div_r_minus_b,
        "p >= 5, 4 <= b <= p-1, r > 2p, p | r-b", _build_T86_family),
    "T8.7": Scenario(
        lambda p, r, d: p >= 5 and d.b == 3 and r > 2 * p and d.p_div_r_minus_b,
        "p >= 5, b = 3, r > 2p, p | r-3", _build_T86_family,
        high=lambda p, r, sig: sig > HALF3, critical=lambda p, r: 1),
    "T8.8-i": Scenario(
        lambda p, r, d: d.b == p and r > p and d.p_div_r and not d.p2_div_r_minus_b,
        "b = p, r > p, p | r, p^2 coprime to r-p", _build_T88_i, critical=_p3_critical),
    "T8.8-ii": Scenario(
        lambda p, r, d: d.b == p and r > p and d.p2_div_r_minus_b,
        "b = p, r > p, p^2 | r-p", _build_T88_ii, high=_p3_high, critical=_p3_critical),
    "T9.1": Scenario(
        lambda p, r, d: d.b == 3 and r > 2 * p and (r - 3) % (9 if p == 3 else p) != 0,
        "b = 3, r > 2p, p (9 at p = 3) coprime to r-3", _build_T91,
        high=lambda p, r, sig: 2 * sig > padic_val(math.comb(r - 1, 2), p) + 3,
        critical=lambda p, r: math.comb(r - 1, 2) * (r - 2) % p),
    "T9.2": Scenario(
        lambda p, r, d: d.b == p and r > 2 * p and d.p2_div_r_minus_b,
        "b = p, r > 2p, p^2 | r-p", _build_T92, high=_p3_high, critical=_p3_critical),
}


def _family(tag: str) -> str:
    """The scenario family of a tag: the tag without its slope-branch suffix."""
    if tag not in TAGS:
        raise HypothesisError(f"unknown scenario {tag}")
    return tag.removesuffix("-low").removesuffix("-high")


def _high(case: WitnessCase) -> bool:
    """Whether the case's function is its low-branch function times A^2/p^3."""
    return SCENARIOS[_family(case.tag)].high(case.p, case.r, case.sigma)


def _critical(case: WitnessCase) -> int | None:
    """At slope 3/2, the residue of the unit symbol that genericity excludes."""
    if case.sigma != HALF3:
        return None
    return SCENARIOS[_family(case.tag)].critical(case.p, case.r)


def _validate(case: WitnessCase) -> CaseDescriptor:
    """The case's descriptor, once every hypothesis of its scenario holds."""
    p, r, sig = case.p, case.r, case.sigma
    fam = _family(case.tag)
    if case.hyp_star not in HYP_STAR:
        raise DomainError(f"bad hyp_star value: {case.hyp_star}")
    if not 1 < sig < 2:
        raise DomainError(f"slope {sig} outside the open interval (1, 2)")
    desc = case_descriptor(p, r)
    if case.ubar is not None and case.ubar % p == 0:
        raise DomainError(f"ubar = {case.ubar} is not a unit mod p = {p}")
    row = SCENARIOS[fam]
    if not row.admits(p, r, desc):
        raise HypothesisError(f"{fam} needs {row.needs}")
    high = _high(case)
    if case.tag != fam and case.tag.endswith("-high") != high:
        raise HypothesisError(f"slope {sig} is on the {'high' if high else 'low'} branch here")
    forbidden = _critical(case)
    generic = case.hyp_star == "holds" if case.ubar is None else case.ubar % p != forbidden
    if forbidden is not None and not generic:
        raise HypothesisError(f"{case.tag} at slope 3/2 needs the genericity hypothesis, "
                              f"ubar != {forbidden} (hyp_star = {case.hyp_star}, "
                              f"ubar = {case.ubar})")
    return desc


def build_witness(case: WitnessCase) -> IndFunction:
    """The displayed function for the scenario, with its integer families
    embedded; deterministic in the case parameters."""
    desc = _validate(case)
    f = SCENARIOS[_family(case.tag)].build(case, desc)
    if _high(case):
        f = f.shift_ap(2).scale(Fraction(1, case.p**3))
    return f


# ---------------------------------------------------------------------------
# the verification environment


class QEnv:
    """The terminal quotient with projection helpers for witness checks."""

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r
        self.module = quotient_Q(p, r)
        self.star = self.module.star_image()

    def cls(self, entries: dict[int, int]) -> np.ndarray:
        """The class in Q of sum_j entries[j] X^(r-j) Y^j, one row of
        ``QuotientModule.project_entries``."""
        n = len(entries)
        idx, vals = np.fromiter(entries, np.int64, n), np.fromiter(entries.values(), np.int64, n)
        return self.module.project_entries(np.zeros(n, np.int64), idx, vals, 1)[0]

    def cls_theta(self, m: int) -> np.ndarray:
        """The class of theta * X^(s-m) Y^m, s = r - p - 1."""
        if not 0 <= m <= self.r - self.p - 1:
            raise ValueError("monomial exponent out of range")
        return self.cls({m + 1: 1, m + self.p: self.p - 1})

    def bottom(self) -> FpSpace:
        """The bottom constituent, spun from [theta Y^(r-p-1)]."""
        return self.module.spin([self.cls_theta(self.r - self.p - 1)])

    def kill_submodule(self, keep: JHLabel) -> FpSpace:
        """Span of the socle constituents whose label differs from ``keep``:
        the rows ``socle_simples`` gives for each such label."""
        kill = FpSpace(self.module.dim, self.p)
        for label, rows in socle_simples(self.module)[1]:
            if label != keep:
                kill.add_rows(rows)
        return kill


def _expr_nonzero(expr: ResidueExpr, case: WitnessCase) -> bool:
    if expr.is_zero():
        return False
    if case.ubar is not None:
        return expr.eval_at(case.ubar) != 0
    crit = expr.vanishing_unit()
    if crit is None or crit == _critical(case):
        return True
    raise HypothesisError(
        f"constant {expr.render()} vanishes at residue {crit}; no hypothesis excludes it"
    )


def _residue_of(case: WitnessCase, num: Fraction, d: int) -> ResidueExpr:
    """Residue of num * A^d under the case slope (zero if positive valuation),
    read by the audit's rule on the constant function num * A^d at IDENTITY."""
    f = IndFunction(case.p, case.r)
    f.add_term(IDENTITY, {0: ApCoeff.rational(num, d, p=case.p)})
    residue = residue_terms(audit_valuations(f, case.sigma))
    return ResidueExpr(case.p, {e: entries[0] for (_, e), entries in residue.items()})


def _residue_in_Q(env: QEnv, residue: dict) -> ResidueFunction:
    """The residue {(coset, e): {monomial index: value}} with its values
    projected into Q, as one matrix of classes built entry by entry."""
    out = ResidueFunction(env.p)
    if residue:
        rows = np.repeat(np.arange(len(residue)), [len(v) for v in residue.values()])
        idx = np.fromiter((j for v in residue.values() for j in v), np.int64, len(rows))
        vals = np.fromiter((x for v in residue.values() for x in v.values()), np.int64, len(rows))
        classes = env.module.project_entries(rows, idx, vals, len(residue))
        # one value per key, already reduced: a zero class leaves no key
        out.data = {key: vec for key, vec, live in zip(residue, classes, classes.any(axis=1))
                    if live}
    return out


def _in_space(space: FpSpace, fn: ResidueFunction) -> bool:
    """Whether every value of ``fn`` lies in ``space``, reduced as one matrix."""
    return not fn.data or not space.reduce(np.array(list(fn.data.values()))).any()


# ---------------------------------------------------------------------------
# scenario verdicts


def verify_witness(case: WitnessCase) -> WitnessReport:
    """Full audit: integrality of (T - A) f, image identification in the
    terminal quotient, and the surviving-constituent certificate."""
    audit = audit_valuations(t_minus_ap(build_witness(case)), case.sigma)
    if not audit.integral:
        return WitnessReport(case, False, audit.min_valuation, "-", None, "-", False, None,
                             [("integral", False)], audit.margin)
    coset, label, c_expr, factorization, checks = _identify_image(case, audit)
    return WitnessReport(case, True, audit.min_valuation, coset, label, c_expr.render(),
                         _expr_nonzero(c_expr, case), factorization, checks, audit.margin)


def _identify_image(case: WitnessCase, audit: ValuationReport):
    """Project the residue of the integral (T - A)f, as its audit read it,
    into the terminal quotient and check the scenario's claimed image.
    Returns the image coset, the constituent it lands on, the constant, the
    Hecke factorization (or None) and the named checks."""
    fam, p, r = _family(case.tag), case.p, case.r
    desc = case_descriptor(p, r)
    a, b = desc.a, desc.b
    env = QEnv(p, r)
    rq = _residue_in_Q(env, residue_terms(audit))
    high = _high(case)
    checks: list[tuple[str, bool]] = []
    target = g0(1, (0,))
    if fam in ("T8.2", "T8.4", "T8.6", "T8.7", "T8.8-i"):
        checks.append(("image supported on one depth-1 coset", rq.support() == [target]))

    if fam in ("T8.2", "T8.4"):
        checks.append(("image has no symbol part", all(e == 0 for c, e in rq.data if c == target)))
        v = rq.data.get((target, 0), np.zeros(env.module.dim, dtype=np.int64))
        # the reduction carries an extra factor p-1, so the constant is
        # (r-a)/a, i.e. minus the class-sum value
        c = (r - a) * inv_mod(a, p) % p
        checks.append(("constant matches the class-sum closed form",
                       c == (-class_sum_S(r, a, p)[1]) % p))
        gen = env.cls({a: 1})
        checks.append(("image = c * generator modulo the singular part",
                       (v - c * gen) % p in env.star))
        checks.append(("generator survives the singular part", gen not in env.star))
        checks.append(("image is nonzero past the singular part", v not in env.star))
        return target.render(), jh_label(p - a - 1, a, p), ResidueExpr.const(c, p), None, checks

    if fam == "T8.6":
        combo = ResidueFunction.single(p, target, env.cls_theta(r - p - 1) - env.cls_theta(b - 2))
        checks.append(("image equals the claimed theta combination",
                       rq == combo.scale_expr(ResidueExpr.const(b, p))))
        v = rq.data.get((target, 0), np.zeros(env.module.dim, dtype=np.int64))
        checks.append(("image generates the full singular image", env.module.spin([v]) == env.star))
        j0part = env.bottom()
        checks.append(("bottom constituent has the right size", j0part.dim == b - 1))
        checks.append(
            ("image hits the middle constituent with constant -b",
             (v + b * env.cls_theta(b - 2)) % p in j0part and v not in j0part)
        )
        return target.render(), jh_label(p - b + 1, b - 1, p), ResidueExpr.const(-b, p), None, checks

    if fam == "T8.7":
        c_expr = (ResidueExpr.const(-3, p) if high
                  else ResidueExpr.const(3, p) - _residue_of(case, Fraction(3 * p**3), -2))
        q = env.cls({2: 1})
        checks.append(("image equals c * [X^(r-2) Y^2]",
                       rq == ResidueFunction.single(p, target, q).scale_expr(c_expr)))
        checks.append(("generator class generates the singular image",
                       env.module.spin([q]) == env.star))
        return target.render(), jh_label(p - 2, 2, p), c_expr, None, checks

    if fam == "T8.8-i":
        c_expr = ResidueExpr.const((r - p) // p, p)
        gen = ResidueFunction.single(p, target, env.cls_theta(r - p - 1))
        checks.append(("image equals c * [theta Y^(r-p-1)]", rq == gen.scale_expr(c_expr)))
        j0part = env.bottom()
        checks.append(("bottom constituent has dimension p-1", j0part.dim == p - 1))
        v = rq.data.get((target, 0), np.zeros(env.module.dim, dtype=np.int64))
        checks.append(("image generates the bottom constituent", env.module.spin([v]) == j0part))
        return target.render(), jh_label(p - 2, 1, p), c_expr, None, checks

    if fam == "T8.8-ii":
        j0part = env.bottom()
        checks.append(("values sit inside the singular image", _in_space(env.star, rq)))
        _, proj = env.module.quotient(j0part)
        top = rq.map_vectors(proj)
        target = g0(2, (0, 0))
        checks.append(("top-constituent image is a single coset", top.support() == [target]))
        # high: 1 - (residue of A^2/p^3), a pure 1 for slopes above 3/2
        c_expr = (ResidueExpr.const(1, p) - _residue_of(case, Fraction(1, p**3), 2) if high
                  else ResidueExpr.const(-1, p))
        # reference generator theta X^(r-2p+1) Y^(p-2), i.e. Y-exponent p-2
        gen = ResidueFunction.single(p, target, proj(env.cls_theta(p - 2)))
        checks.append(("top image = c * [theta X^(r-2p+1) Y^(p-2)]",
                       top == gen.scale_expr(c_expr)))
        return target.render(), jh_label(1, 0, p), c_expr, None, checks

    if fam == "T9.1":
        cosets = [g0(2, (0, lam)) for lam in range(p)]
        checks.append(("image spread over the p depth-2 cosets",
                       rq.support() == sorted(cosets)))
        checks.append(("values sit inside the singular image", _in_space(env.star, rq)))
        keep = jh_label(p - 2, 2, p)
        qmod, proj = env.module.quotient(env.kill_submodule(keep))
        model = weight_module(p, p - 2, 2 % (p - 1))
        x0 = sym_power(p, p - 2).monomial(0)
        iso = gamma_iso(qmod, proj(env.cls_theta(1)), model, x0)
        g_fn = rq.map_vectors(lambda rows: proj(rows) @ iso.T % p)
        h = modp_T(ResidueFunction.single(p, target, x0), p - 2)
        kappa = math.comb(r - 1, 2) * (r - 2)
        # low: c = (p^3/A^2) binom(r-1,2)(r-2) - 1
        c_expr = (ResidueExpr.const(kappa, p) if high
                  else ResidueExpr.const(-1, p) + _residue_of(case, Fraction(p**3 * kappa), -2))
        checks.append(("image factors through T on the surviving weight",
                       g_fn == h.scale_expr(c_expr)))
        return "sum over depth-2 cosets", keep, c_expr, "T", checks

    # T9.2
    j0part = env.bottom()
    inside = _in_space(j0part, rq)
    checks.append(("values sit inside the bottom constituent", inside))
    # high: (residue of A^2/p^3) - 1, relative to the -X^(p-2) normalization
    c_expr = (_residue_of(case, Fraction(1, p**3), 2) - ResidueExpr.const(1, p) if high
              else ResidueExpr.const(1, p))
    if inside:  # otherwise the values have no coordinates on the bottom constituent
        sub = env.module.restrict(j0part)
        model = weight_module(p, p - 2, 1)
        iso = gamma_iso(sub, j0part.express(env.cls_theta(r - p - 1)), model,
                        sym_power(p, p - 2).monomial(p - 2))
        g_fn = rq.map_vectors(lambda rows: j0part.express(rows) @ iso.T % p)
        base = ResidueFunction.single(p, IDENTITY, -sym_power(p, p - 2).monomial(0))
        t2 = modp_T(modp_T(base, p - 2), p - 2) + base
        checks.append(("image equals c * (T^2 + 1)[Id, -X^(p-2)]",
                       g_fn == t2.scale_expr(c_expr)))
    return "depth-2 cosets plus identity", jh_label(p - 2, 1, p), c_expr, "T^2+1", checks
