"""Witness functions certifying which constituent of the terminal quotient
survives.

Each scenario builds an explicit rational function f on the tree, certifies
that (T - A) f is integral (A the symbolic eigenvalue), reduces it mod p,
projects coset-by-coset into the terminal quotient, and identifies the image
against the predicted generator, computed independently by the module
engine.  Scenario ids follow the acceptance matrix: T8.2, T8.4, T8.6,
T8.7-low/high, T8.8-i/ii, T9.1-low/high, T9.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

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
    require_odd_prime,
)
from .classify import case_descriptor
from .errors import DomainError, HypothesisError
from .hecke import (
    IDENTITY,
    IndFunction,
    ResidueFunction,
    audit_valuations,
    g0,
    modp_T,
    precision_margin,
    reduce_mod_p,
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
    notes: list[str] = field(default_factory=list)
    #: smallest err + d*sigma - 1 over the truncated terms of (T - A)f, the
    #: absolute cap counted as one more term; the audit aborts below
    #: PRECISION_HEADROOM, and each carried digit more adds one.  Not part
    #: of the verdict.
    precision_margin: Fraction | None = None

    @property
    def ok(self) -> bool:
        return self.integral and self.constant_nonzero and all(ok for _, ok in self.checks)


# ---------------------------------------------------------------------------
# hypotheses


def _genericity_forbidden(case: WitnessCase) -> int | None:
    """The residue value of the unit symbol that must be avoided, or None."""
    p, r = case.p, case.r
    half3 = case.sigma == Fraction(3, 2)
    if case.tag.startswith("T8.7") and half3:
        return 1
    if case.tag.startswith("T9.1") and half3:
        return math.comb(r - 1, 2) * (r - 2) % p
    if case.tag in ("T8.8-i", "T8.8-ii", "T9.2") and p == 3 and half3:
        return 1
    return None


def _check_genericity(case: WitnessCase) -> int | None:
    forbidden = _genericity_forbidden(case)
    if forbidden is None:
        return None
    if case.ubar is not None:
        if case.ubar % case.p == forbidden:
            raise HypothesisError(
                f"genericity fails: residue symbol equals the critical value {forbidden}"
            )
        return forbidden
    if case.hyp_star != "holds":
        raise HypothesisError(
            f"{case.tag} at slope 3/2 needs the genericity hypothesis "
            f"(hyp_star = {case.hyp_star}); critical residue value is {forbidden}"
        )
    return forbidden


def _validate(case: WitnessCase) -> dict:
    p, r, sig = case.p, case.r, case.sigma
    if case.tag not in TAGS:
        raise HypothesisError(f"unknown scenario {case.tag}")
    if case.ubar is not None:
        require_odd_prime(p)  # a unit mod p needs p first
        if case.ubar % p == 0:
            raise DomainError(f"ubar = {case.ubar} is not a unit mod p = {p}")
    if not Fraction(1) < sig < Fraction(2):
        raise HypothesisError(f"slope {sig} outside (1, 2)")
    desc = case_descriptor(p, r)
    a, b = desc.a, desc.b
    tag = case.tag
    if tag in ("T8.2", "T8.4"):
        if tag == "T8.2":
            if p < 5 or not (3 <= a <= p - 1) or r <= 2 * p or desc.p_div_r_minus_b:
                raise HypothesisError("need p >= 5, 3 <= a <= p-1, r > 2p, p coprime to r-a")
        else:
            if a != 2 or r <= 2 * p or not (desc.p_div_r or desc.p_div_r_minus_1):
                raise HypothesisError("need a = 2, r > 2p, p | r(r-1)")
    elif tag == "T8.6":
        if p < 5 or not (4 <= b <= p - 1) or r <= 2 * p or not desc.p_div_r_minus_b:
            raise HypothesisError("need p >= 5, 4 <= b <= p-1, r > 2p, p | r-b")
    elif tag.startswith("T8.7"):
        if p < 5 or b != 3 or r <= 2 * p or not desc.p_div_r_minus_b:
            raise HypothesisError("need p >= 5, b = 3, r > 2p, p | r-3")
        if tag.endswith("low") and sig > Fraction(3, 2):
            raise HypothesisError("low branch needs slope <= 3/2")
        if tag.endswith("high") and sig <= Fraction(3, 2):
            raise HypothesisError("high branch needs slope > 3/2")
    elif tag.startswith("T8.8"):
        if b != p or r <= p or not desc.p_div_r:
            raise HypothesisError("need b = p, r > p, p | r")
        if tag == "T8.8-i" and desc.p2_div_r_minus_b:
            raise HypothesisError("branch i needs p^2 coprime to r-p")
        if tag == "T8.8-ii" and not desc.p2_div_r_minus_b:
            raise HypothesisError("branch ii needs p^2 | r-p")
    elif tag.startswith("T9.1"):
        if b != 3 and not (p == 3 and b == p):
            raise HypothesisError("need class 3")
        lim = p * p if p == 3 else p
        if r <= 2 * p or (r - 3) % lim == 0:
            raise HypothesisError(f"need r > 2p and {lim} coprime to r-3")
        v2 = padic_val(math.comb(r - 1, 2), p)
        low = 2 * sig <= v2 + 3
        if tag.endswith("low") != low:
            raise HypothesisError(
                f"slope {sig} is on the {'low' if low else 'high'} branch here"
            )
    elif tag == "T9.2":
        if b != p or r <= 2 * p or not desc.p2_div_r_minus_b:
            raise HypothesisError("need b = p, r > 2p, p^2 | r-p")
    forbidden = _check_genericity(case)
    return {"desc": desc, "a": a, "b": b, "forbidden": forbidden}


# ---------------------------------------------------------------------------
# builders


def _rat(p: int, num, den=1, d=0) -> ApCoeff:
    return ApCoeff.rational(Fraction(num, den), d, p=p)


def _teich_coeff(case: WitnessCase, base: ApCoeff, lam: int, k: int) -> ApCoeff:
    """base * [lam]^k."""
    table = teich_table(case.p, case.precision)
    return base.scale_trunc(table.power(lam, k), case.precision)


def _build_T82_family(case: WitnessCase, a: int) -> IndFunction:
    p, r = case.p, case.r
    f = IndFunction(p, r, case.precision)
    # two-level part: (1/p)(Y^r - X^(p-1) Y^(r-p+1)) over the depth-2 cosets
    for lam in range(p):
        f.add_term(g0(2, (0, lam)), {r: _rat(p, 1, p), r - p + 1: _rat(p, -1, p)})
    # depth-1 part: ((p-1)/p) A^-1 * sum alpha_j X^(r-j) Y^j
    alphas = choose_alphas(r, a, p)
    f.add_term(
        g0(1, (0,)),
        {j: _rat(p, (p - 1) * alpha, p, d=-1) for j, alpha in alphas.items()},
    )
    if a == p - 1:
        f.add_term(IDENTITY, {0: _rat(p, 1 - p, p), p - 1: _rat(p, p - 1, p)})
    return f


def _build_T86_family(case: WitnessCase, b: int) -> IndFunction:
    p, r = case.p, case.r
    f = IndFunction(p, r, case.precision)
    base = _rat(p, p, 1, d=-1)
    for lam in range(1, p):
        c = _teich_coeff(case, base, lam, p - 2)
        f.add_term(g0(1, (lam,)), {r: c, b: c.scale(-1)})
    c0 = _rat(p, r * (1 - p), 1, d=-1)
    f.add_term(g0(1, (0,)), {r - 1: c0, b - 1: c0.scale(-1)})
    betas = choose_betas(r, b, p)
    f.add_term(
        IDENTITY,
        {j: _rat(p, p * (p - 1) * beta, 1, d=-2) for j, beta in betas.items()},
    )
    return f


def _build_T87_high(case: WitnessCase) -> IndFunction:
    p, r, b = case.p, case.r, 3
    f = IndFunction(p, r, case.precision)
    base = _rat(p, 1, p * p, d=1)
    for lam in range(1, p):
        c = _teich_coeff(case, base, lam, p - 2)
        f.add_term(g0(1, (lam,)), {r: c, b: c.scale(-1)})
    c0 = _rat(p, r * (1 - p), p**3, d=1)
    f.add_term(g0(1, (0,)), {r - 1: c0, b - 1: c0.scale(-1)})
    betas = choose_betas(r, b, p)
    f.add_term(
        IDENTITY,
        {j: _rat(p, (p - 1) * beta, p * p) for j, beta in betas.items()},
    )
    return f


def _build_T88_i(case: WitnessCase) -> IndFunction:
    p, r = case.p, case.r
    f = IndFunction(p, r, case.precision)
    base = _rat(p, 1, p)
    for lam in range(1, p):
        c = _teich_coeff(case, base, lam, p - 2)
        f.add_term(g0(2, (0, lam)), {r: c, p: c.scale(-1)})
    betas = choose_betas(r, p, p)
    f.add_term(
        g0(1, (0,)),
        {j: _rat(p, (p - 1) * beta, p, d=-1) for j, beta in betas.items()},
    )
    f.add_term(IDENTITY, {0: _rat(p, 1 - p, p), r - p: _rat(p, p - 1, p)})
    return f


def _build_T88_ii(case: WitnessCase) -> IndFunction:
    p, r = case.p, case.r
    f = IndFunction(p, r, case.precision)
    base = _rat(p, 1, 1, d=-1)
    for lam in range(1, p):
        c = _teich_coeff(case, base, lam, p - 2)
        f.add_term(g0(2, (0, lam)), {r: c, p: c.scale(-1)})
    c0 = _rat(p, (1 - p) * r, p, d=-1)
    f.add_term(g0(2, (0, 0)), {r - 1: c0, p - 1: c0.scale(-1)})
    gammas = choose_gammas_modp2(r, p)
    f.add_term(
        g0(1, (0,)),
        {j: _rat(p, (p - 1) * gamma, 1, d=-2) for j, gamma in gammas.items()},
    )
    f.add_term(IDENTITY, {0: _rat(p, 1 - p, 1, d=-1), r - p: _rat(p, p - 1, 1, d=-1)})
    if p == 3 and case.sigma >= Fraction(3, 2):
        f = f.shift_ap(2).scale(Fraction(1, p**3))
    return f


def _theta_times(p: int, r: int, m: int, c: int = 1) -> np.ndarray:
    """theta * X^(s-m) Y^m as an ambient degree-r vector (s = r - p - 1)."""
    if not 0 <= m <= r - p - 1:
        raise ValueError("monomial exponent out of range")
    vec = np.zeros(r + 1, dtype=np.int64)
    vec[m + 1] = c % p
    vec[m + p] = -c % p
    return vec


def _build_T91(case: WitnessCase) -> IndFunction:
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
    f.add_term(
        g0(1, (0,)),
        {j: _rat(p, (p - 1) * p * alpha, 1, d=-2) for j, alpha in alphas.items()},
    )
    if p == 3:
        f.add_term(IDENTITY, {0: _rat(p, (1 - p) * p, 1, d=-1),
                              p - 1: _rat(p, (p - 1) * p, 1, d=-1)})
    if case.tag.endswith("high"):
        f = f.shift_ap(2).scale(Fraction(1, p**3))
    return f


def _build_T92(case: WitnessCase) -> IndFunction:
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
    if p == 3 and case.sigma >= Fraction(3, 2):
        f = f.shift_ap(2).scale(Fraction(1, p**3))
    return f


def build_witness(case: WitnessCase) -> IndFunction:
    """The displayed function for the scenario, with its integer families
    embedded; deterministic in the case parameters."""
    info = _validate(case)
    tag = case.tag
    if tag == "T8.2":
        return _build_T82_family(case, info["a"])
    if tag == "T8.4":
        return _build_T82_family(case, 2)
    if tag == "T8.6":
        return _build_T86_family(case, info["b"])
    if tag == "T8.7-low":
        return _build_T86_family(case, 3)
    if tag == "T8.7-high":
        return _build_T87_high(case)
    if tag == "T8.8-i":
        return _build_T88_i(case)
    if tag == "T8.8-ii":
        return _build_T88_ii(case)
    if tag in ("T9.1-low", "T9.1-high"):
        return _build_T91(case)
    return _build_T92(case)


# ---------------------------------------------------------------------------
# the verification environment


class QEnv:
    """The terminal quotient with projection helpers for witness checks."""

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r
        self.module = quotient_Q(p, r)
        self.star = self.module.star_image()

    def cls(self, vec) -> np.ndarray:
        return self.module.project(vec)

    def cls_theta(self, m: int, c: int = 1) -> np.ndarray:
        return self.cls(_theta_times(self.p, self.r, m, c))

    def kill_submodule(self, keep: JHLabel) -> FpSpace:
        """Span of the socle constituents whose label differs from ``keep``."""
        rows = [row for label, sub in socle_simples(self.module) if label != keep for row in sub.rows]
        return FpSpace.from_rows(rows, self.module.dim, self.p)


def _expected_fn(env: QEnv, entries) -> ResidueFunction:
    """Assemble the claimed image: entries are (coset, expr, ambient vec)."""
    out = ResidueFunction(env.p, env.module.dim)
    for coset, expr, vec in entries:
        q = env.cls(vec)
        for e, c in expr.coeffs.items():
            out.accumulate(coset, e, c * q)
    return out.prune()


def _expr_nonzero(expr: ResidueExpr, forbidden: int | None, ubar: int | None) -> bool:
    if expr.is_zero():
        return False
    if ubar is not None:
        return expr.eval_at(ubar) != 0
    crit = expr.vanishing_unit()
    if crit is None:
        return True
    if forbidden is not None and crit == forbidden:
        return True
    raise HypothesisError(
        f"constant {expr.render()} vanishes at residue {crit}; no hypothesis excludes it"
    )


def _residue_of(case: WitnessCase, num: Fraction, d: int) -> ResidueExpr:
    """Residue of num * A^d under the case slope (zero if positive valuation)."""
    return ApCoeff.rational(num, d, p=case.p).residue(case.sigma)


def _in_space(space: FpSpace, fn: ResidueFunction) -> bool:
    return all(v in space for comp in fn.data.values() for v in comp.values())


# ---------------------------------------------------------------------------
# scenario verdicts


def verify_witness(case: WitnessCase) -> WitnessReport:
    """Full audit: integrality of (T - A) f, image identification in the
    terminal quotient, and the surviving-constituent certificate."""
    info = _validate(case)
    f = build_witness(case)
    g = t_minus_ap(f)
    audit = audit_valuations(g, case.sigma)
    if audit.integral:
        rep = _identify_image(case, info, g, audit)
    else:
        rep = WitnessReport(
            case, False, audit.min_valuation, "-", None, "-", False, None,
            [("integral", False)], [f"valuation failures: {audit.failures[:3]}"],
        )
    rep.precision_margin = precision_margin(g, case.sigma)
    return rep


def _identify_image(case: WitnessCase, info: dict, g: IndFunction, audit) -> WitnessReport:
    """Reduce the integral (T - A)f mod p, project it into the terminal
    quotient and check the scenario's claimed image."""
    forbidden = info["forbidden"]
    checks: list[tuple[str, bool]] = []
    notes: list[str] = []
    env = QEnv(case.p, case.r)
    rq = reduce_mod_p(g, case.sigma).map_vectors(env.cls, env.module.dim)
    tag, p, r = case.tag, case.p, case.r
    desc = info["desc"]

    if tag in ("T8.2", "T8.4"):
        a = info["a"] if tag == "T8.2" else 2
        target = g0(1, (0,))
        checks.append(("image supported on one depth-1 coset", rq.support() == [target]))
        comp = rq.data.get(target, {})
        checks.append(("image has no symbol part", set(comp) <= {0}))
        v = comp.get(0, np.zeros(env.module.dim, dtype=np.int64))
        # the reduction carries an extra factor p-1, so the constant is
        # (r-a)/a, i.e. minus the class-sum value
        c = (r - a) * inv_mod(a, p) % p
        checks.append(("constant matches the class-sum closed form",
                       c == (-class_sum_S(r, a, p)[1]) % p))
        gen = env.cls(sym_power(p, r).monomial(a))
        checks.append(("image = c * generator modulo the singular part",
                       (v - c * gen) % p in env.star))
        checks.append(("generator survives the singular part", gen not in env.star))
        checks.append(("image is nonzero past the singular part", v not in env.star))
        label = jh_label(p - a - 1, a, p)
        return WitnessReport(case, True, audit.min_valuation, target.render(), label,
                             str(c), c != 0, None, checks, notes)

    if tag == "T8.6":
        b = info["b"]
        target = g0(1, (0,))
        checks.append(("image supported on one depth-1 coset", rq.support() == [target]))
        expected = _expected_fn(
            env,
            [(target, ResidueExpr.const(-b, p), _theta_times(p, r, b - 2)),
             (target, ResidueExpr.const(b, p), _theta_times(p, r, r - p - 1))],
        )
        checks.append(("image equals the claimed theta combination", rq == expected))
        v = rq.data[target][0]
        span = env.module.spin([v])
        checks.append(("image generates the full singular image", span == env.star))
        j0part = env.module.spin([env.cls_theta(r - p - 1)])
        checks.append(("bottom constituent has the right size", j0part.dim == b - 1))
        checks.append(
            ("image hits the middle constituent with constant -b",
             (v + b * env.cls_theta(b - 2)) % p in j0part and v not in j0part)
        )
        label = jh_label(p - b + 1, b - 1, p)
        return WitnessReport(case, True, audit.min_valuation, target.render(), label,
                             str(-b % p), True, None, checks, notes)

    if tag.startswith("T8.7"):
        target = g0(1, (0,))
        checks.append(("image supported on one depth-1 coset", rq.support() == [target]))
        if tag.endswith("low"):
            c_expr = ResidueExpr.const(3, p) - _residue_of(case, Fraction(3 * p**3), -2)
        else:
            c_expr = ResidueExpr.const(-3, p)
        gen_vec = sym_power(p, r).monomial(2)
        expected = ResidueFunction(env.p, env.module.dim)
        q = env.cls(gen_vec)
        for e, cc in c_expr.coeffs.items():
            expected.accumulate(target, e, cc * q)
        checks.append(("image equals c * [X^(r-2) Y^2]", rq == expected.prune()))
        nonzero = _expr_nonzero(c_expr, forbidden, case.ubar)
        checks.append(("generator class generates the singular image",
                       env.module.spin([q]) == env.star))
        label = jh_label(p - 2, 2, p)
        return WitnessReport(case, True, audit.min_valuation, target.render(), label,
                             c_expr.render(), nonzero, None, checks, notes)

    if tag == "T8.8-i":
        target = g0(1, (0,))
        checks.append(("image supported on one depth-1 coset", rq.support() == [target]))
        c = (r - p) // p % p
        expected = _expected_fn(env, [(target, ResidueExpr.const(c, p),
                                       _theta_times(p, r, r - p - 1))])
        checks.append(("image equals c * [theta Y^(r-p-1)]", rq == expected))
        j0part = env.module.spin([env.cls_theta(r - p - 1)])
        checks.append(("bottom constituent has dimension p-1", j0part.dim == p - 1))
        v = rq.data[target][0]
        checks.append(("image generates the bottom constituent", env.module.spin([v]) == j0part))
        return WitnessReport(case, True, audit.min_valuation, target.render(),
                             jh_label(p - 2, 1, p), str(c), c != 0, None, checks, notes)

    if tag == "T8.8-ii":
        high = p == 3 and case.sigma >= Fraction(3, 2)
        j0part = env.module.spin([env.cls_theta(r - p - 1)])
        checks.append(("values sit inside the singular image", _in_space(env.star, rq)))
        qmod, proj = env.module.quotient(j0part)
        top = rq.map_vectors(proj, qmod.dim)
        target = g0(2, (0, 0))
        checks.append(("top-constituent image is a single coset", top.support() == [target]))
        # reference generator theta X^(r-2p+1) Y^(p-2), i.e. Y-exponent p-2
        gen_top = proj(env.cls_theta(p - 2))
        c_expr = ResidueExpr.const(-1, p)
        if high:
            # 1 - (residue of A^2/p^3); a pure 1 for slopes above 3/2
            c_expr = ResidueExpr.const(1, p) - _residue_of(case, Fraction(1, p**3), 2)
        expected = ResidueFunction(p, qmod.dim)
        for e, cc in c_expr.coeffs.items():
            expected.accumulate(target, e, cc * gen_top)
        checks.append(("top image = c * [theta X^(r-2p+1) Y^(p-2)]", top == expected.prune()))
        nonzero = _expr_nonzero(c_expr, forbidden, case.ubar)
        return WitnessReport(case, True, audit.min_valuation, target.render(),
                             jh_label(1, 0, p), c_expr.render(), nonzero, None, checks, notes)

    if tag.startswith("T9.1"):
        cosets = [g0(2, (0, lam)) for lam in range(p)]
        checks.append(("image spread over the p depth-2 cosets",
                       rq.support() == sorted(cosets)))
        checks.append(("values sit inside the singular image", _in_space(env.star, rq)))
        keep = jh_label(p - 2, 2, p)
        kill = env.kill_submodule(keep)
        qmod, proj = env.module.quotient(kill)
        model = weight_module(p, p - 2, 2 % (p - 1))
        iso = gamma_iso(qmod, proj(env.cls_theta(1)), model,
                        sym_power(p, p - 2).monomial(0))
        g_fn = rq.map_vectors(lambda v: iso @ proj(v) % p, p - 1)
        h = ResidueFunction(p, p - 1)
        h.accumulate(g0(1, (0,)), 0, sym_power(p, p - 2).monomial(0))
        h = modp_T(h, p - 2)
        kappa = math.comb(r - 1, 2) * (r - 2) % p
        if tag.endswith("low"):
            # c = (p^3/A^2) binom(r-1,2)(r-2) - 1
            c_expr = ResidueExpr.const(-1, p) + _residue_of(
                case, Fraction(p**3 * math.comb(r - 1, 2) * (r - 2)), -2
            )
        else:
            c_expr = ResidueExpr.const(kappa, p)
        checks.append(("image factors through T on the surviving weight",
                       g_fn == h.scale_expr(c_expr)))
        nonzero = _expr_nonzero(c_expr, forbidden, case.ubar)
        return WitnessReport(case, True, audit.min_valuation,
                             "sum over depth-2 cosets", keep, c_expr.render(),
                             nonzero, "T", checks, notes)

    # T9.2
    high = p == 3 and case.sigma >= Fraction(3, 2)
    j0part = env.module.spin([env.cls_theta(r - p - 1)])
    checks.append(("values sit inside the bottom constituent", _in_space(j0part, rq)))
    sub = env.module.restrict(j0part)
    model = weight_module(p, p - 2, 1)
    iso = gamma_iso(sub, j0part.express(env.cls_theta(r - p - 1)), model,
                    sym_power(p, p - 2).monomial(p - 2))
    g_fn = rq.map_vectors(lambda v: iso @ j0part.express(v) % p, p - 1)
    base = ResidueFunction(p, p - 1)
    base.accumulate(IDENTITY, 0, (-sym_power(p, p - 2).monomial(0)) % p)
    t2 = modp_T(modp_T(base, p - 2), p - 2) + base
    c_expr = ResidueExpr.const(1, p)
    if high:
        # (residue of A^2/p^3) - 1, relative to the -X^(p-2) normalization
        c_expr = _residue_of(case, Fraction(1, p**3), 2) - ResidueExpr.const(1, p)
    checks.append(("image equals c * (T^2 + 1)[Id, -X^(p-2)]",
                   g_fn == t2.scale_expr(c_expr)))
    nonzero = _expr_nonzero(c_expr, forbidden, case.ubar)
    return WitnessReport(case, True, audit.min_valuation,
                         "depth-2 cosets plus identity", jh_label(p - 2, 1, p),
                         c_expr.render(), nonzero, "T^2+1", checks, notes)
