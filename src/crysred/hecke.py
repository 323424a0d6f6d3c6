"""The Hecke operator on compactly induced symmetric powers.

Functions live on the standard tree cosets

    branch 0:  (p^m  mu; 0  1),   mu with Teichmuller digits (d_0, ..., d_{m-1})
    branch 1:  (1  0; p*mu  p^(m+1))

and are finite sums of elementary terms [coset, polynomial]; polynomial
coefficients are ``ApCoeff`` values (rationals times powers of the symbolic
eigenvalue, with Teichmuller truncation tracked).  ``apply_T`` implements the
raising/lowering decomposition on branch-0 support.  Its oracle, the defining
double-coset formula evaluated with generic coset normalization
(``direct_T``), lives with the tests in ``tests/reference.py``.  A mod-p
Hecke operator on irreducible weight models supports the factorization
certificates of the witness audits.

Capped absolute precision.  An ``IndFunction`` carries a cap N (the
capped-absolute model of Caruso, Roe and Vaccon, "Tracking p-adic
precision", 2014): every coefficient of the true function differs from the
stored one by a value of valuation >= N, and a coefficient that is not
stored at all has valuation >= N.  The cap starts at the function's
``precision`` and moves with the arithmetic: ``+`` and ``-`` take the
smaller cap, ``scale(q)`` adds v(q), ``shift_ap(k)`` adds min(k, 2k).  The
raising and lowering parts do not compute an output term whose valuation is
certified >= N.  The certificate is min(v(c), err) + min(d, 2d) for each
term c A^d of the input coefficient, plus the valuation of the p^j factor of
T+ or of the p^(r-i) factor of T-.  Since 1 < sigma < 2, min(d, 2d) <=
d * sigma, so the bound holds at every slope the audits accept.  Dropping
such a term is sound because T preserves the integral lattice: the output
is again known up to valuation N, and the audits only read valuations below
1 + PRECISION_HEADROOM (integrality and the residue mod p).  So
``audit_valuations`` and ``reduce_mod_p`` refuse a cap below that.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import (
    DEFAULT_PRECISION,
    INF,
    PRECISION_HEADROOM,
    ApCoeff,
    ResidueExpr,
    _val_capped,
    padic_val,
    teichmuller,
)
from .errors import IndeterminateCancellation, PrecisionError


class Coset(NamedTuple):
    """A tree coset: branch 0 or 1, level, and Teichmuller digit tuple."""

    branch: int
    level: int
    digits: tuple[int, ...]

    def render(self) -> str:
        if self.branch == 1 and self.level == 0 and not self.digits:
            return "alpha"
        if self.level == 0 and self.branch == 0:
            return "Id"
        val = "+".join(
            (f"[{d}]" if i == 0 else f"[{d}]p^{i}" if i > 1 else f"[{d}]p")
            for i, d in enumerate(self.digits)
            if d or len(self.digits) == 1
        ) or "0"
        return f"g{self.branch}({self.level},{val})"


IDENTITY = Coset(0, 0, ())
ALPHA = Coset(1, 0, ())


def g0(level: int, digits: tuple[int, ...]) -> Coset:
    if len(digits) != level:
        raise ValueError("digit tuple does not match level")
    return Coset(0, level, tuple(int(d) for d in digits))


class TeichTable:
    """Cached Teichmuller representatives at a fixed precision."""

    def __init__(self, p: int, precision: int = DEFAULT_PRECISION):
        self.p = p
        self.precision = precision
        self.modulus = p**precision
        self.rep = [teichmuller(c, p, precision) for c in range(p)]

    def power(self, c: int, k: int) -> int:
        """[c]^k, using multiplicativity (so the result is again a table entry)."""
        c %= self.p
        if k == 0:
            return 1
        if c == 0:
            return 0
        return self.rep[pow(c, k % (self.p - 1) or (self.p - 1), self.p)]

    def digits_value(self, digits) -> int:
        return sum(self.rep[d] * self.p**i for i, d in enumerate(digits)) % self.modulus


_TABLES: dict[tuple[int, int], TeichTable] = {}


def teich_table(p: int, precision: int = DEFAULT_PRECISION) -> TeichTable:
    key = (p, precision)
    if key not in _TABLES:
        _TABLES[key] = TeichTable(p, precision)
    return _TABLES[key]


# ---------------------------------------------------------------------------
# induced functions


class IndFunction:
    """Finitely supported function on the tree cosets with polynomial values,
    known up to valuation ``cap`` (see the module docstring)."""

    def __init__(self, p: int, r: int, precision: int = DEFAULT_PRECISION):
        self.p = p
        self.r = r
        self.precision = precision
        self.cap = precision
        self.data: dict[Coset, dict[int, ApCoeff]] = {}

    def _empty(self, cap=None) -> "IndFunction":
        """A zero function of the same shape, with this cap unless one is given."""
        out = IndFunction(self.p, self.r, self.precision)
        out.cap = self.cap if cap is None else cap
        return out

    def copy(self) -> "IndFunction":
        out = self._empty()
        out.data = {c: dict(poly) for c, poly in self.data.items()}
        return out

    def accumulate(self, coset: Coset, j: int, coeff: ApCoeff) -> None:
        if coeff.is_exact_zero():
            return
        poly = self.data.setdefault(coset, {})
        cur = poly.get(j)
        poly[j] = coeff if cur is None else cur + coeff

    def add_term(self, coset: Coset, terms: dict[int, ApCoeff]) -> None:
        for j, c in terms.items():
            self.accumulate(coset, j, c)

    def prune(self) -> "IndFunction":
        for coset in list(self.data):
            poly = {j: c for j, c in self.data[coset].items() if not c.is_exact_zero()}
            if poly:
                self.data[coset] = poly
            else:
                del self.data[coset]
        return self

    def __add__(self, other: "IndFunction") -> "IndFunction":
        out = self.copy()
        out.cap = min(self.cap, other.cap)
        for coset, poly in other.data.items():
            for j, c in poly.items():
                out.accumulate(coset, j, c)
        return out.prune()

    def __sub__(self, other: "IndFunction") -> "IndFunction":
        return self + other.scale(-1)

    def scale(self, q) -> "IndFunction":
        q = Fraction(q)
        out = self._empty(self.cap + padic_val(q, self.p))
        for coset, poly in self.data.items():
            out.data[coset] = {j: c.scale(q, self.p) for j, c in poly.items()}
        return out.prune()

    def shift_ap(self, k: int) -> "IndFunction":
        out = self._empty(self.cap + min(k, 2 * k))
        for coset, poly in self.data.items():
            out.data[coset] = {j: c.shift(k) for j, c in poly.items()}
        return out

    def support(self) -> list[Coset]:
        return sorted(self.data)


def elementary(p: int, r: int, coset: Coset, terms: dict[int, ApCoeff],
               precision: int = DEFAULT_PRECISION) -> IndFunction:
    f = IndFunction(p, r, precision)
    f.add_term(coset, terms)
    return f.prune()


# ---------------------------------------------------------------------------
# the raising/lowering parts on branch-0 support


def _require_branch0(f: IndFunction) -> None:
    for coset in f.data:
        if coset.branch != 0:
            raise NotImplementedError(
                "the operator is only implemented on branch-0 support"
            )


def _floor_val(c: ApCoeff, p: int) -> int:
    """A valuation bound for c that holds at every slope in (1, 2):
    v(A^d) = d * sigma >= min(d, 2d)."""
    return min(min(_val_capped(x, p), e) + min(d, 2 * d) for d, (x, e) in c.terms.items())


def apply_Tplus(f: IndFunction) -> IndFunction:
    """Level-raising part: spreads each coset over its p children.  The
    output term with index j carries a factor p^j, so j stops where that
    factor takes the term past the cap."""
    _require_branch0(f)
    p, cap = f.p, f.cap
    table = teich_table(p, f.precision)
    out = f._empty()
    for coset, poly in f.data.items():
        n, digits = coset.level, coset.digits
        # (i, j) -> c_i * (-1)^(i-j) binom(i, j) p^j, shared by all children
        parts = {}
        for i, c in poly.items():
            for j in range(min(i, cap - 1 - _floor_val(c, p)) + 1):
                factor = Fraction(math.comb(i, j) * (-1) ** (i - j)) * Fraction(p) ** j
                parts[i, j] = c.scale(factor, p)
        for lam in range(p):
            child = Coset(0, n + 1, digits + (lam,))
            for (i, j), term in parts.items():
                if i == j:
                    out.accumulate(child, j, term)
                elif lam:
                    # for lam = 0 only the i = j term survives
                    out.accumulate(child, j, term.scale_trunc(table.power(lam, i - j), f.precision, p))
    return out.prune()


def apply_Tminus(f: IndFunction) -> IndFunction:
    """Level-lowering part: drops the leading digit (to the other branch at
    level zero).  Every term from index i carries a factor p^(r-i), so an
    index whose factor takes it past the cap is skipped."""
    _require_branch0(f)
    p, r, cap = f.p, f.r, f.cap
    table = teich_table(p, f.precision)
    out = f._empty()
    for coset, poly in f.data.items():
        n, digits = coset.level, coset.digits
        parent, top = (ALPHA, 0) if n == 0 else (Coset(0, n - 1, digits[:-1]), digits[-1])
        for i, c in poly.items():
            if _floor_val(c, p) + r - i >= cap:
                continue
            base = c.scale(Fraction(p) ** (r - i), p)
            if top == 0:
                out.accumulate(parent, i, base)
                continue
            for j in range(i + 1):
                term = base.scale(math.comb(i, j), p)
                if i != j:
                    term = term.scale_trunc(table.power(top, i - j), f.precision, p)
                out.accumulate(parent, j, term)
    return out.prune()


def apply_T(f: IndFunction) -> IndFunction:
    """The Hecke operator as the sum of its raising and lowering parts."""
    return apply_Tplus(f) + apply_Tminus(f)


def t_minus_ap(f: IndFunction) -> IndFunction:
    return apply_T(f) - f.shift_ap(1)


# ---------------------------------------------------------------------------
# integrality audits and reduction


class ValuationReport(NamedTuple):
    """Per-term audit of an induced function."""

    integral: bool
    min_valuation: Fraction
    entries: list  # (coset, monomial index, bound, degrees at the bound)
    failures: list  # entries with bound < 0


def _require_residue_cap(f: IndFunction) -> None:
    if f.cap < 1 + PRECISION_HEADROOM:
        raise PrecisionError(
            f"absolute cap {f.cap} is within headroom {PRECISION_HEADROOM} of the residue"
        )


def precision_margin(f: IndFunction, sigma: Fraction):
    """Smallest err + d*sigma - 1 over the truncated terms of f, with the cap
    counted as one more such term (cap - 1).  ``reduce_mod_p`` raises
    PrecisionError exactly when this is below PRECISION_HEADROOM, and each
    carried digit more raises it by one."""
    truncated = {(e, d) for poly in f.data.values() for c in poly.values()
                 for d, (_, e) in c.terms.items() if e is not INF}
    return min([f.cap - 1] + [e + d * sigma - 1 for e, d in truncated])


def audit_valuations(f: IndFunction, sigma: Fraction) -> ValuationReport:
    """Certify a lower valuation bound for every coefficient, in one pass.

    A negative bound achieved by a single symbol degree is an exact failure;
    a tie between several degrees is reported as indeterminate.  Either wins
    over a truncated term too close to valuation 0, which otherwise raises
    PrecisionError (the first such term in the function's own order)."""
    _require_residue_cap(f)
    entries = []
    short = None
    for coset, poly in f.data.items():
        for j, c in poly.items():
            bound, degs, s = c.audit_terms(sigma, f.p)
            entries.append((coset, j, bound, tuple(degs)))
            if short is None:
                short = s
    entries.sort(key=lambda entry: entry[:2])
    min_val = min((entry[2] for entry in entries), default=math.inf)
    failures = [entry for entry in entries if entry[2] < 0]
    if failures:
        multi = [e for e in failures if len(e[3]) > 1]
        if multi:
            raise IndeterminateCancellation(
                f"minimal valuation tied between symbol degrees at {multi[0][:2]}"
            )
        return ValuationReport(False, min_val, entries, failures)
    if short is not None:
        err, d = short
        raise PrecisionError(f"bound 0 within headroom of precision {err} at degree {d}")
    return ValuationReport(True, min_val, entries, [])


class ResidueFunction:
    """Mod-p image of an integral induced function: per coset, a polynomial
    in the residue symbol with vector coefficients."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.data: dict[Coset, dict[int, np.ndarray]] = {}

    def accumulate(self, coset: Coset, e: int, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.int64) % self.p
        if not vec.any():
            return
        comp = self.data.setdefault(coset, {})
        if e in comp:
            comp[e] = (comp[e] + vec) % self.p
        else:
            comp[e] = vec.copy()

    def prune(self) -> "ResidueFunction":
        for coset in list(self.data):
            comp = {e: v for e, v in self.data[coset].items() if v.any()}
            if comp:
                self.data[coset] = comp
            else:
                del self.data[coset]
        return self

    def map_vectors(self, fn, n_out: int) -> "ResidueFunction":
        out = ResidueFunction(self.p, n_out)
        for coset, comp in self.data.items():
            for e, v in comp.items():
                out.accumulate(coset, e, fn(v))
        return out.prune()

    def scale_expr(self, expr: ResidueExpr) -> "ResidueFunction":
        out = ResidueFunction(self.p, self.n)
        for coset, comp in self.data.items():
            for e, v in comp.items():
                for e2, c in expr.coeffs.items():
                    out.accumulate(coset, e + e2, c * v)
        return out.prune()

    def __add__(self, other: "ResidueFunction") -> "ResidueFunction":
        out = ResidueFunction(self.p, self.n)
        for part in (self, other):
            for coset, comp in part.data.items():
                for e, v in comp.items():
                    out.accumulate(coset, e, v)
        return out.prune()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidueFunction) or self.p != other.p:
            return False
        a, b = self.prune().data, other.prune().data
        if set(a) != set(b):
            return False
        for coset in a:
            if set(a[coset]) != set(b[coset]):
                return False
            for e in a[coset]:
                if not np.array_equal(a[coset][e], b[coset][e]):
                    return False
        return True

    def support(self) -> list[Coset]:
        return sorted(self.data)


def reduce_mod_p(f: IndFunction, sigma: Fraction) -> ResidueFunction:
    """Residue of a certified-integral function."""
    _require_residue_cap(f)
    out = ResidueFunction(f.p, f.r + 1)
    for coset, poly in f.data.items():
        for j, c in poly.items():
            expr = c.residue(sigma, f.p)
            for e, val in expr.coeffs.items():
                vec = np.zeros(f.r + 1, dtype=np.int64)
                vec[j] = val
                out.accumulate(coset, e, vec)
    return out.prune()


# ---------------------------------------------------------------------------
# the mod-p operator on weight models


def modp_T(fn: ResidueFunction, s: int) -> ResidueFunction:
    """Hecke operator on functions valued in the degree-s weight model (the
    determinant twist contributes trivially on the double coset)."""
    p = fn.p
    out = ResidueFunction(p, s + 1)
    for coset, comp in fn.data.items():
        if coset.branch != 0:
            raise NotImplementedError("branch-1 support unsupported")
        n, digits = coset.level, coset.digits
        for e, vec in comp.items():
            for lam in range(p):
                child = Coset(0, n + 1, digits + (lam,))
                total = 0
                for i in range(s + 1):
                    if vec[i]:
                        total += vec[i] * pow(-lam % p, i, p)
                if total % p:
                    w = np.zeros(s + 1, dtype=np.int64)
                    w[0] = total % p
                    out.accumulate(child, e, w)
            cs = int(vec[s])
            if cs:
                if n == 0:
                    w = np.zeros(s + 1, dtype=np.int64)
                    w[s] = cs
                    out.accumulate(ALPHA, e, w)
                else:
                    parent = Coset(0, n - 1, digits[:-1])
                    top = digits[-1]
                    w = np.array(
                        [cs * math.comb(s, i) * pow(top, s - i, p) for i in range(s + 1)],
                        dtype=np.int64,
                    )
                    out.accumulate(parent, e, w)
    return out.prune()
