"""The Hecke operator on compactly induced symmetric powers.

Functions live on the standard tree cosets

    branch 0:  (p^m  mu; 0  1),   mu with Teichmuller digits (d_0, ..., d_{m-1})
    branch 1:  (1  0; p*mu  p^(m+1))

and are finite sums of elementary terms [coset, polynomial]; polynomial
coefficients are ``ApCoeff`` values, sums of n p^k A^d with n a p-adic unit
and A the symbolic eigenvalue, Teichmuller truncation tracked.  ``apply_T``
is the raising/lowering decomposition on branch-0 support.  Its oracle, the
double-coset formula with generic coset normalization (``direct_T``), lives
in ``tests/reference.py``.  A mod-p Hecke operator on irreducible weight
models supports the factorization certificates of the witness audits.

Capped absolute precision.  An ``IndFunction`` carries a cap N (the
capped-absolute model of Caruso, Roe and Vaccon, "Tracking p-adic
precision", 2014): every coefficient of the true function differs from the
stored one by a value of valuation >= N, and a coefficient that is not
stored at all has valuation >= N.  The cap starts at the function's
``precision`` and moves with the arithmetic: ``+`` and ``-`` take the
smaller cap, ``scale(q)`` adds v(q), ``shift_ap(k)`` adds min(k, 2k).  The
raising and lowering parts do not compute an output term whose valuation is
certified >= N.  The certificate is min(k, err) + min(d, 2d) for each
term n p^k A^d of the input coefficient, plus the valuation of the p^j
factor of T+ or of the p^(r-i) factor of T-.  Since 1 < sigma < 2, min(d, 2d) <=
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
        self.rep = [teichmuller(c, p, precision) for c in range(p)]

    def power(self, c: int, k: int) -> int:
        """[c]^k, using multiplicativity (so the result is again a table entry)."""
        c %= self.p
        if k == 0:
            return 1
        if c == 0:
            return 0
        return self.rep[pow(c, k % (self.p - 1) or (self.p - 1), self.p)]


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
        if coeff.p != self.p:
            raise ValueError(f"coefficient at p = {coeff.p} used at p = {self.p}")
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
            out.data[coset] = {j: c.scale(q) for j, c in poly.items()}
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


def _floor_val(c: ApCoeff) -> int:
    """A valuation bound for c that holds at every slope in (1, 2):
    v(A^d) = d * sigma >= min(d, 2d)."""
    return min(min(k if n else INF, e) + min(d, 2 * d) for d, (n, k, e) in c.terms.items())


def _binom_units(i: int, p: int, top: int) -> list[tuple[int, int]]:
    """[(u, v)] with binom(i, j) = u * p^v, p not dividing u, for j = 0..top
    (none if top < 0), by binom(i, j+1) = binom(i, j) (i-j)/(j+1) on unit parts."""
    row, u, v = [(1, 0)] if top >= 0 else [], 1, 0
    for j in range(top):
        va, vb = padic_val(i - j, p), padic_val(j + 1, p)
        u, v = u * ((i - j) // p**va) // ((j + 1) // p**vb), v + va - vb
        row.append((u, v))
    return row


def _spread(out: IndFunction, coset: Coset, rows, table, t: int, sign: int, step: int) -> None:
    """out[coset, j] += c * binom(i, j) (sign [t])^(i-j) p^(base + step j) for
    each (i, c, base, row) in rows and each binom(i, j) = u p^v of the row.
    [t]^(i-j) is known to the table's precision, and is exactly 1 at j = i."""
    p, prec, poly = out.p, table.precision, out.data.setdefault(coset, {})
    # (sign [t])^e for e > 0 depends only on e mod p-1, which is even
    powers = [sign**e * table.power(t, e or p - 1) for e in range(p - 1)]
    for i, c, base, row in rows:
        for j, (u, v) in enumerate(row):
            if i != j and not t:
                continue
            acc = poly.get(j)
            if acc is None:
                acc = poly[j] = ApCoeff({}, p)
            if i == j:
                c._mul_into(acc, u, base + v + step * j)
            else:
                c._mul_into(acc, u * powers[(i - j) % (p - 1)], base + v + step * j, prec)


def apply_Tplus(f: IndFunction) -> IndFunction:
    """Level-raising part: spreads each coset over its p children, index i
    onto j <= i with weight (-1)^(i-j) binom(i, j) p^j [lam]^(i-j).  The
    factor p^j stops j where it takes the term past the cap."""
    _require_branch0(f)
    table, out = teich_table(f.p, f.precision), f._empty()
    for coset, poly in f.data.items():
        rows = [(i, c, 0, _binom_units(i, f.p, min(i, f.cap - 1 - _floor_val(c))))
                for i, c in poly.items()]
        for lam in range(f.p):
            _spread(out, Coset(0, coset.level + 1, coset.digits + (lam,)), rows, table, lam, -1, 1)
    return out.prune()


def apply_Tminus(f: IndFunction) -> IndFunction:
    """Level-lowering part: drops the leading digit t (to the other branch at
    level zero), index i onto j <= i with weight binom(i, j) p^(r-i) [t]^(i-j).
    An index whose factor p^(r-i) takes it past the cap is skipped."""
    _require_branch0(f)
    p, r = f.p, f.r
    table, out = teich_table(p, f.precision), f._empty()
    binoms = {}  # the binomial rows of this call, by index
    for coset, poly in f.data.items():
        n, digits = coset.level, coset.digits
        parent, top = (ALPHA, 0) if n == 0 else (Coset(0, n - 1, digits[:-1]), digits[-1])
        rows = [(i, c, r - i, binoms.get(i) or binoms.setdefault(i, _binom_units(i, p, i)))
                for i, c in poly.items() if _floor_val(c) + r - i < f.cap]
        if rows:  # a parent enters the output where its first term does
            _spread(out, parent, rows, table, top, 1, 0)
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
    a, b = sigma.numerator, sigma.denominator
    truncated = {(e, d) for poly in f.data.values() for c in poly.values()
                 for d, (_, _, e) in c.terms.items() if e != INF}
    least = min([b * f.cap] + [b * e + a * d for e, d in truncated])
    return Fraction(least, b) - 1


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
            bound, degs, s = c.audit_terms(sigma)
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
            expr = c.residue(sigma)
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
