"""The Hecke operator on compactly induced symmetric powers.

Functions live on the standard tree cosets

    branch 0:  (p^m  mu; 0  1),   mu with Teichmuller digits (d_0, ..., d_{m-1})
    branch 1:  (1  0; p*mu  p^(m+1))

and are finite sums of terms [coset, polynomial], built with
``IndFunction.add_term``; polynomials are dicts from monomial index to
``ApCoeff`` values, sums of n p^k A^d with n a p-adic unit and A the
symbolic eigenvalue, Teichmuller truncation tracked, each built from its
(n, k, err) terms as given or by ``ApCoeff.rational``.  ``apply_T`` is the
raising/lowering decomposition on branch-0 support.  Its oracle, the
double-coset formula with generic coset normalization (``direct_T``), lives
in ``tests/reference.py``.  Reduced mod p, a function is one map from
(coset, power of the residue symbol) to a nonzero coefficient vector
(``ResidueFunction``), read off the one walk of ``audit_valuations``.  The
mod-p Hecke operator on weight models (``modp_T``), which the
factorization certificates of the witness audits read, is not written
separately: it is ``apply_T`` on an integer lift, reduced mod p.

Capped absolute precision.  An ``IndFunction`` carries a cap N (the
capped-absolute model of Caruso, Roe and Vaccon, "Tracking p-adic
precision", 2014): every coefficient of the true function differs from the
stored one by a value of valuation >= N, and a coefficient that is not
stored at all has valuation >= N.  The cap starts at the function's
``precision`` and moves with the arithmetic: ``scale(q)`` adds v(q),
``shift_ap(k)`` adds min(k, 2k) (and drops a term that the shift takes past
the new cap), and the sums inside ``apply_T`` and
``t_minus_ap`` take the smaller cap.  A term n p^k A^d with error bound err
is past the cap when min(k, err) + min(d, 2d) >= N (k read as INF when
n = 0).  Since 1 < sigma < 2, min(d, 2d) <= d * sigma, so its value lies
inside the error the cap allows at every slope the audits accept, and the
operators do not store it.  T+ and T- skip a product whose certificate
reaches N: the least min(k, err) + min(d, 2d) over the terms of the input
coefficient, plus the valuation of the p^j factor of T+ or of the p^(r-i)
factor of T-, and of binom(i, j).  The normal forms and the sums in place
drop a term that cancellation takes past the cap, and -A f enters no term
that the shift to degree d+1 takes past it.  Dropping is sound because T
preserves the integral lattice: the output is again known up to valuation
N, and the audits only read valuations below 1 + PRECISION_HEADROOM
(integrality and the residue mod p).  So ``audit_valuations``, which every
residue mod p reads, refuses a cap below that.

Raising by residue class.  In T+ the child lam enters the weight
(-1)^(i-j) binom(i, j) p^j [lam]^(i-j) only through the unit (-[lam])^(i-j),
which depends on i - j mod p-1 alone.  So ``apply_Tplus`` sums each coset
once into slots keyed by (j, class e of i - j, symbol degree d): exact
integers over p^(K+j), K the coset's least p-exponent, the diagonal i = j
apart, with the least error bound of the terms that meet (j, d) beside
them (a term known to the Teichmuller table's relative precision off the
diagonal).  Child lam != 0 gets, at (j, d), the diagonal integer plus the
integer dot product of its signed row (-[lam])^e with the class slots, and
child 0 the diagonal alone.  This is the per-term sum regrouped, in exact
integers, and the error bound is the same minimum: a term's bound does not
depend on the unit that multiplies it, and multiplying by one table entry
adds none.  A stored (n, k, err) is the normal form of the exact sum (p
stripped from n once) with that least bound, a zero sum keeping only its
bound, so it cannot depend on the grouping: below the cap every stored
term is the per-term one (``tests/reference.apply_Tplus_by_terms``, both
read at the cap by ``tests/reference.cut_past_cap``).

Lowering by residue class.  In T- the sibling cosets of one parent, with
top digits t, send index i onto j <= i with weight binom(i, j) p^(r-i)
[t]^(i-j), and [t]^(i-j) depends on i - j mod p-1 alone.  So
``apply_Tminus`` first sums, per parent and index i, the exact diagonal
D_i = sum_t c_(t,i) and, per class e, H_(i,e) = sum_(t != 0) c_(t,i) [t]^e,
each term carried at the table's relative precision; then it spreads once:
the parent gets p^(r-i) D_i at j = i and binom(i, j) p^(r-i) H_(i,e) with
e = i - j mod p-1 at j < i.  The binomial and the p-power are exact, so
below the cap each stored (n, k, err) is again the per-term one
(``tests/reference.apply_Tminus_by_terms``), and each index i costs at
most i + 1 products per parent instead of per sibling.  ``apply_T`` builds
the binomial rows once for both parts.

Summing in place.  One rule (``_add_into``) sums every function from its
construction on: ``IndFunction.add_term`` adds a polynomial at a coset,
``apply_T`` adds T- f into the output of T+ f, and ``t_minus_ap`` adds -A f
into T f, each term n p^k A^d of f entering as -n p^k A^(d+1).  Only the
terms a caller passes to ``add_term`` are copied.  A term past the cap is
dropped, as it arrives or once a sum takes it there, and so is an index
left without terms and a coset left empty, so a later term re-enters at the
end as it would after cutting: the terms, key order and cap are those of
the sums of whole functions, each cut at the cap
(``tests/reference.t_minus_ap_by_parts``).  So what ``add_term`` and the
operators build stores no term past its cap, no index without terms and no
empty coset.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import (
    DEFAULT_PRECISION,
    INF,
    PRECISION_HEADROOM,
    ApCoeff,
    ResidueExpr,
    _accum,
    _split,
    teich_table,
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

    def add_term(self, coset: Coset, terms: dict[int, ApCoeff]) -> None:
        """self[coset] += the polynomial ``terms``, summed in place as the
        operators sum (see "Summing in place" in the module docstring); each
        term dict is copied, so a polynomial can be added at several cosets.
        ValueError, before any sum, for a coefficient at another prime."""
        for c in terms.values():
            if c.p != self.p:
                raise ValueError(f"coefficient at p = {c.p} used at p = {self.p}")
        _add_into(self, coset, ((j, _below_cap(c.terms, self.cap)) for j, c in terms.items()))

    def scale(self, q) -> "IndFunction":
        """Multiply by an exact rational with a p-power denominator, split
        into its unit and p-power once for all coefficients."""
        if not q:
            return self._empty(self.cap + INF)
        u, m = _split(q, self.p)  # v(q) = m
        out = self._empty(self.cap + m)
        for coset, poly in self.data.items():
            out.data[coset] = scaled = {}
            for j, c in poly.items():
                scaled[j] = ApCoeff({}, self.p)
                c._mul_into(scaled[j], u, m)
        return out

    def shift_ap(self, k: int) -> "IndFunction":
        """Multiply by A^k.  The cap gains min(k, 2k), but min(d, 2d) gains
        more at a degree d of the other sign, so a term that the shift takes
        past the new cap is dropped, as ``add_term`` drops it."""
        out = self._empty(self.cap + min(k, 2 * k))
        for coset, poly in self.data.items():
            shifted = {}
            for j, c in poly.items():
                if terms := _below_cap({d + k: t for d, t in c.terms.items()}, out.cap):
                    shifted[j] = ApCoeff(terms, self.p)
            if shifted:
                out.data[coset] = shifted
        return out


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
    v(A^d) = d * sigma >= min(d, 2d) (INF for an exact zero)."""
    return min((min(k if n else INF, e) + min(d, 2 * d) for d, (n, k, e) in c.terms.items()),
               default=INF)


def _past_cap(d: int, term: tuple, cap) -> bool:
    """Whether the term (n, k, err) at degree d is past the cap (module docstring)."""
    n, k, e = term
    return min(k if n else INF, e) + min(d, 2 * d) >= cap


def _below_cap(terms: dict, cap) -> dict:
    """The terms {d: (n, k, err)} that are not past the cap."""
    return {d: t for d, t in terms.items() if not _past_cap(d, t, cap)}


def _normal_terms(vals: dict, k0: int, errs: dict, p: int, cap) -> dict:
    """{d: (n, k, err)} for the exact values x p^k0 in ``vals``, each with
    its error bound in ``errs``: n is x with p stripped once, and a zero
    value keeps only its bound; no term past the cap."""
    terms = {}
    for d, x in vals.items():
        k, e, lo = k0, errs.get(d, INF), cap - min(d, 2 * d)
        if x:
            while x % p == 0:
                x //= p
                k += 1
            if k < lo or e < lo:
                terms[d] = (x, k, e)
        elif e < lo:
            terms[d] = (0, 0, e)
    return terms


def _add_into(out: IndFunction, coset: Coset, items) -> None:
    """out[coset] += the (index, {d: (n, k, err)}) pairs of ``items``, none
    past the cap, in place (see "Summing in place" in the module
    docstring); a new index takes its terms dict as it is."""
    p, cap, poly = out.p, out.cap, out.data.setdefault(coset, {})
    for j, terms in items:
        cur = poly.get(j)
        if cur is None:
            if terms:
                poly[j] = ApCoeff(terms, p)
            continue
        acc = cur.terms
        for d, t in terms.items():
            _accum(acc, p, d, *t)
            if d in acc and _past_cap(d, acc[d], cap):
                del acc[d]
        if not acc:
            del poly[j]
    if not poly:
        del out.data[coset]


def _binom_units(i: int, p: int, top: int) -> list[tuple[int, int]]:
    """[(u, v)] with binom(i, j) = u * p^v, p not dividing u, for j = 0..top
    (none if top < 0), by binom(i, j+1) = binom(i, j) (i-j)/(j+1) on unit parts."""
    row, u, v = [(1, 0)] if top >= 0 else [], 1, 0
    for j in range(top):
        num, den = i - j, j + 1  # both positive: j < top <= i
        while num % p == 0:
            num, v = num // p, v + 1
        while den % p == 0:
            den, v = den // p, v - 1
        u = u * num // den
        row.append((u, v))
    return row


def _binom_row(binoms: dict, i: int, p: int, top: int) -> list[tuple[int, int]]:
    """``_binom_units(i, p, top)`` or a longer row, kept in ``binoms`` for the
    rest of the operator call."""
    row = binoms.get(i)
    if row is None or len(row) <= top:
        row = binoms[i] = _binom_units(i, p, top)
    return row


def apply_Tplus(f: IndFunction, *, _binoms: dict | None = None) -> IndFunction:
    """Level-raising part: spreads each coset over its p children, index i
    onto j <= i with weight (-1)^(i-j) binom(i, j) p^j [lam]^(i-j).  A pair
    (i, j) whose factor p^j binom(i, j) takes it past the cap is skipped.
    Each coset is summed once into exact-integer slots by residue class of
    i - j mod p-1, and each child reads its values off them (see the module
    docstring).  ``apply_T`` passes the binomial rows it shares with T-."""
    _require_branch0(f)
    p, rel, cap, out = f.p, f.precision, f.cap, f._empty()
    table, binoms = teich_table(p, rel), {} if _binoms is None else _binoms
    for coset, poly in f.data.items():
        # at index j every value is an integer over p^(K+j), K the least exponent in poly
        K = min((k for c in poly.values() for n, k, _ in c.terms.values() if n), default=0)
        # per j: the diagonal {d: integer}, the class slots {e: {d: integer}}
        # and the least error bound {d: err} of the terms that meet j
        diag, slots, errs, hi = {}, [], [], -1
        for i, c in poly.items():
            floor = _floor_val(c)
            top = min(i, cap - 1 - floor)
            hi = max(hi, top)
            while len(slots) <= top:
                slots.append({})
                errs.append({})
            terms = [(d, n * p ** (k - K), min(e, k + rel)) if n else (d, 0, e)
                     for d, (n, k, e) in c.terms.items()]
            if top == i:  # the diagonal, weight p^i exactly
                diag[i] = {d: x for d, x, _ in terms}
                for d, (_, _, e) in c.terms.items():
                    errs[i][d] = min(errs[i].get(d, INF), e + i)
            row = _binom_row(binoms, i, p, top)
            for j in range(min(top + 1, i)):
                u, v = row[j]
                m = v + j
                if floor + m >= cap:
                    continue
                b, err = u * p**v, errs[j]
                slot = slots[j].setdefault((i - j) % (p - 1), {})
                for d, x, e in terms:
                    slot[d] = slot.get(d, 0) + x * b
                    if e + m < err.get(d, INF):
                        err[d] = e + m
        # child 0: [0]^(i-j) = 0 off the diagonal, which keeps the order of i in f
        child = {}
        for j in diag:
            terms = _below_cap({d: (n, k + j if n else 0, e + j)
                                for d, (n, k, e) in poly[j].terms.items()}, cap)
            if terms:
                child[j] = terms
        children = [child]
        # per j, the slot entries (class, degree, integer) every child reads
        entries = [[(e, d, x) for e, slot in slots[j].items() for d, x in slot.items()]
                   for j in range(hi + 1)]
        for lam in range(1, p):
            powers, child = table.signed_powers(lam, -1), {}
            for j, row in enumerate(entries):
                vals = dict(diag.get(j, ()))
                for e, d, x in row:
                    vals[d] = vals.get(d, 0) + powers[e] * x
                terms = _normal_terms(vals, K + j, errs[j], p, cap)
                if terms:
                    child[j] = terms
            children.append(child)
        for lam, child in enumerate(children):
            if child:
                out.data[Coset(0, coset.level + 1, coset.digits + (lam,))] = {
                    j: ApCoeff(terms, p) for j, terms in child.items()}
    return out


def apply_Tminus(f: IndFunction, *, _binoms: dict | None = None) -> IndFunction:
    """Level-lowering part: drops the leading digit t (to the other branch at
    level zero), index i onto j <= i with weight binom(i, j) p^(r-i) [t]^(i-j).
    An index whose factor p^(r-i) takes it past the cap is skipped, and so is
    a product that binom(i, j) takes past it.  The siblings of one parent
    are summed by residue class once (see the module docstring), with the
    parent's coefficients built directly.  ``apply_T`` passes the binomial
    rows it shares with T+."""
    _require_branch0(f)
    p, r, cap = f.p, f.r, f.cap
    table, out = teich_table(p, f.precision), f._empty()
    binoms = {} if _binoms is None else _binoms
    # the parents in the order their first term meets them: (top digit, kept poly) per sibling
    families: dict[Coset, list] = {}
    for coset, poly in f.data.items():
        kept = {i: c for i, c in poly.items() if _floor_val(c) + r - i < cap}
        if kept:
            n, digits = coset.level, coset.digits
            parent, top = (ALPHA, 0) if n == 0 else (Coset(0, n - 1, digits[:-1]), digits[-1])
            families.setdefault(parent, []).append((top, kept))
    for parent, siblings in families.items():
        # order: each j as the per-term sum first meets it
        diag, groups, order, filled = {}, {}, {}, -1
        for top, kept in siblings:
            powers = table.signed_powers(top, 1) if top else None
            for i, c in kept.items():
                acc = diag.get(i)
                if acc is None:
                    acc = diag[i] = ApCoeff({}, p)
                c._mul_into(acc, 1, 0)
                if top:
                    for j in range(filled + 1, i + 1):
                        order[j] = None
                    filled = max(filled, i)
                    by_class = groups.setdefault(i, {})
                    for e in {k % (p - 1) for k in range(1, min(i, p - 1) + 1)}:  # i - j, j < i
                        g = by_class.get(e)
                        if g is None:
                            g = by_class[e] = ApCoeff({}, p)
                        c._mul_into(g, powers[e], 0, table.precision)
                else:
                    order[i] = None
        # j -> coefficient, made when the first product below the cap lands on j
        poly = dict.fromkeys(order)
        for i, d in diag.items():
            if _floor_val(d) + r - i < cap:
                acc = poly[i]
                if acc is None:
                    acc = poly[i] = ApCoeff({}, p)
                d._mul_into(acc, 1, r - i)
            by_class = groups.get(i)
            if not by_class:
                continue
            # per class: the cap less the certificate of H_(i,e) p^(r-i)
            room = {e: cap - _floor_val(g) - r + i for e, g in by_class.items()}
            row = _binom_row(binoms, i, p, i)
            for j in range(i):
                u, v = row[j]
                e = (i - j) % (p - 1)
                if v < room[e]:
                    acc = poly[j]
                    if acc is None:
                        acc = poly[j] = ApCoeff({}, p)
                    by_class[e]._mul_into(acc, u, r - i + v)
        poly = {j: ApCoeff(terms, p) for j, c in poly.items()
                if c is not None and (terms := _below_cap(c.terms, cap))}
        if poly:
            out.data[parent] = poly
    return out


def apply_T(f: IndFunction) -> IndFunction:
    """The Hecke operator: the lowering part added into the raising part
    in place (both keep the cap of f).  The lowering part runs first, so
    the raising part reads the prefixes of its binomial rows."""
    binoms: dict = {}
    lowered = apply_Tminus(f, _binoms=binoms)
    out = apply_Tplus(f, _binoms=binoms)
    for coset, poly in lowered.data.items():
        _add_into(out, coset, ((j, c.terms) for j, c in poly.items()))
    return out


def t_minus_ap(f: IndFunction) -> IndFunction:
    """(T - A) f: -A f added into T f in place, each term n p^k A^d of f
    entering as -n p^k A^(d+1) unless that takes it past the cap.  The cap
    stays that of f and of T f, since A f is known to one digit more."""
    out = apply_T(f)
    for coset, poly in f.data.items():
        shifted = ((j, {d + 1: (-n, k, e) for d, (n, k, e) in c.terms.items()})
                   for j, c in poly.items())
        _add_into(out, coset, ((j, _below_cap(terms, out.cap)) for j, terms in shifted))
    return out


# ---------------------------------------------------------------------------
# integrality audits and reduction


class ValuationReport(NamedTuple):
    """Per-term audit of an induced function."""

    integral: bool
    #: the least bound over the stored terms, INF when no term is stored; a
    #: value at or above the cap certifies only the cap
    min_valuation: Fraction
    #: (coset, monomial index, bound, degrees at the bound) of each coefficient
    #: whose bound < 0 is the true valuation, in (coset, index) order
    failures: list
    #: smallest err + d*sigma - 1 over the truncated terms, the absolute cap
    #: counted as one more term (cap - 1; INF when both are INF);
    #: ``residue_terms`` raises PrecisionError exactly when this is below
    #: PRECISION_HEADROOM, and each carried digit more adds one
    margin: Fraction
    #: {(coset, e): {monomial index: n mod p}} over the unit terms n p^k A^d
    #: of valuation 0 (b*k + a*d = 0), e = d/2 the power of the residue
    #: symbol, in the walk's order; None when such a term has no power of
    #: the symbol (d != 0 away from slope 3/2, or d odd)
    residue: dict | None


def _require_residue_cap(f: IndFunction) -> None:
    if f.cap < 1 + PRECISION_HEADROOM:
        raise PrecisionError(
            f"absolute cap {f.cap} is within headroom {PRECISION_HEADROOM} of the residue"
        )


def audit_valuations(f: IndFunction, sigma: Fraction) -> ValuationReport:
    """Certify a lower valuation bound for every coefficient, in one pass.

    A negative bound is a certified failure when the bound is the true
    valuation (``ApCoeff.audit_terms``: one symbol degree with a unit part
    known beyond its valuation); the report lists those.  A tie between
    several degrees is reported as indeterminate, and negative bounds that
    all rest on truncation errors raise PrecisionError.  Each wins over a
    truncated term too close to valuation 0, which otherwise raises
    PrecisionError (the first such term in the function's own order).
    The same walk gives the precision margin and collects the residue mod
    p, whose own refusals wait for ``residue_terms``, so a non-integral
    function still gets its report.  A function with no stored term is
    integral, with min_valuation INF, margin cap - 1 (INF at cap INF) and an
    empty residue."""
    _require_residue_cap(f)
    # the bounds are integer counts of 1/b, b the slope's denominator
    b, p = sigma.denominator, f.p
    half = sigma == Fraction(3, 2)  # the one slope whose residue symbol is nonconstant
    failures, short, min_val, least, residue = [], None, INF, b * f.cap, {}
    for coset, poly in f.data.items():
        for j, c in poly.items():
            bound, degs, s, exact, w, units = c.audit_terms(sigma)
            if bound < min_val:
                min_val = bound
            if w < least:
                least = w
            if bound < 0:
                failures.append((coset, j, Fraction(bound, b), tuple(degs), exact))
            if short is None:
                short = s
            if units and residue is not None:
                for d, n in units:
                    if d and (not half or d % 2):
                        residue = None
                        break
                    residue.setdefault((coset, d // 2), {})[j] = n % p
    if min_val != INF:
        min_val = Fraction(min_val, b)
    margin = least if least == INF else Fraction(least, b) - 1
    if failures:
        failures.sort(key=lambda e: e[:2])
        multi = [e for e in failures if len(e[3]) > 1]
        if multi:
            raise IndeterminateCancellation(
                f"minimal valuation tied between symbol degrees at {multi[0][:2]}"
            )
        certified = [e[:4] for e in failures if e[4]]
        if not certified:
            bound, (d,) = failures[0][2:4]
            raise PrecisionError(f"bound {bound} at degree {d} rests on a truncation error")
        return ValuationReport(False, min_val, certified, margin, residue)
    if short is not None:
        err, d = short
        raise PrecisionError(f"bound 0 within headroom of precision {err} at degree {d}")
    return ValuationReport(True, min_val, [], margin, residue)


def residue_terms(report: ValuationReport) -> dict:
    """The residue mod p that the audit read, ``report.residue``, once the
    refusals of a reduction are cleared, in this order whatever the order
    of the terms: PrecisionError when a term's error sits within the
    headroom of the residue (margin below PRECISION_HEADROOM), then
    ArithmeticError for a non-integral function or a unit part that the
    residue symbol cannot express.  This is the library's one residue rule:
    the witness verdicts, their constants and ``reduce_mod_p`` read it."""
    if report.margin < PRECISION_HEADROOM:
        raise PrecisionError("residue requested beyond carried precision")
    if not report.integral:
        raise ArithmeticError("residue of a non-integral value")
    if report.residue is None:
        raise ArithmeticError("unit part is not expressible in the residue symbol")
    return report.residue


class ResidueFunction:
    """Mod-p image of an integral induced function: one map from (coset,
    power e of the residue symbol) to a nonzero coefficient vector."""

    def __init__(self, p: int):
        self.p = p
        self.data: dict[tuple[Coset, int], np.ndarray] = {}

    @classmethod
    def single(cls, p: int, coset: Coset, vec: np.ndarray) -> "ResidueFunction":
        """The function with the one value ``vec`` (no symbol part) at ``coset``."""
        out = cls(p)
        out.accumulate(coset, 0, vec)
        return out

    def accumulate(self, coset: Coset, e: int, vec: np.ndarray) -> None:
        """Add ``vec`` at (coset, e); a value that sums to zero leaves no key."""
        key = (coset, e)
        total = np.asarray(vec, dtype=np.int64) + self.data.get(key, 0)
        total %= self.p
        if total.any():
            self.data[key] = total
        else:
            self.data.pop(key, None)

    def _collect(self, terms) -> "ResidueFunction":
        out = ResidueFunction(self.p)
        for coset, e, vec in terms:
            out.accumulate(coset, e, vec)
        return out

    def map_vectors(self, fn) -> "ResidueFunction":
        """The function with values ``fn`` of these, which ``fn`` receives
        at once as the rows of one matrix and returns as rows."""
        if not self.data:
            return ResidueFunction(self.p)
        rows = fn(np.array(list(self.data.values())))
        return self._collect((c, e, v) for (c, e), v in zip(self.data, rows))

    def scale_expr(self, expr: ResidueExpr) -> "ResidueFunction":
        return self._collect((c, e + e2, k * v) for (c, e), v in self.data.items()
                             for e2, k in expr.coeffs.items())

    def __add__(self, other: "ResidueFunction") -> "ResidueFunction":
        return self._collect((c, e, v) for part in (self, other) for (c, e), v in part.data.items())

    def __eq__(self, other) -> bool:
        return (isinstance(other, ResidueFunction) and self.p == other.p
                and self.data.keys() == other.data.keys()
                and all(np.array_equal(v, other.data[key]) for key, v in self.data.items()))

    def support(self) -> list[Coset]:
        return sorted({coset for coset, _ in self.data})


def reduce_mod_p(f: IndFunction, sigma: Fraction) -> ResidueFunction:
    """``residue_terms`` of the audit of f, with its refusals, as one dense
    (r+1)-vector per (coset, power of the residue symbol): ``modp_T`` reads
    it on weight models of degree below p."""
    out = ResidueFunction(f.p)
    # one vector per key, its entries already units mod p
    for key, entries in residue_terms(audit_valuations(f, sigma)).items():
        out.data[key] = vec = np.zeros(f.r + 1, dtype=np.int64)
        vec[list(entries)] = list(entries.values())
    return out


# ---------------------------------------------------------------------------
# the mod-p operator on weight models


def modp_T(fn: ResidueFunction, s: int) -> ResidueFunction:
    """Hecke operator on functions valued in the degree-s weight model, as
    the reduction of ``apply_T``: each symbol component of ``fn`` is lifted
    to exact integer coefficients, carried at the precision the residue
    needs, and its image is reduced mod p by the audit's residue rule
    (``reduce_mod_p``; the determinant twist contributes trivially on the
    double coset).  The lift has symbol degree 0 only, so its residue does
    not depend on the slope the audit reads it at."""
    p, out = fn.p, ResidueFunction(fn.p)
    for e in {e for _, e in fn.data}:
        lift = IndFunction(p, s, 1 + PRECISION_HEADROOM)
        for (coset, e2), vec in fn.data.items():
            if e2 == e:
                lift.add_term(coset, {i: ApCoeff.rational(int(x), p=p) for i, x in enumerate(vec)})
        # the residue sits at symbol power 0 alone, so its keys move to e as they are
        red = reduce_mod_p(apply_T(lift), Fraction(3, 2))
        out.data.update(((coset, e), vec) for (coset, _), vec in red.data.items())
    return out
