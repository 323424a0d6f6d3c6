"""Reference paths kept as test oracles, independent of the library paths
they check.

- The Hecke operator by its defining double-coset formula: ``direct_T``
  evaluates every pair with generic coset normalization (``normalize_pair``)
  on exact ``Fraction`` arithmetic and drops no term, against the
  raising/lowering decomposition ``apply_T``.  ``translate`` is the left
  action of an integral matrix of unit determinant, for the equivariance
  checks, and ``functions_agree`` compares two functions up to a valuation.
- ``certify_val_ge``: the per-coefficient valuation certificate, the second
  pass of the two-pass reference of ``hecke.audit_valuations``.
- ``FractionCoeff``: the coefficient arithmetic of ``ApCoeff`` on exact
  ``Fraction`` terms with ``padic_val`` valuations, against the (unit,
  p-exponent) terms of ``ApCoeff``; with it ``_val_capped`` and
  ``reduce_mod``, which the library no longer uses.
- ``union``: the sum of two F_p subspaces.
- ``classify_by_table``: the reduction table written out by congruence cell,
  with the exponents b+1 and b+p, against ``classify_reduction``, which
  derives it from ``surviving_factor`` and ``llc_image``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _iter_product

import numpy as np

from crysred.arith import (
    DEFAULT_PRECISION,
    INF,
    PRECISION_HEADROOM,
    ApCoeff,
    ResidueExpr,
    inv_mod,
    padic_val,
)
from crysred.classify import (
    GaloisRep,
    _star_alternatives,
    case_descriptor,
    induced,
    reducible,
)
from crysred.errors import PrecisionError
from crysred.hecke import Coset, IndFunction, teich_table
from crysred.linalg import FpSpace

# ---------------------------------------------------------------------------
# the Hecke operator by its defining formula


def digits_value(table, digits) -> int:
    """The Teichmuller expansion sum [d_i] p^i of a digit tuple, mod p^precision."""
    return sum(table.rep[d] * table.p**i for i, d in enumerate(digits)) % table.p**table.precision


def coset_matrix(coset: Coset, p: int, precision: int = DEFAULT_PRECISION):
    table = teich_table(p, precision)
    mu = digits_value(table, coset.digits)
    if coset.branch == 0:
        return (p**coset.level, mu, 0, 1)
    return (1, 0, p * mu, p ** (coset.level + 1))


def _mat_mul(A, B):
    a, b, c, d = A
    e, f, g, h = B
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _binomial_powers(x: int, y: int, n: int) -> list[list[int]]:
    """Coefficient lists of (xX + yY)^k for k = 0..n."""
    table = [[1]]
    for _ in range(n):
        prev = table[-1]
        table.append(
            [
                (prev[m] if m < len(prev) else 0) * x + (prev[m - 1] * y if m > 0 else 0)
                for m in range(len(prev) + 1)
            ]
        )
    return table


def _substitute_poly(poly: dict[int, ApCoeff], mat, r: int, p: int, prec: int):
    """Exact substitution F(aX + cY, bX + dY) on ApCoeff polynomials; the
    resulting integer weights are treated as carrying the given precision."""
    a, b, c, d = mat
    first = _binomial_powers(a, c, max((r - i for i in poly), default=0))
    second = _binomial_powers(b, d, max(poly, default=0))
    # raw accumulation: (j, degree) -> [rational sum, error bound]
    acc: dict[int, dict[int, list]] = {}
    for i, coeff in poly.items():
        # integer weight profile of (aX+cY)^(r-i) (bX+dY)^i
        f1, f2 = first[r - i], second[i]
        weights = [0] * (len(f1) + len(f2) - 1)
        for m1, w1 in enumerate(f1):
            if w1 == 0:
                continue
            for m2, w2 in enumerate(f2):
                if w2:
                    weights[m1 + m2] += w1 * w2
        for dd, (cc, ee) in coeff.exact_terms().items():
            eps = min(ee, _val_capped(cc, p) + prec)
            for j, w in enumerate(weights):
                if w == 0:
                    continue
                cell = acc.setdefault(j, {}).setdefault(dd, [Fraction(0), math.inf])
                cell[0] += cc * w
                cell[1] = min(cell[1], eps)
    out: dict[int, ApCoeff] = {}
    for j, cells in acc.items():
        terms = {dd: (val, eps) for dd, (val, eps) in cells.items() if val != 0 or eps is not math.inf}
        if terms:
            out[j] = ApCoeff(terms, p)
    return out


def normalize_pair(mat, poly: dict[int, ApCoeff], p: int, r: int,
                   precision: int = DEFAULT_PRECISION) -> tuple[Coset, dict[int, ApCoeff]]:
    """Rewrite [mat, poly] as [canonical coset, k . poly] with k integral of
    unit determinant.  Central powers of p act trivially."""
    A, B, C, D = mat
    s = min(padic_val(x, p) for x in (A, B, C, D) if x != 0)
    if s:
        q = p**s
        A, B, C, D = A // q, B // q, C // q, D // q
    det = A * D - B * C
    m = padic_val(det, p)
    if m is math.inf or m >= precision - 2:
        raise PrecisionError("determinant valuation too close to carried precision")
    pm = p**m
    table = teich_table(p, precision)
    matches = []
    # branch-0 candidates at level m
    for digs in _iter_product(range(p), repeat=m):
        lam = digits_value(table, digs)
        if (A - lam * C) % pm == 0 and (B - lam * D) % pm == 0:
            k = ((A - lam * C) // pm, (B - lam * D) // pm, C, D)
            matches.append((Coset(0, m, digs), k))
            break
    if not matches and m >= 1:
        for digs in _iter_product(range(p), repeat=m - 1):
            lam = digits_value(table, digs)
            if (C - p * lam * A) % pm == 0 and (D - p * lam * B) % pm == 0:
                k = (A, B, (C - p * lam * A) // pm, (D - p * lam * B) // pm)
                matches.append((Coset(1, m - 1, digs), k))
                break
    if not matches:
        raise ArithmeticError("no canonical coset matched")
    coset, k = matches[0]
    if padic_val(k[0] * k[3] - k[1] * k[2], p) != 0:
        raise ArithmeticError("normalizing factor is not invertible")
    return coset, _substitute_poly(poly, k, r, p, precision - m)


def direct_T(f: IndFunction) -> IndFunction:
    """The defining double-coset formula, evaluated pair by pair with generic
    normalization; works on either branch.  Test oracle for apply_T."""
    p, r = f.p, f.r
    table = teich_table(p, f.precision)
    out = f._empty()
    for coset, poly in f.data.items():
        g = coset_matrix(coset, p, f.precision)
        for lam in range(p):
            t = table.rep[lam]
            h = (p, t, 0, 1)
            transformed = _substitute_poly(poly, (1, -t, 0, p), r, p, f.precision)
            c2, poly2 = normalize_pair(_mat_mul(g, h), transformed, p, r, f.precision)
            out.add_term(c2, poly2)
        transformed = _substitute_poly(poly, (p, 0, 0, 1), r, p, f.precision)
        c2, poly2 = normalize_pair(_mat_mul(g, (1, 0, 0, p)), transformed, p, r, f.precision)
        out.add_term(c2, poly2)
    return out.prune()


def translate(k_mat, f: IndFunction) -> IndFunction:
    """Left translation of f by an integral matrix of unit determinant."""
    out = f._empty()
    for coset, poly in f.data.items():
        g = coset_matrix(coset, f.p, f.precision)
        c2, poly2 = normalize_pair(_mat_mul(k_mat, g), poly, f.p, f.r, f.precision)
        out.add_term(c2, poly2)
    return out.prune()


def functions_agree(f: IndFunction, g: IndFunction, sigma: Fraction, min_val=3) -> bool:
    """True when every coefficient of f - g has valuation at least min_val
    (equality up to the carried Teichmuller precision).  A min_val above the
    cap of f - g cannot be decided and raises PrecisionError."""
    diff = f - g
    if min_val > diff.cap:
        raise PrecisionError(f"min_val {min_val} exceeds the absolute cap {diff.cap}")
    for poly in diff.data.values():
        for c in poly.values():
            if c.val_lb(sigma, diff.p) < min_val:
                return False
    return True


# ---------------------------------------------------------------------------
# coefficients on Fractions


def _val_capped(x, p: int, cap: int = 40):
    """Lower-bound-safe valuation, capped to avoid factoring huge integers."""
    if isinstance(x, Fraction):
        if x == 0:
            return INF
        return _val_capped(x.numerator, p, cap) - padic_val(x.denominator, p)
    if x == 0:
        return INF
    x = abs(x)
    v = 0
    while v < cap and x % p == 0:
        x //= p
        v += 1
    return v


def reduce_mod(x, p: int) -> int:
    """Image in F_p of a p-integral rational (or integer)."""
    if isinstance(x, int):
        return x % p
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise ValueError(f"{x} is not p-integral at p = {p}")
    return num * inv_mod(den, p) % p


class FractionCoeff:
    """sum_d c_d A^d at the prime p as {d: (Fraction c_d, err)}, every
    operation on exact Fractions: the model that ``ApCoeff`` must agree with
    in value and error bound."""

    def __init__(self, p: int, terms=None):
        self.p = p
        self.terms = {}
        for d, (c, e) in (terms or {}).items():
            self._accum(d, Fraction(c), e)

    def _accum(self, d, c, e):
        if d in self.terms:
            c0, e0 = self.terms[d]
            c, e = c0 + c, min(e0, e)
        if c == 0 and e == INF:
            self.terms.pop(d, None)
        else:
            self.terms[d] = (c, e)

    def __add__(self, other):
        out = FractionCoeff(self.p, self.terms)
        for d, (c, e) in other.terms.items():
            out._accum(d, c, e)
        return out

    def __neg__(self):
        return FractionCoeff(self.p, {d: (-c, e) for d, (c, e) in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        q = Fraction(q)
        if q == 0:
            return FractionCoeff(self.p)
        return FractionCoeff(self.p, {d: (c * q, e + padic_val(q, self.p))
                                      for d, (c, e) in self.terms.items()})

    def scale_trunc(self, n: int, precision: int):
        return FractionCoeff(self.p, {d: (c * n, min(e, padic_val(c, self.p) + precision))
                                      for d, (c, e) in self.terms.items()})

    def shift(self, k: int):
        return FractionCoeff(self.p, {d + k: t for d, t in self.terms.items()})

    def val_lb(self, sigma: Fraction):
        return min((min(padic_val(c, self.p), e) + d * sigma
                    for d, (c, e) in self.terms.items()), default=INF)

    def residue(self, sigma: Fraction) -> ResidueExpr:
        p, out = self.p, ResidueExpr(self.p)
        for d, (c, e) in self.terms.items():
            if e + d * sigma < 1 + PRECISION_HEADROOM:
                raise PrecisionError("residue requested beyond carried precision")
            v = padic_val(c, p) + d * sigma
            if v > 0:
                continue
            if v < 0:
                raise ArithmeticError("residue of a non-integral value")
            if d and (sigma != Fraction(3, 2) or d % 2):
                raise ArithmeticError("unit part is not expressible in the residue symbol")
            out = out + ResidueExpr(p, {d // 2: reduce_mod(c * Fraction(p) ** (3 * d // 2), p)})
        return out


# ---------------------------------------------------------------------------
# valuation certificate and subspace sum


def certify_val_ge(c: ApCoeff, bound, sigma: Fraction, p: int) -> bool:
    """True if the true valuation of c is provably >= bound; raises
    PrecisionError when a truncated term sits too close to the call."""
    if c.p != p:
        raise ValueError(f"coefficient at p = {c.p} certified at p = {p}")
    for d, (x, e) in c.exact_terms().items():
        v_stored = padic_val(x, p) + d * sigma
        if e != INF and e + d * sigma < bound + PRECISION_HEADROOM:
            if v_stored >= bound:
                raise PrecisionError(
                    f"bound {bound} within headroom of precision {e} at degree {d}"
                )
            return False
        if min(v_stored, e + d * sigma) < bound:
            return False
    return True


def union(a: FpSpace, b: FpSpace) -> FpSpace:
    """The sum of two subspaces of the same F_p^n."""
    return FpSpace.from_rows(np.vstack([a.matrix(), b.matrix()]), a.n, a.p)


# ---------------------------------------------------------------------------
# the reduction table by congruence cell


def classify_by_table(p: int, k: int, slope: Fraction, hyp_star: str = "unknown") -> GaloisRep:
    """The semisimplified reduction at weight k >= 2p+2, read off the table:
    ind(w2^(b+1)) or ind(w2^(b+p)) by the divisibility of r, r-1 and r-b,
    and unr(i) w + unr(-i) w when b = p and p^2 | r-b."""
    desc = case_descriptor(p, k - 2)
    b = desc.b
    star_relevant = b == 3 and Fraction(slope) == Fraction(3, 2)
    notes = ()
    if hyp_star != "unknown" and not star_relevant:
        notes = ("hyp_star ignored: only relevant when b = 3 and slope = 3/2",)
    if star_relevant and hyp_star != "holds":
        return GaloisRep(
            p,
            "undetermined",
            alternatives=_star_alternatives(desc),
            notes=(
                "b = 3 with slope exactly 3/2 requires the genericity hypothesis "
                f"(hyp_star = {hyp_star})",
            ),
        )
    if b == 2:
        return induced(p, b + 1 if not (desc.p_div_r or desc.p_div_r_minus_1) else b + p, notes=notes)
    if b < p:
        return induced(p, b + p if not desc.p_div_r_minus_b else b + 1, notes=notes)
    if not desc.p2_div_r_minus_b:
        return induced(p, b + p, notes=notes)
    return reducible(p, (("i", 1), ("-i", 1)), notes=notes)
