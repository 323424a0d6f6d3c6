"""Reference paths kept as test oracles, independent of the library paths
they check.

- ``exact_sum``: a function plus (coset, index, coefficient) triples with
  every term kept, where ``IndFunction.add_term`` drops a term past the
  cap.  ``elementary``, ``direct_T``, ``translate``, the per-term parts
  and the sums of whole functions below are built by it, and so are the
  test inputs that must keep every term.
- The Hecke operator by its defining double-coset formula: ``direct_T``
  evaluates every pair with generic coset normalization (``normalize_pair``)
  on exact rationals, held as integer numerators over a common power of p,
  and drops no term, against the raising/lowering decomposition
  ``apply_T``.  ``translate`` is the left action of an integral matrix of
  unit determinant, for the equivariance checks, ``functions_agree``
  compares two functions up to a valuation, and ``same_terms`` compares
  their stored terms, key order and cap exactly.
- ``apply_Tplus_by_terms``: the raising part with every term multiplied by
  its own weight for every child, against ``apply_Tplus``, which sums by
  residue class of i - j mod p-1; they must store the same (n, k, err).
  ``apply_Tminus_by_terms``: the lowering part spread one sibling coset and
  one term at a time, against ``apply_Tminus``, which sums the siblings of
  a parent by residue class first; the same (n, k, err) again.
- ``cut_past_cap``: a function read at its cap, with no term past it and
  each kept term in its capped form, the canonical form in which an
  operator that stores no term past the cap is compared with its exact
  oracle (``same_below_cap``).
- ``ind_sum`` and ``ind_difference``: the sums of whole functions, each on
  a copy with every term kept, and ``t_minus_ap_by_parts``,
  (T+ f + T- f) - A f composed of them and cut at the cap after each sum,
  against ``hecke.t_minus_ap``, which adds the parts in place; the same
  terms, key order and cap.  ``t_minus_ap_uncut``: the same composition of the
  per-term oracles with no cut (A f by ``shift_uncut``, which keeps the
  terms that ``IndFunction.shift_ap`` drops), which must give the same
  audit and residue.
- ``theta_classes``: classes modulo theta and theta^2 of whole (r+1)-long
  rows, against ``symrep.theta_index_classes``, which reads one monomial's
  class by its index.  On it: ``residue_module_by_rows``, V_r/V** with u's
  columns the classes of the binomial rows binom(c, 0..r), against
  ``symrep._residue_module``, which reads u off class sums of characters;
  ``quotient_by_spin``, the terminal quotient modulo the spin of the class
  of X^(r-1) Y there, against ``symrep.quotient_Q`` and ``build_X``'s
  quotient, which take the span of the classes of X's spanning set; and
  ``filtration_dims_by_columns``, the theta-filtration dims from the
  classes of the (r+1)-long rows ``middle_binomials``, against
  ``build_X``, which reads them in V_r/V**.
- ``middle_binomials``: the pairs (binom(r-1, i), binom(r-1, i-1)) mod p
  of the middle indices 2 <= i <= r-2 as (r+1)-long rows per class mod
  p-1, and ``class_pairs_by_columns``, each class's nonzero, spanning and
  first nonzero pair read off them, against ``symrep._class_pairs``, which
  reads them off the base-p digits of r-1 with no array sized by r.
- ``dense_classes``: classes in Q read off the classes modulo theta^2 of
  whole (r+1)-long rows, against ``QuotientModule.project_entries`` and
  ``witness.QEnv.cls``, which read each monomial's class by its index.
  ``project_dense``: the residue as one (r+1)-vector per (coset, e) from
  ``reduce_by_terms``, each projected into Q by ``dense_classes``,
  against the witness audit's sparse residue sent straight into V_r/V**
  classes;
  ``audit_reading``, the report and projected residue that an audit reads
  off a function, or the errors it raises.
- ``modp_T_by_weights``: the mod-p Hecke operator on a weight model with
  its weights written out, against ``modp_T``, which reduces ``apply_T``.
- ``certify_val_ge``: the per-coefficient valuation certificate, the second
  pass of the two-pass reference of ``hecke.audit_valuations``, and
  ``precision_margin``, the margin as a separate walk over the truncated
  terms, against ``ValuationReport.margin``, which the audit reads in its
  own walk.
- ``FractionCoeff``: the coefficient arithmetic of ``ApCoeff`` on exact
  ``Fraction`` terms with ``padic_val`` valuations, against the (unit,
  p-exponent) terms of ``ApCoeff``; with it ``reduce_mod``, which the
  library no longer uses.  ``FractionCoeff.residue`` reads one
  coefficient's residue term by term, against ``coefficient_residue``, the
  audit's residue rule (``hecke.audit_valuations`` and ``residue_terms``)
  on that coefficient alone, and ``reduce_by_terms`` is the dense walk of
  it over a function, against ``hecke.reduce_mod_p``.  The walk stops at
  the first bad term in term order and knows no ties, so
  ``audit_order_refusal`` names the refusal that the audit's rule raises
  where it refuses, and ``reductions_agree`` compares the two reductions
  under that mapping.
- ``union``: the sum of two F_p subspaces, and ``insert_vector``, the
  vector-at-a-time insertion into a reduced echelon basis, against the batch
  insertion ``FpSpace.add_rows``.  ``eliminate_by_hit_rows``: Gauss-Jordan
  elimination with a live-column search and an update of the hit rows at
  every pivot, against ``linalg.eliminate``, which updates the whole array
  of a small matrix; they must leave the same array and pivots.
  ``unipotent_fixed``: the echelon space of a module's u-fixed vectors, for
  the socle oracles that ``symrep.socle_simples``, which reads the kernel
  basis as it comes, is tested against.  ``hom_maps_by_spin``: Hom spaces
  by spinning a generator of the source and solving the equivariance
  conditions, against the Frobenius-reciprocity Hom spaces of
  ``socle_simples``.  ``gamma_iso_by_graph_spin``: the isomorphism pinned by
  a generator, read off the graph that the pair (generator, image) spins in
  the direct sum, against ``symrep.gamma_iso``, which spins the generator
  one vector at a time and replays each word on the target.
- ``classify_by_table``: the reduction table written out by congruence cell,
  with the exponents b+1 and b+p, against ``classify_reduction``, which
  derives it from ``surviving_factor`` and ``llc_image``; ``same_rep``
  compares two ``GaloisRep`` values up to the standard identifications.
- On coefficient vectors: ``theta_divides`` by exact division
  (``divide_theta``) cross-checked with the coefficient test
  ``theta_divides_criterion``; the spanning images as (r+1)-long rows
  (``orbit_vectors``), the classical spanning sets
  ``standard_spanning_set`` of the top- and second-monomial submodules
  (``spanning_matrices``), and ``build_X_rows``, the r-row build of those
  submodules, against the column-type ``symrep.build_X`` and the spin of
  X^r inside it.
- ``_class_sums``: the class sums T(N - n, c - n) of one class by p-1
  modular powers of (1 + zeta), against ``arith._step_class_sums``, which
  reads the powers of zeta^(-1) (1 + zeta) off a table by base-64 digit for
  many degrees at once.  ``class_sum_table_by_walk``: the class sums of one
  degree by a walk along binom(r, 0..r) as p-adic units, against
  ``arith.class_sum_table``, ``_class_sums`` and the lemma sweep, which read
  them off characters.  The big-integer class sums
  ``class_sum_T`` and ``class_sum_S_modp2``, the oracles of the class-sum
  lemma sweep, ``class_sum_S_exact``, the oracle of ``arith.class_sum_S``,
  which reads S mod p^2 from characters, and
  ``family_holds``, the congruences of the ``choose_*`` families restated
  from their definitions.
- The ``choose_*`` families built on exact binomial rows: ``check_family``
  checks a family against its row and ``corrected_family`` applies the
  correction rule to any row; ``choose_alphas_by_row``,
  ``choose_betas_by_row`` and ``choose_gammas_alphas2_by_row`` are the
  constructors on them, against the library's, which certify from class
  sums and build no row.
- ``elementary``: a function supported on one coset.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import replace
from fractions import Fraction
from itertools import chain
from itertools import product as _iter_product

import numpy as np

from crysred.arith import (
    DEFAULT_PRECISION,
    INF,
    PRECISION_HEADROOM,
    ApCoeff,
    ResidueExpr,
    _accum,
    _binom_row,
    _class_range,
    _split,
    inv_mod,
    padic_val,
    require_odd_prime,
)
from crysred.classify import (
    GaloisRep,
    _star_alternatives,
    case_descriptor,
    induced,
    reducible,
)
from crysred.errors import HypothesisError, PrecisionError
from crysred.hecke import (
    ALPHA,
    Coset,
    IndFunction,
    ResidueFunction,
    _binom_units,
    _floor_val,
    apply_Tminus,
    apply_Tplus,
    audit_valuations,
    reduce_mod_p,
    residue_terms,
    teich_table,
)
from crysred import linalg
from crysred.linalg import FpSpace
from crysred.symrep import (
    GEN_NAMES,
    GammaModule,
    QuotientModule,
    _binomials,
    _edges,
    _image_parts,
    _power_cycles,
    _spanning_matrices,
    _theta_coordinates,
    gamma_generators,
    mat_mul,
    primitive_root,
)
from crysred.witness import _residue_in_Q

# ---------------------------------------------------------------------------
# the Hecke operator by its defining formula


def terms_of(f: IndFunction):
    """The (coset, index, coefficient) triples of f, in its key order."""
    return ((coset, j, c) for coset, poly in f.data.items() for j, c in poly.items())


def exact_sum(f: IndFunction, items=(), cap=None) -> IndFunction:
    """f plus the (coset, index, coefficient) triples of ``items`` with every
    term kept, on a copy at f's cap or at ``cap`` (``IndFunction.add_term``
    drops a term past the cap).  Keys come in the order the sum first meets
    them, and an index that sums to zero, or a coset left without one,
    leaves no key.  ValueError for a coefficient at another prime."""
    p, data = f.p, {}
    for coset, j, c in chain(terms_of(f), items):
        if c.p != p:
            raise ValueError(f"coefficient at p = {c.p} used at p = {p}")
        if c.terms:
            poly = data.get(coset)
            if poly is None:
                poly = data[coset] = {}
            acc = poly.get(j)
            if acc is None:
                poly[j] = dict(c.terms)
            else:
                for d, t in c.terms.items():
                    _accum(acc, p, d, *t)
    out = f._empty(cap)
    for coset, poly in data.items():
        if poly := {j: ApCoeff(terms, p) for j, terms in poly.items() if terms}:
            out.data[coset] = poly
    return out


def elementary(p: int, r: int, coset: Coset, terms: dict[int, ApCoeff],
               precision: int = DEFAULT_PRECISION) -> IndFunction:
    """The function [coset, sum_j terms[j] X^(r-j) Y^j], every term kept."""
    return exact_sum(IndFunction(p, r, precision), ((coset, j, c) for j, c in terms.items()))


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


def _weight_profiles(mat, r: int, indices) -> dict[int, list[int]]:
    """The integer weights of X^(r-j) Y^j in (aX + cY)^(r-i) (bX + dY)^i,
    j = 0..r, for each i in ``indices``.  Ascending, a profile is stepped
    from the last one, P_(i+1) = P_i (bX + dY) / (aX + cY), an exact
    division, when that is cheaper than the product written out."""
    a, b, c, d = mat
    out, prev = {}, None
    for i in sorted(indices):
        if prev is not None and (a or c) and 3 * (r + 2) * (i - prev[0]) < (r - i + 1) * (i + 1):
            k, P = prev
            for _ in range(i - k):
                # Q = P (bX + dY) = P' (aX + cY), so Q[j] = a P'[j] + c P'[j-1]
                Q = [b * x + d * y for x, y in zip(P + [0], [0] + P)]
                if a:
                    P = []
                    for j in range(r + 1):
                        P.append((Q[j] - c * P[j - 1] if j else Q[0]) // a)
                else:
                    P = [q // c for q in Q[1:]]
        else:
            f1 = [math.comb(r - i, m) * a ** (r - i - m) * c**m for m in range(r - i + 1)]
            f2 = [(m, math.comb(i, m) * b ** (i - m) * d**m) for m in range(i + 1)]
            f2 = [(m, w) for m, w in f2 if w]
            P = [0] * (r + 1)
            for m1, w1 in enumerate(f1):
                if w1:
                    for m2, w2 in f2:
                        P[m1 + m2] += w1 * w2
        out[i] = P
        prev = (i, P)
    return out


def _substitute_poly(poly: dict[int, ApCoeff], mat, r: int, p: int, prec: int):
    """Exact substitution F(aX + cY, bX + dY) on ApCoeff polynomials; the
    resulting integer weights are treated as carrying the given precision.
    Every stored term n p^k is an integer numerator n p^(k+D) over one
    common denominator p^D, D the largest p-power of an input denominator,
    so the accumulation is integer arithmetic; each output value is
    stripped of its factors p once and stored as its (n, k, err) triple."""
    profiles = _weight_profiles(mat, r, poly)
    D = max([0] + [-k for coeff in poly.values() for n, k, _ in coeff.terms.values() if n])
    # raw accumulation: (j, degree) -> [numerator over p^D, error bound]
    acc: dict[int, dict[int, list]] = {}
    for i, coeff in poly.items():
        weights = profiles[i]
        for dd, (n, k, ee) in coeff.terms.items():
            eps = min(ee, k + prec) if n else ee
            num = n * p ** (k + D) if n else 0
            for j, w in enumerate(weights):
                if w == 0:
                    continue
                cell = acc.setdefault(j, {}).setdefault(dd, [0, math.inf])
                cell[0] += num * w
                cell[1] = min(cell[1], eps)
    out: dict[int, ApCoeff] = {}
    for j, cells in acc.items():
        terms = {}
        for dd, (val, eps) in cells.items():
            k = -D
            while val and val % p == 0:
                val //= p
                k += 1
            if val or eps != INF:
                terms[dd] = (val, k if val else 0, eps)
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
    pairs = []
    for coset, poly in f.data.items():
        g = coset_matrix(coset, p, f.precision)
        for lam in range(p):
            t = table.rep[lam]
            h = (p, t, 0, 1)
            transformed = _substitute_poly(poly, (1, -t, 0, p), r, p, f.precision)
            pairs.append(normalize_pair(_mat_mul(g, h), transformed, p, r, f.precision))
        transformed = _substitute_poly(poly, (p, 0, 0, 1), r, p, f.precision)
        pairs.append(normalize_pair(_mat_mul(g, (1, 0, 0, p)), transformed, p, r, f.precision))
    return exact_sum(f._empty(), ((c2, j, c) for c2, poly2 in pairs for j, c in poly2.items()))


def _times(c: ApCoeff, u: int, m: int, rel=INF) -> ApCoeff:
    """c * u * p^m, the unit u known to relative precision rel."""
    out = ApCoeff({}, c.p)
    c._mul_into(out, u, m, rel)
    return out


def apply_Tplus_by_terms(f: IndFunction) -> IndFunction:
    """The level-raising part term by term: for each child lam, every index i
    is multiplied onto j <= i by its own weight (-1)^(i-j) binom(i, j) p^j
    [lam]^(i-j), the unit known to the table's relative precision off the
    diagonal, with the same cap cut as ``hecke.apply_Tplus``.  Oracle for
    its grouping by residue class, which must give the same (n, k, err)."""
    p, table = f.p, teich_table(f.p, f.precision)

    def products():
        for coset, poly in f.data.items():
            rows = [(i, c, _binom_units(i, p, min(i, f.cap - 1 - _floor_val(c))))
                    for i, c in poly.items()]
            for lam in range(p):
                child = Coset(0, coset.level + 1, coset.digits + (lam,))
                for i, c, row in rows:
                    for j, (u, v) in enumerate(row):
                        if i == j:
                            yield child, j, _times(c, u, v + j)
                        elif lam:
                            unit = (-1) ** (i - j) * table.power(lam, i - j)
                            yield child, j, _times(c, u * unit, v + j, table.precision)
    return exact_sum(f._empty(), products())


def apply_Tminus_by_terms(f: IndFunction) -> IndFunction:
    """The level-lowering part term by term: each coset with top digit t
    sends every index i that clears the cap onto each j <= i of its parent
    with its own weight binom(i, j) p^(r-i) [t]^(i-j), the unit known to the
    table's relative precision off the diagonal.  Oracle for the grouping of
    ``hecke.apply_Tminus`` by parent and residue class, which must give the
    same (n, k, err), key order and cap."""
    p, r = f.p, f.r
    table, binoms = teich_table(p, f.precision), {}

    def products():
        for coset, poly in f.data.items():
            n, digits = coset.level, coset.digits
            parent, t = (ALPHA, 0) if n == 0 else (Coset(0, n - 1, digits[:-1]), digits[-1])
            powers = table.signed_powers(t, 1)
            for i, c in poly.items():
                if _floor_val(c) + r - i >= f.cap:
                    continue
                if i not in binoms:
                    binoms[i] = _binom_units(i, p, i)
                for j, (u, v) in enumerate(binoms[i]):
                    if i == j:
                        yield parent, j, _times(c, u, r - i + v)
                    elif t:  # [t]^(i-j), by i-j mod p-1
                        yield parent, j, _times(c, u * powers[(i - j) % (p - 1)], r - i + v,
                                                table.precision)
    return exact_sum(f._empty(), products())


def ind_sum(f: IndFunction, g: IndFunction) -> IndFunction:
    """f + g on a copy of f, at the smaller cap, every term kept."""
    return exact_sum(f, terms_of(g), min(f.cap, g.cap))


def ind_difference(f: IndFunction, g: IndFunction) -> IndFunction:
    return ind_sum(f, g.scale(-1))


def t_minus_ap_by_parts(f: IndFunction) -> IndFunction:
    """(T+ f + T- f) - A f composed of whole functions, each sum on a copy
    and cut at the cap: the oracle of ``hecke.t_minus_ap``, which
    adds the parts into T+ f in place and must store the same terms, key
    order and cap."""
    both = cut_past_cap(ind_sum(apply_Tplus(f), apply_Tminus(f)))
    return cut_past_cap(ind_difference(both, f.shift_ap(1)))


def shift_uncut(f: IndFunction, k: int) -> IndFunction:
    """f times A^k at the cap of ``IndFunction.shift_ap``, every term kept,
    where ``shift_ap`` drops a term that the shift takes past the new cap."""
    out = f._empty(f.cap + min(k, 2 * k))
    for coset, poly in f.data.items():
        out.data[coset] = {j: c.shift(k) for j, c in poly.items()}
    return out


def t_minus_ap_uncut(f: IndFunction) -> IndFunction:
    """(T - A) f from the per-term oracles, with no term past the cap
    dropped beyond their own p^j and p^(r-i) cuts."""
    both = ind_sum(apply_Tplus_by_terms(f), apply_Tminus_by_terms(f))
    return ind_difference(both, shift_uncut(f, 1))


def cut_past_cap(f: IndFunction) -> IndFunction:
    """f read at its cap N, keys in their order: a term n p^k A^d with error
    bound err is dropped when min(k, err) + min(d, 2d) >= N (k read as INF
    when n = 0), then an index left without terms and a coset left empty.
    A kept term, with lo = N - min(d, 2d), becomes (n mod p^(lo - k), k,
    min(err, lo)) when k < lo and (0, 0, err) otherwise: two functions that
    differ by terms past the cap have the same form."""
    p, out = f.p, f._empty()
    for coset, poly in f.data.items():
        kept = {}
        for j, c in poly.items():
            terms = {}
            for d, (n, k, e) in c.terms.items():
                lo = f.cap - min(d, 2 * d)
                if n and k < lo:
                    terms[d] = (n % p ** (lo - k), k, min(e, lo))
                elif e < lo:
                    terms[d] = (0, 0, e)
            if terms:
                kept[j] = ApCoeff(terms, p)
        if kept:
            out.data[coset] = kept
    return out


def same_below_cap(got: IndFunction, want: IndFunction) -> bool:
    """``got`` stores no term past its cap, and it and ``want`` have the same
    ``cut_past_cap`` form (``same_terms``)."""
    cut = cut_past_cap(got)
    count = lambda g: sum(len(c.terms) for poly in g.data.values() for c in poly.values())
    return count(cut) == count(got) and same_terms(cut, cut_past_cap(want))


def dense_classes(q: QuotientModule, vecs) -> np.ndarray:
    """Classes of ambient degree-r coefficient vectors (rows) in the
    coordinates of the terminal quotient q, read off their classes modulo
    theta^2 as whole (r+1)-long rows: the dense lookup that q's
    ``project_entries`` and ``witness.QEnv.cls`` read by monomial index."""
    return q.project_coords(theta_classes(linalg.as_vec(vecs, q.p), q.p, 2))


def project_dense(g: IndFunction, sigma: Fraction, env) -> ResidueFunction:
    """The residue of g as dense (r+1)-vectors (``reduce_by_terms``), each
    projected into the terminal quotient of ``env`` (a ``witness.QEnv``) by
    ``dense_classes``."""
    return reduce_by_terms(g, sigma).map_vectors(lambda rows: dense_classes(env.module, rows))


def audit_reading(g: IndFunction, sigma: Fraction, env):
    """What a witness audit reads off g: its ``ValuationReport``, with
    ``min_valuation`` read at the cap, and the residue projected into the
    terminal quotient of ``env``; the type name of the error raised in place
    of the report, or of the residue."""
    try:
        rep = audit_valuations(g, sigma)
    except ArithmeticError as exc:
        return type(exc).__name__, None
    rep = rep._replace(min_valuation=min(rep.min_valuation, g.cap))
    try:
        return rep, _residue_in_Q(env, residue_terms(rep))
    except ArithmeticError as exc:
        return rep, type(exc).__name__


def translate(k_mat, f: IndFunction) -> IndFunction:
    """Left translation of f by an integral matrix of unit determinant."""
    pairs = (normalize_pair(_mat_mul(k_mat, coset_matrix(coset, f.p, f.precision)), poly,
                            f.p, f.r, f.precision) for coset, poly in f.data.items())
    return exact_sum(f._empty(), ((c2, j, c) for c2, poly2 in pairs for j, c in poly2.items()))


def functions_agree(f: IndFunction, g: IndFunction, sigma: Fraction, min_val=3) -> bool:
    """True when every coefficient of f - g has valuation at least min_val
    (equality up to the carried Teichmuller precision).  A min_val above the
    cap of f - g cannot be decided and raises PrecisionError."""
    diff = ind_difference(f, g)
    if min_val > diff.cap:
        raise PrecisionError(f"min_val {min_val} exceeds the absolute cap {diff.cap}")
    for poly in diff.data.values():
        for c in poly.values():
            if c.val_lb(sigma, diff.p) < min_val:
                return False
    return True


def same_terms(got: IndFunction, want: IndFunction) -> bool:
    """Same cap, cosets, indices (in order) and stored (n, k, err) terms."""
    return (got.cap == want.cap and list(got.data) == list(want.data)
            and all(list(got.data[c]) == list(poly) for c, poly in want.data.items())
            and all(got.data[c][j].terms == x.terms
                    for c, poly in want.data.items() for j, x in poly.items()))


def modp_T_by_weights(fn: ResidueFunction, s: int) -> ResidueFunction:
    """The mod-p Hecke operator on the degree-s weight model with its weights
    written out: the raising part sends the value v at a coset to
    sum_i v_i (-lam)^i X^s at each child lam, and the lowering part sends
    v_s Y^s to the parent at (top X + Y)^s, or to alpha at level zero.
    Test oracle for ``modp_T``, the reduction of ``apply_T``."""
    p = fn.p
    out = ResidueFunction(p)
    for (coset, e), vec in fn.data.items():
        if coset.branch != 0:
            raise NotImplementedError("branch-1 support unsupported")
        n, digits = coset.level, coset.digits
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
    return out


# ---------------------------------------------------------------------------
# coefficients on Fractions


def reduce_mod(x, p: int) -> int:
    """Image in F_p of a p-integral rational (or integer)."""
    if isinstance(x, int):
        return x % p
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise ValueError(f"{x} is not p-integral at p = {p}")
    return num * inv_mod(den, p) % p


def split_coeff(raw: dict, p: int) -> ApCoeff:
    """The ``ApCoeff`` of the {d: (rational c_d, err)} that ``FractionCoeff``
    reads: each c_d split into its normal form (n, k), and a term with
    c_d = 0 and err = INF left out."""
    return ApCoeff({d: (*_split(c, p), e) for d, (c, e) in raw.items() if c or e != INF}, p)


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


def coefficient_residue(c: ApCoeff, sigma: Fraction) -> ResidueExpr:
    """The residue of the one coefficient c, read by the audit's residue rule
    (``audit_valuations`` and ``residue_terms``) on the function c at the
    identity, at cap INF so that every term is read."""
    f = IndFunction(c.p, 0, precision=INF)
    f.add_term(Coset(0, 0, ()), {0: c})
    residue = residue_terms(audit_valuations(f, sigma))
    return ResidueExpr(c.p, {e: entries[0] for (_, e), entries in residue.items()})


def reduce_by_terms(f: IndFunction, sigma: Fraction) -> ResidueFunction:
    """The residue of f as one dense (r+1)-vector per (coset, e), read one
    coefficient at a time by ``FractionCoeff.residue``: its refusals come
    in term order, the cap's first."""
    if f.cap < 1 + PRECISION_HEADROOM:
        raise PrecisionError(f"absolute cap {f.cap} is within the headroom of the residue")
    out = ResidueFunction(f.p)
    for coset, poly in f.data.items():
        vecs = {}  # one vector per power of the residue symbol
        for j, c in poly.items():
            for e, val in FractionCoeff(f.p, c.exact_terms()).residue(sigma).coeffs.items():
                vec = vecs.get(e)
                if vec is None:
                    vec = vecs[e] = np.zeros(f.r + 1, dtype=np.int64)
                vec[j] = val
        for e, vec in vecs.items():
            out.accumulate(coset, e, vec)
    return out


def audit_order_refusal(coeffs, sigma: Fraction, cap=INF) -> str:
    """The refusal that the audit's residue rule raises on these
    ``FractionCoeff`` values, known up to ``cap``, where a per-coefficient
    walk refuses: whatever the order of the terms, PrecisionError for a cap
    within the headroom, then IndeterminateCancellation when two degrees of
    a coefficient tie at a negative least valuation, then PrecisionError
    when a term has err + d*sigma < 1 + PRECISION_HEADROOM, and
    ArithmeticError otherwise."""
    if cap < 1 + PRECISION_HEADROOM:
        return "PrecisionError"
    for c in coeffs:
        vals = [min(padic_val(x, c.p), e) + d * sigma for d, (x, e) in c.terms.items()]
        if vals and min(vals) < 0 and vals.count(min(vals)) > 1:
            return "IndeterminateCancellation"
    if any(e + d * sigma < 1 + PRECISION_HEADROOM
           for c in coeffs for d, (_, e) in c.terms.items()):
        return "PrecisionError"
    return "ArithmeticError"


def reductions_agree(f: IndFunction, sigma: Fraction) -> bool:
    """``hecke.reduce_mod_p`` and ``reduce_by_terms`` give f the same
    residue, or the same refusal once the walk's is put in the audit's
    order (``audit_order_refusal``)."""
    try:
        got = reduce_mod_p(f, sigma)
    except ArithmeticError as exc:
        got = type(exc).__name__
    try:
        want = reduce_by_terms(f, sigma)
    except ArithmeticError:
        coeffs = [FractionCoeff(f.p, c.exact_terms()) for poly in f.data.values()
                  for c in poly.values()]
        want = audit_order_refusal(coeffs, sigma, f.cap)
    return got == want


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


def unipotent_fixed(mod: GammaModule) -> FpSpace:
    """The vectors of a module fixed by u, as an echelon space."""
    U = mod.mats["u"] - np.eye(mod.dim, dtype=np.int64)
    return FpSpace.from_rows(linalg.nullspace(U, mod.p), mod.dim, mod.p)


def hom_maps_by_spin(src: GammaModule, src_gen, dst: GammaModule, C) -> list[np.ndarray]:
    """Basis of the equivariant maps src -> dst sending ``src_gen`` into the
    column span of C, as matrices.

    src_gen = x_0, which must generate src, is spun one vector at a time,
    x_i = g x_parent, and the words are replayed on Y_0 = C as Y_i =
    g Y_parent, so column k of Y_i is the image of x_i under the map pinned
    by src_gen -> C e_k.  That map is T_k = (column k of each Y) X^-1, X the
    matrix with columns x_i, and sum theta_k T_k is equivariant exactly when
    theta is in the nullspace of T_k g - g T_k over the four generators."""
    p = src.p
    space = FpSpace(src.dim, p)
    xs, words = [], []
    work = [(-1, "", np.asarray(src_gen) % p)]
    while work:
        parent, name, x = work.pop()
        if space.add(x):
            words.append((parent, name))
            xs.append(x)
            work += [(len(xs) - 1, gen, src.mats[gen] @ x % p) for gen in GEN_NAMES]
    if space.dim != src.dim:
        raise ValueError("generator does not generate the source module")
    Xinv = linalg.row_transform(np.array(xs, dtype=np.int64).T, p)[1]
    ys = [np.asarray(C).reshape(dst.dim, -1) % p]
    for parent, name in words[1:]:
        ys.append(dst.mats[name] @ ys[parent] % p)
    maps = np.einsum("nak,nm->kam", np.array(ys), Xinv) % p
    conds = np.hstack([(maps @ src.mats[name] - dst.mats[name] @ maps).reshape(len(maps), -1) % p
                       for name in GEN_NAMES]).T
    return [np.tensordot(theta, maps, axes=1) % p
            for theta in linalg.nullspace(conds[conds.any(axis=1)], p)]


def gamma_iso_by_graph_spin(src: GammaModule, src_gen, dst: GammaModule, dst_gen) -> np.ndarray:
    """Matrix T of the equivariant isomorphism pinned by src_gen -> dst_gen,
    read off a graph: (src_gen, dst_gen) is spun in src + dst on
    block-diagonal generator matrices.  If src_gen generates src and the
    assignment extends to a map T, the spin is T's graph {(x, T x)}, of
    dimension n = dim src, with echelon rows [I | T^T]; so its first n pivots
    are 0..n-1 exactly when src_gen generates src, and a larger dimension
    means that no map extends the assignment.  T is then checked against the
    four generators and to be bijective."""
    if src.dim != dst.dim:
        raise ValueError("dimension mismatch")
    p, n = src.p, src.dim
    zero = np.zeros((n, n), dtype=np.int64)
    pair = GammaModule(p, {name: np.block([[src.mats[name], zero], [zero, dst.mats[name]]])
                           for name in GEN_NAMES})
    graph = pair.spin([np.concatenate([src_gen, dst_gen])])
    if graph.pivots[:n] != list(range(n)):
        raise ValueError("generator does not generate the source module")
    if graph.dim > n:
        raise ValueError("constructed map is not equivariant")
    T = graph.matrix()[:, n:].T
    if any(((T @ src.mats[name] - dst.mats[name] @ T) % p).any() for name in GEN_NAMES):
        raise ValueError("constructed map is not equivariant")
    if linalg.rank(T, p) != n:
        raise ValueError("constructed map is not invertible")
    return T


def union(a: FpSpace, b: FpSpace) -> FpSpace:
    """The sum of two subspaces of the same F_p^n."""
    return FpSpace.from_rows(np.vstack([a.matrix(), b.matrix()]), a.n, a.p)


def eliminate_by_hit_rows(A: np.ndarray, p: int, ncols: int) -> list[int]:
    """Gauss-Jordan elimination of A in place, with pivots taken only among
    its first ``ncols`` columns, as ``linalg.eliminate`` specifies: at each
    step the first live column at or below the current row, its first
    nonzero row swapped up and scaled, and the multiple of it taken off every
    other row that has a nonzero entry in the pivot column."""
    pivots: list[int] = []
    col = 0
    for row in range(A.shape[0]):
        live = np.flatnonzero(A[row:, col:ncols].any(axis=0))
        if not live.size:
            break
        col += int(live[0])
        k = row + int(np.flatnonzero(A[row:, col])[0])
        if k != row:
            A[[row, k]] = A[[k, row]]
        A[row] = A[row] * pow(int(A[row, col]), -1, p) % p
        f = A[:, col].copy()
        f[row] = 0
        hit = np.flatnonzero(f)
        A[hit] = (A[hit] - np.outer(f[hit], A[row])) % p
        pivots.append(col)
        col += 1
    return pivots


def insert_vector(rows: list, pivots: list, v, p: int) -> bool:
    """Insert v into the reduced row-echelon basis ``rows`` (a list of
    vectors with ascending ``pivots``), both updated in place: reduce v one
    row at a time, scale its leading entry to 1, clear that column from the
    old rows and insert the new row by pivot.  Returns True if the span grew."""
    w = np.asarray(v, dtype=np.int64) % p
    for piv, row in zip(pivots, rows):
        w = (w - w[piv] * row) % p
    nz = np.flatnonzero(w)
    if nz.size == 0:
        return False
    piv = int(nz[0])
    w = w * pow(int(w[piv]), -1, p) % p
    for i, row in enumerate(rows):
        if row[piv]:
            rows[i] = (row - row[piv] * w) % p
    pos = bisect.bisect(pivots, piv)
    rows.insert(pos, w)
    pivots.insert(pos, piv)
    return True


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
        rep = induced(p, b + 1 if not (desc.p_div_r or desc.p_div_r_minus_1) else b + p)
    elif b < p:
        rep = induced(p, b + p if not desc.p_div_r_minus_b else b + 1)
    elif not desc.p2_div_r_minus_b:
        rep = induced(p, b + p)
    else:
        rep = reducible(p, (("i", 1), ("-i", 1)))
    return replace(rep, notes=notes)


def same_rep(x: GaloisRep, y: GaloisRep) -> bool:
    """Equality up to the standard identifications (conjugate exponent
    for induced representations, order of the two characters)."""
    if x.p != y.p or x.kind != y.kind:
        return False
    m = x.p**2 - 1
    if x.kind == "induced":
        orb = {x.induced_exp % m, x.induced_exp * x.p % m}
        return y.induced_exp % m in orb
    if x.kind == "reducible":
        mine = sorted((s, e % (x.p - 1)) for s, e in x.characters)
        theirs = sorted((s, e % (y.p - 1)) for s, e in y.characters)
        return mine == theirs
    if len(x.alternatives) != len(y.alternatives):
        return False
    return all(same_rep(a, b) for a, b in zip(x.alternatives, y.alternatives))


# ---------------------------------------------------------------------------
# theta divisibility and spanning sets on coefficient vectors


def divide_theta(vec: np.ndarray, p: int) -> np.ndarray | None:
    """Exact quotient of a degree-r vector by theta = X^p Y - X Y^p, or None
    when theta does not divide."""
    r = len(vec) - 1
    s = r - p - 1
    rem = (np.asarray(vec, dtype=np.int64) % p).tolist()
    if s < 0:
        return None if any(rem) else np.zeros(0, dtype=np.int64)
    if rem[0]:
        return None
    # long division on Python ints: numpy scalar indexing dominates otherwise
    quo = [0] * (s + 1)
    for m in range(s + 1):
        c = rem[m + 1]
        quo[m] = c
        rem[m + 1] = 0
        rem[m + p] = (rem[m + p] + c) % p
    if any(rem):
        return None
    return np.array(quo, dtype=np.int64)


def theta_divides_criterion(vec, k: int, p: int) -> bool | None:
    """Coefficient test for vectors supported in one class of monomial
    indices mod p-1; None when the support spans several classes, so the
    test does not apply."""
    v = np.asarray(vec, dtype=np.int64) % p
    r = len(v) - 1
    if not v.any():
        return True
    if len({j % (p - 1) for j in np.flatnonzero(v)}) > 1:
        return None
    total = int(v.sum() % p)
    ok1 = v[0] == 0 and v[r] == 0 and total == 0
    if k == 1:
        return ok1
    jsum = int((v * np.arange(r + 1)).sum() % p)
    return ok1 and v[1] == 0 and v[r - 1] == 0 and jsum == 0


def theta_divides(vec, k: int, p: int) -> bool:
    """True when theta^k divides the vector, k in {1, 2}, by exact division;
    for vectors supported in one class the coefficient test is run as well
    and the two answers are required to agree."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    v = np.asarray(vec, dtype=np.int64) % p
    cur = v
    result = True
    for _ in range(k):
        cur = divide_theta(cur, p)
        if cur is None:
            result = False
            break
    crit = theta_divides_criterion(v, k, p)
    if crit is not None and crit != result:
        raise ArithmeticError("theta-divisibility paths disagree")
    return result


def _power_table(a: np.ndarray, n: int, p: int) -> np.ndarray:
    """a_k^e mod p for e = 0..n, one row per entry a_k."""
    out = _power_cycles(p)[a % p][:, np.arange(n + 1) % (p - 1)]
    out[a % p == 0, 1:] = 0
    return out


def orbit_vectors(mats, r: int, j: int, p: int) -> np.ndarray:
    """Rows h . X^(r-j) Y^j = (aX + cY)^(r-j) (bX + dY)^j for h = (a, b, c, d)
    in ``mats`` and j in {0, 1}, as (r+1)-long coefficient vectors."""
    a, b, c, d = (np.array(col, dtype=np.int64) % p for col in zip(*mats))
    n = r - j
    F = _binomials(n, np.arange(n + 1), p) * _power_table(a, n, p)[:, ::-1] % p * _power_table(c, n, p) % p
    if j == 0:
        return F
    out = np.zeros((len(F), r + 1), dtype=np.int64)
    out[:, :r] = F * b[:, None]
    out[:, 1:] += F * d[:, None]
    return out % p


def spanning_matrices(p: int, which: str) -> list[tuple[int, int, int, int]]:
    """Matrices h whose images h . X^r ("top") or h . X^(r-1)Y ("second") are
    the classical spanning set: X^r and (kX + Y)^r; or the spanning set of
    ``symrep.build_X``, in its order."""
    if which == "top":
        return [(1, 0, 0, 1)] + [(k, 0, 1, 1) for k in range(p)]
    return _spanning_matrices(p)


def standard_spanning_set(p: int, r: int, which: str) -> list[np.ndarray]:
    """The classical spanning sets of the top- and second-monomial submodules;
    the second in the order that ``ClosedSubspace.transform`` refers to."""
    return list(orbit_vectors(spanning_matrices(p, which), r, 0 if which == "top" else 1, p))


def build_X_rows(p: int, r: int, which: str = "second") -> tuple[FpSpace, GammaModule]:
    """The submodule of ``symrep.build_X`` on (r+1)-long rows: the echelon
    space of its spanning set, certified monoid-stable by the images of the
    spanning set under the Gamma generators and diag(1, 0), and the Gamma
    action on the echelon basis.  Oracle for the column-type build and for
    X_r read inside it."""
    j = 0 if which == "top" else 1
    hs = spanning_matrices(p, which)
    gens = gamma_generators(p) + [(1, 0, 0, 0)]
    vecs = orbit_vectors(hs + [mat_mul(g, h, p) for g in gens for h in hs], r, j, p)
    S, images = vecs[: len(hs)], vecs[len(hs):]
    B, T, pivots = linalg.row_transform(S, p)
    coords = images[:, pivots]
    if ((images - coords @ B) % p).any():
        raise ArithmeticError(f"spanning set of the {which} submodule is not monoid-stable "
                              f"at p={p}, r={r}")
    blocks = np.split(coords, len(gens))
    mats = {name: (T @ block % p).T for name, block in zip(GEN_NAMES, blocks)}
    return FpSpace.from_echelon(B, pivots, r + 1, p), GammaModule(p, mats)


# ---------------------------------------------------------------------------
# V_r/V** on whole rows


def theta_classes(vecs, p: int, k: int) -> np.ndarray:
    """Classes of degree-r coefficient vectors (last axis r+1, entries in
    0..p-1) modulo theta^k, k in {1, 2}, in the ``_theta_coordinates``,
    against ``symrep.theta_index_classes``, which reads one monomial's.

    By e_i = e_(i+p-1) (k = 1) and e_i = 2 e_(i+p-1) - e_(i+2p-2) (k = 2), a
    middle monomial i = j - m(p-1), j the coordinate in r-kp+1..r-kp+p-1 of
    its class mod p-1, has class e_j (k = 1) or (1+m) e_j - m e_(j+p-1)
    (k = 2): a class is the coordinate entries plus, per class mod p-1, the
    sum of the middle entries and their sum weighted by m mod p (< p^2 (r+1))."""
    vecs = np.asarray(vecs, dtype=np.int64)
    r, P, n = vecs.shape[-1] - 1, p - 1, vecs.shape[-1] - k * (p + 1)
    out = vecs[..., _theta_coordinates(p, r, k)]
    if n > 0:
        # the n middle entries k..r-kp in blocks of p-1: block m from the top is row -m
        mid = np.zeros(vecs.shape[:-1] + (-(-n // P) * P,), dtype=np.int64)
        mid[..., -n:] = vecs[..., k : k + n]
        mid = mid.reshape(vecs.shape[:-1] + (-1, P))
        weighted = np.arange(mid.shape[-2], 0, -1) % p @ mid if k == 2 else 0
        out[..., k : k + P] += mid.sum(axis=-2) + weighted
        out[..., k + P : k + 2 * P] -= weighted
    return out % p


def residue_module_by_rows(p: int, r: int) -> GammaModule:
    """V_r/V** with each generator's columns the classes (``theta_classes``)
    of whole (r+1)-long rows: u's the binomial rows binom(c_j, 0..r) by
    Lucas, w's the unit rows at r - c_j, for the coordinates c; against
    ``symrep._residue_module``, which reads u off class sums and w by
    index."""
    c, g = _theta_coordinates(p, r, 2), primitive_root(p)
    return GammaModule(p, {
        "u": theta_classes(_binomials(c[:, None], np.arange(r + 1), p), p, 2).T,
        "w": theta_classes(np.equal.outer(r - c, np.arange(r + 1)).astype(np.int64), p, 2).T,
        "d1": np.diag([pow(g, r - j, p) for j in c.tolist()]),
        "d2": np.diag([pow(g, j, p) for j in c.tolist()]),
        "e": np.diag((c == 0).astype(np.int64)),
    })


def quotient_by_spin(p: int, r: int) -> QuotientModule:
    """The terminal quotient modulo the spin of the class of X^(r-1) Y in
    ``residue_module_by_rows``, against ``symrep.quotient_Q`` and
    ``build_X``'s quotient, which take it modulo the span of the classes of
    X's spanning set."""
    ambient = residue_module_by_rows(p, r)
    return QuotientModule(r, ambient, ambient.spin([np.eye(1, len(ambient.mats["u"]), 1)]))


def middle_binomials(p: int, r: int) -> np.ndarray:
    """C[t, c, i] = binom(r-1, i-t) mod p for the middle indices
    2 <= i <= r-2 of class 2 + c mod p-1, zero elsewhere: C[:, c] holds
    the pairs of class 2 + c as degree-r vectors."""
    i = np.arange(2, r - 1)
    C = np.zeros((2, p - 1, r + 1), dtype=np.int64)
    C[:, (i - 2) % (p - 1), i] = _binomials(r - 1, i - np.arange(2)[:, None], p)
    return C


def class_pairs_by_columns(p: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per class of middle indices, from the (r+1)-long rows of
    ``middle_binomials``: whether a pair is nonzero, whether the pairs span
    F_p^2, and the pair at the first index with a nonzero one; against
    ``symrep._class_pairs``, which reads them off the digits of r-1."""
    C = middle_binomials(p, r)
    nz = C.any(axis=0)
    first = C[:, np.arange(p - 1), nz.argmax(axis=1)]
    full = ((first[0, :, None] * C[1] - first[1, :, None] * C[0]) % p).any(axis=1)
    return nz.any(axis=1), full, first


def filtration_dims_by_columns(X) -> tuple[int, ...]:
    """The four theta-filtration dims of ``symrep.build_X``'s X from the
    classes of its spanning set read off the edge monomials and the
    (r+1)-long rows of ``middle_binomials``, times the parts of
    ``_image_parts``; against ``build_X``, which reads them in V_r/V**."""
    p, r = X.p, X.r
    E, V = _image_parts(_spanning_matrices(p), r, p)
    edges = np.arange(r + 1) == np.array(_edges(r))[:, None]
    ends, mid = (np.concatenate([theta_classes(x, p, k) for k in (1, 2)], axis=-1)
                 for x in (edges, middle_binomials(p, r)))
    SR = (E @ ends + V[0] @ mid[0] + V[1] @ mid[1]) % p
    width = len(_theta_coordinates(p, r, 1))
    dims = ()
    for M in (X.transform, X.top.matrix() @ X.transform % p):
        pivots = linalg.rref(M @ SR % p, p)[1]
        dims += (len(M) - sum(c < width for c in pivots), len(M) - len(pivots))
    return dims


# ---------------------------------------------------------------------------
# class sums and integer families with big integers


def _class_sums(N: int, c: int, p: int, k: int, count: int = 1) -> list[int]:
    """T(N - n, c - n) mod p^k for n < count <= N + 1, T(N, c) the sum of
    binom(N, i) over i = c (mod p-1).  (p-1) T(N, c) is the sum of
    zeta^(-c) (1 + zeta)^N over zeta in mu_(p-1), exactly mod p^k for the
    Teichmuller lifts: one power per zeta, then steps by zeta^(-1) (1 + zeta)."""
    pk, tt = p**k, teich_table(p, k)
    out = [0] * count
    for x, step in enumerate(tt.steps, 1):
        t = tt.rep[pow(x, (count - 1 - c) % (p - 1), p)] * pow(1 + tt.rep[x], N - count + 1, pk)
        for n in reversed(range(count)):
            out[n] += t
            t = t * step % pk
    inv = inv_mod(p - 1, pk)
    return [s * inv % pk for s in out]


def class_sum_table_by_walk(r: int, p: int, k: int = 3) -> list[int]:
    """sum of binom(r, j) mod p^k over 0 <= j <= r, per class j mod (p-1),
    against ``arith.class_sum_table`` and the degree sweep, which read the
    class sums off characters.

    One incremental pass carrying binom(r, j) as p^e * unit with the unit
    held mod p^k; exact residues without full-size integers.
    """
    require_odd_prime(p)
    pk = p**k
    acc = [0] * (p - 1)
    powers = [p**i for i in range(k)]
    inv_cache: dict[int, int] = {}
    e, u, j = 0, 1, 0
    while True:
        if e < k:
            cls = j % (p - 1)
            acc[cls] = (acc[cls] + u * powers[e]) % pk
        if j == r:
            return acc
        num, den = r - j, j + 1
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        den %= pk
        inv = inv_cache.get(den)
        if inv is None:
            inv = pow(den, -1, pk)
            inv_cache[den] = inv
        u = u * (num % pk) % pk * inv % pk
        j += 1


def class_sum_T(r: int, b: int, p: int) -> int:
    """T mod p for T = sum of binom(r,j), 0 < j < r-1, j = b-1 (mod p-1).

    Equals (b - r) mod p.
    """
    require_odd_prime(p)
    if not (2 <= b <= p) or (r - b) % (p - 1):
        raise HypothesisError(f"need r = b (mod p-1) with 2 <= b <= p; got r={r}, b={b}")
    return sum(math.comb(r, j) for j in _class_range(1, r - 1, b - 1, p - 1)) % p


def class_sum_S_exact(r: int, a: int, p: int) -> tuple[int, int]:
    """``arith.class_sum_S`` on the exact sum of binom(r, j), 0 < j < r,
    j = a (mod p-1)."""
    require_odd_prime(p)
    if not (1 <= a <= p - 1) or r <= 0 or (r - a) % (p - 1):
        raise HypothesisError(f"need r = a (mod p-1) with 1 <= a <= p-1; got r={r}, a={a}")
    S = sum(math.comb(r, j) for j in _class_range(1, r, a, p - 1))
    if S % p:
        raise ArithmeticError(f"class sum not divisible by p: r={r}, a={a}, p={p}")
    return (0, (S // p) % p)


def class_sum_S_modp2(r: int, p: int) -> int:
    """S mod p^2 for S = sum of binom(r,j), 1 < j < r, j = 1 (mod p-1),
    assuming p | r and r = 1 (mod p-1).  Equals (p - r) mod p^2.
    """
    require_odd_prime(p)
    if r % p or (r - 1) % (p - 1):
        raise HypothesisError(f"need p | r and r = 1 (mod p-1); got r={r}, p={p}")
    return sum(math.comb(r, j) for j in _class_range(2, r, 1, p - 1)) % (p * p)


def family_holds(fam: dict[int, int], r: int, p: int, level: int, target: int = 0) -> bool:
    """The congruences of a ``choose_*`` family at level L = ``level``:
    fam[j] = binom(r, j) mod p^L, and sum_j binom(j, n) fam[j] vanishes mod
    p^(L+2-n) for n <= L, while at n = L+1 it is ``target`` mod p.  The
    alpha and beta families have L = 1 (target binom(r, 2) for alpha at
    a = 2), the quadratic ones L = 2 (target +-1 at p = 3).  An empty family
    holds at the degrees where it has no index."""
    if not fam:
        return True
    if any((x - math.comb(r, j)) % p**level for j, x in fam.items()):
        return False
    for n in range(level + 2):
        total = sum(math.comb(j, n) * x for j, x in fam.items())
        if (total - (target if n == level + 1 else 0)) % p ** (level + 2 - n):
            return False
    return True


def check_family(name: str, fam: dict[int, int], row: list[int], p: int, level: int,
                 target: int = 0) -> dict[int, int]:
    """``fam`` once it holds at level L = ``level``, else ArithmeticError:
    fam[j] = binom(r, j) mod p^L, and sum_j binom(j, n) fam[j] vanishes mod
    p^(L+2-n) for n <= L and is ``target`` mod p at n = L+1; all read mod p^(L+2)."""
    q = p ** (level + 2)
    res = {j: x % q for j, x in fam.items()}
    failed = [f"matches_binom_mod_p{level}"] if any(
        (x - row[j]) % p**level for j, x in res.items()) else []
    for n in range(level + 2):
        total = sum(math.comb(j, n) * x for j, x in res.items())
        if (total - (target if n == level + 1 else 0)) % p ** (level + 2 - n):
            failed.append(f"choose{n}_sum_mod_p{level + 2 - n}")
    if failed:
        raise ArithmeticError(f"{name} family failed checks: {', '.join(failed)}")
    return fam


def corrected_family(name: str, row: list[int], js, p: int, level: int,
                     unit: int | None, zero: int, target: int = 0) -> dict[int, int]:
    """row[j] on the class js plus multiples of p^L (L = ``level``) at a unit
    index (p not dividing it, or None) and a zero index (p dividing it),
    checked; {} on an empty class.  A multiple of p^L moves only the plain sum
    (checked mod p^(L+2)) and the j-weighted one (mod p^(L+1)): the unit index
    clears the weighted sum, then the zero index takes the whole plain sum,
    which the class-sum lemmas make divisible by p^L, so the weighted sum stays."""
    if not js:
        return {}
    q = p**level
    fam = {j: row[j] for j in js}
    if unit is not None:
        fam[unit] -= sum(j * x for j, x in fam.items()) // q * inv_mod(unit, p) % p * q
    fam[zero] -= sum(fam.values())
    return check_family(name, fam, row, p, level, target)


def choose_alphas_by_row(r: int, a: int, p: int) -> dict[int, int]:
    """``arith.choose_alphas`` on the exact row binom(r, 0..r)."""
    require_odd_prime(p)
    if r < 1 or not (2 <= a <= p - 1) or (r - a) % (p - 1):
        raise HypothesisError(f"need r >= 1, r = a (mod p-1) with 2 <= a <= p-1; got r={r}, a={a}")
    js = _class_range(1, r, a, p - 1)
    row = _binom_row(r)
    target = math.comb(r, 2) if a == 2 else 0
    if r > a * p:
        return corrected_family("alpha", row, js, p, 1, a, a * p, target)
    return check_family("alpha", {j: 0 for j in js}, row, p, 1, target)


def choose_betas_by_row(r: int, b: int, p: int) -> dict[int, int]:
    """``arith.choose_betas`` on the exact row binom(r, 0..r)."""
    require_odd_prime(p)
    if r < 1 or not (3 <= b <= p) or (r - b) % (p - 1):
        raise HypothesisError(f"need r >= 1, r = b (mod p-1) with 3 <= b <= p; got r={r}, b={b}")
    if (r - b) % p:
        raise HypothesisError(f"need p | r - b; got r={r}, b={b}, p={p}")
    js = _class_range(b - 1, r - 1, b - 1, p - 1)
    return corrected_family("beta", _binom_row(r), js, p, 1, b - 1, (b - 1) * p)


def choose_gammas_alphas2_by_row(r: int, p: int) -> tuple[dict[int, int], dict[int, int]]:
    """``arith.choose_gammas_alphas2`` on one exact row binom(r, 0..r)."""
    require_odd_prime(p)
    if r < 1 or (r - 1) % (p - 1) or (r - p) % (p * p):
        raise HypothesisError(f"need r >= 1, r = 1 (mod p-1) and p^2 | r - p; got r={r}, p={p}")
    row = _binom_row(r)
    return (corrected_family("alpha2", row, _class_range(p, r, 1, p - 1), p, 2,
                             None, p, 1 if p == 3 else 0),
            corrected_family("gamma", row, _class_range(p - 1, r - 1, 0, p - 1), p, 2,
                             p - 1, (p - 1) * p, -1 if p == 3 else 0))
