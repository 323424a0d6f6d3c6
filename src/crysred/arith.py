"""Exact scalar arithmetic over F_p, Q and truncated Z_p.

Everything is exact integer / rational arithmetic; no floats.  The module
provides base-p digit sums; the class sums of binomial coefficients, read
off one character sum over the Teichmuller lifts by one kernel,
``_step_class_sums``, for every caller (the witness audit, the ``choose_*``
families, the ``verify-lemmas`` batch of them, and the lemma sweep, whose
degrees up to R are one call); Teichmuller lifts at finite precision; the
structured integer families (``choose_*``) consumed by the witness builder;
the Hecke coefficients ``ApCoeff`` with the one walk over their terms
(``audit_terms``) from which ``hecke`` reads valuations and residues mod p;
and the ring ``ResidueExpr`` those residues live in.  Every ``choose_*``
constructor certifies its congruences from class sums and builds its
binomial row only when read.  The class sums of one class by p-1 modular
powers, the big-integer class sums, the walk along a binomial row and the
families built on binomial rows are test oracles in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, HypothesisError

INF = math.inf

#: default number of base-p digits carried by Teichmuller lifts
DEFAULT_PRECISION = 8

#: safety margin: certified bounds must clear the precision by this much
PRECISION_HEADROOM = 2


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise DomainError(f"p = {p} is not an odd prime")


def inv_mod(a: int, m: int) -> int:
    return pow(a, -1, m)


def padic_val(x, p: int):
    """Exact p-adic valuation of an int or Fraction; v(0) = +inf."""
    if not isinstance(x, int) and isinstance(x, Fraction):  # int first: the cheap check
        if x == 0:
            return INF
        return padic_val(x.numerator, p) - padic_val(x.denominator, p)
    if x == 0:
        return INF
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def digits(s: int, p: int) -> list[int]:
    """Base-p digits of s, least significant first ([] for s = 0)."""
    if s < 0:
        raise ValueError("negative input")
    out = []
    while s:
        s, d = divmod(s, p)
        out.append(d)
    return out


def digit_sum(s: int, p: int) -> int:
    """Sum of the base-p digits of s."""
    return sum(digits(s, p))


# ---------------------------------------------------------------------------
# class sums of binomial coefficients


def _class_range(lo: int, hi: int, residue: int, mod: int):
    """Integers j with lo <= j < hi and j = residue (mod mod)."""
    start = lo + (residue - lo) % mod
    return range(start, hi, mod)


def _mod_dtype(p: int, k: int):
    """uint64 while a product of two residues mod p^k stays below 2^64
    (p^(2k) < 2^64: p <= 1621 at k = 3, p <= 251 at k = 4), else Python
    ints (dtype object)."""
    return np.uint64 if p ** (2 * k) < 2**64 else object


#: entries of one block of ``_step_class_sums``: table of step powers, pairs by lifts
_BLOCK = 1 << 16


def _power_rows(base: np.ndarray, count: int, pk: int) -> np.ndarray:
    """base^i mod pk for i < count, row i, by doubling: rows L..2L-1 are rows
    0..L-1 times base^L."""
    rows, L = np.ones((count, len(base)), base.dtype), 1
    while L < count:
        rows[L:2 * L] = rows[:min(L, count - L)] * base % pk
        base, L = base * base % pk, 2 * L
    return rows


def _step_class_sums(N, s, p: int, k: int, count: int = 1) -> list[list[int]]:
    """T(N - n, N - s - n) mod p^k for n < count at every pair (N, s) of the
    sequences N and s, one row per pair; T(N, c) is the sum of binom(N, i)
    over i = c (mod p-1).

    (p-1) T(N, N-s) is the sum of zeta^s step^N over zeta in mu_(p-1), step
    = zeta^(-1) (1 + zeta), exactly mod p^k for the Teichmuller lifts.
    step^(N-count+1) is read off ``TeichTable.step_digits`` by base-64
    digit, and its sums times step^i, i < count, are a dot product with the
    table of ``_power_rows``, a block of lifts at a time.  Residues below
    p^k are in the dtype of ``_mod_dtype``; on uint64 a block sums as many
    products as stay below 2^64, and where that is under 4 (p^(2k) > 2^62:
    p > 1290 at k = 3) each product is reduced first.  Blocks hold about
    ``_BLOCK`` entries, so memory is bounded.  ValueError when N < count-1
    (step is 0 at zeta = -1, so no lower power exists)."""
    if N and min(N) < count - 1:
        raise ValueError(f"class sums T(N - n, .) for n < {count} need N >= {count - 1}; "
                         f"got N = {min(N)}")
    pk, tt, dtype = p**k, teich_table(p, k), _mod_dtype(p, k)
    # zeta^s / (p-1), one row per class of s
    classes, inv = sorted({x % (p - 1) for x in s}), inv_mod(p - 1, pk)
    lifts = np.array([[tt.power(x, c) * inv % pk for x in range(1, p)] for c in classes], dtype)
    at = {c: i for i, c in enumerate(classes)}
    pick, e = np.array([at[x % (p - 1)] for x in s], np.intp), [n - count + 1 for n in N]
    places = [np.array([x >> 6 * level & 63 for x in e], np.intp)  # base-64 digits of e
              for level in range((max(e, default=0).bit_length() + 5) // 6)]
    dot = (2**64 - 1) // (pk - 1) ** 2 if dtype is np.uint64 else p  # products a sum holds
    reduce = dot < 4
    width = min(p - 1, max(1, _BLOCK // count), p if reduce else dot)
    rows = max(1, _BLOCK // (width * (count if reduce else 1)))
    out = np.zeros((len(N), count), dtype)
    for lo in range(0, p - 1, width):
        cols = slice(lo, lo + width)
        table = _power_rows(np.array(tt.steps[cols], dtype), count, pk)[::-1]  # row n: i = count-1-n
        for i in range(0, len(N), rows):
            t = lifts[pick[i:i + rows], cols]
            for level, d in enumerate(places):  # times step^(d 64^level)
                t = t * tt.step_digits(level)[d[i:i + rows], cols] % pk
            if reduce:  # in place, so one block of products is alive at a time
                products = t[:, None, :] * table
                out[i:i + rows] += np.remainder(products, pk, out=products).sum(axis=2) % pk
            else:
                out[i:i + rows] += t @ table.T % pk
    return (out % pk).tolist()


def class_sum_S(r: int, a: int, p: int) -> tuple[int, int]:
    """(S mod p, (S/p) mod p) for S = sum of binom(r,j), 0 < j < r, j = a (mod p-1).

    The first component is always 0, and the second equals (a-r)/a mod p.
    S is T(r, a) (``_step_class_sums`` at s = 0) less j = r, and j = 0 when
    a = p-1.
    """
    require_odd_prime(p)
    if not (1 <= a <= p - 1) or r <= 0 or (r - a) % (p - 1):
        raise HypothesisError(f"need r = a (mod p-1) with 1 <= a <= p-1; got r={r}, a={a}")
    S = (_step_class_sums([r], [0], p, 2)[0][0] - 1 - (a == p - 1)) % (p * p)
    if S % p:
        raise ArithmeticError(f"class sum not divisible by p: r={r}, a={a}, p={p}")
    return (0, S // p)


def class_sum_table(r: int, p: int, k: int = 3) -> list[int]:
    """T(r, c) mod p^k for c = 0..p-2, T as in ``_step_class_sums``: the sum
    of binom(r, j), 0 <= j <= r, over j = c (mod p-1), one degree at s = r - c."""
    require_odd_prime(p)
    return [row[0] for row in _step_class_sums([r] * (p - 1), [r - c for c in range(p - 1)], p, k)]


def _lemma_columns(p: int, r_to: int) -> dict[str, np.ndarray]:
    """The columns of ``lemma_rows`` as arrays over r = 1..r_to, keyed by
    its row keys; ``t_sum`` and ``s_sum_mod_p2`` belong to a row only where
    ``has_t`` and ``has_s2`` hold.  S and S2 read T(r, a) = T(r, r), and T
    reads T(r, b-1) = T(r, r-1): one kernel call, at (r_to, 0) and (r_to, 1)."""
    if r_to < 1:
        raise DomainError(f"empty lemma range: --r-to {r_to} is below 1")
    require_odd_prime(p)
    n, p2, p3 = p - 1, p * p, p**3
    T = np.array(_step_class_sums([r_to] * 2, [0, 1], p, 3, r_to + 1), np.int64).T[-2::-1]
    r = np.arange(1, r_to + 1)
    a = (r - 1) % n + 1
    b = np.where(a == 1, p, a)
    inv = np.array([0] + [inv_mod(x, p) for x in range(1, p)])
    want = (a - r) * inv[a] % p
    # sum over 0 < j < r in class a: drop j = r, and j = 0 when a = p-1
    S = (T[:, 0] - 1 - (a == n)) % p3
    quotient = np.where(S % p == 0, S % p2 // p, -1)
    # below b the sum is empty and the closed form does not apply; over
    # 0 < j < r-1 in class b-1: drop j = r-1, and j = 0 when b = p
    has_t, tr = r >= b, (T[:, 1] - r - (b == p)) % p
    # sum over 1 < j < r in class 1 (= a) when p | r = 1 mod p-1: drop j = 1, r
    has_s2, s2 = (r % p == 0) & ((r - 1) % n == 0), (T[:, 0] - r - 1) % p2
    ok = (quotient == want) & (~has_t | (tr == (b - r) % p)) & (~has_s2 | (s2 == (p - r) % p2))
    return {"r": r, "a": a, "b": b, "class_sum_quotient": quotient,
            "class_sum_expected": want, "has_t": has_t, "t_sum": tr,
            "has_s2": has_s2, "s_sum_mod_p2": s2, "pass": ok}


def lemma_rows(p: int, r_to: int) -> list[dict]:
    """The three class-sum lemmas at every degree 1 <= r <= r_to, one row per
    degree, checked mod p^3 as arrays over r on class sums read off
    characters (the walk along binom(r, .) and the big-integer class sums
    are their oracles in the test-suite)."""
    cols = _lemma_columns(p, r_to)
    rows = []
    for ri, ai, bi, qi, wi, t, ti, s, si, oki in zip(*(x.tolist() for x in cols.values())):
        row = {"p": p, "r": ri, "a": ai, "b": bi,
               "class_sum_quotient": qi, "class_sum_expected": wi}
        if t:
            row["t_sum"] = ti
        if s:
            row["s_sum_mod_p2"] = si
        row["pass"] = oki
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Teichmuller lifts


def teichmuller(c: int, p: int, precision: int = DEFAULT_PRECISION) -> int:
    """The multiplicative lift of c mod p to Z/p^precision (fixed point of x -> x^p)."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    m = p**precision
    t = c % p
    for _ in range(precision):
        t = pow(t, p, m)
    return t


class TeichTable:
    """Cached Teichmuller representatives at a fixed precision."""

    def __init__(self, p: int, precision: int = DEFAULT_PRECISION):
        self.p = p
        self.precision = precision
        self.rep = [teichmuller(c, p, precision) for c in range(p)]
        self._signed: dict[tuple[int, int], tuple[int, ...]] = {}
        # zeta^(-1) (1 + zeta) at zeta = [x], index x-1: T(N, c) to T(N+1, c+1)
        self.steps = [self.rep[pow(x, -1, p)] * (1 + self.rep[x]) % p**precision
                      for x in range(1, p)]
        self._digits: list[np.ndarray] = []

    def step_digits(self, level: int) -> np.ndarray:
        """The 64 x (p-1) array of step^(d 64^level) mod p^precision, digit d
        by row and the lifts in the order of ``steps`` by column, in the
        dtype of ``_mod_dtype``; each level is built on its first read."""
        pk = self.p**self.precision
        while len(self._digits) <= level:
            if self._digits:  # step^(64^L) = step^(63 64^(L-1)) step^(64^(L-1))
                base = self._digits[-1][63] * self._digits[-1][1] % pk
            else:
                base = np.array(self.steps, _mod_dtype(self.p, self.precision))
            self._digits.append(_power_rows(base, 64, pk))
        return self._digits[level]

    def power(self, c: int, k: int) -> int:
        """[c]^k, using multiplicativity (so the result is again a table entry)."""
        c %= self.p
        if k == 0:
            return 1
        if c == 0:
            return 0
        return self.rep[pow(c, k % (self.p - 1) or (self.p - 1), self.p)]

    def signed_powers(self, c: int, sign: int) -> tuple[int, ...]:
        """(sign [c])^e by e mod p-1, for exponents e > 0 (so index 0 holds
        [c]^(p-1)); p-1 is even, so the sign also depends on e mod p-1 only.
        Memoized: every operator call asks for the same few rows."""
        key = (c % self.p, sign)
        row = self._signed.get(key)
        if row is None:
            row = self._signed[key] = tuple(sign**e * self.power(c, e or self.p - 1)
                                            for e in range(self.p - 1))
        return row


_TABLES: dict[tuple[int, int], TeichTable] = {}


def teich_table(p: int, precision: int = DEFAULT_PRECISION) -> TeichTable:
    key = (p, precision)
    if key not in _TABLES:
        _TABLES[key] = TeichTable(p, precision)
    return _TABLES[key]


# ---------------------------------------------------------------------------
# structured integer families for the witness constructions
#
# Each family agrees with binomial coefficients to the stated modulus and has
# weighted sums vanishing to one extra power of p per weight.  The proofs of
# several of these congruences are routine but fiddly, so the constructors
# never trust the construction: every property is certified mod p^(L+2)
# from class sums, at a cost that does not grow with r.


def _binom_row(r: int) -> list[int]:
    """The exact row binom(r, 0), ..., binom(r, r), by
    binom(r, j+1) = binom(r, j) * (r-j) / (j+1) for j < r/2, mirrored."""
    row = [1] * (r + 1)
    c = 1
    for j in range(r // 2):
        c = c * (r - j) // (j + 1)
        row[j + 1] = row[r - j - 1] = c
    return row


class _Family(Mapping):
    """A certified family on the indices ``js``, read-only; ``exact()``
    builds its exact values on the first read."""

    def __init__(self, js, exact):
        self._js, self._exact = js, exact

    def __getitem__(self, j):
        if self._exact:
            self._values, self._exact = self._exact(), None
        return self._values[j]

    def __iter__(self):
        return iter(self._js)

    def __len__(self):
        return len(self._js)


class _Spec(NamedTuple):
    """A family to certify at level L = ``level``: binom(r, j) on the class
    ``js`` plus multiples of p^L at a unit index (p not dividing it, or None)
    and a zero index (p dividing it), or the zero family when ``zero`` is
    None; ``target`` is its binom(j, L+1)-weighted sum mod p."""
    name: str
    r: int
    js: range
    level: int
    unit: int | None
    zero: int | None
    target: int = 0


def _class_weights(r: int, js, p: int, T: list[int]) -> list[int]:
    """sum_(j in js) binom(j, n) binom(r, j) mod p^k for n < k = len(T), js
    consecutive members of a class c mod p-1 and T[n] = T(r-n, c-n) mod p^k:
    binom(r, n) T[n], as binom(j, n) binom(r, j) = binom(r, n) binom(r-n,
    j-n), less the members outside js."""
    c, W = js[0] % (p - 1), [math.comb(r, n) * t for n, t in enumerate(T)]
    for m in (*_class_range(0, js[0], c, p - 1), *_class_range(js[-1] + 1, r + 1, c, p - 1)):
        b = math.comb(r, m)
        W = [w - math.comb(m, n) * b for n, w in enumerate(W)]
    return [w % p ** len(T) for w in W]


def _certify(name: str, W: list[int], delta: dict[int, int], p: int, level: int,
             target: int = 0) -> None:
    """ArithmeticError unless fam = binom(r, j) + delta[j] on a class, whose
    binomial part has the weighted sums W, holds at level L = ``level``:
    fam[j] = binom(r, j) mod p^L, and sum_j binom(j, n) fam[j] vanishes mod
    p^(L+2-n) for n <= L and is ``target`` mod p at n = L+1."""
    failed = [f"matches_binom_mod_p{level}"] if any(d % p**level for d in delta.values()) else []
    for n, total in enumerate(W):
        for j, d in delta.items():
            total += math.comb(j, n) * d
        if (total - (target if n == level + 1 else 0)) % p ** (level + 2 - n):
            failed.append(f"choose{n}_sum_mod_p{level + 2 - n}")
    if failed:
        raise ArithmeticError(f"{name} family failed checks: {', '.join(failed)}")


def _family(spec: _Spec, p: int, T: list[int] | None) -> _Family:
    """The family of ``spec``, certified from the class sums T(r-n, c-n) mod
    p^(L+2), n < L+2 (``T``; None on an empty class, whose sums are 0).  A
    multiple of p^L moves only the plain sum (mod p^(L+2)) and the
    j-weighted one (mod p^(L+1)): the unit index clears the weighted sum,
    then the zero index takes the plain sum, which the lemmas make divisible
    by p^L.  An empty class has nothing to correct, but the zero family
    still meets its target."""
    name, r, js, level, unit, zero, target = spec
    W = _class_weights(r, js, p, T) if js else [0] * (level + 2)
    if zero is None:
        _certify(name, W, {j: -math.comb(r, j) for j in js}, p, level, target)
        return _Family(js, lambda: dict.fromkeys(js, 0))
    if not js:
        return _Family(js, dict)
    q = p**level
    du = 0 if unit is None else -(W[1] % (p * q) // q * inv_mod(unit, p) % p * q)
    delta = {zero: -(W[0] + du)} if unit is None else {unit: du, zero: -(W[0] + du)}
    _certify(name, W, delta, p, level, target)

    def exact():
        full = _binom_row(r)
        fam = {j: full[j] + (j == unit) * du for j in js}
        fam[zero] -= sum(fam.values())
        return fam

    return _Family(js, exact)


def _certify_families(specs: list[_Spec], p: int) -> list:
    """Each spec's certified family, or the ArithmeticError that its check
    raised, in order.  The class sums of all specs at one level are one
    ``_step_class_sums`` call, at s = r - c for the class c of js."""
    sums = {}
    for level in {spec.level for spec in specs if spec.js}:
        at = [i for i, spec in enumerate(specs) if spec.js and spec.level == level]
        sums.update(zip(at, _step_class_sums([specs[i].r for i in at],
                                             [specs[i].r - specs[i].js[0] for i in at],
                                             p, level + 2, level + 2)))
    out = []
    for i, spec in enumerate(specs):
        try:
            out.append(_family(spec, p, sums.get(i)))
        except ArithmeticError as exc:
            if type(exc) is not ArithmeticError:
                raise
            out.append(exc)
    return out


def _certified(p: int, *specs: _Spec) -> tuple[_Family, ...]:
    """The families of ``specs``, or the first failed check raised."""
    fams = _certify_families(list(specs), p)
    for fam in fams:
        if isinstance(fam, ArithmeticError):
            raise fam
    return tuple(fams)


def _alpha_spec(r: int, a: int, p: int) -> _Spec:
    """The spec of ``choose_alphas``; HypothesisError off its hypotheses."""
    require_odd_prime(p)
    if r < 1 or not (2 <= a <= p - 1) or (r - a) % (p - 1):
        raise HypothesisError(f"need r >= 1, r = a (mod p-1) with 2 <= a <= p-1; got r={r}, a={a}")
    unit, zero = (a, a * p) if r > a * p else (None, None)  # zero at r <= ap
    return _Spec("alpha", r, _class_range(1, r, a, p - 1), 1, unit, zero,
                 math.comb(r, 2) if a == 2 else 0)


def choose_alphas(r: int, a: int, p: int) -> Mapping[int, int]:
    """Integers alpha_j = binom(r,j) mod p (j = a mod p-1, 0 < j < r) whose plain,
    j-weighted and binom(j,2)-weighted sums vanish mod p^3, p^2 and p.

    For a = 2 the binom(j,2)-weighted sum instead lands on binom(r,2) mod p.
    The distinguished indices are a and ap; at r <= ap every alpha_j is 0.
    """
    return _certified(p, _alpha_spec(r, a, p))[0]


def _beta_spec(r: int, b: int, p: int) -> _Spec:
    """The spec of ``choose_betas``; HypothesisError off its hypotheses."""
    require_odd_prime(p)
    if r < 1 or not (3 <= b <= p) or (r - b) % (p - 1):
        raise HypothesisError(f"need r >= 1, r = b (mod p-1) with 3 <= b <= p; got r={r}, b={b}")
    if (r - b) % p:
        raise HypothesisError(f"need p | r - b; got r={r}, b={b}, p={p}")
    return _Spec("beta", r, _class_range(b - 1, r - 1, b - 1, p - 1), 1, b - 1, (b - 1) * p)


def choose_betas(r: int, b: int, p: int) -> Mapping[int, int]:
    """Integers beta_j = binom(r,j) mod p (j = b-1 mod p-1, b-1 <= j < r-1) with
    binom(j,n)-weighted sums vanishing mod p^(3-n) for n = 0, 1, 2.

    Requires p | r - b; the distinguished indices are b-1 and (b-1)p.
    """
    return _certified(p, _beta_spec(r, b, p))[0]


def _quad_specs(r: int, p: int) -> tuple[_Spec, _Spec]:
    """The specs of ``choose_alphas_modp2`` and ``choose_gammas_modp2``;
    HypothesisError off their hypotheses."""
    require_odd_prime(p)
    if r < 1 or (r - 1) % (p - 1) or (r - p) % (p * p):
        raise HypothesisError(f"need r >= 1, r = 1 (mod p-1) and p^2 | r - p; got r={r}, p={p}")
    return (_Spec("alpha2", r, _class_range(p, r, 1, p - 1), 2, None, p, 1 if p == 3 else 0),
            _Spec("gamma", r, _class_range(p - 1, r - 1, 0, p - 1), 2, p - 1, (p - 1) * p,
                  -1 if p == 3 else 0))


def choose_alphas_modp2(r: int, p: int) -> Mapping[int, int]:
    """Integers alpha_j = binom(r,j) mod p^2 (j = 1 mod p-1, p <= j < r) with
    binom(j,n)-weighted sums vanishing mod p^(4-n) for n = 0, 1, 2 and
    binom(j,3)-weighted sum 0 mod p (1 when p = 3); distinguished index p."""
    return _certified(p, _quad_specs(r, p)[0])[0]


def choose_gammas_modp2(r: int, p: int) -> Mapping[int, int]:
    """Integers gamma_j = binom(r,j) mod p^2 (j = 0 mod p-1, p-1 <= j < r-1) with
    binom(j,n)-weighted sums vanishing mod p^(4-n) for n = 0, 1, 2 and
    binom(j,3)-weighted sum 0 mod p (-1 when p = 3); distinguished indices
    p-1 and (p-1)p."""
    return _certified(p, _quad_specs(r, p)[1])[0]


def choose_gammas_alphas2(r: int, p: int) -> tuple[Mapping[int, int], Mapping[int, int]]:
    """Both quadratic-level families for the b = p witness constructions."""
    return _certified(p, *_quad_specs(r, p))


# ---------------------------------------------------------------------------
# coefficients with a symbolic Hecke eigenvalue


class ApCoeff:
    """A finite sum  sum_d c_d * A^d  of powers of the symbolic eigenvalue A,
    at the prime ``p``.

    Term d is the integer triple (n, k, err): c_d = n * p^k with p not
    dividing n (n = k = 0 when the term holds only an error bound), and err
    a lower bound on the valuation of its Teichmuller rounding error (INF
    when exact).  So v(c_d) = k, and at slope v(A) = a/b the term's valuation
    is compared as the integer b*k + a*d.  ``ApCoeff(terms, p)`` stores
    terms in this normal form as given; a rational enters only through
    ``ApCoeff.rational``.  The prime is part of the value: a rational with a
    denominator prime to p raises ArithmeticError, and a coefficient met at
    another prime (in a sum, an ``IndFunction`` or ``val_lb``) raises
    ValueError.
    """

    __slots__ = ("p", "terms")

    def __init__(self, terms: dict, p: int):
        """Trusted: {d: (n, k, err)} in normal form, neither copied nor checked."""
        self.p = p
        self.terms = terms

    @classmethod
    def rational(cls, q, d: int = 0, *, p: int):
        """q A^d, q split into n p^k; ArithmeticError for a denominator prime to p."""
        n, k = _split(q, p)
        return cls({d: (n, k, INF)} if n else {}, p)

    def exact_terms(self) -> dict:
        """{d: (c_d as a Fraction, err)}."""
        return {d: (Fraction(n) * Fraction(self.p) ** k, e)
                for d, (n, k, e) in self.terms.items()}

    # -- ring-ish operations ------------------------------------------------

    def __add__(self, other):
        if other.p != self.p:
            raise ValueError(f"coefficient at p = {other.p} added at p = {self.p}")
        out = ApCoeff(dict(self.terms), self.p)
        for d, t in other.terms.items():
            _accum(out.terms, self.p, d, *t)
        return out

    def __neg__(self):
        out = ApCoeff({}, self.p)
        self._mul_into(out, -1, 0)
        return out

    def __sub__(self, other):
        return self + (-other)

    def _mul_into(self, acc: "ApCoeff", u: int, m: int, rel=INF) -> None:
        """acc += self * u * p^m, the unit u known to relative precision rel."""
        terms, p = acc.terms, self.p
        for d, (n, k, e) in self.terms.items():
            _accum(terms, p, d, n * u, k + m, min(e + m, k + m + rel) if n else e + m)

    def scale(self, q):
        """Multiply by an exact rational with a p-power denominator."""
        out = ApCoeff({}, self.p)
        if q:
            self._mul_into(out, *_split(q, self.p))
        return out

    def scale_trunc(self, n: int, precision: int):
        """Multiply by an integer known mod p^precision: (c + E)(n + F) - cn
        has valuation at least min(v(E), v(c) + precision)."""
        out = ApCoeff({}, self.p)
        u, m = _split(n, self.p)
        for d, (x, k, e) in self.terms.items():
            _accum(out.terms, self.p, d, x * u, k + m, min(e, k + precision) if x else e)
        return out

    def shift(self, k: int):
        """Multiply by A^k."""
        return ApCoeff({d + k: t for d, t in self.terms.items()}, self.p)

    # -- audits --------------------------------------------------------------

    def val_lb(self, sigma: Fraction, p: int):
        """Certified lower bound for the valuation of the true value; p must
        be the coefficient's own prime."""
        if p != self.p:
            raise ValueError(f"coefficient at p = {self.p} valued at p = {p}")
        bound = self.audit_terms(sigma)[0]
        return bound if bound == INF else Fraction(bound, sigma.denominator)

    def audit_terms(self, sigma: Fraction):
        """(bound, [degrees achieving it], short, exact, least, units) over
        the stored terms, one valuation per term; the bound is an integer
        count of 1/b for sigma = a/b (INF without terms), so b*v is compared
        and no Fraction is built.  ``short`` is (err, d) of the first
        truncated term whose error sits within PRECISION_HEADROOM of
        valuation 0, else None: when the bound is >= 0, such a term is
        exactly one whose stored value cannot certify valuation >= 0 within
        the carried precision.  ``exact`` says the bound is the true
        valuation: one degree attains it, with a unit part known beyond its
        own valuation (n != 0 and k < err).  ``least`` is the least
        b*(err + d*sigma), the valuation of a term's error, in the same
        count (INF when every term is exact).  ``units`` lists (d, n) for
        the terms n p^k A^d with n != 0 and b*k + a*d = 0, the unit terms a
        residue mod p reads, or is None when there are none."""
        a, b = sigma.numerator, sigma.denominator
        best, who, short, least, units = INF, [], None, INF, None
        for d, (n, k, e) in self.terms.items():
            w = b * e + a * d
            v = w
            if n:
                u = b * k + a * d
                if u < w:
                    v = u
                if not u:
                    units = units or []
                    units.append((d, n))
            if v < best:
                best, who = v, [d]
            elif v == best:
                who.append(d)
            if w < least:
                least = w
            if short is None and w < b * PRECISION_HEADROOM:
                short = (e, d)
        n, k, e = self.terms[who[0]] if len(who) == 1 else (0, 0, 0)
        return best, who, short, n != 0 and k < e, least, units

    def __repr__(self):
        if not self.terms:
            return "ApCoeff(0)"
        bits = []
        for d, (c, e) in sorted(self.exact_terms().items()):
            tag = "" if e == INF else f"~{e}"
            bits.append(f"{c}{tag}*A^{d}" if d else f"{c}{tag}")
        return "ApCoeff(" + " + ".join(bits) + ")"


def _split(q, p: int) -> tuple[int, int]:
    """(u, m) with q = u * p^m and p not dividing u, (0, 0) for q = 0;
    ArithmeticError unless the denominator of q is a power of p."""
    q = Fraction(q)
    m = padic_val(q.denominator, p)
    if q.denominator != p**m:
        raise ArithmeticError(f"{q} has a denominator prime to p = {p}")
    v = padic_val(q.numerator, p) if q else m
    return q.numerator // p ** v, v - m


def _accum(terms: dict, p: int, d: int, n, k: int, e) -> None:
    """terms[d] += n * p^k with error bound e, in place.  p is stripped only
    when the exponents are equal: otherwise the sum of the units is a unit."""
    cur = terms.get(d)
    if cur is not None:
        n0, k0, e0 = cur
        e = min(e0, e)
        if not n:
            n, k = n0, k0
        elif n0 and k != k0:
            lo = min(k, k0)
            n, k = n0 * p ** (k0 - lo) + n * p ** (k - lo), lo
        elif n0:
            n += n0
            while n and n % p == 0:
                n //= p
                k += 1
    if n or e != INF:
        terms[d] = (n, k if n else 0, e)
    else:
        terms.pop(d, None)


class ResidueExpr:
    """Element of F_p[u, 1/u], u the residue of A^2/p^3 at slope 3/2."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=None):
        self.p = p
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                c %= p
                if c:
                    self.coeffs[e] = c

    @classmethod
    def const(cls, c: int, p: int):
        return cls(p, {0: c})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = (out.get(e, 0) + c) % self.p
        return ResidueExpr(self.p, out)

    def __neg__(self):
        return ResidueExpr(self.p, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, ResidueExpr) and self.p == other.p and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval_at(self, ubar: int) -> int:
        """Value in F_p when the residue symbol is the concrete unit ubar."""
        if ubar % self.p == 0:
            raise ValueError("the residue symbol is a unit")
        return sum(c * pow(ubar, e % (self.p - 1), self.p) for e, c in self.coeffs.items()) % self.p

    def vanishing_unit(self):
        """The unique unit value of u killing the expression, if one exists.

        Returns None for expressions that never vanish on units, and raises
        if vanishing cannot be decided by a single critical value.
        """
        if self.is_zero():
            raise ArithmeticError("identically zero")
        if len(self.coeffs) == 1:
            return None
        if len(self.coeffs) == 2:
            (e1, c1), (e2, c2) = sorted(self.coeffs.items())
            if e2 - e1 == 1:
                # c1 u^e1 + c2 u^(e1+1) = 0  <=>  u = -c1/c2
                return (-c1 * inv_mod(c2, self.p)) % self.p
        raise ArithmeticError(f"cannot isolate the vanishing locus of {self}")

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                bits.append(str(c))
            else:
                power = "ub" if e == 1 else f"ub^{e}"
                bits.append(power if c == 1 else f"{c}*{power}")
        return " + ".join(bits)

    def __repr__(self):
        return f"ResidueExpr({self.render()} mod {self.p})"
