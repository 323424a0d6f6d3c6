"""Exact scalar arithmetic over F_p, Q and truncated Z_p.

Everything is big-integer / rational arithmetic; no floats.  The module
provides digitwise binomials, base-p digit sums, the closed-form class sums
of binomial coefficients, Teichmuller lifts at finite precision, and the
structured integer families (``choose_*``) consumed by the witness builder.
Every ``choose_*`` constructor re-validates all of its advertised
congruences with exact integers before returning.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, HypothesisError, PrecisionError

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
    if isinstance(x, Fraction):
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


def lucas_binom(m: int, n: int, p: int) -> int:
    """binom(m, n) mod p computed digit by digit (0 when n > m)."""
    if m < 0 or n < 0:
        raise ValueError("negative input")
    out = 1
    while n or m:
        m, md = divmod(m, p)
        n, nd = divmod(n, p)
        if nd > md:
            return 0
        out = out * math.comb(md, nd) % p
    return out


# ---------------------------------------------------------------------------
# class sums of binomial coefficients


def _class_range(lo: int, hi: int, residue: int, mod: int):
    """Integers j with lo <= j < hi and j = residue (mod mod)."""
    start = lo + (residue - lo) % mod
    return range(start, hi, mod)


def class_sum_S(r: int, a: int, p: int) -> tuple[int, int]:
    """(S mod p, (S/p) mod p) for S = sum of binom(r,j), 0 < j < r, j = a (mod p-1).

    The first component is always 0, and the second equals (a-r)/a mod p.
    """
    require_odd_prime(p)
    if not (1 <= a <= p - 1) or r <= 0 or (r - a) % (p - 1):
        raise HypothesisError(f"need r = a (mod p-1) with 1 <= a <= p-1; got r={r}, a={a}")
    S = sum(math.comb(r, j) for j in _class_range(1, r, a, p - 1))
    if S % p:
        raise ArithmeticError(f"class sum not divisible by p: r={r}, a={a}, p={p}")
    return (0, (S // p) % p)


def class_sum_T(r: int, b: int, p: int) -> int:
    """T mod p for T = sum of binom(r,j), 0 < j < r-1, j = b-1 (mod p-1).

    Equals (b - r) mod p.
    """
    require_odd_prime(p)
    if not (2 <= b <= p) or (r - b) % (p - 1):
        raise HypothesisError(f"need r = b (mod p-1) with 2 <= b <= p; got r={r}, b={b}")
    return sum(math.comb(r, j) for j in _class_range(1, r - 1, b - 1, p - 1)) % p


def class_sum_S_modp2(r: int, p: int) -> int:
    """S mod p^2 for S = sum of binom(r,j), 1 < j < r, j = 1 (mod p-1),
    assuming p | r and r = 1 (mod p-1).  Equals (p - r) mod p^2.
    """
    require_odd_prime(p)
    if r % p or (r - 1) % (p - 1):
        raise HypothesisError(f"need p | r and r = 1 (mod p-1); got r={r}, p={p}")
    return sum(math.comb(r, j) for j in _class_range(2, r, 1, p - 1)) % (p * p)


def class_sum_table(r: int, p: int, k: int = 3) -> list[int]:
    """sum of binom(r, j) mod p^k over 0 <= j <= r, per class j mod (p-1).

    One incremental pass carrying binom(r, j) as p^e * unit with the unit
    held mod p^k; exact residues without full-size integers.  It is the
    per-degree reference for the degree sweep ``_class_sum_tables``.
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


def _class_sum_tables(r_to: int, p: int, k: int):
    """Yield class_sum_table(r, p, k) for r = 0, 1, ..., r_to.

    Pascal's rule summed over a class, t_(r+1)[c] = t_r[c] + t_r[c-1] with c-1
    taken mod p-1, steps from t_0 = e_0 in p-1 additions per degree."""
    pk = p**k
    tab = [1] + [0] * (p - 2)
    yield tab
    for _ in range(r_to):
        tab = [(tab[c] + tab[c - 1]) % pk for c in range(p - 1)]
        yield tab


def lemma_rows(p: int, r_to: int) -> list[dict]:
    """The three class-sum lemmas at every degree 1 <= r <= r_to, one row per
    degree, checked on residue tables mod p^3 (the big-integer class sums
    are their oracle in the test-suite)."""
    if r_to < 1:
        raise DomainError(f"empty lemma range: --r-to {r_to} is below 1")
    require_odd_prime(p)
    rows = []
    p2, p3 = p * p, p**3
    tables = _class_sum_tables(r_to, p, 3)
    next(tables)  # r = 0
    for r, tab in enumerate(tables, start=1):
        a = r % (p - 1) or p - 1
        b = a if a != 1 else p
        row = {"p": p, "r": r, "a": a, "b": b}
        # sum over 0 < j < r in class a: drop j = r, and j = 0 when a = p-1
        S = (tab[a % (p - 1)] - 1 - (1 if a == p - 1 else 0)) % p3
        want = (a - r) * inv_mod(a, p) % p
        quotient = (S % p2) // p if S % p == 0 else -1
        ok = quotient == want
        row["class_sum_quotient"] = quotient
        row["class_sum_expected"] = want
        if r >= b:  # below b the sum is empty and the closed form does not apply
            # sum over 0 < j < r-1 in class b-1: drop j = r-1, and j = 0 when b = p
            tr = (tab[(b - 1) % (p - 1)] - r - (1 if b == p else 0)) % p
            ok &= tr == (b - r) % p
            row["t_sum"] = tr
        if r % p == 0 and (r - 1) % (p - 1) == 0:
            # sum over 1 < j < r in class 1: drop j = 1 and j = r
            s2 = (tab[1 % (p - 1)] - r - 1) % p2
            ok &= s2 == (p - r) % p2
            row["s_sum_mod_p2"] = s2
        row["pass"] = bool(ok)
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


def power_sum_lambda(i: int, p: int, precision: int = DEFAULT_PRECISION) -> int:
    """sum of [lam]^i over lam in F_p, mod p^precision.

    Closed form: p when i = 0; p - 1 when (p-1) | i, i >= 1; 0 otherwise.
    """
    if i < 0:
        raise ValueError("negative exponent")
    m = p**precision
    if i == 0:
        return p % m
    return (p - 1) % m if i % (p - 1) == 0 else 0


# ---------------------------------------------------------------------------
# structured integer families for the witness constructions
#
# Each family agrees with binomial coefficients to the stated modulus and has
# weighted sums vanishing to one extra power of p per weight.  The proofs of
# several of these congruences are routine but fiddly, so the constructors
# never trust the construction: every property is re-checked exactly.


def _binom_row(r: int) -> list[int]:
    """The exact row binom(r, 0), ..., binom(r, r), by
    binom(r, j+1) = binom(r, j) * (r-j) / (j+1)."""
    row = [1] * (r + 1)
    c = 1
    for j in range(r):
        c = c * (r - j) // (j + 1)
        row[j + 1] = c
    return row


def _validate_family(name: str, checks: dict[str, bool]) -> None:
    failed = [k for k, ok in checks.items() if not ok]
    if failed:
        raise ArithmeticError(f"{name} family failed checks: {', '.join(failed)}")


def _alpha_properties(fam: dict[int, int], r: int, a: int, p: int, row: list[int]) -> dict[str, bool]:
    tgt = math.comb(r, 2) if a == 2 else 0
    return {
        "matches_binom_mod_p": all((fam[j] - row[j]) % p == 0 for j in fam),
        "sum_mod_p3": sum(fam.values()) % p**3 == 0,
        "weighted_sum_mod_p2": sum(j * x for j, x in fam.items()) % p**2 == 0,
        "choose2_sum_mod_p": (sum(math.comb(j, 2) * x for j, x in fam.items()) - tgt) % p == 0,
    }


def alpha_family_properties(fam: dict[int, int], r: int, a: int, p: int) -> dict[str, bool]:
    """Exact big-integer checks for a linear-level alpha family."""
    return _alpha_properties(fam, r, a, p, _binom_row(r))


def choose_alphas(r: int, a: int, p: int) -> dict[int, int]:
    """Integers alpha_j = binom(r,j) mod p (j = a mod p-1, 0 < j < r) whose plain,
    j-weighted and binom(j,2)-weighted sums vanish mod p^3, p^2 and p.

    For a = 2 the binom(j,2)-weighted sum instead lands on binom(r,2) mod p.
    The distinguished indices are a and ap.
    """
    require_odd_prime(p)
    if not (2 <= a <= p - 1) or (r - a) % (p - 1):
        raise HypothesisError(f"need r = a (mod p-1) with 2 <= a <= p-1; got r={r}, a={a}")
    js = list(_class_range(1, r, a, p - 1))
    row = _binom_row(r)
    if r <= a * p:
        fam = {j: 0 for j in js}
    else:
        a_inv = inv_mod(a, p * p)
        alpha_a = -a_inv * sum(j * row[j] for j in js if j > a)
        fam = {j: row[j] for j in js}
        fam[a] = alpha_a
        fam[a * p] = -sum(row[j] for j in js if j not in (a, a * p)) - alpha_a
    _validate_family("alpha", _alpha_properties(fam, r, a, p, row))
    return fam


def _beta_properties(fam: dict[int, int], p: int, row: list[int]) -> dict[str, bool]:
    out = {"matches_binom_mod_p": all((fam[j] - row[j]) % p == 0 for j in fam)}
    for n in (0, 1, 2):
        total = sum(math.comb(j, n) * x for j, x in fam.items() if j >= n)
        out[f"choose{n}_sum_mod_p{3 - n}"] = total % p ** (3 - n) == 0
    return out


def beta_family_properties(fam: dict[int, int], r: int, b: int, p: int) -> dict[str, bool]:
    return _beta_properties(fam, p, _binom_row(r))


def choose_betas(r: int, b: int, p: int) -> dict[int, int]:
    """Integers beta_j = binom(r,j) mod p (j = b-1 mod p-1, b-1 <= j < r-1) with
    binom(j,n)-weighted sums vanishing mod p^(3-n) for n = 0, 1, 2.

    Requires p | r - b; the distinguished indices are b-1 and (b-1)p.
    """
    require_odd_prime(p)
    if not (3 <= b <= p) or (r - b) % (p - 1):
        raise HypothesisError(f"need r = b (mod p-1) with 3 <= b <= p; got r={r}, b={b}")
    if (r - b) % p:
        raise HypothesisError(f"need p | r - b; got r={r}, b={b}, p={p}")
    js = list(_class_range(b - 1, r - 1, b - 1, p - 1))
    if not js:
        return {}
    row = _binom_row(r)
    j0, j1 = b - 1, (b - 1) * p
    binv = inv_mod(b - 1, p * p)
    beta0 = -binv * sum(j * row[j] for j in js if j > j0)
    fam = {j: row[j] for j in js}
    fam[j0] = beta0
    fam[j1] = -sum(row[j] for j in js if j not in (j0, j1)) - beta0
    _validate_family("beta", _beta_properties(fam, p, row))
    return fam


def _quad_properties(
    fam: dict[int, int], p: int, cubic_target: int, row: list[int]
) -> dict[str, bool]:
    if not fam:
        # degenerate degree: no indices, nothing to satisfy
        return {"empty": True}
    out = {
        "matches_binom_mod_p2": all((fam[j] - row[j]) % (p * p) == 0 for j in fam),
        "choose3_sum_mod_p": (
            sum(math.comb(j, 3) * x for j, x in fam.items() if j >= 3) - cubic_target
        )
        % p
        == 0,
    }
    for n in (0, 1, 2):
        total = sum(math.comb(j, n) * x for j, x in fam.items() if j >= n)
        out[f"choose{n}_sum_mod_p{4 - n}"] = total % p ** (4 - n) == 0
    return out


def quad_family_properties(
    fam: dict[int, int], r: int, p: int, cubic_target: int
) -> dict[str, bool]:
    return _quad_properties(fam, p, cubic_target, _binom_row(r))


def _require_quad_hypotheses(r: int, p: int) -> None:
    require_odd_prime(p)
    if (r - 1) % (p - 1) or (r - p) % (p * p):
        raise HypothesisError(f"need r = 1 (mod p-1) and p^2 | r - p; got r={r}, p={p}")


def choose_alphas_modp2(r: int, p: int) -> dict[int, int]:
    """Integers alpha_j = binom(r,j) mod p^2 (j = 1 mod p-1, p <= j < r) with
    binom(j,n)-weighted sums vanishing mod p^(4-n) for n = 0, 1, 2 and
    binom(j,3)-weighted sum 0 mod p (1 when p = 3)."""
    _require_quad_hypotheses(r, p)
    js = list(_class_range(p, r, 1, p - 1))
    if not js:
        return {}
    row = _binom_row(r)
    fam = {j: row[j] for j in js}
    # a single correction at j = p makes the plain sum vanish exactly; the
    # higher-weight congruences then hold on their own
    fam[p] -= sum(row[j] for j in js)
    _validate_family("alpha2", _quad_properties(fam, p, 1 if p == 3 else 0, row))
    return fam


def choose_gammas_modp2(r: int, p: int) -> dict[int, int]:
    """Integers gamma_j = binom(r,j) mod p^2 (j = 0 mod p-1, p-1 <= j < r-1) with
    binom(j,n)-weighted sums vanishing mod p^(4-n) for n = 0, 1, 2 and
    binom(j,3)-weighted sum 0 mod p (-1 when p = 3)."""
    _require_quad_hypotheses(r, p)
    js = list(_class_range(p - 1, r - 1, 0, p - 1))
    if not js:
        return {}
    row = _binom_row(r)
    j0, j1 = p - 1, (p - 1) * p
    S = sum(row[j] for j in js)
    T1 = sum(j * row[j] for j in js)
    if S % (p * p) or T1 % (p * p):
        raise ArithmeticError("plain/weighted class sums not divisible by p^2")
    c0 = -(S // (p * p))
    # two corrections of size p^2 pin the plain sum mod p^4 and the
    # j-weighted sum mod p^3; their index gap p-1 is invertible mod p
    eps1 = (-(T1 // (p * p)) - j0 * c0) * inv_mod(j1 - j0, p) % p
    eps0 = c0 - eps1
    fam = {j: row[j] for j in js}
    fam[j0] += p * p * eps0
    fam[j1] += p * p * eps1
    _validate_family("gamma", _quad_properties(fam, p, -1 if p == 3 else 0, row))
    return fam


def choose_gammas_alphas2(r: int, p: int) -> tuple[dict[int, int], dict[int, int]]:
    """Both quadratic-level families for the b = p witness constructions."""
    return choose_alphas_modp2(r, p), choose_gammas_modp2(r, p)


# ---------------------------------------------------------------------------
# coefficients with a symbolic Hecke eigenvalue


class ApCoeff:
    """A finite sum  sum_d c_d * A^d  of powers of the symbolic eigenvalue A,
    at the prime ``p``.

    Term d is the integer triple (n, k, err): c_d = n * p^k with p not
    dividing n (n = k = 0 when the term holds only an error bound), and err
    a lower bound on the valuation of its Teichmuller rounding error (INF
    when exact).  So v(c_d) = k, and at slope v(A) = a/b the term's valuation
    is compared as the integer b*k + a*d.  The prime is part of the value:
    a rational with a denominator prime to p raises ArithmeticError, and a
    coefficient met at another prime (in a sum, an ``IndFunction`` or
    ``val_lb``) raises ValueError.
    """

    __slots__ = ("p", "terms")

    def __init__(self, terms: dict, p: int):
        """``terms`` maps d to (rational c_d, err)."""
        self.p = p
        self.terms = {d: (*_split(c, p), e) for d, (c, e) in terms.items() if c or e != INF}

    @classmethod
    def rational(cls, q, d: int = 0, *, p: int):
        return cls({d: (q, INF)}, p)

    @classmethod
    def trunc(cls, n: int, precision: int, d: int = 0, *, p: int):
        """An integer known modulo p^precision (e.g. a Teichmuller lift)."""
        return cls({d: (n, precision)}, p)

    def exact_terms(self) -> dict:
        """{d: (c_d as a Fraction, err)}."""
        return {d: (Fraction(n) * Fraction(self.p) ** k, e)
                for d, (n, k, e) in self.terms.items()}

    # -- ring-ish operations ------------------------------------------------

    def __add__(self, other):
        if other.p != self.p:
            raise ValueError(f"coefficient at p = {other.p} added at p = {self.p}")
        out = ApCoeff({}, self.p)
        out.terms = dict(self.terms)
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
        out = ApCoeff({}, self.p)
        out.terms = {d + k: t for d, t in self.terms.items()}
        return out

    def is_exact_zero(self) -> bool:
        return not self.terms

    # -- audits --------------------------------------------------------------

    def val_lb(self, sigma: Fraction, p: int):
        """Certified lower bound for the valuation of the true value; p must
        be the coefficient's own prime."""
        if p != self.p:
            raise ValueError(f"coefficient at p = {self.p} valued at p = {p}")
        return self.audit_terms(sigma)[0]

    def audit_terms(self, sigma: Fraction):
        """(bound, [degrees achieving it], short) over the stored terms, one
        valuation per term.  ``short`` is (err, d) of the first truncated term
        whose error sits within PRECISION_HEADROOM of valuation 0, else None:
        when the bound is >= 0, such a term is exactly one whose stored
        value cannot certify valuation >= 0 within the carried precision."""
        a, b = sigma.numerator, sigma.denominator
        best, who, short = INF, [], None
        for d, (n, k, e) in self.terms.items():
            v = b * (min(k, e) if n else e) + a * d
            if v < best:
                best, who = v, [d]
            elif v == best:
                who.append(d)
            if short is None and b * e + a * d < b * PRECISION_HEADROOM:
                short = (e, d)
        return INF if best == INF else Fraction(best, b), who, short

    def residue(self, sigma: Fraction) -> "ResidueExpr":
        """Image mod the maximal ideal, as a polynomial in the residue symbol
        u of A^2/p^3 (only slope 3/2 produces nonconstant output).  A unit
        term n p^k A^d has k = -3d/2 there, so it contributes n u^(d/2)."""
        a, b = sigma.numerator, sigma.denominator
        out = {}
        for d, (n, k, e) in self.terms.items():
            if b * e + a * d < b * (1 + PRECISION_HEADROOM):
                raise PrecisionError("residue requested beyond carried precision")
            if not n or b * k + a * d > 0:
                continue
            if b * k + a * d < 0:
                raise ArithmeticError("residue of a non-integral value")
            if d and ((a, b) != (3, 2) or d % 2):
                raise ArithmeticError("unit part is not expressible in the residue symbol")
            out[d // 2] = n
        return ResidueExpr(self.p, out)

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

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = (out.get(e1 + e2, 0) + c1 * c2) % self.p
        return ResidueExpr(self.p, out)

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
