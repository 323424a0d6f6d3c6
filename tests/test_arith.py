import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysred import arith, cli
from crysred.arith import (
    ApCoeff,
    ResidueExpr,
    alpha_family_properties,
    beta_family_properties,
    choose_alphas,
    choose_alphas_modp2,
    choose_betas,
    choose_gammas_alphas2,
    choose_gammas_modp2,
    class_sum_S,
    class_sum_S_modp2,
    class_sum_T,
    digit_sum,
    inv_mod,
    lucas_binom,
    padic_val,
    power_sum_lambda,
    quad_family_properties,
    teichmuller,
)
from crysred.errors import DomainError, HypothesisError, PrecisionError
from reference import FractionCoeff, certify_val_ge
from test_acceptance import LEMMA_PRIMES, LEMMA_R_MAX

PRIMES = [3, 5, 7, 11, 13]


class TestLucas:
    def test_examples(self):
        assert lucas_binom(7, 2, 5) == 1
        # oracle: binom(30, 6) = 593775 = 5^2 * 23751, so it dies mod 5
        assert math.comb(30, 6) % 5 == 0
        assert lucas_binom(30, 6, 5) == 0
        for m in (0, 1, 17, 100):
            assert lucas_binom(m, 0, 7) == 1

    def test_n_bigger_than_m_is_zero(self):
        assert lucas_binom(3, 5, 7) == 0

    @given(st.integers(0, 2000), st.integers(0, 2000), st.sampled_from(PRIMES))
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_binomial(self, m, n, p):
        assert lucas_binom(m, n, p) == math.comb(m, n) % p


class TestDigitSum:
    def test_examples(self):
        assert digit_sum(10, 5) == 2
        assert digit_sum(0, 7) == 0
        for n in range(1, 6):
            assert digit_sum(5**n, 5) == 1

    @given(st.integers(0, 10**6), st.sampled_from(PRIMES))
    @settings(max_examples=300, deadline=None)
    def test_congruent_mod_p_minus_1(self, s, p):
        assert (digit_sum(s, p) - s) % (p - 1) == 0


def direct_class_sum(r, residue, p, lo=1, hi=None):
    hi = r if hi is None else hi
    return sum(math.comb(r, j) for j in range(lo, hi) if j % (p - 1) == residue % (p - 1))


class TestClassSums:
    def test_S_examples(self):
        # S_7 for class 3 mod 4 is binom(7,3) = 35 = 5*7
        assert class_sum_S(7, 3, 5) == (0, 2)
        assert class_sum_S(3, 3, 5) == (0, 0)  # empty range
        # oracle: binom(11,3) + binom(11,7) = 495 = 5 * 99 and 99 = 4 mod 5
        assert direct_class_sum(11, 3, 5) == 495
        assert class_sum_S(11, 3, 5) == (0, 4)

    def test_T_examples(self):
        assert class_sum_T(20, 2, 7) == (2 - 20) % 7 == 3
        assert class_sum_T(5, 5, 7) == 0
        assert class_sum_T(11, 5, 7) == (5 - 11) % 7 == 1

    def test_S_modp2_examples(self):
        assert class_sum_S_modp2(25, 5) == (5 - 25) % 25 == 5
        assert class_sum_S_modp2(5, 5) == 0
        assert class_sum_S_modp2(45, 5) == (5 - 45) % 25 == 10

    def test_closed_forms_small_sweep(self):
        for p in PRIMES:
            for r in range(1, 200):
                a = r % (p - 1) or p - 1
                assert class_sum_S(r, a, p)[1] == (a - r) * inv_mod(a, p) % p
                b = a if a != 1 else p
                if r >= b:  # below b the sum is empty and the closed form does not apply
                    assert class_sum_T(r, b, p) == (b - r) % p
                if r % p == 0 and (r - 1) % (p - 1) == 0:
                    assert class_sum_S_modp2(r, p) == (p - r) % (p * p)

    def test_congruence_mismatch_rejected(self):
        with pytest.raises(HypothesisError):
            class_sum_S(8, 3, 5)
        with pytest.raises(HypothesisError):
            class_sum_T(8, 3, 5)
        with pytest.raises(HypothesisError):
            class_sum_S_modp2(26, 5)


class TestTeichmuller:
    def test_fixed_point_and_reduction(self):
        for p in (3, 5, 7):
            m = p**8
            for c in range(p):
                t = teichmuller(c, p)
                assert t % p == c
                assert pow(t, p, m) == t

    def test_power_sum_closed_form(self):
        assert power_sum_lambda(0, 5, 3) == 5
        assert power_sum_lambda(4, 5, 3) == 4
        assert power_sum_lambda(3, 5, 3) == 0

    def test_power_sum_matches_direct_summation(self):
        for p in (3, 5, 7):
            for N in range(1, 7):
                m = p**N
                for i in range(0, 3 * (p - 1) + 2):
                    brute = sum(pow(teichmuller(c, p, N), i, m) for c in range(p)) % m
                    assert brute == power_sum_lambda(i, p, N) % m, (p, N, i)


class TestFamilies:
    def test_alpha_zero_family_below_threshold(self):
        fam = choose_alphas(11, 3, 5)
        assert fam == {3: 0, 7: 0}

    def test_alpha_example_and_properties(self):
        fam = choose_alphas(19, 3, 5)
        assert sum(fam.values()) == 0  # the construction is exactly balanced
        assert all(alpha_family_properties(fam, 19, 3, 5).values())

    def test_alpha_a2_target(self):
        fam = choose_alphas(30, 2, 5)
        assert all(alpha_family_properties(fam, 30, 2, 5).values())

    def test_beta_example(self):
        r = 5 * 5 - 5 + 3
        fam = choose_betas(r, 3, 5)
        props = beta_family_properties(fam, r, 3, 5)
        assert all(props.values())
        # indices run over the right congruence class
        assert all(j % 4 == 2 for j in fam)

    def test_beta_empty_at_minimal_degree(self):
        assert choose_betas(3, 3, 5) == {}

    def test_beta_hypotheses(self):
        with pytest.raises(HypothesisError):
            choose_betas(19, 3, 5)  # 5 does not divide 16

    def test_quad_families(self):
        for p, r in [(5, 105), (5, 205), (3, 21), (3, 39)]:
            al, ga = choose_gammas_alphas2(r, p)
            assert all(quad_family_properties(al, r, p, 1 if p == 3 else 0).values())
            assert all(quad_family_properties(ga, r, p, -1 if p == 3 else 0).values())

    def test_quad_empty_at_r_equals_p(self):
        assert choose_alphas_modp2(5, 5) == {}
        assert choose_gammas_modp2(5, 5) == {}

    def test_quad_hypotheses(self):
        with pytest.raises(HypothesisError):
            choose_alphas_modp2(45, 5)  # 25 does not divide 40


class TestApCoeff:
    def test_single_term_valuation_is_exact(self):
        sig = Fraction(5, 4)
        c = ApCoeff.rational(Fraction(75), -1, p=5)  # 75 = 3 * 5^2
        assert c.val_lb(sig, 5) == 2 - sig
        assert certify_val_ge(c, 0, sig, 5)
        assert not certify_val_ge(c, 1, sig, 5)

    def test_sum_valuation_is_min(self):
        sig = Fraction(3, 2)
        c = ApCoeff.rational(1, 0, p=5) + ApCoeff.rational(Fraction(1, 5), 2, p=5)
        # v(A^2/5) = 2*3/2 - 1 = 2, so the d=0 term leads
        assert c.val_lb(sig, 5) == 0

    def test_residue_constant(self):
        # 7/3 to three 5-adic digits
        c = ApCoeff.rational(7 * inv_mod(3, 5**3), p=5)
        expr = c.residue(Fraction(5, 4))
        assert expr.coeffs == {0: 7 * inv_mod(3, 5) % 5}

    def test_residue_symbol(self):
        # A^2 / p^3 has residue ub at slope 3/2
        c = ApCoeff.rational(Fraction(1, 125), 2, p=5)
        expr = c.residue(Fraction(3, 2))
        assert expr.coeffs == {1: 1}
        # positive valuation dies
        assert ApCoeff.rational(Fraction(1, 5), 2, p=5).residue(Fraction(3, 2)).is_zero()

    def test_residue_rejects_fractional_unit_part(self):
        # valuation 0 at slope 4/3, but A^-3 has no residue symbol there
        c = ApCoeff.rational(Fraction(81), -3, p=3)
        with pytest.raises(ArithmeticError):
            c.residue(Fraction(4, 3))

    def test_truncated_precision_aborts(self):
        c = ApCoeff.trunc(5**7, 8, p=5)  # value p^7 known mod p^8
        with pytest.raises(PrecisionError):
            certify_val_ge(c, 7, Fraction(3, 2), 5)

    def test_scale_trunc_tracks_error(self):
        c = ApCoeff.rational(Fraction(1, 5), p=5).scale_trunc(teichmuller(2, 5), 8)
        assert c.val_lb(Fraction(3, 2), 5) == -1
        assert c.exact_terms()[0][1] == 7  # precision dropped by the 1/5

    def test_denominator_prime_to_p_is_refused(self):
        with pytest.raises(ArithmeticError):
            ApCoeff.rational(Fraction(7, 3), p=5)

    def test_another_prime_is_refused(self):
        c, other = ApCoeff.rational(Fraction(1, 5), p=5), ApCoeff.rational(1, p=7)
        with pytest.raises(ValueError):
            c + other
        with pytest.raises(ValueError):
            c - other
        with pytest.raises(ValueError):
            c.val_lb(Fraction(3, 2), 7)

    def test_padic_val(self):
        assert padic_val(Fraction(50, 3), 5) == 2
        assert padic_val(Fraction(3, 25), 5) == -2
        assert padic_val(0, 5) == arith.INF


class TestApCoeffProperties:
    @staticmethod
    def _random_coeff(data):
        terms = {}
        for _ in range(data.draw(st.integers(1, 3))):
            d = data.draw(st.integers(-2, 2))
            num = data.draw(st.integers(-50, 50))
            den_pow = data.draw(st.integers(0, 3))
            terms[d] = (Fraction(num, 5**den_pow), arith.INF)
        return ApCoeff(terms, 5)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_sum_valuation_lower_bound(self, data):
        sig = Fraction(5, 4)
        a, b = self._random_coeff(data), self._random_coeff(data)
        lhs = (a + b).val_lb(sig, 5)
        assert lhs >= min(a.val_lb(sig, 5), b.val_lb(sig, 5))

    @given(st.data(), st.integers(-3, 3), st.integers(-2, 2))
    @settings(max_examples=80, deadline=None)
    def test_scaling_shifts_valuation(self, data, k, d):
        sig = Fraction(4, 3)
        a = self._random_coeff(data)
        if a.is_exact_zero():
            return
        scaled = a.scale(Fraction(5) ** k).shift(d)
        assert scaled.val_lb(sig, 5) == a.val_lb(sig, 5) + k + d * sig

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_subtraction_cancels(self, data):
        a = self._random_coeff(data)
        assert (a - a).val_lb(Fraction(3, 2), 5) == arith.INF


@st.composite
def coeff_terms(draw, p):
    """{d: (rational, err)} with p-power denominators, exact and truncated
    terms, and terms that hold only an error bound."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        num = draw(st.integers(-p**3, p**3))
        err = draw(st.one_of(st.just(arith.INF), st.integers(-2, 8)))
        if num == 0 and err == arith.INF:
            continue
        terms[draw(st.integers(-2, 2))] = (Fraction(num, p ** draw(st.integers(0, 3))), err)
    return terms


def _outcome(fn):
    try:
        return fn()
    except (ArithmeticError, PrecisionError) as exc:
        return type(exc).__name__


class TestApCoeffAgainstFractions:
    """The (unit, p-exponent) terms of ApCoeff against FractionCoeff: the
    same exact value and error bound after every operation."""

    @given(st.data(), st.sampled_from([3, 5, 7]))
    @settings(max_examples=300, deadline=None)
    def test_operations_match(self, data, p):
        raw = data.draw(coeff_terms(p))
        a, ref = ApCoeff(raw, p), FractionCoeff(p, raw)
        assert a.exact_terms() == ref.terms
        for _ in range(data.draw(st.integers(1, 6))):
            op = data.draw(st.sampled_from(["add", "sub", "scale", "scale_trunc", "shift"]))
            if op in ("add", "sub"):
                other = data.draw(coeff_terms(p))
                b, ref_b = ApCoeff(other, p), FractionCoeff(p, other)
                a, ref = (a + b, ref + ref_b) if op == "add" else (a - b, ref - ref_b)
            elif op == "scale":
                q = Fraction(data.draw(st.integers(-p**3, p**3)), p ** data.draw(st.integers(0, 3)))
                a, ref = a.scale(q), ref.scale(q)
            elif op == "scale_trunc":
                prec = data.draw(st.integers(1, 10))
                n = data.draw(st.one_of(
                    st.builds(lambda c: teichmuller(c, p, prec), st.integers(1, p - 1)),
                    st.integers(-p**4, p**4)))
                a, ref = a.scale_trunc(n, prec), ref.scale_trunc(n, prec)
            else:
                k = data.draw(st.integers(-2, 2))
                a, ref = a.shift(k), ref.shift(k)
            assert a.exact_terms() == ref.terms, op
        for sigma in (Fraction(5, 4), Fraction(3, 2), Fraction(7, 4)):
            assert a.val_lb(sigma, p) == ref.val_lb(sigma)
            mine = _outcome(lambda: a.residue(sigma))
            theirs = _outcome(lambda: ref.residue(sigma))
            assert mine == theirs

    def test_scale_by_zero_and_unit_ladder(self):
        c = ApCoeff.rational(Fraction(2, 25), 1, p=5)
        assert c.scale(0).is_exact_zero()
        # n * p^k with p not dividing n after a sum of equal exponents
        s = c + ApCoeff.rational(Fraction(3, 25), 1, p=5)
        assert s.terms == {1: (1, -1, arith.INF)}


class TestResidueExpr:
    def test_vanishing_unit(self):
        e = ResidueExpr(5, {0: 3, -1: 2})  # 3 + 2/u = 0 at u = -2/3... times u: 2 + 3u
        crit = e.vanishing_unit()
        assert (3 + 2 * inv_mod(crit, 5)) % 5 == 0
        assert ResidueExpr(5, {0: 2}).vanishing_unit() is None

    def test_eval(self):
        e = ResidueExpr(5, {0: 3, 1: 1})
        assert e.eval_at(2) == 0
        assert e.eval_at(1) == 4

    def test_arith(self):
        a = ResidueExpr(5, {1: 2})
        b = ResidueExpr(5, {-1: 3})
        assert (a * b).coeffs == {0: 1}
        assert (a - a).is_zero()


def _lemma_rows_per_degree(p: int, r_to: int) -> list[dict]:
    """The lemma rows built from one ``class_sum_table`` per degree: the
    reference for ``arith.lemma_rows``, which steps its tables across
    degrees."""
    rows = []
    p2, p3 = p * p, p**3
    for r in range(1, r_to + 1):
        a = r % (p - 1) or p - 1
        b = a if a != 1 else p
        row = {"p": p, "r": r, "a": a, "b": b}
        ok = True
        tab = arith.class_sum_table(r, p, 3)
        S = (tab[a % (p - 1)] - 1 - (1 if a == p - 1 else 0)) % p3
        want = (a - r) * inv_mod(a, p) % p
        quotient = (S % p2) // p if S % p == 0 else -1
        ok &= quotient == want
        row["class_sum_quotient"] = quotient
        row["class_sum_expected"] = want
        if r >= b:
            tr = (tab[(b - 1) % (p - 1)] - r - (1 if b == p else 0)) % p
            ok &= tr == (b - r) % p
            row["t_sum"] = tr
        if r % p == 0 and (r - 1) % (p - 1) == 0:
            s2 = (tab[1 % (p - 1)] - r - 1) % p2
            ok &= s2 == (p - r) % p2
            row["s_sum_mod_p2"] = s2
        row["pass"] = bool(ok)
        rows.append(row)
    return rows


class TestDegreeSweep:
    def test_tables_match_per_degree_table(self):
        for p in LEMMA_PRIMES:
            tables = arith._class_sum_tables(LEMMA_R_MAX, p, 3)
            for r, tab in enumerate(tables):
                assert tab == arith.class_sum_table(r, p, 3), (p, r)
            assert r == LEMMA_R_MAX

    def test_lemma_rows_match_per_degree_rows(self):
        for p in LEMMA_PRIMES:
            assert arith.lemma_rows(p, 600) == _lemma_rows_per_degree(p, 600), p

    def test_lemma_rows_refuse_bad_input(self):
        with pytest.raises(DomainError, match="empty"):
            arith.lemma_rows(5, 0)
        for p in (-3, 0, 1, 2, 9):
            with pytest.raises(DomainError, match="not an odd prime"):
                arith.lemma_rows(p, 5)

    def test_binom_row_at_every_family_degree(self, monkeypatch, capsys):
        # every row that verify-lemmas builds, for each odd prime p <= 13,
        # against math.comb
        seen = set()
        row_fn = arith._binom_row

        def recording(r):
            seen.add(r)
            return row_fn(r)

        monkeypatch.setattr(arith, "_binom_row", recording)
        for p in (3, 5, 7, 11, 13):
            assert cli.main(["verify-lemmas", "--p", str(p), "--r-to", str(LEMMA_R_MAX)]) == 0
        capsys.readouterr()
        assert {2041, 4069} <= seen
        for r in sorted(seen):
            assert row_fn(r) == [math.comb(r, j) for j in range(r + 1)], r
