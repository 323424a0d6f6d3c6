import functools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysred import arith, cli
from crysred.arith import (
    ApCoeff,
    ResidueExpr,
    choose_alphas,
    choose_alphas_modp2,
    choose_betas,
    choose_gammas_alphas2,
    choose_gammas_modp2,
    class_sum_S,
    digit_sum,
    inv_mod,
    padic_val,
    teichmuller,
)
from crysred.errors import DomainError, HypothesisError, PrecisionError
from crysred.hecke import teich_table
from crysred.symrep import _binomials
from reference import (
    FractionCoeff,
    _class_sums,
    audit_order_refusal,
    certify_val_ge,
    check_family,
    choose_alphas_by_row,
    choose_betas_by_row,
    choose_gammas_alphas2_by_row,
    class_sum_S_exact,
    class_sum_S_modp2,
    class_sum_T,
    class_sum_table_by_walk,
    coefficient_residue,
    corrected_family,
    family_holds,
    split_coeff,
)
from test_acceptance import LEMMA_PRIMES, LEMMA_R_MAX, criterion4_families

PRIMES = [3, 5, 7, 11, 13]


@functools.lru_cache(maxsize=None)
def _walk_tables(p: int, k: int) -> tuple[list[int], ...]:
    """``class_sum_table_by_walk`` at every degree r <= LEMMA_R_MAX, shared by
    the tests that read it at the same (p, k)."""
    return tuple(class_sum_table_by_walk(r, p, k) for r in range(LEMMA_R_MAX + 1))


def lucas(m: int, n: int, p: int) -> int:
    """binom(m, n) mod p from the digitwise (Lucas) binomials of symrep."""
    return int(_binomials(m, n, p))


class TestLucas:
    def test_examples(self):
        assert lucas(7, 2, 5) == 1
        # oracle: binom(30, 6) = 593775 = 5^2 * 23751, so it dies mod 5
        assert math.comb(30, 6) % 5 == 0
        assert lucas(30, 6, 5) == 0
        for m in (0, 1, 17, 100):
            assert lucas(m, 0, 7) == 1

    def test_n_bigger_than_m_is_zero(self):
        assert lucas(3, 5, 7) == 0

    @given(st.integers(0, 2000), st.integers(0, 2000), st.sampled_from(PRIMES))
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_binomial(self, m, n, p):
        assert lucas(m, n, p) == math.comb(m, n) % p


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

    def test_S_matches_the_exact_sum(self):
        # class_sum_S reads S mod p^2 from characters; the oracle sums the
        # exact binomials, and both refuse the same inputs
        for p in PRIMES + [31]:
            for a in range(1, p):
                for r in range(a, 700, p - 1):
                    assert class_sum_S(r, a, p) == class_sum_S_exact(r, a, p), (r, a, p)

    def test_characters_match_the_class_sum_table(self):
        # (p-1) T(N, c) = sum over zeta of zeta^(-c) (1+zeta)^N mod p^k: one
        # call with count = N+1 steps T(N-n, c-n) down to N-n = 0, so the
        # p-1 classes at N = 2000 cover every class at every degree up to
        # 2000, for the kernel (all classes in one call, at s = N - c) and
        # for its scalar oracle
        N = LEMMA_R_MAX
        for p in PRIMES:
            for k in (2, 3, 4):
                tables = _walk_tables(p, k)
                batch = arith._step_class_sums([N] * (p - 1), [N - c for c in range(p - 1)],
                                               p, k, N + 1)
                for c in range(p - 1):
                    assert batch[c] == _class_sums(N, c, p, k, N + 1), (p, k, c)
                    for n, t in enumerate(batch[c]):
                        assert t == tables[N - n][(c - n) % (p - 1)], (p, k, c, n)

    @pytest.mark.parametrize("p", [31, 1009])
    def test_characters_at_far_degrees(self, p):
        # seeded degrees past the grid, against the walk along binom(N, .)
        rng = random.Random(p)
        for N in rng.sample(range(LEMMA_R_MAX, 20_000), 3):
            for k in (2, 3, 4):
                tables = [class_sum_table_by_walk(N - n, p, k) for n in range(3)]
                cs = rng.sample(range(p - 1), 3)
                batch = arith._step_class_sums([N] * 3, [N - c for c in cs], p, k, 3)
                for c, got in zip(cs, batch):
                    want = [tables[n][(c - n) % (p - 1)] for n in range(3)]
                    assert got == _class_sums(N, c, p, k, 3) == want, (p, N, k, c)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_kernel_at_every_family_degree(self, p):
        # the class sums of every family that verify-lemmas --r-to 2000
        # certifies, one kernel call per level, against the scalar oracle
        specs = [spec for _, specs in cli._family_specs(p, LEMMA_R_MAX) for spec in specs
                 if spec.js]
        for level in (1, 2):
            at = [spec for spec in specs if spec.level == level]
            got = arith._step_class_sums([spec.r for spec in at],
                                         [spec.r - spec.js[0] for spec in at],
                                         p, level + 2, level + 2)
            assert len(got) == len(at) > 0
            for spec, sums in zip(at, got):
                c = spec.js[0] % (p - 1)
                assert sums == _class_sums(spec.r, c, p, level + 2, level + 2), spec

    def test_kernel_on_random_pairs(self, monkeypatch):
        # seeded (N, s) batches at k <= 4 and count <= 4, N = count-1
        # included, through blocks of a few rows, against the scalar oracle
        rng = random.Random(38)
        monkeypatch.setattr(arith, "_BLOCK", 100)
        for _ in range(40):
            p, k, count = rng.choice(PRIMES + [31, 97]), rng.randint(1, 4), rng.randint(1, 4)
            pairs = [(count - 1, rng.randrange(3 * p))] + [
                (rng.choice([rng.randrange(count - 1, 200), rng.randrange(10**12)]),
                 rng.randrange(-p, 3 * p)) for _ in range(rng.randint(1, 25))]
            got = arith._step_class_sums(*zip(*pairs), p, k, count)
            for (N, s), sums in zip(pairs, got):
                assert sums == _class_sums(N, (N - s) % (p - 1), p, k, count), (p, k, count, N, s)
        assert arith._step_class_sums([], [], 5, 3, 2) == []
        with pytest.raises(ValueError, match="need N >= 2"):
            arith._step_class_sums([7, 1], [0, 0], 5, 3, 3)

    @pytest.mark.parametrize("p, k", [(13, 3), (1009, 3), (1621, 3), (1627, 3)])
    def test_kernel_across_its_blocks(self, monkeypatch, p, k):
        # dot blocks as wide as all 12 lifts at p = 13 and as 17 at
        # p = 1009, products reduced one at a time at p = 1621 and Python
        # ints at p = 1627.  Blocks of 32 entries split each call into
        # several blocks of lifts (but p = 13 at count 1), and the calls at
        # count 1 and all at p = 1621 into several blocks of pairs.  Counts 1
        # and 4 are the families', 64 and 65 straddle the 64 rows of a digit
        # level, and 2001 is the lemma sweep's
        monkeypatch.setattr(arith, "_BLOCK", 32)
        rng = random.Random(p)
        for count in (1, 4, 64, 65, 2001):
            pairs = [(count - 1, rng.randrange(p - 1)),
                     (count + rng.randrange(10**6), rng.randrange(-p, 3 * p)),
                     (rng.randrange(10**12), rng.randrange(p - 1))]
            got = arith._step_class_sums(*zip(*pairs), p, k, count)
            for (N, s), sums in zip(pairs, got):
                assert sums == _class_sums(N, (N - s) % (p - 1), p, k, count), (p, k, count, N, s)

    @pytest.mark.parametrize("p, k", [(251, 4), (257, 4), (1621, 3), (1627, 3)])
    def test_kernel_at_the_dtype_edges(self, p, k):
        # the last primes with p^(2k) < 2^64, where the kernel multiplies in
        # uint64, and the first on Python ints, at degrees of up to six
        # base-64 digits
        assert (arith._mod_dtype(p, k) is np.uint64) == (p < 256 or p == 1621)
        rng = random.Random(p)
        pairs = [(N, rng.randrange(p - 1)) for N in
                 (3, p, 2 * p * p + 5, p + 2 * p * p * (p - 1), rng.randrange(2**36))]
        for (N, s), sums in zip(pairs, arith._step_class_sums(*zip(*pairs), p, k, 4)):
            assert sums == _class_sums(N, (N - s) % (p - 1), p, k, 4), (p, k, N, s)

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
        # sum of [lam]^i over lam in F_p: p at i = 0, p - 1 when (p-1) | i,
        # else 0; read here from the cached table of the Hecke operators
        table = teich_table(5, 3)
        assert sum(table.power(lam, 0) for lam in range(5)) % 5**3 == 5
        assert sum(table.power(lam, 4) for lam in range(5)) % 5**3 == 4
        assert sum(table.power(lam, 3) for lam in range(5)) % 5**3 == 0

    def test_power_sum_matches_direct_summation(self):
        for p in (3, 5, 7):
            for N in range(1, 7):
                m = p**N
                for i in range(0, 3 * (p - 1) + 2):
                    brute = sum(pow(teichmuller(c, p, N), i, m) for c in range(p)) % m
                    closed = p if i == 0 else p - 1 if i % (p - 1) == 0 else 0
                    assert brute == closed % m, (p, N, i)


class TestFamilies:
    def test_alpha_zero_family_below_threshold(self):
        fam = choose_alphas(11, 3, 5)
        assert fam == {3: 0, 7: 0}

    def test_alpha_example_and_properties(self):
        fam = choose_alphas(19, 3, 5)
        assert sum(fam.values()) == 0  # the construction is exactly balanced
        assert family_holds(fam, 19, 5, 1)

    def test_alpha_a2_target(self):
        fam = choose_alphas(30, 2, 5)
        assert family_holds(fam, 30, 5, 1, math.comb(30, 2))

    def test_beta_example(self):
        r = 5 * 5 - 5 + 3
        fam = choose_betas(r, 3, 5)
        assert family_holds(fam, r, 5, 1)
        # indices run over the right congruence class
        assert all(j % 4 == 2 for j in fam)

    def test_beta_empty_at_minimal_degree(self):
        assert choose_betas(3, 3, 5) == {}

    def test_alpha_hypotheses(self):
        with pytest.raises(HypothesisError):
            choose_alphas(20, 3, 5)  # 20 = 0, not 3 (mod 4)
        with pytest.raises(HypothesisError, match="r >= 1"):
            choose_alphas(-6, 2, 5)  # -6 = 2 (mod 4), but no degree

    def test_beta_hypotheses(self):
        with pytest.raises(HypothesisError):
            choose_betas(19, 3, 5)  # 5 does not divide 16
        with pytest.raises(HypothesisError, match="r >= 1"):
            choose_betas(-17, 3, 5)  # 4 and 5 divide -20, but no degree

    def test_quad_families(self):
        for p, r in [(5, 105), (5, 205), (3, 21), (3, 39)]:
            al, ga = choose_gammas_alphas2(r, p)
            assert family_holds(al, r, p, 2, 1 if p == 3 else 0)
            assert family_holds(ga, r, p, 2, -1 if p == 3 else 0)

    def test_quad_empty_at_r_equals_p(self):
        assert choose_alphas_modp2(5, 5) == {}
        assert choose_gammas_modp2(5, 5) == {}

    def test_quad_hypotheses(self):
        with pytest.raises(HypothesisError):
            choose_alphas_modp2(45, 5)  # 25 does not divide 40
        with pytest.raises(HypothesisError, match="r >= 1"):
            choose_gammas_alphas2(-95, 5)  # -95 = 1 (mod 4), 25 | -100, but no degree

    def test_binomial_off_the_distinguished_indices(self):
        # one correction rule: a family differs from binom(r, j) only at its
        # unit and zero indices (alpha2 at p alone), and the alpha family at
        # r <= ap is zero
        for name, choose, args, _, _, marked in criterion4_families():
            fam, r = choose(*args), args[0]
            if name == "alpha" and r <= args[1] * args[2]:
                assert not any(fam.values()), args
                continue
            assert not fam or marked <= fam.keys(), (name, args)
            assert {j for j, x in fam.items() if x != math.comb(r, j)} <= marked, (name, args)

    def test_quad_pair_builds_no_row(self, monkeypatch):
        # certified without a row; each family builds its row on its first read
        built = []
        row_fn = arith._binom_row
        monkeypatch.setattr(arith, "_binom_row", lambda r: built.append(r) or row_fn(r))
        al, ga = choose_gammas_alphas2(105, 5)
        assert built == []
        assert dict(al) == dict(al) and built == [105]  # kept after the first read
        assert dict(ga) and built == [105, 105]
        assert (al, ga) == (choose_alphas_modp2(105, 5), choose_gammas_modp2(105, 5))

    def test_families_read_only(self):
        fam = choose_betas(5 * 5 - 5 + 3, 3, 5)
        with pytest.raises(TypeError):
            fam[2] = 0

    def test_exact_values_match_the_row_constructors(self):
        # criterion 4's degrees and the verify-lemmas degrees at p <= 7:
        # the same exact integers as the constructors on binomial rows
        by_row = {choose_alphas: choose_alphas_by_row, choose_betas: choose_betas_by_row,
                  choose_alphas_modp2: lambda r, p: choose_gammas_alphas2_by_row(r, p)[0],
                  choose_gammas_modp2: lambda r, p: choose_gammas_alphas2_by_row(r, p)[1]}
        for _, choose, args, _, _, _ in criterion4_families():
            assert dict(choose(*args)) == by_row[choose](*args), args
        for p in (3, 5, 7):
            for r in (p, p + p * p * (p - 1), p + 2 * p * p * (p - 1)):
                assert tuple(map(dict, choose_gammas_alphas2(r, p))) == \
                    choose_gammas_alphas2_by_row(r, p), (r, p)
        # degrees below 1, on and off each family's congruences: both refuse
        for p in (3, 5, 7):
            for r in (-17, 0):
                calls = ([(choose_alphas, (r, a, p)) for a in range(2, p)]
                         + [(choose_betas, (r, b, p)) for b in range(3, p + 1)]
                         + [(choose_alphas_modp2, (r, p)), (choose_gammas_modp2, (r, p))])
                for choose, args in calls:
                    for fn in (choose, by_row[choose]):
                        with pytest.raises(HypothesisError):
                            fn(*args)


class TestApCoeff:
    def test_two_ways_to_build(self):
        # the constructor stores the normal-form terms it is given
        terms = {-2: (0, 0, 4), 0: (4, 0, 5), 1: (-3, 7, arith.INF)}
        c = ApCoeff(terms, 5)
        assert c.terms is terms and c.terms == {-2: (0, 0, 4), 0: (4, 0, 5), 1: (-3, 7, arith.INF)}
        # a rational enters through ``rational``: p stripped, 0 stores no term
        assert ApCoeff.rational(Fraction(-75, 125), 3, p=5).terms == {3: (-3, -1, arith.INF)}
        assert ApCoeff.rational(0, 2, p=5).terms == {}
        with pytest.raises(ArithmeticError):
            ApCoeff.rational(Fraction(1, 3), p=5)

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
        expr = coefficient_residue(c, Fraction(5, 4))
        assert expr.coeffs == {0: 7 * inv_mod(3, 5) % 5}

    def test_residue_symbol(self):
        # A^2 / p^3 has residue ub at slope 3/2
        c = ApCoeff.rational(Fraction(1, 125), 2, p=5)
        expr = coefficient_residue(c, Fraction(3, 2))
        assert expr.coeffs == {1: 1}
        # positive valuation dies
        assert coefficient_residue(ApCoeff.rational(Fraction(1, 5), 2, p=5), Fraction(3, 2)).is_zero()

    def test_residue_rejects_fractional_unit_part(self):
        # valuation 0 at slope 4/3, but A^-3 has no residue symbol there
        c = ApCoeff.rational(Fraction(81), -3, p=3)
        with pytest.raises(ArithmeticError, match="not expressible"):
            coefficient_residue(c, Fraction(4, 3))

    def test_truncated_precision_aborts(self):
        c = ApCoeff({0: (1, 7, 8)}, 5)  # value p^7 known mod p^8
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
        return split_coeff(terms, 5)

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
        if not a.terms:
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
    same exact value and error bound after every operation, and the same
    residue, read by the audit's rule and by ``FractionCoeff.residue``;
    where the latter refuses, the refusal in the audit's order
    (``reference.audit_order_refusal``)."""

    @given(st.data(), st.sampled_from([3, 5, 7]))
    @settings(max_examples=300, deadline=None)
    def test_operations_match(self, data, p):
        raw = data.draw(coeff_terms(p))
        a, ref = split_coeff(raw, p), FractionCoeff(p, raw)
        assert a.exact_terms() == ref.terms
        for _ in range(data.draw(st.integers(1, 6))):
            op = data.draw(st.sampled_from(["add", "sub", "scale", "scale_trunc", "shift"]))
            if op in ("add", "sub"):
                other = data.draw(coeff_terms(p))
                b, ref_b = split_coeff(other, p), FractionCoeff(p, other)
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
            mine = _outcome(lambda: coefficient_residue(a, sigma))
            theirs = _outcome(lambda: ref.residue(sigma))
            if isinstance(theirs, str):
                theirs = audit_order_refusal([ref], sigma)
            assert mine == theirs

    @given(st.data(), st.sampled_from([3, 5, 7]))
    @settings(max_examples=200, deadline=None)
    def test_audit_bound_is_an_integer_count_of_one_over_b(self, data, p):
        c = split_coeff(data.draw(coeff_terms(p)), p)
        for sigma in (Fraction(5, 4), Fraction(4, 3), Fraction(3, 2), Fraction(7, 4)):
            bound = c.audit_terms(sigma)[0]
            if not c.terms:
                assert bound == arith.INF and c.val_lb(sigma, p) == arith.INF
                continue
            assert isinstance(bound, int)
            assert Fraction(bound, sigma.denominator) == c.val_lb(sigma, p)
            assert c.val_lb(sigma, p) == FractionCoeff(p, c.exact_terms()).val_lb(sigma)

    def test_scale_by_zero_and_unit_ladder(self):
        c = ApCoeff.rational(Fraction(2, 25), 1, p=5)
        assert not c.scale(0).terms
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
        assert (a + b).coeffs == {1: 2, -1: 3}
        assert (a + a).coeffs == {1: 4}
        assert (a - a).is_zero()


def _lemma_rows_per_degree(p: int, r_to: int) -> list[dict]:
    """The lemma rows built from one walk along binom(r, .) per degree: the
    reference for ``arith.lemma_rows``, which reads two class sums per
    degree off characters."""
    rows = []
    p2, p3 = p * p, p**3
    for r in range(1, r_to + 1):
        a = r % (p - 1) or p - 1
        b = a if a != 1 else p
        row = {"p": p, "r": r, "a": a, "b": b}
        ok = True
        tab = class_sum_table_by_walk(r, p, 3)
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


def _sweep_sums(p: int, r_to: int) -> list[list[int]]:
    """[T(r, r), T(r, r-1)] mod p^3 for r = 0..r_to, as the lemma sweep reads
    them: one kernel call at the pairs (r_to, 0) and (r_to, 1), column n at
    degree r_to - n."""
    diagonal, below = arith._step_class_sums([r_to] * 2, [0, 1], p, 3, r_to + 1)
    return [list(pair) for pair in zip(diagonal[::-1], below[::-1])]


class TestDegreeSweep:
    def test_tables_match_per_degree_table(self):
        # the sweep's T(r, r) and T(r, r-1), and every class of
        # class_sum_table, against the walk at every degree
        for p in LEMMA_PRIMES:
            sweep = _sweep_sums(p, LEMMA_R_MAX)
            for r, tab in enumerate(_walk_tables(p, 3)):
                assert sweep[r] == [tab[r % (p - 1)], tab[(r - 1) % (p - 1)]], (p, r)
                assert arith.class_sum_table(r, p, 3) == tab, (p, r)
            assert r == LEMMA_R_MAX

    @pytest.mark.parametrize("p", [509, 521, 1009, 1289, 1291, 1447, 1451, 1621, 1627])
    def test_tables_across_the_int64_bound(self, p):
        # 1621 is the last prime with p^6 < 2^64, where the products of the
        # sweep stay in uint64, and 1627 the first on Python ints; 1009 sums
        # 17 products a dot block and 1289 four, the fewest, and from 1291
        # on each product is reduced; 1447 and 1451 straddled the int64
        # bound of a former sweep, and 509, 521 and 1009 that of the
        # circulant sweep before it
        sweep = _sweep_sums(p, LEMMA_R_MAX)
        assert len(sweep) == LEMMA_R_MAX + 1
        for r in [0, 1, LEMMA_R_MAX] + random.Random(p).sample(range(2, LEMMA_R_MAX), 25):
            tab = class_sum_table_by_walk(r, p, 3)
            assert sweep[r] == [tab[r % (p - 1)], tab[(r - 1) % (p - 1)]], (p, r)
        assert all(row["pass"] for row in arith.lemma_rows(p, LEMMA_R_MAX)), p

    def test_lemma_rows_match_per_degree_rows(self):
        for p in LEMMA_PRIMES + (521, 1009):
            assert arith.lemma_rows(p, 600) == _lemma_rows_per_degree(p, 600), p
        # every doubling edge: the kernel's table of step^i, i <= r_to,
        # fills rows L..2L-1 from rows 0..L-1
        for p in (3, 5, 7):
            for r_to in range(1, 41):
                assert arith.lemma_rows(p, r_to) == _lemma_rows_per_degree(p, r_to), (p, r_to)

    def test_lemma_rows_refuse_bad_input(self):
        with pytest.raises(DomainError, match="empty"):
            arith.lemma_rows(5, 0)
        for p in (-3, 0, 1, 2, 9):
            with pytest.raises(DomainError, match="not an odd prime"):
                arith.lemma_rows(p, 5)

    def test_binom_row_at_every_family_degree(self, monkeypatch, capsys):
        # the exact rows that the witness builders read, at the quad degrees
        # of p = 13 and at every small degree, odd and even, for the
        # mirrored half-row, against math.comb
        row_fn = arith._binom_row
        for r in [2041, 4069, *range(41)]:
            assert row_fn(r) == [math.comb(r, j) for j in range(r + 1)], r

        # verify-lemmas certifies every family without building a row
        def refused(r):
            raise AssertionError(f"binomial row built at r = {r}")

        monkeypatch.setattr(arith, "_binom_row", refused)
        for p in (3, 5, 7, 11, 13, 1009):
            assert cli.main(["verify-lemmas", "--p", str(p), "--r-to", str(LEMMA_R_MAX)]) == 0
        capsys.readouterr()

    def test_check_family_agrees_with_reference(self):
        # every family that verify-lemmas certifies for p <= 13, and seeded
        # perturbations of it by +-p^m at a class member, m = 0..L+2: the
        # certificate from class sums refuses exactly when the exact
        # big-integer congruences fail, with the messages of the row check
        checked = []
        for p in (3, 5, 7, 11, 13):
            specs = [spec for _, specs in cli._family_specs(p, LEMMA_R_MAX) for spec in specs]
            for spec, fam in zip(specs, arith._certify_families(specs, p)):
                checked.append((spec.name, fam, spec.r, p, spec.level, spec.target))
        assert {r for _, fam, r, q, _, _ in checked if q == 13 and fam} >= {2041, 4069}
        rng = random.Random(29)
        refused = 0
        for name, fam, r, p, level, target in checked:
            values = dict(fam)
            assert family_holds(values, r, p, level, target), (name, r, p)
            if not fam:
                continue
            js = list(fam)
            W = arith._class_weights(r, js, p, _class_sums(r, js[0] % (p - 1), p, level + 2,
                                                           level + 2))
            row = arith._binom_row(r)
            delta = {j: x - row[j] for j, x in values.items() if x != row[j]}
            arith._certify(name, W, delta, p, level, target)
            for m in range(level + 3):
                for sign in (1, -1):
                    j = rng.choice(js)
                    bent = {**values, j: values[j] + sign * p**m}
                    holds = family_holds(bent, r, p, level, target)
                    try:
                        check_family(name, bent, row, p, level, target)
                    except ArithmeticError as exc:
                        want = str(exc)
                    else:
                        want = None
                    try:
                        arith._certify(name, W, {**delta, j: delta.get(j, 0) + sign * p**m},
                                       p, level, target)
                    except ArithmeticError as exc:
                        assert not holds and str(exc) == want, (name, r, p, m, sign)
                        refused += 1
                    else:
                        assert holds and want is None, (name, r, p, m, sign)
        assert refused

    @pytest.mark.parametrize("p", LEMMA_PRIMES)
    def test_verify_lemmas_json_matches_the_row_constructors(self, capsys, p):
        # the batched family rows are the rows of the one-family constructors
        # and of the constructors on exact binomial rows, verdicts, errors
        # and order alike
        for r_to in (1, 50, LEMMA_R_MAX):
            families = _verify_lemmas_json(capsys, p, r_to)["families"]
            assert families == _rows_by(LIBRARY, p, families) == _rows_by(BY_ROW, p, families)

    @pytest.mark.parametrize("p", (5, 7, 11))
    def test_batched_failure_matches_the_scalar_one(self, monkeypatch, capsys, p):
        # a family bent in its spec fails in the verify-lemmas batch, in its
        # constructor and in the row check with one message: the alpha
        # target off by one, the beta unit correction dropped (which no
        # beta family needs at p = 3)
        alpha, beta = arith._alpha_spec, arith._beta_spec
        monkeypatch.setattr(arith, "_alpha_spec",
                            lambda *args: alpha(*args)._replace(target=alpha(*args).target + 1))
        monkeypatch.setattr(arith, "_beta_spec", lambda *args: beta(*args)._replace(unit=None))
        doc = _verify_lemmas_json(capsys, p, LEMMA_R_MAX, code=1)
        failed = [row for row in doc["families"] if not row["pass"]]
        assert doc["failed"] == len(failed)
        assert {row["family"] for row in failed} == {"alpha", "beta"}
        assert doc["families"] == _rows_by(LIBRARY, p, doc["families"])
        for row in failed:
            r, binoms = row["r"], arith._binom_row(row["r"])
            with pytest.raises(ArithmeticError) as exc:
                if row["family"] == "alpha":
                    values = choose_alphas_by_row(r, row["a"], p)
                    check_family("alpha", values, binoms, p, 1, alpha(r, row["a"], p).target + 1)
                else:
                    spec = beta(r, row["b"], p)
                    corrected_family("beta", binoms, spec.js, p, 1, None, spec.zero)
            assert str(exc.value) == row["error"], row


def _verify_lemmas_json(capsys, p: int, r_to: int, code: int = 0) -> dict:
    assert cli.main(["verify-lemmas", "--p", str(p), "--r-to", str(r_to),
                     "--format", "json"]) == code
    return json.loads(capsys.readouterr().out)


#: family row name -> constructor of that row, from the library and on exact rows
LIBRARY = {"alpha": choose_alphas, "beta": choose_betas, "quad": choose_gammas_alphas2}
BY_ROW = {"alpha": choose_alphas_by_row, "beta": choose_betas_by_row,
          "quad": choose_gammas_alphas2_by_row}


def _rows_by(constructors: dict, p: int, families: list[dict]) -> list[dict]:
    """The verify-lemmas family rows with these labels, each built by one
    call of its constructor: pass, or the message of its ArithmeticError."""
    rows = []
    for row in families:
        labels = {key: x for key, x in row.items() if key not in ("pass", "error")}
        args = (row["r"], *(row[key] for key in ("a", "b") if key in row), p)
        try:
            constructors[row["family"]](*args)
        except ArithmeticError as exc:
            rows.append({**labels, "pass": False, "error": str(exc)})
        else:
            rows.append({**labels, "pass": True})
    return rows
