import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysred.arith import PRECISION_HEADROOM, ApCoeff, padic_val
from crysred.hecke import (
    ALPHA,
    Coset,
    IDENTITY,
    IndFunction,
    ResidueFunction,
    ValuationReport,
    _require_residue_cap,
    apply_T,
    apply_Tminus,
    apply_Tplus,
    audit_valuations,
    elementary,
    g0,
    modp_T,
    reduce_mod_p,
    t_minus_ap,
    teich_table,
)
from crysred.errors import IndeterminateCancellation, PrecisionError
from crysred.symrep import sym_power
from reference import certify_val_ge, direct_T, functions_agree, normalize_pair, translate

ONE = ApCoeff.rational(1, p=5)


class TestBasics:
    def test_lowering_from_identity(self):
        # [Id, Y^r] -> [alpha, Y^r]: only the top monomial survives the p-powers
        f = elementary(5, 11, IDENTITY, {11: ONE})
        out = apply_Tminus(f)
        assert list(out.data) == [ALPHA]
        assert out.data[ALPHA][11].exact_terms()[0][0] == 1

    def test_raising_from_identity(self):
        # [Id, X^r] spreads over the p children with X^r coefficient 1
        out = apply_Tplus(elementary(5, 11, IDENTITY, {0: ONE}))
        assert set(out.data) == {Coset(0, 1, (lam,)) for lam in range(5)}
        for poly in out.data.values():
            assert set(poly) == {0} and poly[0].exact_terms()[0][0] == 1

    def test_lowering_level_one_zero_digit(self):
        # with a zero top digit only the diagonal terms survive, weighted p^(r-i)
        f = elementary(5, 11, g0(1, (0,)), {4: ONE})
        out = apply_Tminus(f)
        assert list(out.data) == [IDENTITY]
        assert out.data[IDENTITY][4].exact_terms()[0][0] == Fraction(5**7)

    def test_branch1_input_rejected(self):
        f = elementary(5, 11, ALPHA, {0: ONE})
        with pytest.raises(NotImplementedError):
            apply_T(f)

    def test_truncation_map_collapses_level_one(self):
        # all depth-1 digits truncate to the identity coset
        for lam in range(5):
            out = apply_Tminus(elementary(5, 11, g0(1, (lam,)), {11: ONE}))
            assert list(out.data) == [IDENTITY]

    def test_coefficient_at_another_prime_is_refused(self):
        f = elementary(5, 11, IDENTITY, {0: ONE})
        with pytest.raises(ValueError):
            f.accumulate(IDENTITY, 1, ApCoeff.rational(1, p=7))


class TestAgainstDirectFormula:
    def test_random_branch0(self):
        rng = np.random.default_rng(3)
        sig = Fraction(5, 4)
        for _ in range(60):
            p = int(rng.choice([3, 5, 7]))
            r = int(rng.integers(2 * p + 2, 60))
            m = int(rng.integers(0, 3))
            digs = tuple(int(x) for x in rng.integers(0, p, m))
            f = IndFunction(p, r)
            for _ in range(int(rng.integers(1, 4))):
                f.accumulate(g0(m, digs), int(rng.integers(0, r + 1)),
                             ApCoeff.rational(int(rng.integers(1, p)), p=p))
            assert functions_agree(apply_T(f), direct_T(f), sig, min_val=4)

    def test_equivariance_random(self):
        rng = np.random.default_rng(4)
        sig = Fraction(5, 4)
        for _ in range(25):
            p = int(rng.choice([3, 5]))
            r = int(rng.integers(2 * p + 2, 40))
            m = int(rng.integers(0, 3))
            digs = tuple(int(x) for x in rng.integers(0, p, m))
            one = ApCoeff.rational(1, p=p)
            f = elementary(p, r, g0(m, digs), {int(rng.integers(0, r + 1)): one})
            while True:
                k = tuple(int(x) for x in rng.integers(0, p**4, 4))
                if (k[0] * k[3] - k[1] * k[2]) % p:
                    break
            assert functions_agree(translate(k, direct_T(f)), direct_T(translate(k, f)),
                                   sig, min_val=3)

    def test_normalize_identity_coset(self):
        coset, poly = normalize_pair((1, 0, 0, 1), {0: ONE}, 5, 11)
        assert coset == IDENTITY

    def test_lambda_sum_collapse(self):
        # sum over lambda of [lam]^i: the symbolic collapse used throughout
        # the witness audits, against brute-force summation
        for p in (3, 5, 7):
            table = teich_table(p)
            m = p**8
            for i in range(0, 2 * (p - 1) + 2):
                brute = sum(pow(table.rep[c], i, m) for c in range(p)) % m
                if i == 0:
                    assert brute == p
                elif i % (p - 1) == 0:
                    assert brute == p - 1
                else:
                    assert brute == 0


class TestAudits:
    def test_integral_function(self):
        f = elementary(5, 11, IDENTITY, {0: ApCoeff.rational(Fraction(1, 5), 1, p=5)})
        rep = audit_valuations(f, Fraction(5, 4))
        assert rep.integral and rep.min_valuation == Fraction(1, 4)

    def test_exact_failure(self):
        f = elementary(5, 11, IDENTITY, {0: ApCoeff.rational(Fraction(1, 5), p=5)})
        rep = audit_valuations(f, Fraction(5, 4))
        assert not rep.integral and rep.failures

    def test_indeterminate_tie(self):
        c = ApCoeff.rational(Fraction(1, 5), p=5) + ApCoeff.rational(Fraction(1, 5**4), 2, p=5)
        f = elementary(5, 11, IDENTITY, {0: c})
        with pytest.raises(IndeterminateCancellation):
            audit_valuations(f, Fraction(3, 2))

    def test_reduction(self):
        c = ApCoeff.rational(Fraction(7), p=5) + ApCoeff.rational(Fraction(5), p=5)
        f = elementary(5, 11, IDENTITY, {3: c})
        red = reduce_mod_p(f, Fraction(5, 4))
        assert red.data[IDENTITY][0][3] == 2

    def test_t_minus_ap_shifts_degree(self):
        f = elementary(5, 11, IDENTITY, {0: ONE})
        g = t_minus_ap(f)
        assert g.data[IDENTITY][0].exact_terms() == {1: (Fraction(-1), math.inf)}


class TestModpOperator:
    def test_supersingular_column(self):
        p, s = 5, 3
        fn = ResidueFunction(p, s + 1)
        fn.accumulate(g0(1, (0,)), 0, sym_power(p, s).monomial(0))
        out = modp_T(fn, s)
        assert set(out.data) == {Coset(0, 2, (0, lam)) for lam in range(p)}

    def test_square_plus_one_support(self):
        p, s = 5, 3
        fn = ResidueFunction(p, s + 1)
        fn.accumulate(IDENTITY, 0, sym_power(p, s).monomial(0))
        t2 = modp_T(modp_T(fn, s), s) + fn
        support = set(t2.data)
        assert IDENTITY in support
        assert len(support) == p * p + 1

    def test_y_power_lowers(self):
        p, s = 5, 3
        fn = ResidueFunction(p, s + 1)
        fn.accumulate(g0(1, (2,)), 0, sym_power(p, s).monomial(s))
        out = modp_T(fn, s)
        assert IDENTITY in out.data
        # the lowered value is (2X + Y)^s
        want = np.array([math.comb(s, i) * pow(2, s - i, p) for i in range(s + 1)]) % p
        assert np.array_equal(out.data[IDENTITY][0], want)


# slopes near both ends of (1, 2): the cap's bound min(d, 2d) must hold at each
SLOPES = [Fraction(65, 64), Fraction(5, 4), Fraction(3, 2), Fraction(127, 64)]
# Teichmuller digits carried well past the caps drawn below, so that the
# truncation noise of the two evaluations cannot hide a wrongly dropped term
WIDE_PRECISION = 30


@st.composite
def witness_shaped(draw):
    """Branch-0 functions shaped like the witness builders' output: rational
    coefficients with p-power denominators, A-degrees -2..2, Teichmuller-
    truncated terms, several cosets at levels 0..2, and an absolute cap."""
    p = draw(st.sampled_from([3, 5, 7]))
    r = draw(st.integers(2 * p + 2, 40))
    table = teich_table(p, WIDE_PRECISION)
    f = IndFunction(p, r, WIDE_PRECISION)
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(0, 2))
        coset = g0(m, tuple(draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))))
        for _ in range(draw(st.integers(1, 3))):
            c = ApCoeff({}, p)
            for _ in range(draw(st.integers(1, 2))):
                num = draw(st.integers(-p * p, p * p).filter(bool))
                term = ApCoeff.rational(Fraction(num, p ** draw(st.integers(0, 3))),
                                        draw(st.integers(-2, 2)), p=p)
                if draw(st.booleans()):
                    lam, k = draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))
                    term = term.scale_trunc(table.power(lam, k), WIDE_PRECISION)
                c = c + term
            f.accumulate(coset, draw(st.integers(0, r)), c)
    f.prune()
    f.cap = draw(st.integers(1 + PRECISION_HEADROOM, 10))
    return f


class TestAbsoluteCap:
    @settings(max_examples=60, deadline=None)
    @given(witness_shaped(), st.sampled_from(SLOPES))
    def test_capped_T_matches_direct_formula(self, f, sig):
        # every term apply_T leaves out must have valuation >= the cap
        assert f.data
        got = apply_T(f)
        assert got.cap == f.cap
        assert functions_agree(got, direct_T(f), sig, min_val=f.cap)

    def test_terms_past_the_cap_are_not_computed(self):
        f = elementary(5, 40, g0(1, (2,)), {40: ONE, 39: ONE})
        full = direct_T(f)
        capped = apply_T(f)
        count = lambda g: sum(len(poly) for poly in g.data.values())
        assert count(capped) < count(full)

    def test_truncation_error_survives_the_cap(self):
        # a coefficient known only to valuation 3 (stored value 0): its
        # error, not the stored value, decides whether a term is dropped
        from crysred.hecke import precision_margin

        unknown = ApCoeff({0: (Fraction(0), 3)}, 5)
        f = elementary(5, 11, g0(1, (2,)), {11: unknown, 4: unknown}, precision=8)
        out = apply_T(f)
        assert out.data
        assert precision_margin(out, Fraction(5, 4)) == 3 - 1

    def test_cap_follows_the_arithmetic(self):
        f = elementary(5, 11, IDENTITY, {0: ONE}, precision=8)
        assert f.cap == 8
        assert f.scale(Fraction(1, 25)).cap == 6
        assert f.scale(10).cap == 9
        assert f.shift_ap(1).cap == 9 and f.shift_ap(-1).cap == 6
        assert (f + f.scale(Fraction(1, 5))).cap == 7
        assert (f - f.shift_ap(2)).cap == 8
        assert t_minus_ap(f).cap == 8

    def test_low_cap_refused_by_audit_and_reduction(self):
        # an integral function whose cap sits within the headroom of the
        # residue: neither integrality nor the residue can be certified
        low = elementary(5, 11, IDENTITY, {0: ApCoeff.rational(25, p=5)}, precision=4)
        low = low.scale(Fraction(1, 25))
        assert low.cap == PRECISION_HEADROOM
        with pytest.raises(PrecisionError):
            audit_valuations(low, Fraction(5, 4))
        with pytest.raises(PrecisionError):
            reduce_mod_p(low, Fraction(5, 4))
        ok = elementary(5, 11, IDENTITY, {0: ApCoeff.rational(5, p=5)}, precision=4)
        ok = ok.scale(Fraction(1, 5))
        assert ok.cap == 1 + PRECISION_HEADROOM
        assert audit_valuations(ok, Fraction(5, 4)).integral
        assert reduce_mod_p(ok, Fraction(5, 4)).data[IDENTITY][0][0] == 1

    def test_agreement_above_the_cap_refused(self):
        f = elementary(5, 11, IDENTITY, {0: ONE}, precision=8)
        assert functions_agree(f, f, Fraction(5, 4), min_val=8)
        with pytest.raises(PrecisionError):
            functions_agree(f, f, Fraction(5, 4), min_val=9)
        with pytest.raises(PrecisionError):
            functions_agree(f, f.scale(Fraction(1, 5)), Fraction(5, 4), min_val=8)


def _min_terms(c: ApCoeff, sigma, p):
    """(bound, [degrees achieving it]) over the stored terms."""
    best, who = math.inf, []
    for d, (v, e) in c.exact_terms().items():
        val = min(padic_val(v, p), e) + d * sigma
        if val < best:
            best, who = val, [d]
        elif val == best:
            who.append(d)
    return best, who


def _two_pass_audit(f, sigma):
    """The valuation audit as two passes, kept as the reference of the
    one-pass ``audit_valuations``: bounds in sorted order first, then every
    coefficient re-certified through ``certify_val_ge``."""
    _require_residue_cap(f)
    entries, failures, min_val = [], [], math.inf
    for coset in sorted(f.data):
        for j in sorted(f.data[coset]):
            bound, degs = _min_terms(f.data[coset][j], sigma, f.p)
            entries.append((coset, j, bound, tuple(degs)))
            if bound < 0:
                failures.append((coset, j, bound, tuple(degs)))
            if bound < min_val:
                min_val = bound
    if failures:
        multi = [e for e in failures if len(e[3]) > 1]
        if multi:
            raise IndeterminateCancellation(
                f"minimal valuation tied between symbol degrees at {multi[0][:2]}"
            )
        return ValuationReport(False, min_val, entries, failures)
    for coset, poly in f.data.items():
        for j, c in poly.items():
            if not certify_val_ge(c, 0, sigma, f.p):
                return ValuationReport(False, min_val, entries, [(coset, j, c.val_lb(sigma, f.p), ())])
    return ValuationReport(True, min_val, entries, [])


def _outcome(audit, f, sigma):
    try:
        return ("report", audit(f, sigma))
    except (IndeterminateCancellation, PrecisionError) as exc:
        return (type(exc).__name__, str(exc))


AUDIT_COSETS = [IDENTITY, g0(1, (0,)), g0(1, (3,)), g0(2, (1, 4))]


@st.composite
def audit_inputs(draw):
    """Functions at p = 5, r = 11 whose coefficients mix exact and truncated
    terms, inserted in a drawn (unsorted) order, so bounds below 0, ties
    and truncated terms within the headroom all occur, alone and together."""
    f = IndFunction(5, 11, precision=8)
    for _ in range(draw(st.integers(1, 5))):
        terms = {}
        for _ in range(draw(st.integers(1, 2))):
            d = draw(st.sampled_from([-1, 0, 0, 1, 1, 2, 2]))
            num = draw(st.integers(-30, 30))
            den = 5 ** draw(st.sampled_from([0, 0, 0, 0, 0, 0, 1, 2]))
            err = draw(st.one_of(st.just(math.inf), st.integers(0, 6)))
            terms[d] = (Fraction(num, den), err)
        f.accumulate(draw(st.sampled_from(AUDIT_COSETS)), draw(st.integers(0, 11)),
                     ApCoeff(terms, 5))
    sigma = draw(st.sampled_from([Fraction(5, 4), Fraction(4, 3), Fraction(3, 2)]))
    return f, sigma


class TestSinglePassAudit:
    SHORT = ApCoeff({0: (Fraction(5), 1)}, 5)  # 5 known mod 5: within the headroom of 0
    SIG = Fraction(3, 2)

    def _function(self, *coeffs):
        f = IndFunction(5, 11, precision=8)
        for j, (coset, c) in enumerate(coeffs):
            f.accumulate(coset, j, c)
        return f

    def test_negative_bound_wins_over_headroom(self):
        f = self._function((g0(1, (3,)), self.SHORT),
                           (IDENTITY, ApCoeff.rational(Fraction(1, 5), p=5)))
        new = _outcome(audit_valuations, f, self.SIG)
        assert new == _outcome(_two_pass_audit, f, self.SIG)
        assert new[0] == "report" and not new[1].integral and len(new[1].failures) == 1

    def test_tie_wins_over_headroom(self):
        tie = ApCoeff.rational(Fraction(1, 5), p=5) + ApCoeff.rational(Fraction(1, 5**4), 2, p=5)
        f = self._function((IDENTITY, self.SHORT), (g0(1, (0,)), tie))
        new = _outcome(audit_valuations, f, self.SIG)
        assert new == _outcome(_two_pass_audit, f, self.SIG)
        assert new[0] == "IndeterminateCancellation"

    def test_headroom_alone_raises_at_the_first_term(self):
        later = ApCoeff({1: (Fraction(5), 0)}, 5)  # another term short of headroom
        f = self._function((g0(1, (3,)), later), (IDENTITY, self.SHORT))
        new = _outcome(audit_valuations, f, self.SIG)
        assert new == _outcome(_two_pass_audit, f, self.SIG)
        assert new == ("PrecisionError", "bound 0 within headroom of precision 0 at degree 1")

    @given(audit_inputs())
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_two_passes(self, inputs):
        f, sigma = inputs
        assert _outcome(audit_valuations, f, sigma) == _outcome(_two_pass_audit, f, sigma)
