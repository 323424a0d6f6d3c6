import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysred.arith import INF, PRECISION_HEADROOM, ApCoeff, ResidueExpr, padic_val
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
    g0,
    modp_T,
    reduce_mod_p,
    residue_terms,
    t_minus_ap,
    teich_table,
)
from crysred.errors import IndeterminateCancellation, PrecisionError
from crysred.symrep import sym_power
from crysred.witness import QEnv, _residue_in_Q
from reference import (
    apply_Tminus_by_terms,
    apply_Tplus_by_terms,
    audit_reading,
    certify_val_ge,
    direct_T,
    elementary,
    exact_sum,
    functions_agree,
    ind_difference,
    ind_sum,
    modp_T_by_weights,
    normalize_pair,
    precision_margin,
    project_dense,
    reductions_agree,
    same_below_cap,
    same_terms,
    split_coeff,
    t_minus_ap_by_parts,
    t_minus_ap_uncut,
    translate,
)

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
            f.add_term(IDENTITY, {2: ONE, 1: ApCoeff.rational(1, p=7)})
        # checked before any term is summed
        assert list(f.data[IDENTITY]) == [0]

    def test_cancelled_index_leaves_no_key(self):
        # add_term sums as the operators do: an index that cancels, and a
        # coset left without one, leave no key for T+ and T- to meet
        f, want = IndFunction(5, 11), elementary(5, 11, IDENTITY, {4: ONE})
        f.add_term(IDENTITY, {3: ONE})
        f.add_term(IDENTITY, {3: ONE.scale(-1), 4: ONE})
        assert same_terms(apply_T(f), apply_T(want))
        assert same_terms(t_minus_ap(f), t_minus_ap(want))
        assert list(f.data[IDENTITY]) == [4]
        f.add_term(IDENTITY, {4: ONE.scale(-1)})
        assert f.data == {}

    def test_term_past_the_cap_is_not_stored(self):
        # at cap 3 the term 5^3 is past it, 5^2 A^-1 (valuation >= 0) is
        # not; a polynomial added at several cosets is copied, not shared
        f, poly = IndFunction(5, 11, 3), {0: ApCoeff.rational(125, p=5),
                                          1: ApCoeff.rational(25, -1, p=5)}
        for t in range(2):
            f.add_term(g0(1, (t,)), poly)
        assert [list(f.data[g0(1, (t,))]) for t in range(2)] == [[1], [1]]
        f.add_term(g0(1, (0,)), {1: ApCoeff.rational(-25, -1, p=5)})
        assert list(f.data) == [g0(1, (1,))] and 0 in poly and poly[1].terms == {-1: (1, 2, INF)}


class TestAgainstDirectFormula:
    def test_random_branch0(self):
        rng = np.random.default_rng(3)
        sig = Fraction(5, 4)
        for _ in range(60):
            p = int(rng.choice([3, 5, 7]))
            r = int(rng.integers(2 * p + 2, 60))
            m = int(rng.integers(0, 3))
            digs = tuple(int(x) for x in rng.integers(0, p, m))
            f = exact_sum(IndFunction(p, r), [
                (g0(m, digs), int(rng.integers(0, r + 1)),
                 ApCoeff.rational(int(rng.integers(1, p)), p=p))
                for _ in range(int(rng.integers(1, 4)))])
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
        assert red.data[IDENTITY, 0][3] == 2

    def test_t_minus_ap_shifts_degree(self):
        f = elementary(5, 11, IDENTITY, {0: ONE})
        g = t_minus_ap(f)
        assert g.data[IDENTITY][0].exact_terms() == {1: (Fraction(-1), math.inf)}


class TestModpOperator:
    def test_supersingular_column(self):
        p, s = 5, 3
        fn = ResidueFunction.single(p, g0(1, (0,)), sym_power(p, s).monomial(0))
        out = modp_T(fn, s)
        assert set(out.data) == {(Coset(0, 2, (0, lam)), 0) for lam in range(p)}

    def test_square_plus_one_support(self):
        p, s = 5, 3
        fn = ResidueFunction.single(p, IDENTITY, sym_power(p, s).monomial(0))
        t2 = modp_T(modp_T(fn, s), s) + fn
        keys = set(t2.data)
        assert (IDENTITY, 0) in keys
        assert len(keys) == p * p + 1

    def test_y_power_lowers(self):
        p, s = 5, 3
        fn = ResidueFunction.single(p, g0(1, (2,)), sym_power(p, s).monomial(s))
        out = modp_T(fn, s)
        assert (IDENTITY, 0) in out.data
        # the lowered value is (2X + Y)^s
        want = np.array([math.comb(s, i) * pow(2, s - i, p) for i in range(s + 1)]) % p
        assert np.array_equal(out.data[IDENTITY, 0], want)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_weights_written_out(self, data):
        # branch-0 inputs at levels 0..2 with symbol powers -1..1, against
        # the operator with its Hecke weights written out
        p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
        s = data.draw(st.integers(0, p - 1))
        fn = ResidueFunction(p)
        for _ in range(data.draw(st.integers(1, 4))):
            m = data.draw(st.integers(0, 2))
            digits = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)))
            vec = data.draw(st.lists(st.integers(0, p - 1), min_size=s + 1, max_size=s + 1))
            fn.accumulate(g0(m, digits), data.draw(st.integers(-1, 1)), np.array(vec))
        assert modp_T(fn, s) == modp_T_by_weights(fn, s)

    def test_branch1_support_refused(self):
        fn = ResidueFunction.single(5, ALPHA, sym_power(5, 3).monomial(0))
        with pytest.raises(NotImplementedError):
            modp_T(fn, 3)


class TestResidueFunction:
    def test_cancelled_value_leaves_no_key(self):
        p, v = 5, np.array([1, 2, 0, 4])
        fn = ResidueFunction.single(p, IDENTITY, v)
        fn.accumulate(IDENTITY, 0, -v)
        assert fn.data == {}
        assert fn + ResidueFunction.single(p, g0(1, (3,)), v) == ResidueFunction.single(
            p, g0(1, (3,)), v)
        assert ResidueFunction.single(p, IDENTITY, v).scale_expr(ResidueExpr.const(5, p)).data == {}

    def test_equality_ignores_insertion_order(self):
        p = 7
        items = [(IDENTITY, 0, [1, 2]), (g0(1, (4,)), -1, [0, 3]), (ALPHA, 1, [6, 6]),
                 (IDENTITY, 0, [2, 0])]
        a, b = ResidueFunction(p), ResidueFunction(p)
        for coset, e, vec in items:
            a.accumulate(coset, e, np.array(vec))
        for coset, e, vec in reversed(items):
            b.accumulate(coset, e, np.array(vec))
        assert list(a.data) != list(b.data)
        assert a == b and b == a
        b.accumulate(ALPHA, 1, np.array([1, 0]))
        assert a != b


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
    items = []
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
            items.append((coset, draw(st.integers(0, r)), c))
    f = exact_sum(IndFunction(p, r, WIDE_PRECISION), items)
    f.cap = draw(st.integers(1 + PRECISION_HEADROOM, 10))
    return f


@st.composite
def raising_inputs(draw):
    """``witness_shaped`` functions, with terms that hold only an error
    bound added at drawn cosets and indices, at the wide or the default
    Teichmuller precision."""
    f = draw(witness_shaped())
    # drawn terms can cancel and leave f empty: then add at the root coset
    p, cosets, items = f.p, sorted(f.data) or [g0(0, ())], []
    for _ in range(draw(st.integers(0, 2))):
        loose = ApCoeff({draw(st.integers(-2, 2)): (0, 0, draw(st.integers(0, 6)))}, p)
        items.append((draw(st.sampled_from(cosets)), draw(st.integers(0, f.r)), loose))
    f = exact_sum(f, items)
    if draw(st.booleans()):
        f.precision = 8
    return f


class TestGroupedRaising:
    @settings(max_examples=150, deadline=None)
    @given(raising_inputs())
    def test_matches_the_per_term_sum(self, f):
        # indices in several classes mod p-1 per coset, truncated and
        # error-only terms, and caps that cut the rows: grouping by class
        # stores the per-term (n, k, err) below the cap and keeps the cap
        assert same_below_cap(apply_Tplus(f), apply_Tplus_by_terms(f))

    def test_several_classes_with_rows_cut_by_the_cap(self):
        table = teich_table(5)
        f = elementary(5, 30, g0(1, (3,)), {
            30: ApCoeff.rational(Fraction(7, 25), 2, p=5),
            29: ApCoeff.rational(3, p=5).scale_trunc(table.power(2, 3), 8),
            27: ApCoeff({0: (4, 0, 5), -2: (0, 0, 4)}, 5),
            12: ApCoeff.rational(Fraction(1, 5), p=5),
        })
        f.cap = 6
        assert len({i % 4 for i in f.data[g0(1, (3,))]}) == 4
        got, want = apply_Tplus(f), apply_Tplus_by_terms(f)
        assert same_below_cap(got, want)
        # the cap stops every row below the smallest index, so child 0,
        # which only gets the diagonal terms, is empty
        assert max(j for poly in got.data.values() for j in poly) < 12
        assert sorted(got.data) == [g0(2, (3, lam)) for lam in range(1, 5)]


@st.composite
def lowering_inputs(draw):
    """``raising_inputs`` with terms added at siblings of a drawn coset (the
    same parent, other top digits, zero among them), so that a parent
    gathers several cosets with indices that overlap."""
    f = draw(raising_inputs())
    p, table = f.p, teich_table(f.p, f.precision)
    base = draw(st.sampled_from(sorted(f.data) or [g0(0, ())]), label="base")
    digits, items = base.digits[:-1] if base.level else (), []
    for t in draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True)):
        for _ in range(draw(st.integers(1, 3))):
            num = draw(st.integers(-p * p, p * p).filter(bool))
            c = ApCoeff.rational(Fraction(num, p ** draw(st.integers(0, 2))),
                                 draw(st.integers(-2, 2)), p=p)
            if draw(st.booleans()):
                c = c.scale_trunc(table.power(draw(st.integers(1, p - 1)), 1), f.precision)
            items.append((g0(len(digits) + 1, digits + (t,)), draw(st.integers(0, f.r)), c))
    return exact_sum(f, items)


class TestGroupedLowering:
    @settings(max_examples=150, deadline=None)
    @given(lowering_inputs())
    def test_matches_the_per_term_sum(self, f):
        # siblings with zero and nonzero top digits, shared and distinct
        # indices, truncated and error-only terms, and caps that skip
        # indices: summing a parent's siblings by class stores the per-term
        # (n, k, err) below the cap, in the same key order, and keeps the cap
        assert same_below_cap(apply_Tminus(f), apply_Tminus_by_terms(f))

    def test_siblings_with_the_same_index(self):
        table = teich_table(5)
        f = IndFunction(5, 30)
        for t in range(5):
            f.add_term(g0(2, (1, t)), {
                30: ApCoeff.rational(Fraction(t + 1, 25), 2, p=5),
                29 - t: ApCoeff.rational(3, p=5).scale_trunc(table.power(2, t + 1), 8),
            })
        got, want = apply_Tminus(f), apply_Tminus_by_terms(f)
        assert list(got.data) == [g0(1, (1,))] and same_below_cap(got, want)


class TestInPlaceSum:
    @settings(max_examples=150, deadline=None)
    @given(lowering_inputs())
    def test_matches_the_sums_of_whole_functions(self, f):
        # T- f added into T+ f and -A f into T f in place store the terms,
        # key order and cap of the sums of whole functions, each cut at the cap
        assert same_below_cap(t_minus_ap(f), t_minus_ap_by_parts(f))

    # at g0(1, (0,)), index 6: T+ brings 5^6 from [Id, X^5 Y^6] (child 0
    # keeps the diagonal) and T- brings 5^5 * (-5) from the zero top digit
    # below, an exact zero; -A f brings the index back
    @pytest.mark.parametrize("top, low, precision, summed, final", [
        ({6: 1, 3: 1}, {6: -5}, 8, [3], [3, 6]),  # the index leaves, its coset stays
        ({6: 1}, {6: -5}, 8, None, [6]),  # the coset leaves and comes back last
        ({6: 1}, {6: -5, 2: 1}, 12, [2], [2, 6]),  # the coset empties and refills in one sum
    ])
    def test_cancelled_index_comes_back_at_the_end(self, top, low, precision, summed, final):
        p, r, node = 5, 11, g0(1, (0,))
        f = IndFunction(p, r, precision)
        f.add_term(IDENTITY, {i: ApCoeff.rational(c, p=p) for i, c in top.items()})
        f.add_term(g0(2, (0, 0)), {i: ApCoeff.rational(c, p=p) for i, c in low.items()})
        f.add_term(node, {6: ONE})
        raised = apply_Tplus(f)
        both = ind_sum(raised, apply_Tminus(f))
        assert list(raised.data[node]) == list(top) and list(both.data.get(node, [])) == (summed or [])
        got = t_minus_ap(f)
        assert list(got.data[node]) == final and (list(got.data)[-1] == node) == (summed is None)
        assert got.data[node][6].exact_terms() == {1: (Fraction(-1), math.inf)}
        assert same_below_cap(got, t_minus_ap_by_parts(f))


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
        unknown = ApCoeff({0: (0, 0, 3)}, 5)
        f = elementary(5, 11, g0(1, (2,)), {11: unknown, 4: unknown}, precision=8)
        out = apply_T(f)
        assert out.data
        assert audit_valuations(out, Fraction(5, 4)).margin == 3 - 1

    def test_cap_follows_the_arithmetic(self):
        f = elementary(5, 11, IDENTITY, {0: ONE}, precision=8)
        assert f.cap == 8
        assert f.scale(Fraction(1, 25)).cap == 6
        assert f.scale(10).cap == 9
        assert f.shift_ap(1).cap == 9 and f.shift_ap(-1).cap == 6
        # the sums of whole functions live on as the oracle composition
        assert ind_sum(f, f.scale(Fraction(1, 5))).cap == 7
        assert ind_difference(f, f.shift_ap(2)).cap == 8
        assert t_minus_ap(f).cap == 8

    def test_shift_stores_no_term_past_the_new_cap(self):
        # 5^9 A^-1 is below cap 8 (9 - 2 = 7), but times A^2 it is 5^9 A at
        # cap 10 (9 + 1 = 10, past it): the shift drops it as add_term would,
        # and the coset that it leaves empty; a term still below the cap stays
        f = IndFunction(5, 11, precision=8)
        f.add_term(IDENTITY, {0: ApCoeff({-1: (1, 9, INF)}, 5), 3: ONE})
        f.add_term(g0(1, (2,)), {0: ApCoeff({-1: (1, 9, INF)}, 5)})
        assert f.data[IDENTITY][0].terms == {-1: (1, 9, INF)}
        out = f.shift_ap(2)
        assert out.cap == 10 and list(out.data) == [IDENTITY]
        assert list(out.data[IDENTITY]) == [3] and out.data[IDENTITY][3].terms == {2: (1, 0, INF)}
        # the function that add_term builds from the shifted terms at cap 10
        want = IndFunction(5, 11, precision=10)
        want.add_term(IDENTITY, {0: ApCoeff({1: (1, 9, INF)}, 5), 3: ONE.shift(2)})
        want.add_term(g0(1, (2,)), {0: ApCoeff({1: (1, 9, INF)}, 5)})
        assert same_terms(out, want)

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
        assert reduce_mod_p(ok, Fraction(5, 4)).data[IDENTITY, 0][0] == 1

    def test_agreement_above_the_cap_refused(self):
        f = elementary(5, 11, IDENTITY, {0: ONE}, precision=8)
        assert functions_agree(f, f, Fraction(5, 4), min_val=8)
        with pytest.raises(PrecisionError):
            functions_agree(f, f, Fraction(5, 4), min_val=9)
        with pytest.raises(PrecisionError):
            functions_agree(f, f.scale(Fraction(1, 5)), Fraction(5, 4), min_val=8)


class TestResidueFromTheAudit:
    """The audit's walk collects the residue mod p as sparse entries;
    ``residue_terms`` raises a reduction's refusals once the report is made,
    and ``reduce_mod_p`` is the same residue as dense vectors."""

    def test_same_values_as_the_dense_reduction(self):
        c = ApCoeff.rational(Fraction(7), p=5) + ApCoeff.rational(Fraction(5), p=5)
        # 5^-3 A^2 has valuation 0 at slope 3/2: one power of the residue symbol
        f = elementary(5, 11, IDENTITY, {3: c, 4: ApCoeff.rational(Fraction(1, 5**3), 2, p=5)})
        sig = Fraction(3, 2)
        assert residue_terms(audit_valuations(f, sig)) == {(IDENTITY, 0): {3: 2}, (IDENTITY, 1): {4: 1}}
        red = reduce_mod_p(f, sig)
        assert red.data[IDENTITY, 0][3] == 2 and red.data[IDENTITY, 1][4] == 1

    def test_non_integral_function_keeps_its_report(self):
        f = elementary(5, 11, IDENTITY, {0: ApCoeff.rational(Fraction(1, 5), p=5), 1: ONE})
        rep = audit_valuations(f, Fraction(5, 4))
        assert not rep.integral and rep.residue == {(IDENTITY, 0): {1: 1}}
        with pytest.raises(ArithmeticError, match="non-integral"):
            residue_terms(rep)
        with pytest.raises(ArithmeticError, match="non-integral"):
            reduce_mod_p(f, Fraction(5, 4))

    def test_unit_part_without_a_power_of_the_symbol(self):
        # 5^-4 A^3 has valuation 0 at slope 4/3, where the symbol is constant
        f = elementary(5, 11, IDENTITY, {2: ApCoeff.rational(Fraction(1, 5**4), 3, p=5)})
        rep = audit_valuations(f, Fraction(4, 3))
        assert rep.integral and rep.residue is None
        for refused in (lambda: residue_terms(rep), lambda: reduce_mod_p(f, Fraction(4, 3))):
            with pytest.raises(ArithmeticError, match="not expressible"):
                refused()

    def test_precision_refusal_waits_for_the_residue(self):
        # 1 known mod 5^2: valuation 0 is certified, its residue is within the headroom
        f = elementary(5, 11, IDENTITY, {0: ApCoeff({0: (1, 0, 2)}, 5)})
        rep = audit_valuations(f, Fraction(5, 4))
        assert rep.integral and rep.margin == 1 < PRECISION_HEADROOM
        for refused in (lambda: residue_terms(rep), lambda: reduce_mod_p(f, Fraction(5, 4))):
            with pytest.raises(PrecisionError, match="beyond carried precision"):
                refused()

    def test_function_with_every_term_dropped(self):
        # 5^8 at cap 8: every term of T f and of A f is past the cap, which
        # the per-term oracles keep
        f = elementary(5, 11, IDENTITY, {0: ApCoeff.rational(5**8, p=5)}, precision=8)
        g = t_minus_ap(f)
        assert not g.data and t_minus_ap_uncut(f).data
        rep = audit_valuations(g, Fraction(5, 4))
        assert rep == ValuationReport(True, math.inf, [], Fraction(8 - 1), {})
        assert residue_terms(rep) == {}
        assert _residue_in_Q(QEnv(5, 11), {}) == ResidueFunction(5)

    def test_function_scaled_by_zero(self):
        # scale(0) leaves no term and cap INF, so the margin is INF as well
        f = elementary(5, 11, IDENTITY, {0: ApCoeff.rational(3, p=5)}).scale(0)
        assert not f.data and f.cap == INF
        rep = audit_valuations(f, Fraction(5, 4))
        assert rep == ValuationReport(True, INF, [], INF, {})
        assert residue_terms(rep) == {} and reduce_mod_p(f, Fraction(5, 4)) == ResidueFunction(5)
        g = t_minus_ap(f)
        assert not g.data and g.cap == INF

    def test_tie_refused_alike_by_the_audit_and_the_reduction(self):
        # 5^-1 and 5^-6 A^4 both have valuation -1 at slope 5/4
        c = ApCoeff.rational(Fraction(1, 5), p=5) + ApCoeff.rational(Fraction(1, 5**6), 4, p=5)
        f = elementary(5, 11, IDENTITY, {0: c})
        for refused in (lambda: audit_valuations(f, Fraction(5, 4)),
                        lambda: reduce_mod_p(f, Fraction(5, 4))):
            with pytest.raises(IndeterminateCancellation):
                refused()
        assert reductions_agree(f, Fraction(5, 4))


@st.composite
def integral_inputs(draw, sigma=None):
    """Exact coefficients at cosets of levels 0..2 with valuation >= 0 at the
    slope ``sigma`` (at every slope when None), so that (T - A)f is integral
    and its residue is read, and mostly nonempty: two in three are units n
    (k = d = 0), the others n p^k A^d with k, d >= 0, or at slope 3/2 n A^2/p^3,
    of valuation 0 there."""
    p = draw(st.sampled_from([3, 5, 7]))
    f, items = IndFunction(p, draw(st.integers(2 * p + 2, 40))), []
    kinds = ["unit", "unit", "any"] + (["A^2/p^3"] if sigma == Fraction(3, 2) else [])
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.integers(0, 2))
        coset = g0(m, tuple(draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))))
        num, kind = draw(st.integers(-p * p, p * p).filter(bool)), draw(st.sampled_from(kinds))
        if kind == "unit":
            c = ApCoeff.rational(num if num % p else num + 1, 0, p=p)
        elif kind == "any":
            c = ApCoeff.rational(num * p ** draw(st.integers(0, 3)), draw(st.integers(0, 2)), p=p)
        else:
            c = ApCoeff.rational(Fraction(num, p**3), 2, p=p)
        items.append((coset, draw(st.integers(0, f.r)), c))
    return exact_sum(f, items)


@st.composite
def straddling_inputs(draw):
    """``lowering_inputs`` or ``integral_inputs`` at a cap of 3..6, so that
    the terms of (T - A)f fall on both sides of it, with a slope near
    either end of (1, 2) or at 3/2."""
    sigma = draw(st.sampled_from(SLOPES))
    f = draw(st.one_of(lowering_inputs(), integral_inputs(sigma)))
    f.cap = draw(st.integers(1 + PRECISION_HEADROOM, 6))
    return f, sigma


class TestCutAgainstUncut:
    """(T - A)f with no term past the cap stored and (T - A)f from the
    per-term oracles, which keep such terms, must read the same: report,
    projected residue (also against the dense reduction) and refusals."""

    @settings(max_examples=100, deadline=None)
    @given(straddling_inputs())
    def test_same_audit_and_residue(self, inputs):
        f, sigma = inputs
        env = QEnv(f.p, f.r)
        uncut = t_minus_ap_uncut(f)
        want = audit_reading(uncut, sigma, env)
        assert audit_reading(t_minus_ap(f), sigma, env) == want
        if isinstance(want[1], ResidueFunction):
            assert project_dense(uncut, sigma, env) == want[1]

    def test_dropped_terms_do_not_show(self):
        f = IndFunction(5, 30, precision=4)
        for t in range(5):
            f.add_term(g0(1, (t,)), {30 - t: ApCoeff.rational(Fraction(t + 1, 5), p=5),
                                     12 + t: ApCoeff.rational(t + 2, -1, p=5)})
        count = lambda g: sum(len(c.terms) for poly in g.data.values() for c in poly.values())
        uncut, cut = t_minus_ap_uncut(f), t_minus_ap(f)
        assert count(cut) < count(uncut)
        env = QEnv(5, 30)
        got = audit_reading(cut, Fraction(5, 4), env)
        assert got == audit_reading(uncut, Fraction(5, 4), env)
        # a non-integral function keeps its report; its residue is refused
        assert not got[0].integral and got[0].residue and got[1] == "PrecisionError"


class TestReductionAgainstTheTermWalk:
    """``reduce_mod_p``, the audit's residue rule written densely, against
    ``reference.reduce_by_terms``, which reads each coefficient by
    ``FractionCoeff.residue``: the same residue, or the same refusal once
    the walk's is put in the audit's order."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_integral_inputs(self, data):
        # one function per slope, integral there
        for sigma in SLOPES:
            f = data.draw(integral_inputs(sigma), label=str(sigma))
            for g in (f, t_minus_ap(f)):
                assert reductions_agree(g, sigma), sigma

    @settings(max_examples=100, deadline=None)
    @given(straddling_inputs())
    def test_straddling_inputs(self, inputs):
        # low caps and non-integral functions: the refusals meet the mapping
        f, sigma = inputs
        assert reductions_agree(t_minus_ap(f), sigma)


def _min_terms(c: ApCoeff, sigma, p):
    """(bound, [degrees achieving it], exact) over the stored terms; exact
    when one degree attains the bound with a nonzero value known beyond its
    valuation."""
    best, who = math.inf, []
    terms = c.exact_terms()
    for d, (v, e) in terms.items():
        val = min(padic_val(v, p), e) + d * sigma
        if val < best:
            best, who = val, [d]
        elif val == best:
            who.append(d)
    v, e = terms[who[0]] if len(who) == 1 else (0, 0)
    return best, who, v != 0 and padic_val(v, p) < e


def _residue_by_fractions(f, sigma):
    """{(coset, e): {j: unit mod p}} over the terms of valuation 0, read on
    exact ``Fraction`` values, or None when one has no power e of the
    residue symbol (A^2/p^3, so d = 2e at slope 3/2 alone)."""
    residue = {}
    for coset, poly in f.data.items():
        for j, c in poly.items():
            for d, (x, _) in c.exact_terms().items():
                if not x or padic_val(x, f.p) + d * sigma != 0:
                    continue
                if d and (sigma != Fraction(3, 2) or d % 2):
                    return None
                unit = x / Fraction(f.p) ** padic_val(x, f.p)
                residue.setdefault((coset, d // 2), {})[j] = unit.numerator % f.p
    return residue


def _two_pass_audit(f, sigma):
    """The valuation audit as two passes, kept as the reference of the
    one-pass ``audit_valuations``: bounds in sorted order first, then every
    coefficient re-certified through ``certify_val_ge``; the margin is the
    separate walk ``precision_margin`` and the residue the separate walk
    ``_residue_by_fractions``."""
    _require_residue_cap(f)
    failures, min_val, margin = [], math.inf, precision_margin(f, sigma)
    residue = _residue_by_fractions(f, sigma)
    for coset in sorted(f.data):
        for j in sorted(f.data[coset]):
            bound, degs, exact = _min_terms(f.data[coset][j], sigma, f.p)
            if bound < 0:
                failures.append((coset, j, bound, tuple(degs), exact))
            if bound < min_val:
                min_val = bound
    if failures:
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
    for coset, poly in f.data.items():
        for j, c in poly.items():
            if not certify_val_ge(c, 0, sigma, f.p):
                return ValuationReport(False, min_val, [(coset, j, c.val_lb(sigma, f.p), ())],
                                       margin, residue)
    return ValuationReport(True, min_val, [], margin, residue)


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
    items = []
    for _ in range(draw(st.integers(1, 5))):
        terms = {}
        for _ in range(draw(st.integers(1, 2))):
            d = draw(st.sampled_from([-1, 0, 0, 1, 1, 2, 2]))
            num = draw(st.integers(-30, 30))
            den = 5 ** draw(st.sampled_from([0, 0, 0, 0, 0, 0, 1, 2]))
            err = draw(st.one_of(st.just(math.inf), st.integers(0, 6)))
            terms[d] = (Fraction(num, den), err)
        items.append((draw(st.sampled_from(AUDIT_COSETS)), draw(st.integers(0, 11)),
                      split_coeff(terms, 5)))
    sigma = draw(st.sampled_from([Fraction(5, 4), Fraction(4, 3), Fraction(3, 2)]))
    return exact_sum(IndFunction(5, 11, precision=8), items), sigma


class TestSinglePassAudit:
    SHORT = ApCoeff({0: (1, 1, 1)}, 5)  # 5 known mod 5: within the headroom of 0
    SIG = Fraction(3, 2)

    def _function(self, *coeffs):
        return exact_sum(IndFunction(5, 11, precision=8),
                         [(coset, j, c) for j, (coset, c) in enumerate(coeffs)])

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
        later = ApCoeff({1: (1, 1, 0)}, 5)  # another term short of headroom
        f = self._function((g0(1, (3,)), later), (IDENTITY, self.SHORT))
        new = _outcome(audit_valuations, f, self.SIG)
        assert new == _outcome(_two_pass_audit, f, self.SIG)
        assert new == ("PrecisionError", "bound 0 within headroom of precision 0 at degree 1")

    # 5^-1 A^-1 known only mod 5^1 (nothing, or 5): at slope 5/4 the bound
    # -1/4 rests on the error, and the true value may be 0
    LOOSE = [ApCoeff({-1: (0, 0, 1)}, 5), ApCoeff({-1: (1, 1, 1)}, 5)]

    @pytest.mark.parametrize("loose", LOOSE)
    def test_error_dominated_bound_is_refused(self, loose):
        f = elementary(5, 11, IDENTITY, {0: loose})
        new = _outcome(audit_valuations, f, Fraction(5, 4))
        assert new == _outcome(_two_pass_audit, f, Fraction(5, 4))
        assert new == ("PrecisionError", "bound -1/4 at degree -1 rests on a truncation error")

    @pytest.mark.parametrize("loose", LOOSE)
    def test_certified_failure_wins_over_error_dominated_bound(self, loose):
        exact = ApCoeff.rational(Fraction(1, 5), p=5)
        f = self._function((IDENTITY, loose), (g0(1, (0,)), exact))
        new = _outcome(audit_valuations, f, Fraction(5, 4))
        assert new == _outcome(_two_pass_audit, f, Fraction(5, 4))
        assert new[0] == "report" and not new[1].integral
        assert [e[:2] for e in new[1].failures] == [(g0(1, (0,)), 1)]

    @given(audit_inputs())
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_two_passes(self, inputs):
        f, sigma = inputs
        assert _outcome(audit_valuations, f, sigma) == _outcome(_two_pass_audit, f, sigma)
