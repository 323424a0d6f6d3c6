import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crysred import arith, hecke, symrep, witness
from crysred.arith import inv_mod, padic_val
from crysred.classify import case_descriptor, predict_Q_structure, surviving_factor
from crysred.errors import DomainError, HypothesisError
from crysred.hecke import ResidueFunction, audit_valuations, residue_terms, t_minus_ap
from crysred.symrep import JHLabel
from crysred.witness import (
    SCENARIOS,
    TAGS,
    QEnv,
    WitnessCase,
    _high,
    _residue_in_Q,
    _residue_of,
    _validate,
    build_witness,
    verify_witness,
)
from reference import (
    FractionCoeff,
    apply_Tminus_by_terms,
    apply_Tplus_by_terms,
    audit_reading,
    corrected_family,
    dense_classes,
    exact_sum,
    family_holds,
    precision_margin,
    project_dense,
    reductions_agree,
    same_below_cap,
    t_minus_ap_by_parts,
    t_minus_ap_uncut,
    theta_classes,
)

# the slopes of the benchmark's witness pool
POOL_SLOPES = ("5/4", "4/3", "3/2", "5/3", "7/4")


def case(tag, p, r, sig, star="unknown", ubar=None):
    return WitnessCase(tag, p, r, Fraction(sig), star, ubar)


def admitted(c):
    try:
        _validate(c)
    except HypothesisError:
        return False
    return True


def first_admissible(tag, p):
    """The first (r, slope), r ascending, at which ``_validate`` admits the
    tag under the genericity hypothesis, or None below r = 3p^3."""
    return next((c for r in range(p + 1, 3 * p**3) for sig in POOL_SLOPES
                 if admitted(c := case(tag, p, r, sig, "holds"))), None)


class TestHypotheses:
    def test_wrong_class_rejected(self):
        with pytest.raises(HypothesisError):
            verify_witness(case("T8.2", 5, 24, "5/4"))  # p divides r - a
        with pytest.raises(HypothesisError):
            verify_witness(case("T8.6", 5, 19, "4/3"))  # p does not divide r-b
        with pytest.raises(HypothesisError):
            verify_witness(case("T8.8-ii", 5, 45, "4/3"))  # only p || r-p

    def test_star_needed_at_critical_slope(self):
        with pytest.raises(HypothesisError):
            verify_witness(case("T8.7-low", 5, 23, "3/2", "unknown"))
        with pytest.raises(HypothesisError):
            verify_witness(case("T9.1-low", 5, 19, "3/2", "fails"))
        # concrete residue equal to the critical value refused
        with pytest.raises(HypothesisError):
            verify_witness(case("T9.2", 3, 21, "3/2", ubar=1))

    def test_branch_slope_consistency(self):
        with pytest.raises(HypothesisError):
            verify_witness(case("T8.7-low", 5, 23, "7/4"))
        with pytest.raises(HypothesisError):
            verify_witness(case("T9.1-high", 5, 19, "5/4"))

    def test_branch_rule(self):
        # wherever its family's hypotheses hold, exactly one of -low/-high
        # is admitted, the branch that _high names: above slope 3/2 for
        # T8.7, where 2 sigma > v_p(binom(r-1, 2)) + 3 for T9.1
        cells = 0
        for fam in ("T8.7", "T9.1"):
            for p in (3, 5, 7):
                for r in range(2 * p + 1, 3 * p * p + 1):
                    holds = SCENARIOS[fam].admits(p, r, case_descriptor(p, r))
                    v2 = padic_val(math.comb(r - 1, 2), p)
                    for sig in POOL_SLOPES:
                        tags = [t for t in (f"{fam}-low", f"{fam}-high")
                                if admitted(case(t, p, r, sig, "holds"))]
                        if not holds:
                            assert tags == [], (fam, p, r, sig)
                            continue
                        cells += 1
                        high = (Fraction(sig) > Fraction(3, 2) if fam == "T8.7"
                                else 2 * Fraction(sig) > v2 + 3)
                        assert tags == [f"{fam}-{'high' if high else 'low'}"], (p, r, sig)
                        assert _high(case(tags[0], p, r, sig, "holds")) == high
        assert cells > 100

    def test_slope_window(self):
        with pytest.raises(DomainError):
            verify_witness(case("T8.2", 5, 19, "1/2"))

    def test_bad_hyp_star_is_a_domain_error(self):
        # as in classify_reduction, on and off the slope where it is read
        for sig in ("5/4", "3/2"):
            with pytest.raises(DomainError):
                verify_witness(case("T8.7-low", 5, 23, sig, "Holds"))


class TestBuilders:
    def test_integrality_of_t_minus_ap(self):
        for c in [
            case("T8.2", 5, 19, "5/4"),
            case("T8.4", 3, 12, "4/3"),
            case("T8.8-i", 5, 45, "4/3"),
            case("T9.2", 3, 21, "4/3"),
        ]:
            g = t_minus_ap(build_witness(c))
            assert audit_valuations(g, c.sigma).integral

    def test_deterministic(self):
        c = case("T8.6", 5, 24, "4/3")
        f1, f2 = build_witness(c), build_witness(c)
        assert sorted(f1.data) == sorted(f2.data)
        for coset in f1.data:
            assert set(f1.data[coset]) == set(f2.data[coset])
            for j in f1.data[coset]:
                assert f1.data[coset][j].terms == f2.data[coset][j].terms

    def test_f0_branch_at_top_class(self):
        # the identity-supported piece appears exactly for a = p-1
        assert any(c.level == 0 for c in build_witness(case("T8.2", 5, 28, "5/4")).data)
        assert all(c.level > 0 for c in build_witness(case("T8.2", 5, 19, "5/4")).data)


class TestVerdicts:
    def test_T82_image_constant(self):
        rep = verify_witness(case("T8.2", 5, 19, "5/4"))
        assert rep.ok
        assert rep.image_factor == JHLabel(1, 3)
        # constant (r-a)/a = 16/3 = 2 mod 5 (minus the class-sum value)
        assert rep.constant == str(16 * inv_mod(3, 5) % 5) == "2"

    def test_T84_both_divisibility_branches(self):
        assert verify_witness(case("T8.4", 5, 30, "5/4")).ok  # p | r
        assert verify_witness(case("T8.4", 5, 26, "5/4")).ok  # p | r-1
        assert verify_witness(case("T8.4", 3, 12, "4/3")).ok  # p = 3 subtlety

    def test_T86(self):
        rep = verify_witness(case("T8.6", 5, 24, "4/3"))
        assert rep.ok and rep.image_factor == JHLabel(2, 3)
        assert rep.constant == str(-4 % 5)

    def test_T87_branches(self):
        assert verify_witness(case("T8.7-low", 5, 23, "5/4")).ok
        rep = verify_witness(case("T8.7-low", 5, 23, "3/2", "holds"))
        assert rep.ok and "ub" in rep.constant
        assert verify_witness(case("T8.7-high", 5, 23, "7/4")).ok

    def test_T88_branches(self):
        rep = verify_witness(case("T8.8-i", 5, 45, "4/3"))
        assert rep.ok and rep.constant == str((45 - 5) // 5 % 5)
        assert verify_witness(case("T8.8-i", 3, 15, "4/3")).ok
        assert verify_witness(case("T8.8-ii", 3, 21, "4/3")).ok
        rep = verify_witness(case("T8.8-ii", 3, 21, "3/2", "holds"))
        assert rep.ok and "ub" in rep.constant

    def test_T91_branches_and_factorization(self):
        rep = verify_witness(case("T9.1-low", 5, 19, "5/4"))
        assert rep.ok and rep.factorization == "T"
        rep = verify_witness(case("T9.1-low", 5, 19, "3/2", "holds"))
        assert rep.ok
        # the critical residue is binom(18,2)*17 = 1 mod 5
        assert rep.constant in ("ub^-1 + 4", "4 + ub^-1")
        assert verify_witness(case("T9.1-high", 5, 19, "7/4")).ok
        assert verify_witness(case("T9.1-low", 3, 13, "4/3")).ok

    def test_T92_factorization(self):
        rep = verify_witness(case("T9.2", 3, 21, "4/3"))
        assert rep.ok and rep.factorization == "T^2+1"
        assert rep.image_factor == JHLabel(1, 1)
        rep = verify_witness(case("T9.2", 3, 21, "3/2", ubar=2))
        assert rep.ok

    def test_eliminated_factor_complements_survivor(self):
        # the factor hit by each elimination image must differ from the
        # survivor the classifier table assigns, and both must be
        # constituents of the predicted terminal quotient; the separation
        # scenarios refine the Hecke action on the survivor itself.  The
        # cases: eight picked by hand, and for each tag and prime the first
        # one that _validate admits
        first = [c for tag in TAGS for p in (3, 5, 7) if (c := first_admissible(tag, p))]
        # T8.2, T8.6 and T8.7 need p >= 5
        assert len(first) == 26
        picked = [case(*c) for c in [
            ("T8.2", 5, 19, "5/4"), ("T8.4", 5, 30, "5/4"), ("T8.6", 5, 24, "4/3"),
            ("T8.7-low", 5, 23, "5/4"), ("T8.8-i", 5, 45, "4/3"), ("T8.8-ii", 5, 105, "4/3"),
            ("T9.1-low", 5, 19, "5/4"), ("T9.2", 5, 105, "4/3"),
        ]]
        for c in picked + first:
            rep = verify_witness(c)
            desc = case_descriptor(c.p, c.r)
            survivor, refinement = surviving_factor(desc)
            factors = predict_Q_structure(desc).factors
            assert rep.ok and rep.image_factor in factors and survivor in factors, c
            if c.tag.startswith("T9"):
                assert rep.image_factor == survivor, c
                assert refinement == rep.factorization, c
            else:
                assert rep.image_factor != survivor and rep.factorization is None, c

    def test_low_precision_aborts(self):
        # the audit divides by p^3, so four carried digits leave too little
        # headroom for a residue and the verifier must refuse, not guess
        from crysred.errors import PrecisionError

        with pytest.raises(PrecisionError):
            verify_witness(
                WitnessCase("T8.7-high", 5, 23, Fraction(7, 4), precision=4)
            )
        assert verify_witness(
            WitnessCase("T8.7-high", 5, 23, Fraction(7, 4), precision=5)
        ).ok

    def test_precision_margin_predicts_the_abort(self):
        # the audit aborts exactly when the margin drops below the headroom;
        # the margin is reported beside the verdict and does not enter it
        from crysred.arith import PRECISION_HEADROOM
        from crysred.errors import PrecisionError

        at = {n: verify_witness(WitnessCase("T8.7-high", 5, 23, Fraction(7, 4), precision=n))
              for n in (5, 6)}
        assert at[5].ok and at[5].precision_margin == PRECISION_HEADROOM
        assert at[6].precision_margin == PRECISION_HEADROOM + 1
        assert (at[5].constant, at[5].min_valuation) == (at[6].constant, at[6].min_valuation)
        with pytest.raises(PrecisionError):
            verify_witness(WitnessCase("T8.7-high", 5, 23, Fraction(7, 4), precision=4))
        rep = verify_witness(case("T8.2", 5, 19, "5/4"))
        assert rep.ok and rep.precision_margin >= PRECISION_HEADROOM

    def test_non_integral_witness_fails(self, monkeypatch):
        # a witness scaled by 1/p^2 leaves (T - A)f non-integral; the audit
        # reports that as the one failed check, with no image identified
        from crysred import witness

        real = witness.build_witness
        monkeypatch.setattr(witness, "build_witness",
                            lambda c: real(c).scale(Fraction(1, c.p**2)))
        rep = verify_witness(case("T8.2", 5, 19, "5/4"))
        assert (rep.integral, rep.ok) == (False, False)
        assert rep.checks == [("integral", False)]
        assert (rep.min_valuation, rep.precision_margin) == (-2, Fraction(11, 4))
        assert (rep.image_factor, rep.constant, rep.constant_nonzero) == (None, "-", False)

    def test_minimal_degree_boundary(self):
        # at r = 2p+1 two monomial indices of the depth-2 polynomial coincide
        # and their coefficients must accumulate
        for p, r in [(3, 7), (5, 11), (7, 15)]:
            rep = verify_witness(case("T9.1-low", p, r, "5/4"))
            assert rep.ok and rep.constant == str(p - 1)
            # the genericity condition holds automatically here, so the
            # slope-3/2 audit needs no flag value beyond "holds"
            assert verify_witness(case("T9.1-low", p, r, "3/2", "holds")).ok
"""Heavier instances (r around one hundred) run in the acceptance suite."""


LARGE_AUDITS = [
    ("T9.2", 11, 1221, "3/2", "holds", 4),
    ("T9.2", 13, 2041, "3/2", "holds", 4),
    ("T9.2", 7, 301, "5/4", "unknown", Fraction(9, 2)),
    ("T8.2", 13, 400, "5/4", "unknown", Fraction(19, 4)),
    ("T9.2", 17, 4641, "3/2", "holds", 4),
]


def _pool_witness_items():
    """The arguments of every witness item of perfbench/pool.json."""
    pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pool.json").read_text())
    return [e["args"] for stratum in pool["witness"] for slot in stratum["slots"] for e in slot]


class TestLargeAudits:
    """Audits at large r: the smallest admissible T9.2 degrees at p = 11, 13
    and 17, and the two T9.2/T8.2 audits that once took 40 s each.  The
    margins are the ones the Fraction-based coefficients (p = 11, 13 and
    the 40 s audits) and the per-term lowering operator (p = 17) computed."""

    @pytest.mark.parametrize("tag, p, r, sig, star, margin", LARGE_AUDITS)
    def test_ok_with_margin(self, tag, p, r, sig, star, margin):
        rep = verify_witness(case(tag, p, r, sig, star))
        assert rep.ok and rep.precision_margin == margin


class TestGroupedLoweringOnAudits:
    """The raising part summed into class slots and the lowering part summed
    by parent and residue class store no term past the cap, and below it
    the per-term (n, k, err), key order and cap of ``apply_Tplus_by_terms``
    and ``apply_Tminus_by_terms`` (``same_below_cap``) on the functions the
    audits apply them to."""

    @pytest.mark.parametrize("tag, p, r, sig, star", [row[:5] for row in LARGE_AUDITS])
    def test_large_witnesses(self, tag, p, r, sig, star):
        f = build_witness(case(tag, p, r, sig, star))
        assert same_below_cap(hecke.apply_Tminus(f), apply_Tminus_by_terms(f))
        assert same_below_cap(hecke.apply_Tplus(f), apply_Tplus_by_terms(f))

    def test_every_call_of_the_benchmark_pool(self, monkeypatch):
        # every witness item of perfbench/pool.json, each T+ and T- call of
        # its audit (the witness and the lifts that modp_T reduces) checked
        items = _pool_witness_items()
        calls = {"apply_Tplus": [], "apply_Tminus": []}

        def checked(name, oracle):
            grouped = getattr(hecke, name)

            def run(f, **shared):  # apply_T shares its binomial rows
                got = grouped(f, **shared)
                calls[name].append(same_below_cap(got, oracle(f)))
                return got
            return run

        monkeypatch.setattr(hecke, "apply_Tplus", checked("apply_Tplus", apply_Tplus_by_terms))
        monkeypatch.setattr(hecke, "apply_Tminus", checked("apply_Tminus", apply_Tminus_by_terms))
        for args in items:
            assert verify_witness(case(*args)).ok, args
        assert items and all(len(got) >= len(items) and all(got) for got in calls.values())


class TestReductionOnModpLifts:
    """Every lift that ``modp_T`` reduces in the T9.1 and T9.2 items of the
    benchmark pool reads by the audit's residue rule as by the per-term walk
    ``reference.reduce_by_terms`` (``reductions_agree``), and the constants
    that ``_residue_of`` reads by that rule are ``FractionCoeff.residue``'s."""

    def test_every_lift_of_the_benchmark_pool(self, monkeypatch):
        items = [args for args in _pool_witness_items() if args[0].startswith(("T9.1", "T9.2"))]
        reduce, calls = hecke.reduce_mod_p, []

        def checked(f, sigma):
            calls.append(reductions_agree(f, sigma))
            return reduce(f, sigma)

        monkeypatch.setattr(hecke, "reduce_mod_p", checked)
        for args in items:
            assert verify_witness(case(*args)).ok, args
        assert items and len(calls) >= len(items) and all(calls)

    @pytest.mark.parametrize("sig", ["5/4", "3/2", "7/4"])
    def test_witness_constants(self, sig):
        # the low branches read p^3 A^-2 multiples, the high ones p^-3 A^2;
        # each read on the other side of 3/2 is refused as non-integral
        def outcome(read):
            try:
                return read()
            except ArithmeticError as exc:
                return str(exc)

        for p in (3, 5, 7):
            c = case("T8.7-low", p, 4 * p + 1, sig)
            for num, d in ((Fraction(3 * p**3), -2), (Fraction(2 * p**3), -2), (Fraction(1, p**3), 2)):
                want = outcome(lambda: FractionCoeff(p, {d: (num, math.inf)}).residue(c.sigma))
                assert outcome(lambda: _residue_of(c, num, d)) == want, (p, num, d)


class TestInPlaceSumOnAudits:
    """(T - A)f summed in place stores the terms, key order and cap of the
    sums of whole functions, each cut at the cap,
    ``reference.t_minus_ap_by_parts``."""

    def test_pool_and_large_witnesses(self):
        items = _pool_witness_items()
        assert items
        for args in items + [row[:5] for row in LARGE_AUDITS]:
            f = build_witness(case(*args))
            assert same_below_cap(t_minus_ap(f), t_minus_ap_by_parts(f)), args


class TestMarginFromTheAudit:
    """The precision margin that the audit reads in its own walk equals the
    separate walk ``reference.precision_margin`` on (T - A)f."""

    def test_pool_and_large_witnesses(self):
        items = _pool_witness_items()
        assert items
        for args in items + [row[:5] for row in LARGE_AUDITS]:
            c = case(*args)
            g = t_minus_ap(build_witness(c))
            assert audit_valuations(g, c.sigma).margin == precision_margin(g, c.sigma), args


class TestCutAgainstUncut:
    """(T - A)f with no term past the cap stored reads as (T - A)f from the
    per-term oracles, which keep those terms: the same report, the same
    residue projected into Q, equal to the dense reduction's, on every
    witness of the benchmark pool and on the large audits."""

    def test_pool_and_large_witnesses(self):
        items = _pool_witness_items()
        assert items
        for args in items + [row[:5] for row in LARGE_AUDITS]:
            c = case(*args)
            f, env = build_witness(c), QEnv(c.p, c.r)
            uncut = t_minus_ap_uncut(f)
            want = audit_reading(uncut, c.sigma, env)
            assert isinstance(want[1], ResidueFunction), args
            assert audit_reading(t_minus_ap(f), c.sigma, env) == want, args
            assert project_dense(uncut, c.sigma, env) == want[1], args

    def test_no_term_left_is_an_empty_residue(self):
        audit = audit_valuations(hecke.IndFunction(5, 19), Fraction(5, 4))
        assert residue_terms(audit) == {} and audit.min_valuation == math.inf
        assert _residue_in_Q(QEnv(5, 19), residue_terms(audit)) == ResidueFunction(5)


class TestClassesByIndex:
    """``QEnv.cls`` and ``QEnv.cls_theta`` read each monomial's class in Q by
    its index, and Q's w matrix and image of V* are read by index too; the
    dense lookup through whole (r+1)-long rows (``reference.dense_classes``,
    and ``reference.theta_classes`` on unit rows) must give the same."""

    @staticmethod
    def _check(p, r, monkeypatch):
        # the multiples and monomials the checks name, and a seeded sample
        env, n, rng, d = QEnv(p, r), r + 1, random.Random(r), case_descriptor(p, r)
        ms = sorted({0, 1, p - 2, d.b - 2, r - p - 1, *rng.sample(range(r - p), min(r - p, 12))})
        js = sorted({0, 1, 2, d.a, r - 1, r, *rng.sample(range(n), min(n, 12))})
        theta = np.zeros((len(ms), n), dtype=np.int64)
        theta[np.arange(len(ms)), np.add(ms, 1)] = 1
        theta[np.arange(len(ms)), np.add(ms, p)] = p - 1
        assert np.array_equal([env.cls_theta(m) for m in ms], dense_classes(env.module, theta))
        units = np.equal.outer(js, np.arange(n)).astype(np.int64)
        assert np.array_equal([env.cls({j: 1}) for j in js], dense_classes(env.module, units))
        with pytest.raises(ValueError):
            env.cls_theta(r - p)
        with monkeypatch.context() as m:
            m.setattr(symrep, "theta_index_classes", lambda idx, p, r, k: theta_classes(
                np.equal.outer(idx, np.arange(r + 1)).astype(np.int64), p, k))
            dense = symrep.quotient_Q(p, r)
        assert all(np.array_equal(env.module.mats[g], dense.mats[g]) for g in symrep.GEN_NAMES)
        assert env.star == dense.star_image()
        return env

    def test_tier1_grid(self, monkeypatch):
        for p in (3, 5, 7, 11):
            for r in range(2 * p + 1, 3 * p * p + 1):
                env = self._check(p, r, monkeypatch)
                # every monomial in one batch, by the index rule that cls reads
                every = np.arange(r + 1)
                got = env.module.project_entries(every, every, np.ones(r + 1, np.int64), r + 1)
                assert np.array_equal(got, dense_classes(env.module, np.eye(r + 1))), (p, r)

    @pytest.mark.parametrize("p, r", [(7, 10_003), (17, 4_641), (101, 5_000)])
    def test_large_degrees(self, p, r, monkeypatch):
        self._check(p, r, monkeypatch)


class TestBuildersAtTheCap:
    """The builders sum through ``IndFunction.add_term``, which stores no
    term past the cap; built with every term kept (``reference.exact_sum``),
    each witness of the benchmark pool and of the large audits has the same
    form at the cap, (T - A)f too, and its audit reads the same."""

    def test_pool_and_large_witnesses(self, monkeypatch):
        items = _pool_witness_items()
        assert items
        built = {tuple(args): build_witness(case(*args))
                 for args in items + [row[:5] for row in LARGE_AUDITS]}

        def add_exact(f, coset, terms):
            f.data = exact_sum(f, ((coset, j, c) for j, c in terms.items())).data

        monkeypatch.setattr(hecke.IndFunction, "add_term", add_exact)
        for args, f in built.items():
            c = case(*args)
            exact = build_witness(c)
            g, g_exact, env = t_minus_ap(f), t_minus_ap(exact), QEnv(c.p, c.r)
            assert same_below_cap(f, exact) and same_below_cap(g, g_exact), args
            assert audit_reading(g, c.sigma, env) == audit_reading(g_exact, c.sigma, env), args


def _plus_kernel(fam, r, p, level, unit, zero, target, rng):
    """``fam`` plus p^L times random integers on its class, corrected at the
    unit and zero indices by the constructors' own rule: another family with
    every advertised congruence."""
    assert {unit, zero} <= fam.keys()
    base = [0] * (r + 1)
    for j in fam:
        base[j] = p**level * rng.randrange(-p**3, p**3)
    kernel = corrected_family("kernel", base, sorted(fam), p, level, unit, zero)
    out = {j: x + kernel[j] for j, x in fam.items()}
    assert out != fam and family_holds(out, r, p, level, target)
    return out


class TestFamilyInvariance:
    """The audit's verdict cannot depend on which valid integer family the
    witness uses: a random valid family in place of each ``choose_*`` output
    must give the same report fields."""

    #: constructor -> (level, unit index, zero index, target) from its arguments;
    #: alpha2 has no unit index of its own, so its class member 2p-1 plays that part
    FAMILIES = {
        "choose_alphas": lambda r, a, p: (1, a, a * p, math.comb(r, 2) if a == 2 else 0),
        "choose_betas": lambda r, b, p: (1, b - 1, (b - 1) * p, 0),
        "choose_gammas_modp2": lambda r, p: (2, p - 1, (p - 1) * p, -1 if p == 3 else 0),
        "choose_alphas_modp2": lambda r, p: (2, 2 * p - 1, p, 1 if p == 3 else 0),
    }

    @staticmethod
    def fields(rep):
        return (rep.ok, rep.constant, rep.image_factor, rep.factorization, rep.min_valuation)

    @pytest.mark.parametrize("tag, p, r, sig, star", [
        ("T8.2", 5, 19, "5/4", "unknown"), ("T8.2", 7, 41, "3/2", "holds"),
        ("T8.4", 3, 12, "4/3", "unknown"), ("T8.4", 5, 26, "3/2", "holds"),
        ("T8.6", 5, 24, "4/3", "unknown"), ("T8.6", 7, 47, "3/2", "holds"),
        ("T8.7-low", 7, 45, "4/3", "unknown"), ("T8.7-high", 5, 23, "7/4", "unknown"),
        ("T8.8-i", 3, 15, "5/4", "unknown"), ("T8.8-i", 5, 45, "3/2", "holds"),
        ("T8.8-ii", 3, 21, "5/3", "unknown"), ("T8.8-ii", 5, 105, "3/2", "holds"),
        ("T9.1-low", 3, 11, "4/3", "unknown"), ("T9.1-high", 5, 15, "7/4", "unknown"),
        ("T9.2", 3, 21, "3/2", "holds"), ("T9.2", 5, 105, "5/4", "unknown"),
    ])
    def test_report_ignores_the_family(self, monkeypatch, tag, p, r, sig, star):
        c = case(tag, p, r, sig, star)
        want = self.fields(verify_witness(c))
        for seed in range(2):
            rng = random.Random(f"{tag}/{p}/{r}/{seed}")
            calls = []

            def perturbed(*args, name):
                calls.append(name)
                fam = getattr(arith, name)(*args)
                return _plus_kernel(fam, args[0], args[-1], *self.FAMILIES[name](*args), rng)

            for name in self.FAMILIES:
                monkeypatch.setattr(witness, name,
                                    lambda *args, name=name: perturbed(*args, name=name))
            assert self.fields(verify_witness(c)) == want, seed
            assert calls, "no family was replaced"
