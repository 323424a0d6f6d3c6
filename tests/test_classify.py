from collections import Counter
from fractions import Fraction

import pytest

from crysred.classify import (
    case_descriptor,
    classify_reduction,
    hecke_quotient_image,
    induced,
    llc_image,
    predict_dim_X,
    predict_Q_structure,
    predict_X_structure,
    reducible,
    surviving_factor,
)
from crysred.errors import DomainError
from crysred.report import structure_report
from crysred.symrep import JHLabel, build_X
from reference import same_rep


class TestCaseDescriptor:
    def test_examples(self):
        d = case_descriptor(5, 30)
        assert (d.a, d.b, d.n, d.u, d.sigma_digits, d.delta) == (2, 2, 1, 6, 1, 1)
        d = case_descriptor(5, 25)
        assert (d.a, d.b, d.n, d.u, d.sigma_digits, d.delta) == (1, 5, 2, 1, 0, 1)
        d = case_descriptor(7, 20)  # 19 = 2*7 + 5 in base 7, digit sum 7
        assert (d.a, d.b, d.n, d.u, d.sigma_digits, d.delta) == (2, 2, 0, 20, 7, 0)

    def test_b_identification(self):
        assert case_descriptor(5, 13).b == 5  # class 1 -> b = p
        assert case_descriptor(5, 11).b == 3


class TestDimFormula:
    def test_examples(self):
        assert predict_dim_X(case_descriptor(5, 11)) == 6
        assert predict_dim_X(case_descriptor(5, 25)) == 8
        assert predict_dim_X(case_descriptor(5, 30)) == 9

    def test_below_range_rejected(self):
        with pytest.raises(DomainError):
            predict_dim_X(case_descriptor(5, 10))

    def test_matches_brute_force_spot(self):
        for p, r in [(3, 7), (3, 22), (5, 19), (5, 45), (7, 52), (11, 40)]:
            assert predict_dim_X(case_descriptor(p, r)) == build_X(p, r).dim


class TestStructurePredictions:
    def test_X_examples(self):
        # class-1 degree with digit sum p-1: one layer, full 2p-dimensional module
        pred = predict_X_structure(case_descriptor(5, 21))
        assert pred.dimension == 10
        assert pred.factors == Counter({JHLabel(3, 1): 2, JHLabel(1, 0): 1})
        # higher class, large digit sum: dimension 2p+2 with four constituents
        pred = predict_X_structure(case_descriptor(5, 19))
        assert pred.dimension == 12
        assert pred.factors == Counter(
            {JHLabel(1, 3): 1, JHLabel(3, 2): 1, JHLabel(1, 1): 1, JHLabel(3, 0): 1}
        )
        # p | r with minimal digit sum: dimension a+p+2
        pred = predict_X_structure(case_descriptor(5, 30))
        assert pred.dimension == 9
        assert pred.factors == Counter(
            {JHLabel(4, 1): 1, JHLabel(0, 1): 1, JHLabel(2, 0): 1}
        )
        # pure p-power
        pred = predict_X_structure(case_descriptor(3, 9))
        assert pred.dimension == 6
        assert pred.factors == Counter({JHLabel(1, 0): 2, JHLabel(1, 1): 1})

    def test_Q_examples(self):
        pred = predict_Q_structure(case_descriptor(5, 11))
        assert pred.factors == Counter({JHLabel(3, 2): 1, JHLabel(1, 3): 1})
        pred = predict_Q_structure(case_descriptor(5, 23))
        assert pred.factors == Counter(
            {JHLabel(1, 1): 1, JHLabel(3, 2): 1, JHLabel(1, 3): 1}
        )
        pred = predict_Q_structure(case_descriptor(5, 22))
        assert pred.factors == Counter({JHLabel(2, 2): 1})
        pred = predict_Q_structure(case_descriptor(5, 21))
        assert pred.factors == Counter({JHLabel(1, 0): 1})
        pred = predict_Q_structure(case_descriptor(5, 45))
        assert pred.factors == Counter({JHLabel(3, 1): 1, JHLabel(1, 0): 1})
        assert JHLabel(1, 0) in pred.socle_excludes

    def test_structure_report_sweep(self):
        # a fuller sweep runs in the acceptance suite
        for p in (3, 5):
            for r in range(2 * p + 1, 6 * p):
                rec = structure_report(p, r)
                assert rec.passed, (p, r, rec.discrepancies)


class TestLLC:
    def test_supersingular_side(self):
        ent = llc_image(5, 3, 0)
        assert ent.galois.render() == "ind(w2^4)"
        assert ent.gl2 == ((3, "0", 0),)

    def test_principal_series_pair(self):
        ent = llc_image(5, 3, "i", 1)
        # w^(s+1+eta) = w^5 = w, paired with the inverse scalar at w^1
        assert ent.galois.render() == "unr(i)*w + unr(-i)*w"
        assert ent.gl2[1][0] == (5 - 3 - 3) % 4  # reduced second parameter

    def test_second_parameter_reduction(self):
        ent = llc_image(5, 3, "x")
        assert ent.gl2[1] == ((5 - 3 - 3) % 4, "1/x", 0)
        ent = llc_image(7, 5, "x")
        assert ent.gl2[1][0] == (7 - 3 - 5) % 6

    def test_injectivity(self):
        for p in (3, 5, 7, 11):
            seen = set()
            for s in range(p):
                for lam in (0, "x"):
                    key = llc_image(p, s, lam).render()
                    assert key not in seen
                    seen.add(key)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            llc_image(5, 5, 0)


class TestClassifier:
    def test_table_rows(self):
        rows = [
            # (p, k, slope, star, expected render)
            (7, 22, "3/2", "holds", "ind(w2^3)"),      # class 2, coprime
            (5, 32, "5/4", "unknown", "ind(w2^7)"),    # class 2, p | r
            (5, 28, "5/4", "unknown", "ind(w2^7)"),    # class 2, p | r-1
            (7, 48, "4/3", "unknown", "ind(w2^5)"),    # class 4, p | r-b
            (7, 26, "4/3", "unknown", "ind(w2^13)"),   # class 6, coprime
            (5, 21, "5/4", "unknown", "ind(w2^8)"),    # class 3, coprime
            (5, 21, "3/2", "holds", "ind(w2^8)"),
            (5, 25, "5/4", "unknown", "ind(w2^4)"),    # class 3, p | r-3
            (5, 25, "3/2", "holds", "ind(w2^4)"),
            (5, 47, "5/4", "unknown", "ind(w2^10)"),   # class p, p^2 coprime
            (5, 107, "5/4", "unknown", "unr(i)*w + unr(-i)*w"),  # class p, p^2 | r-p
            (3, 14, "4/3", "unknown", "ind(w2^5)"),    # p = 3, class 2, 3 | r
            (3, 17, "4/3", "unknown", "ind(w2^6)"),    # p = 3, class p, 9 coprime to r-3
            (3, 23, "4/3", "unknown", "unr(i)*w + unr(-i)*w"),  # p = 3, 9 | r-3
        ]
        for p, k, slope, star, want in rows:
            got = classify_reduction(p, k, Fraction(slope), star)
            assert got.render() == want, (p, k, slope, got.render())

    def test_undetermined_region(self):
        rep = classify_reduction(5, 25, Fraction(3, 2), "unknown")
        assert rep.kind == "undetermined" and len(rep.alternatives) == 4
        rep = classify_reduction(5, 21, Fraction(3, 2), "fails")
        assert rep.kind == "undetermined" and len(rep.alternatives) == 2
        rep = classify_reduction(3, 23, Fraction(3, 2), "unknown")
        assert rep.kind == "undetermined"
        # away from slope 3/2 the flag is irrelevant
        rep = classify_reduction(5, 25, Fraction(4, 3), "unknown")
        assert rep.kind == "induced"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            classify_reduction(5, 11, Fraction(3, 2))
        with pytest.raises(DomainError):
            classify_reduction(5, 30, Fraction(2, 1))
        with pytest.raises(DomainError):
            classify_reduction(4, 30, Fraction(3, 2))

    def test_consistency_with_surviving_factor(self):
        for p in (3, 5, 7):
            for r in range(2 * p + 1, 3 * p * p + 1):
                desc = case_descriptor(p, r)
                label, refinement = surviving_factor(desc)
                img = hecke_quotient_image(p, label, refinement)
                table = classify_reduction(p, r + 2, Fraction(5, 4))
                assert same_rep(img, table), (p, r, img.render(), table.render())

    def test_same_as_orbit(self):
        # conjugate exponents describe the same induction
        assert same_rep(induced(5, 3), induced(5, 15))
        assert not same_rep(induced(5, 3), induced(5, 4))
        assert same_rep(reducible(5, (("i", 1), ("-i", 1))), reducible(5, (("-i", 1), ("i", 1))))
