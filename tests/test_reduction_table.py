"""The classifier, derived from the surviving factor of Q and the mod-p
correspondence, against the reduction table written out by congruence
cell."""

from fractions import Fraction

import pytest

from crysred.classify import _table_form, classify_reduction, hecke_quotient_image
from crysred.symrep import JHLabel
from reference import classify_by_table

SLOPES = tuple(Fraction(s) for s in ("5/4", "4/3", "3/2", "5/3", "7/4"))


def test_classifier_reproduces_the_table():
    calls = 0
    for p in (3, 5, 7, 11, 13):
        for k in range(2 * p + 2, 3 * p * p + 3):
            for slope in SLOPES:
                for hyp_star in ("holds", "fails", "unknown"):
                    got = classify_reduction(p, k, slope, hyp_star)
                    want = classify_by_table(p, k, slope, hyp_star)
                    assert (got.render(), got.notes) == (want.render(), want.notes), \
                        (p, k, slope, hyp_star)
                    calls += 1
    assert calls == 15690


def test_table_form_rejects_an_exponent_outside_the_table():
    # ind(w2^17) at p = 5: the conjugate exponent is 5*17 mod 24 = 13, and
    # neither lies in 3..10, so no cell of the table has this shape
    with pytest.raises(ArithmeticError):
        _table_form(hecke_quotient_image(5, JHLabel(4, 2)))


def test_table_form_picks_the_member_in_range():
    # ind(w2^1) at p = 5 is ind(w2^5), the table's b+1 at b = 4
    assert _table_form(hecke_quotient_image(5, JHLabel(0, 0))).render() == "ind(w2^5)"
    # b = p: the exponent 2p, not its smaller conjugate 2
    assert _table_form(hecke_quotient_image(5, JHLabel(1, 0))).render() == "ind(w2^10)"
