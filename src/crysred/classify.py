"""Closed-form predictions for the brute-force module computations, the
semisimple mod-p correspondence table, and the classifier for the
semisimplified reduction at fractional slope in (1, 2).

The prediction functions are pure case analysis on congruence data; the
test-suite checks them against the brute-force engine over full parameter
sweeps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .arith import digit_sum, padic_val, require_odd_prime
from .errors import DomainError
from .symrep import JHLabel, jh_label

#: the values of ``hyp_star``: whether the genericity hypothesis holds
HYP_STAR = ("holds", "fails", "unknown")


# ---------------------------------------------------------------------------
# congruence-class bookkeeping


@dataclass(frozen=True)
class CaseDescriptor:
    """All congruence data controlling the module structure at (p, r)."""

    p: int
    r: int
    k: int
    a: int  # class of r mod p-1 in 1..p-1
    b: int  # class of r mod p-1 in 2..p
    n: int  # p-adic valuation of r
    u: int  # r / p^n
    sigma_digits: int  # digit sum of u - 1
    delta: int  # 0 iff r = u
    p_div_r: bool
    p_div_r_minus_1: bool
    p_div_r_minus_b: bool
    p2_div_r_minus_b: bool


def case_descriptor(p: int, r: int) -> CaseDescriptor:
    require_odd_prime(p)
    if r < 1:
        raise DomainError("need r >= 1")
    a = r % (p - 1) or p - 1
    b = a if a != 1 else p
    n = padic_val(r, p)
    u = r // p**n
    return CaseDescriptor(
        p=p,
        r=r,
        k=r + 2,
        a=a,
        b=b,
        n=n,
        u=u,
        sigma_digits=digit_sum(u - 1, p),
        delta=0 if r == u else 1,
        p_div_r=r % p == 0,
        p_div_r_minus_1=(r - 1) % p == 0,
        p_div_r_minus_b=(r - b) % p == 0,
        p2_div_r_minus_b=(r - b) % (p * p) == 0,
    )


# ---------------------------------------------------------------------------
# structure predictions


@dataclass(frozen=True)
class StructurePrediction:
    """Predicted dimension and layer structure of a module.

    ``layers`` lists the irreducible constituents from submodule to quotient;
    ``socle_contains``/``socle_excludes`` hold the split/non-split content
    that is actually asserted for the case at hand.
    """

    dimension: int
    layers: tuple[tuple[JHLabel, ...], ...]
    socle_contains: frozenset = frozenset()
    socle_excludes: frozenset = frozenset()

    @property
    def factors(self) -> Counter:
        out: Counter = Counter()
        for layer in self.layers:
            out.update(layer)
        return out


def predict_dim_X(desc: CaseDescriptor) -> int:
    """Dimension of the submodule generated by the second-highest monomial,
    from the digit sum of u - 1 (r = p^n u)."""
    p = desc.p
    if desc.r < 2 * p + 1:
        raise DomainError("dimension formula needs r >= 2p+1")
    s = desc.sigma_digits
    if s <= p - 1:
        return 2 * s + 2 + desc.delta * (p + 1 - s)
    return 2 * p + 2


def _second_top_factors(p: int) -> tuple[JHLabel, ...]:
    # constituents of the degree-(2p-1) module
    return (jh_label(p - 2, 1, p), jh_label(1, 0, p), jh_label(p - 2, 1, p))


def predict_X_structure(desc: CaseDescriptor) -> StructurePrediction:
    """Layer structure of the second-monomial submodule per congruence case."""
    p, r, a = desc.p, desc.r, desc.a
    if a == 1:
        if r <= p:
            raise DomainError("need r > p for the second-monomial structure")
        if digit_sum(r - 1, p) == p - 1:
            return StructurePrediction(
                dimension=2 * p,
                layers=(_second_top_factors(p),),
                socle_contains=frozenset({jh_label(p - 2, 1, p)}),
                socle_excludes=frozenset({jh_label(1, 0, p)}),
            )
        bottom = (jh_label(1, p - 1, p),)
        if desc.u == 1:
            return StructurePrediction(
                dimension=p + 3,
                layers=(bottom, (jh_label(1, 0, p), jh_label(p - 2, 1, p))),
                socle_contains=frozenset(bottom),
            )
        return StructurePrediction(
            dimension=2 * p + 2,
            layers=(bottom, _second_top_factors(p)),
            socle_contains=frozenset(bottom),
        )
    if r <= 2 * p:
        raise DomainError("need r > 2p for the higher congruence classes")
    top = (jh_label(a - 2, 1, p), jh_label(a, 0, p))
    if desc.sigma_digits == a - 1:
        if not desc.p_div_r:
            return StructurePrediction(
                dimension=2 * a,
                layers=(top,),
                socle_contains=frozenset(top),
            )
        return StructurePrediction(
            dimension=a + p + 2,
            layers=((jh_label(p - a + 1, a - 1, p),), top),
        )
    return StructurePrediction(
        dimension=2 * p + 2,
        layers=((jh_label(p - a - 1, a, p), jh_label(p - a + 1, a - 1, p)), top),
    )


def predict_Q_structure(desc: CaseDescriptor) -> StructurePrediction:
    """Layer structure of the terminal quotient per congruence case."""
    p, r, b = desc.p, desc.r, desc.b
    if r <= 2 * p:
        raise DomainError("terminal quotient predictions need r > 2p")
    if b == p:
        if not desc.p_div_r:
            return StructurePrediction(dimension=2, layers=((jh_label(1, 0, p),),))
        return StructurePrediction(
            dimension=p + 1,
            layers=((jh_label(p - 2, 1, p),), (jh_label(1, 0, p),)),
            socle_contains=frozenset({jh_label(p - 2, 1, p)}),
            socle_excludes=frozenset({jh_label(1, 0, p)}),
        )
    if b == 2:
        J2 = jh_label(p - 3, 2, p)
        if not (desc.p_div_r or desc.p_div_r_minus_1):
            return StructurePrediction(dimension=p - 2, layers=((J2,),))
        if desc.p_div_r_minus_1:
            both = (jh_label(p - 1, 1, p), J2)
            return StructurePrediction(
                dimension=2 * p - 2,
                layers=(both,),
                socle_contains=frozenset(both),
            )
        return StructurePrediction(
            dimension=p - 1,
            layers=((jh_label(0, 1, p),), (J2,)),
            socle_contains=frozenset({jh_label(0, 1, p)}),
        )
    # 3 <= b <= p-1
    J1 = jh_label(p - b + 1, b - 1, p)
    J2 = jh_label(p - b - 1, b, p)
    if not desc.p_div_r_minus_b:
        return StructurePrediction(
            dimension=2 * p - 2 * b + 2,
            layers=((J1, J2),),
            socle_contains=frozenset({J1, J2}),
        )
    J0 = jh_label(b - 2, 1, p)
    return StructurePrediction(
        dimension=2 * p + 1 - b,
        layers=((J0,), (J1,), (J2,)),
        socle_contains=frozenset({J0}),
        socle_excludes=frozenset({J1}),
    )


# ---------------------------------------------------------------------------
# Galois-side descriptions and the semisimple correspondence


@dataclass(frozen=True)
class GaloisRep:
    """Semisimplified two-dimensional mod-p representation of the local
    Galois group, up to the usual presentation ambiguities."""

    p: int
    kind: str  # "induced" | "reducible" | "undetermined"
    induced_exp: int | None = None  # exponent of the level-2 fundamental character
    characters: tuple[tuple[str, int], ...] = ()  # (unramified scalar, omega exponent)
    alternatives: tuple["GaloisRep", ...] = ()
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        if self.kind == "induced":
            return f"ind(w2^{self.induced_exp})"
        if self.kind == "reducible":
            bits = []
            for scalar, e in self.characters:
                chunk = f"unr({scalar})"
                if e % (self.p - 1):
                    wexp = e % (self.p - 1)
                    chunk += "*w" if wexp == 1 else f"*w^{wexp}"
                bits.append(chunk)
            return " + ".join(bits)
        return "undetermined{" + "; ".join(alt.render() for alt in self.alternatives) + "}"


def induced(p: int, exp: int) -> GaloisRep:
    exp %= p * p - 1
    if exp % (p + 1) == 0:
        raise ValueError("exponent divisible by p+1 does not give an irreducible induction")
    return GaloisRep(p, "induced", induced_exp=exp)


def reducible(p: int, chars) -> GaloisRep:
    return GaloisRep(p, "reducible", characters=tuple(chars))


@dataclass(frozen=True)
class LLCEntry:
    """One matched pair of the semisimple correspondence: the Galois side and
    the Hecke-parameter side (list of (s, scalar, eta-exponent) labels)."""

    p: int
    galois: GaloisRep
    gl2: tuple[tuple[int, str, int], ...]

    def render(self) -> str:
        gl2 = " + ".join(f"pi({s},{lam},w^{e})" for s, lam, e in self.gl2)
        return f"{self.galois.render()}  <->  {gl2}"


def _inv_scalar(lam: str) -> str:
    table = {"i": "-i", "-i": "i", "1": "1", "-1": "-1", "x": "1/x", "1/x": "x"}
    if lam in table:
        return table[lam]
    return f"1/({lam})"


def llc_image(p: int, s: int, lam: str | int, eta_exp: int = 0) -> LLCEntry:
    """The semisimple correspondence at parameters (s, lambda, eta = w^eta_exp).

    ``lam`` is 0 for the supersingular case or a symbolic unit name
    ("x", "i", "-i", ...).  Both sides of the matched pair are returned.
    """
    require_odd_prime(p)
    if not 0 <= s <= p - 1:
        raise DomainError(f"s out of range: {s}")
    eta_exp %= p - 1
    if lam == 0 or lam == "0":
        galois = induced(p, s + 1 + (p + 1) * eta_exp)
        return LLCEntry(p, galois, ((s, "0", eta_exp),))
    lam = str(lam)
    s2 = (p - 3 - s) % (p - 1)
    galois = reducible(p, ((lam, s + 1 + eta_exp), (_inv_scalar(lam), eta_exp)))
    gl2 = ((s, lam, eta_exp), (s2, _inv_scalar(lam), (eta_exp + s + 1) % (p - 1)))
    return LLCEntry(p, galois, gl2)


def hecke_quotient_image(p: int, label: JHLabel, refinement: str = "T") -> GaloisRep:
    """Galois side attached to a quotient of the induction from one weight:
    the ``llc_image`` of the label.

    ``refinement`` names the Hecke polynomial whose cokernel the quotient
    factors through, as a witness audit reports it: "T" (lambda = 0, the
    supersingular case) or "T^2+1" (lambda = +-i, giving the pair of
    characters unr(i) w^t + unr(-i) w^t)."""
    s, t = label
    if refinement == "T^2+1" and s != p - 2:
        raise ValueError("the T^2+1 refinement only arises at s = p-2")
    return llc_image(p, s, "i" if refinement == "T^2+1" else 0, t).galois


def surviving_factor(desc: CaseDescriptor) -> tuple[JHLabel, str]:
    """The constituent of the terminal quotient that survives elimination,
    with the Hecke polynomial ("T" or "T^2+1") that pins down its quotient."""
    p, b = desc.p, desc.b
    if b == p:
        if desc.p2_div_r_minus_b:
            return jh_label(p - 2, 1, p), "T^2+1"
        return jh_label(1, 0, p), "T"
    if b == 2:
        if desc.p_div_r_minus_1:
            return jh_label(p - 1, 1, p), "T"
        if desc.p_div_r:
            return jh_label(0, 1, p), "T"
        return jh_label(p - 3, 2, p), "T"
    if desc.p_div_r_minus_b:
        return jh_label(p - b - 1, b, p), "T"
    return jh_label(p - b + 1, b - 1, p), "T"


# ---------------------------------------------------------------------------
# the classifier


def _table_form(rep: GaloisRep) -> GaloisRep:
    """Write an induced exponent as the member of its {e, p*e mod p^2-1}
    orbit in 3..2p, the theorem's b+1 or b+p.  At most one member lies
    there; a survivor with neither is not a table entry and raises."""
    if rep.kind != "induced":
        return rep
    p = rep.p
    e = rep.induced_exp
    members = [x for x in {e, e * p % (p * p - 1)} if 3 <= x <= 2 * p]
    if not members:
        raise ArithmeticError(f"{rep.render()} has no conjugate exponent in 3..{2 * p}")
    return replace(rep, induced_exp=members[0])


def _star_alternatives(desc: CaseDescriptor) -> tuple[GaloisRep, ...]:
    p, b = desc.p, desc.b
    if p >= 5:
        if desc.p_div_r_minus_b:
            return (
                induced(p, b + 1),
                induced(p, b + p),
                reducible(p, (("x", 2), ("1/x", 2))),
                reducible(p, (("x", 3), ("1/x", 1))),
            )
        return (
            induced(p, b + p),
            reducible(p, (("x", 2), ("1/x", 2))),
        )
    # p = 3: the b = 3 class coincides with b = p
    if desc.p2_div_r_minus_b:
        return (
            reducible(p, (("i", 1), ("-i", 1))),
            induced(p, 2),
        )
    return (
        induced(p, b + p),
        reducible(p, (("x", 0), ("1/x", 0))),
    )


def classify_reduction(
    p: int, k: int, slope: Fraction, hyp_star: str = "unknown"
) -> GaloisRep:
    """Shape of the semisimplified reduction for weight k and the given
    fractional slope in (1, 2).

    ``hyp_star`` reports whether the genericity condition on the eigenvalue
    (needed exactly when the class of r = k-2 is 3 and the slope is 3/2)
    holds; "fails"/"unknown" produce an explicit list of alternatives there.
    """
    require_odd_prime(p)
    slope = Fraction(slope)
    if not Fraction(1) < slope < Fraction(2):
        raise DomainError(f"slope {slope} outside the open interval (1, 2)")
    if hyp_star not in HYP_STAR:
        raise DomainError(f"bad hyp_star value: {hyp_star}")
    if k < 2 * p + 2:
        raise DomainError(
            f"k = {k} < 2p+2 = {2*p+2}: weights this small are covered by known results"
        )
    r = k - 2
    desc = case_descriptor(p, r)
    star_relevant = desc.b == 3 and slope == Fraction(3, 2)
    notes = []
    if hyp_star != "unknown" and not star_relevant:
        notes.append("hyp_star ignored: only relevant when b = 3 and slope = 3/2")
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
    rep = _table_form(hecke_quotient_image(p, *surviving_factor(desc)))
    return replace(rep, notes=tuple(notes))
