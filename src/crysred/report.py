"""Prediction-versus-computation records shared by the CLI and the test
harness, with JSON/CSV codecs that round-trip."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, field

from .classify import (
    case_descriptor,
    predict_dim_X,
    predict_Q_structure,
    predict_X_structure,
)
from .symrep import build_X, jh_decompose, quotient_Q

CSV_COLUMNS = [
    "p", "r", "k", "a", "b", "n", "u", "sigma_digits", "delta",
    "dim_predicted", "dim_computed", "q_factors_predicted", "q_factors_computed", "pass",
]


def factors_to_str(factors: Counter) -> str:
    """Canonical string form 's.t^mult' joined by '+', sorted."""
    bits = []
    for (s, t), m in sorted(factors.items()):
        bits.append(f"{s}.{t}" + (f"^{m}" if m > 1 else ""))
    return "+".join(bits) if bits else "-"


@dataclass
class ReportRecord:
    """One prediction-vs-brute-force comparison at (p, r)."""

    p: int
    r: int
    k: int
    a: int
    b: int
    n: int
    u: int
    sigma_digits: int
    delta: int
    dim_predicted: int = -1
    dim_computed: int = -1
    x_factors_predicted: str = "-"
    x_factors_computed: str = "-"
    q_factors_predicted: str = "-"
    q_factors_computed: str = "-"
    # dimensions of the intersections with the theta filtration:
    # (X_(r-1) n V*, X_(r-1) n V**, X_r n V*, X_r n V**)
    filtration_dims: tuple[int, int, int, int] | None = None
    passed: bool = True
    discrepancies: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ReportRecord":
        d = dict(d)
        if d.get("filtration_dims") is not None:
            d["filtration_dims"] = tuple(d["filtration_dims"])
        return cls(**d)

    def csv_row(self) -> list[str]:
        return [
            str(getattr(self, c)) if c != "pass" else str(self.passed)
            for c in CSV_COLUMNS
        ]


def _check_module(tag: str, pred, mod, discrepancies: list[str]) -> tuple[str, str]:
    """Compare a module's Jordan-Hoelder factors, dimension and socle with
    the prediction ``pred``; returns the predicted and computed factors as
    strings."""
    got, socle = jh_decompose(mod)
    want_str, got_str = factors_to_str(pred.factors), factors_to_str(got)
    if pred.factors != got:
        discrepancies.append(f"{tag}-factors: predicted {want_str}, got {got_str}")
    if pred.dimension != mod.dim:
        discrepancies.append(f"{tag}-dimension: predicted {pred.dimension}, computed {mod.dim}")
    for lab in pred.socle_contains:
        if socle[lab] == 0:
            discrepancies.append(f"{tag}: expected socle constituent {lab} missing")
    for lab in pred.socle_excludes:
        if socle[lab] > 0:
            discrepancies.append(f"{tag}: socle contains excluded constituent {lab}")
    return want_str, got_str


def structure_report(p: int, r: int, checks=("dim", "x", "q")) -> ReportRecord:
    """Compare the closed-form predictions with the brute-force engine."""
    t0 = time.perf_counter()
    desc = case_descriptor(p, r)
    rec = ReportRecord(
        p=p, r=r, k=desc.k, a=desc.a, b=desc.b, n=desc.n, u=desc.u,
        sigma_digits=desc.sigma_digits, delta=desc.delta,
    )
    X = build_X(p, r) if {"dim", "x"} & set(checks) else None  # "q" reads no X
    if "dim" in checks:
        rec.dim_predicted = predict_dim_X(desc)
        rec.dim_computed = X.dim
        if rec.dim_predicted != rec.dim_computed:
            rec.discrepancies.append(
                f"dim: predicted {rec.dim_predicted}, computed {rec.dim_computed}"
            )
    if "x" in checks:
        rec.x_factors_predicted, rec.x_factors_computed = _check_module(
            "x", predict_X_structure(desc), X.module, rec.discrepancies)
        rec.filtration_dims = X.filtration_dims
    if "q" in checks:
        # Q modulo the image of X that build_X formed and certified, if it did
        Q = quotient_Q(p, r) if X is None or X.quotient is None else X.quotient
        rec.q_factors_predicted, rec.q_factors_computed = _check_module(
            "q", predict_Q_structure(desc), Q, rec.discrepancies)
    rec.passed = not rec.discrepancies
    rec.seconds = round(time.perf_counter() - t0, 4)
    return rec
