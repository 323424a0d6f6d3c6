"""Command-line front end.

Subcommands: ``classify`` (one-shot reduction shape), ``structure`` (full
brute-force report at one weight), ``sweep`` (batch prediction-vs-computation
table), ``witness`` (one witness-function audit), ``verify-lemmas``
(congruence-lemma sweep).  Formats: text, json, csv.  Exit codes: 0 success,
1 mismatch found, 2 domain error, 3 dimension bound exceeded, 4 hypotheses
not satisfied, 5 indeterminate cancellation, 6 internal error (any other
exception, such as a failed engine self-check; its traceback goes to
stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from multiprocessing import Pool

from . import arith
from .arith import DEFAULT_PRECISION
from .classify import classify_reduction
from .errors import (
    DimensionBoundError,
    DomainError,
    HypothesisError,
    IndeterminateCancellation,
    PrecisionError,
)
from .report import CSV_COLUMNS, ReportRecord, structure_report
from .witness import TAGS, WitnessCase, verify_witness

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DOMAIN = 2
EXIT_DIMENSION = 3
EXIT_HYPOTHESIS = 4
EXIT_INDETERMINATE = 5
EXIT_INTERNAL = 6

# Library exceptions that are verdicts on the input, with their exit codes.
# Indeterminate cancellation and a precision abort both mean that the audit
# cannot decide, and refuses to guess.
EXIT_CODES = {
    DomainError: EXIT_DOMAIN,
    DimensionBoundError: EXIT_DIMENSION,
    HypothesisError: EXIT_HYPOTHESIS,
    IndeterminateCancellation: EXIT_INDETERMINATE,
    PrecisionError: EXIT_INDETERMINATE,
}

PRECISION_ENV = "CRYSRED_PRECISION"


def parse_slope(text: str) -> Fraction:
    """Exact fraction strings only; floating point is rejected."""
    if any(ch in text for ch in ".eE") and not text.lstrip("+-").isdigit():
        raise DomainError(f"slope must be an exact fraction like 3/2, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse slope {text!r}: {exc}") from None


def default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return DEFAULT_PRECISION
    try:
        n = int(raw)
    except ValueError:
        raise DomainError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None
    if n < 4:
        raise DomainError(f"{PRECISION_ENV} must be at least 4")
    return n


def _emit(payload, fmt: str, text_fn) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        text_fn()


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    if (args.k is None) == (args.r is None):
        raise DomainError("supply exactly one of --k and --r")
    k = args.k if args.k is not None else args.r + 2
    rep = classify_reduction(args.p, k, parse_slope(args.slope), args.hyp_star)
    payload = {
        "p": args.p,
        "k": k,
        "r": k - 2,
        "slope": args.slope,
        "hyp_star": args.hyp_star,
        "kind": rep.kind,
        "result": rep.render(),
        "alternatives": [alt.render() for alt in rep.alternatives],
        "notes": list(rep.notes),
    }
    _emit(payload, args.format, lambda: print(rep.render()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# structure


def _print_record(rec: ReportRecord) -> None:
    print(f"p={rec.p} r={rec.r} (k={rec.k}, class b={rec.b}, digit sum {rec.sigma_digits})")
    print(f"  dim X_(r-1): predicted {rec.dim_predicted}, computed {rec.dim_computed}")
    print(f"  X factors:   predicted {rec.x_factors_predicted}, computed {rec.x_factors_computed}")
    if rec.filtration_dims is not None:
        a, b, c, d = rec.filtration_dims
        print(f"  theta intersections: X_(r-1): {a}/{b}, X_r: {c}/{d} (single/double)")
    print(f"  Q factors:   predicted {rec.q_factors_predicted}, computed {rec.q_factors_computed}")
    print(f"  pass: {rec.passed}" + (f"  ({'; '.join(rec.discrepancies)})" if rec.discrepancies else ""))


def cmd_structure(args) -> int:
    if args.r + 1 > args.bound:
        raise DimensionBoundError(f"module dimension {args.r + 1} exceeds bound {args.bound}")
    rec = structure_report(args.p, args.r)
    _emit(rec.to_dict(), args.format, lambda: _print_record(rec))
    return EXIT_OK if rec.passed else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# sweep


def _sweep_worker(job) -> dict:
    p, r, checks = job
    return structure_report(p, r, checks).to_dict()


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {args.jobs}")
    if args.check == "lemmas":
        rows = arith.lemma_rows(args.p, args.r_to)
        bad = [row for row in rows if not row["pass"]]
        if args.format == "json":
            print(json.dumps({"rows": rows, "failed": len(bad)}, indent=2, sort_keys=True))
        else:
            for row in bad:
                print(f"FAIL {row}")
            print(f"{len(rows)} rows, {len(bad)} failures")
        return EXIT_MISMATCH if bad else EXIT_OK

    checks = {
        "dim": ("dim",),
        "x-factors": ("dim", "x"),
        "q-factors": ("q",),
        "all": ("dim", "x", "q"),
    }[args.check]
    lo = args.r_from if args.r_from is not None else 2 * args.p + 1
    hi = args.r_to
    if lo < 2 * args.p + 1:
        raise DomainError(f"sweep range starts below 2p+1 = {2 * args.p + 1}")
    if hi < lo:
        raise DomainError(f"empty sweep range: --r-to {hi} is below --r-from {lo}")
    jobs = [(args.p, r, checks) for r in range(lo, hi + 1)]
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            dicts = pool.map(_sweep_worker, jobs)
    else:
        dicts = [_sweep_worker(job) for job in jobs]
    # deterministic ordered merge regardless of worker scheduling
    dicts.sort(key=lambda d: d["r"])
    records = [ReportRecord.from_dict(d) for d in dicts]
    failed = [rec for rec in records if not rec.passed]
    if args.format == "csv":
        print(",".join(CSV_COLUMNS))
        for rec in records:
            print(",".join(rec.csv_row()))
    elif args.format == "json":
        out = {"rows": [dict(d, seconds=0.0) for d in dicts], "failed": len(failed)}
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for rec in records:
            mark = "ok " if rec.passed else "FAIL"
            print(
                f"{mark} p={rec.p} r={rec.r} dim {rec.dim_predicted}/{rec.dim_computed} "
                f"q {rec.q_factors_predicted}/{rec.q_factors_computed}"
            )
        print(f"{len(records)} rows, {len(failed)} failures")
    return EXIT_MISMATCH if failed else EXIT_OK


# ---------------------------------------------------------------------------
# witness


def cmd_witness(args) -> int:
    case = WitnessCase(
        tag=args.case,
        p=args.p,
        r=args.r,
        sigma=parse_slope(args.slope),
        hyp_star=args.hyp_star,
        ubar=args.ubar,
        precision=default_precision(),
    )
    rep = verify_witness(case)
    payload = {
        "case": args.case,
        "p": args.p,
        "r": args.r,
        "slope": args.slope,
        "integral": rep.integral,
        "min_valuation": str(rep.min_valuation),
        "image_coset": rep.image_coset,
        "image_factor": list(rep.image_factor) if rep.image_factor else None,
        "constant": rep.constant,
        "constant_nonzero": rep.constant_nonzero,
        "factorization": rep.factorization,
        "checks": [[name, bool(ok)] for name, ok in rep.checks],
        "ok": rep.ok,
        "precision_margin": str(rep.precision_margin),
    }

    def text():
        print(f"case {args.case} at p={args.p}, r={args.r}, slope {args.slope}")
        print(f"  integral: {rep.integral} (min valuation {rep.min_valuation})")
        print(f"  image: {rep.image_coset}; surviving factor {rep.image_factor}")
        print(f"  constant: {rep.constant} (nonzero: {rep.constant_nonzero})")
        if rep.factorization:
            print(f"  factors through: cokernel of {rep.factorization}")
        for name, ok in rep.checks:
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        print(f"  verdict: {'ok' if rep.ok else 'FAILED'}")
        print(f"  precision margin: {rep.precision_margin} "
              f"(the audit aborts below {arith.PRECISION_HEADROOM})")

    _emit(payload, args.format, text)
    return EXIT_OK if rep.ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# verify-lemmas (family constructors included)


def _family_row(family: str, choose, args, **labels) -> dict:
    """One family row: ``choose(*args)`` validates its own output.  A failed
    check raises a plain ArithmeticError and is a real failure; any other
    exception, ZeroDivisionError included, is an error of the run for ``main``."""
    row = {"family": family, **labels}
    try:
        choose(*args)
    except ArithmeticError as exc:
        if type(exc) is not ArithmeticError:
            raise
        return {**row, "pass": False, "error": str(exc)}
    return {**row, "pass": True}


def cmd_verify_lemmas(args) -> int:
    rows = arith.lemma_rows(args.p, args.r_to)
    fam_rows = []
    p = args.p
    for a in range(2, p):
        for r in (a + (p - 1), a * p + (p - 1) * p, a + 2 * p * (p - 1)):
            if r <= a or r > args.r_to * 2:
                continue
            if (r - a) % (p - 1):
                continue
            fam_rows.append(_family_row("alpha", arith.choose_alphas, (r, a, p), r=r, a=a))
    for b in range(3, p + 1):
        for r in (b, p * p - p + b, p * p - p + b + p * (p - 1)):
            fam_rows.append(_family_row("beta", arith.choose_betas, (r, b, p), r=r, b=b))
    for r in (p, p + p * p * (p - 1), p + 2 * p * p * (p - 1)):
        fam_rows.append(_family_row("quad", arith.choose_gammas_alphas2, (r, p), r=r))
    failures = sum(not row["pass"] for row in rows + fam_rows)
    if args.format == "json":
        print(json.dumps({"lemma_rows": len(rows), "families": fam_rows,
                          "failed": failures}, indent=2, sort_keys=True))
    else:
        print(f"class-sum rows checked: {len(rows)}")
        for row in fam_rows:
            mark = "ok " if row["pass"] else "FAIL"
            print(f"{mark} {row}")
        print(f"failures: {failures}")
    return EXIT_MISMATCH if failures else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crysred",
        description="Exact verification of mod-p symmetric-power module structure "
        "and classification of crystalline reductions at fractional slope in (1,2).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="shape of the semisimplified reduction")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--k", type=int, help="weight (r = k-2)")
    c.add_argument("--r", type=int, help="symmetric-power degree (k = r+2)")
    c.add_argument("--slope", required=True, help="exact fraction, e.g. 3/2")
    c.add_argument("--hyp-star", dest="hyp_star", default="unknown",
                   choices=["holds", "fails", "unknown"])
    c.add_argument("--format", default="text", choices=["text", "json"])
    c.set_defaults(fn=cmd_classify)

    s = sub.add_parser("structure", help="brute-force structure report at one degree")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--bound", type=int, default=2000, help="dimension bound")
    s.add_argument("--format", default="text", choices=["text", "json"])
    s.set_defaults(fn=cmd_structure)

    w = sub.add_parser("sweep", help="batch prediction-vs-computation table")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--r-from", dest="r_from", type=int)
    w.add_argument("--r-to", dest="r_to", type=int, required=True)
    w.add_argument("--check", default="all",
                   choices=["dim", "x-factors", "q-factors", "all", "lemmas"])
    w.add_argument("--jobs", type=int, default=1)
    w.add_argument("--format", default="text", choices=["text", "csv", "json"])
    w.set_defaults(fn=cmd_sweep)

    t = sub.add_parser("witness", help="audit one witness function")
    t.add_argument("--case", required=True, choices=list(TAGS))
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--r", type=int, required=True)
    t.add_argument("--slope", required=True)
    t.add_argument("--hyp-star", dest="hyp_star", default="unknown",
                   choices=["holds", "fails", "unknown"])
    t.add_argument("--ubar", type=int, help="concrete residue of the unit symbol")
    t.add_argument("--format", default="text", choices=["text", "json"])
    t.set_defaults(fn=cmd_witness)

    v = sub.add_parser("verify-lemmas", help="congruence lemmas and integer families")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--r-to", dest="r_to", type=int, default=500)
    v.add_argument("--format", default="text", choices=["text", "json"])
    v.set_defaults(fn=cmd_verify_lemmas)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        for kind, code in EXIT_CODES.items():
            if isinstance(exc, kind):
                print(f"error: {exc}", file=sys.stderr)
                return code
        # a bug, not a verdict: never report it as a mismatch
        import traceback  # only a failing run pays for this import

        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
