import contextlib
import io
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysred import cli
from crysred.cli import main, parse_slope
from crysred.errors import DomainError
from crysred.report import (
    CSV_COLUMNS,
    ReportRecord,
    factors_from_str,
    factors_to_str,
    structure_report,
)
from crysred.symrep import JHLabel
from crysred.witness import TAGS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSlopeParsing:
    def test_fraction_ok(self):
        assert parse_slope("3/2") == parse_slope("6/4")

    def test_float_rejected(self):
        with pytest.raises(DomainError):
            parse_slope("1.5")
        with pytest.raises(DomainError):
            parse_slope("1e0")

    def test_malformed_rejected(self):
        with pytest.raises(DomainError):
            parse_slope("3/0")
        with pytest.raises(DomainError):
            parse_slope("three halves")


class TestClassify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "7", "--k", "22",
                           "--slope", "3/2", "--hyp-star", "holds")
        assert code == 0 and out.strip() == "ind(w2^3)"

    def test_r_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "5", "--r", "23",
                           "--slope", "3/2", "--hyp-star", "unknown")
        assert code == 0 and out.startswith("undetermined{") and out.count(";") == 3

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "5", "--k", "32",
                           "--slope", "5/4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == json.loads(json.dumps(payload))
        assert payload["result"] == "ind(w2^7)"

    def test_domain_exit(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "5", "--k", "11", "--slope", "3/2")
        assert code == 2 and "2p+2" in err
        code, _, err = run(capsys, "classify", "--p", "5", "--k", "30", "--slope", "5/2")
        assert code == 2

    def test_both_k_and_r_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "5", "--k", "30", "--r", "28",
                           "--slope", "3/2")
        assert code == 2


class TestStructure:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "structure", "--p", "5", "--r", "25")
        assert code == 0 and "pass: True" in out

    def test_dimension_bound_exit(self, capsys):
        code, _, err = run(capsys, "structure", "--p", "5", "--r", "2500")
        assert code == 3

    def test_json(self, capsys):
        code, out, _ = run(capsys, "structure", "--p", "5", "--r", "11",
                           "--format", "json")
        rec = ReportRecord.from_dict(json.loads(out))
        assert rec.passed and rec.dim_computed == 6

    def test_int64_overflow_is_a_domain_error(self, capsys):
        # refused before any module is built
        r = 2**63 // 9
        code, out, err = run(capsys, "structure", "--p", "3", "--r", str(r),
                             "--bound", str(r + 2))
        assert code == 2 and "2^63" in err and out == ""

    def test_internal_error_exit(self, capsys, monkeypatch):
        # an exception that is not a verdict must not read as a mismatch (1)
        def broken(p, r, checks=()):
            raise ArithmeticError("spanning set is not monoid-stable")

        monkeypatch.setattr(cli, "structure_report", broken)
        code, out, err = run(capsys, "structure", "--p", "5", "--r", "25")
        assert code == cli.EXIT_INTERNAL == 6 and out == ""
        assert err.startswith("error: internal: ArithmeticError: spanning set")
        assert "Traceback" in err


class TestSweep:
    def test_csv_columns_and_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--p", "5", "--r-from", "11",
                           "--r-to", "20", "--check", "all", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 11

    def test_dim_check_row_count(self, capsys):
        code, out, _ = run(capsys, "sweep", "--p", "5", "--r-from", "11",
                           "--r-to", "75", "--check", "dim", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 66  # header + 65 rows

    def test_parallel_determinism(self, capsys):
        args = ["sweep", "--p", "5", "--r-from", "11", "--r-to", "30",
                "--check", "all", "--format", "csv"]
        code1, out1, _ = run(capsys, *args, "--jobs", "1")
        code2, out2, _ = run(capsys, *args, "--jobs", "3")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_jobs_below_one_is_a_domain_error(self, capsys):
        for jobs in ("0", "-1"):
            code, out, err = run(capsys, "sweep", "--p", "5", "--r-to", "12", "--jobs", jobs)
            assert code == 2 and "--jobs" in err and out == ""

    def test_pool_size_is_capped(self, capsys, monkeypatch):
        # a recorder stands in for the process pool, so no process starts
        sizes = []

        class RecordingPool:
            def __init__(self, n):
                sizes.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(cli, "Pool", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        sweep = ["sweep", "--p", "5", "--r-from", "11", "--check", "dim", "--format", "csv"]
        assert run(capsys, *sweep, "--r-to", "11", "--jobs", "64")[0] == 0
        assert sizes == []  # one degree runs serially
        assert run(capsys, *sweep, "--r-to", "13", "--jobs", "64")[0] == 0
        assert sizes == [3]  # no more workers than degrees
        assert run(capsys, *sweep, "--r-to", "20", "--jobs", "64")[0] == 0
        assert sizes == [3, 4]  # no more workers than cpus
        assert run(capsys, *sweep, "--r-to", "20", "--jobs", "2")[0] == 0
        assert sizes == [3, 4, 2]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert run(capsys, *sweep, "--r-to", "20", "--jobs", "64")[0] == 0
        assert sizes == [3, 4, 2]  # cpu count unknown: serial

    def test_lemma_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--p", "11", "--check", "lemmas",
                           "--r-to", "150")
        assert code == 0 and "0 failures" in out

    def test_range_validation(self, capsys):
        code, _, err = run(capsys, "sweep", "--p", "5", "--r-from", "3",
                           "--r-to", "20")
        assert code == 2

    def test_empty_range_is_a_domain_error(self, capsys):
        # an empty sweep checks nothing, so it must not report success
        code, out, err = run(capsys, "sweep", "--p", "5", "--r-from", "30",
                             "--r-to", "20")
        assert code == 2 and "empty" in err and out == ""
        code, out, err = run(capsys, "sweep", "--p", "5", "--check", "lemmas",
                             "--r-to", "0")
        assert code == 2 and "empty" in err and out == ""
        code, out, err = run(capsys, "verify-lemmas", "--p", "5", "--r-to", "0")
        assert code == 2 and "empty" in err and out == ""


class TestWitnessCommand:
    def test_ok_case(self, capsys):
        code, out, _ = run(capsys, "witness", "--case", "T8.2", "--p", "5",
                           "--r", "19", "--slope", "5/4")
        assert code == 0 and "verdict: ok" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "witness", "--case", "T9.2", "--p", "3",
                           "--r", "21", "--slope", "4/3", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] and payload["factorization"] == "T^2+1"

    def test_hypothesis_exit(self, capsys):
        code, _, err = run(capsys, "witness", "--case", "T8.7-low", "--p", "5",
                           "--r", "23", "--slope", "3/2")
        assert code == 4 and "genericity" in err

    def test_concrete_ubar_refusal(self, capsys):
        code, _, err = run(capsys, "witness", "--case", "T9.2", "--p", "3",
                           "--r", "21", "--slope", "3/2", "--ubar", "1")
        assert code == 4

    def test_non_unit_ubar_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "witness", "--case", "T8.7-low", "--p", "5",
                           "--r", "23", "--slope", "3/2", "--ubar", "5")
        assert code == 2 and "unit" in err

    def test_ubar_with_p_zero_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "witness", "--case", "T8.2", "--p", "0",
                             "--r", "19", "--slope", "3/2", "--ubar", "0")
        assert code == 2 and "p = 0 is not an odd prime" in err and out == ""

    def test_json_precision_margin(self, capsys, monkeypatch):
        # eight carried digits leave three to spare over the abort at five
        monkeypatch.setenv("CRYSRED_PRECISION", "8")
        code, out, _ = run(capsys, "witness", "--case", "T8.7-high", "--p", "5",
                           "--r", "23", "--slope", "7/4", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["ok"]
        assert Fraction(payload["precision_margin"]) == 5

    def test_precision_env_abort(self, capsys, monkeypatch):
        monkeypatch.setenv("CRYSRED_PRECISION", "4")
        code, _, err = run(capsys, "witness", "--case", "T8.7-high", "--p", "5",
                           "--r", "23", "--slope", "7/4")
        assert code == 5 and "precision" in err

    def test_precision_env_validation(self, capsys, monkeypatch):
        monkeypatch.setenv("CRYSRED_PRECISION", "two")
        code, _, err = run(capsys, "witness", "--case", "T8.2", "--p", "5",
                           "--r", "19", "--slope", "5/4")
        assert code == 2


class TestVerifyLemmas:
    def test_runs_clean(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas", "--p", "5", "--r-to", "120")
        assert code == 0 and "failures: 0" in out

    def test_p_one_is_a_domain_error(self, capsys):
        # refused before any arithmetic mod p - 1
        for argv in (["verify-lemmas", "--p", "1", "--r-to", "5"],
                     ["sweep", "--p", "1", "--check", "lemmas", "--r-to", "5"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and "p = 1 is not an odd prime" in err and out == "", argv

    def test_internal_error_in_a_family_is_not_a_mismatch(self, capsys, monkeypatch):
        def broken(r, b, p):
            raise IndexError("list index out of range")

        monkeypatch.setattr(cli.arith, "choose_betas", broken)
        code, out, err = run(capsys, "verify-lemmas", "--p", "5", "--r-to", "10")
        assert code == 6 and "internal: IndexError" in err and "failures:" not in out

    def test_failed_family_check_is_a_mismatch(self, capsys, monkeypatch):
        def failing(r, b, p):
            raise ArithmeticError("beta family failed checks: sum_mod_p3")

        monkeypatch.setattr(cli.arith, "choose_betas", failing)
        code, out, _ = run(capsys, "verify-lemmas", "--p", "5", "--r-to", "10", "--format", "json")
        doc = json.loads(out)
        betas = [row for row in doc["families"] if row["family"] == "beta"]
        assert code == 1 and betas and doc["failed"] == len(betas)
        assert all(not row["pass"] and "sum_mod_p3" in row["error"] for row in betas)


class TestRecordCodecs:
    def test_report_record_roundtrip(self):
        rec = structure_report(5, 23)
        again = ReportRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert again == rec

    def test_factor_string_roundtrip(self):
        for factors in [
            Counter(),
            Counter({JHLabel(3, 2): 1}),
            Counter({JHLabel(1, 0): 2, JHLabel(3, 1): 1}),
        ]:
            assert factors_from_str(factors_to_str(factors)) == factors


# ---------------------------------------------------------------------------
# every input ends in a documented exit code

DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5}
SMALL_P = st.one_of(st.sampled_from([3, 5, 7, 11, 13]), st.integers(-3, 13))
SLOPES = st.sampled_from(["3/2", "5/4", "4/3", "7/4", "6/5", "5/3", "1", "2", "5/2", "0",
                          "-3/2", "3/0", "1.5", "1e0", "abc", ""])
HYP_STAR = st.sampled_from(["holds", "fails", "unknown"])
FORMATS = st.sampled_from(["text", "json"])


@st.composite
def cli_argv(draw):
    """Bounded arguments for one subcommand: small and invalid p, r and
    --r-to, each witness tag, malformed and out-of-range slopes, --ubar."""
    p = ["--p", str(draw(SMALL_P))]
    command = draw(st.sampled_from(["classify", "structure", "sweep", "witness", "verify-lemmas"]))
    if command == "classify":
        which = draw(st.sampled_from(["--k", "--r", "both", "neither"]))
        argv = ["classify", *p, "--slope", draw(SLOPES), "--hyp-star", draw(HYP_STAR)]
        if which in ("--k", "both"):
            argv += ["--k", str(draw(st.integers(-2, 42)))]
        if which in ("--r", "both"):
            argv += ["--r", str(draw(st.integers(-2, 40)))]
        return argv + ["--format", draw(FORMATS)]
    if command == "structure":
        return ["structure", *p, "--r", str(draw(st.integers(-2, 40))),
                "--bound", str(draw(st.integers(0, 60))), "--format", draw(FORMATS)]
    if command == "sweep":
        check = draw(st.sampled_from(["dim", "x-factors", "q-factors", "all", "lemmas"]))
        r_to = draw(st.integers(-3, 200 if check == "lemmas" else 40))
        argv = ["sweep", *p, "--check", check, "--r-to", str(r_to),
                "--format", draw(st.sampled_from(["text", "csv", "json"]))]
        if draw(st.booleans()):
            argv += ["--r-from", str(draw(st.integers(-3, 40)))]
        return argv
    if command == "witness":
        argv = ["witness", "--case", draw(st.sampled_from(list(TAGS))), *p,
                "--r", str(draw(st.integers(-2, 40))), "--slope", draw(SLOPES),
                "--hyp-star", draw(HYP_STAR), "--format", draw(FORMATS)]
        if draw(st.booleans()):
            argv += ["--ubar", str(draw(st.integers(-2, 13)))]
        return argv
    return ["verify-lemmas", *p, "--r-to", str(draw(st.integers(-3, 200))),
            "--format", draw(FORMATS)]


class TestExitCodes:
    @given(cli_argv())
    @settings(max_examples=250, deadline=None)
    def test_every_exit_code_is_documented(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the arguments
                code = exc.code
        assert code in DOCUMENTED_EXITS, (argv, code, err.getvalue()[-400:])
