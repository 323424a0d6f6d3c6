import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysred import cli, report, symrep
from crysred.classify import StructurePrediction
from crysred.cli import main, parse_slope
from crysred.errors import DomainError
from crysred.report import (
    CSV_COLUMNS,
    ReportRecord,
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

    def test_dimension_bound_exit(self, capsys, monkeypatch):
        # the one bound a structure run can meet is JH_DIMENSION_BOUND:
        # patched low, X's 8 dimensions at (5, 25) exceed it
        monkeypatch.setattr(symrep, "JH_DIMENSION_BOUND", 4)
        code, out, err = run(capsys, "structure", "--p", "5", "--r", "25")
        assert code == 3 and "exceeds bound 4" in err and out == ""

    def test_json(self, capsys):
        code, out, _ = run(capsys, "structure", "--p", "5", "--r", "11",
                           "--format", "json")
        rec = ReportRecord.from_dict(json.loads(out))
        assert rec.passed and rec.dim_computed == 6

    def test_int64_overflow_is_a_domain_error(self, capsys):
        # refused before any module is built
        r = 2**63 // 9
        code, out, err = run(capsys, "structure", "--p", "3", "--r", str(r))
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

    def test_x_and_q_mismatches_read_alike(self, monkeypatch):
        # one comparison for both modules: wrong factors, a wrong dimension
        # and wrong socle constituents are reported the same way
        wrong = StructurePrediction(dimension=0, layers=(),
                                    socle_contains=frozenset({JHLabel(4, 3)}),
                                    socle_excludes=frozenset({JHLabel(1, 0), JHLabel(3, 1)}))
        monkeypatch.setattr(report, "predict_X_structure", lambda desc: wrong)
        monkeypatch.setattr(report, "predict_Q_structure", lambda desc: wrong)
        rec = report.structure_report(5, 25)
        assert not rec.passed and rec.x_factors_predicted == rec.q_factors_predicted == "-"
        assert rec.discrepancies == [
            "x-factors: predicted -, got 1.0^2+3.1",
            "x-dimension: predicted 0, computed 8",
            "x: expected socle constituent JHLabel(s=4, t=3) missing",
            "x: socle contains excluded constituent JHLabel(s=1, t=0)",
            "q-factors: predicted -, got 1.0+3.1",
            "q-dimension: predicted 0, computed 6",
            "q: expected socle constituent JHLabel(s=4, t=3) missing",
            "q: socle contains excluded constituent JHLabel(s=3, t=1)",
        ]

    def test_memory_error_exits_6_when_its_traceback_runs_out_too(self, capsys, monkeypatch):
        # out of memory, printing the traceback can raise MemoryError again
        def exhausted(args):
            raise MemoryError

        def print_exc(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_verify_lemmas", exhausted)
        monkeypatch.setattr(cli.traceback, "print_exc", print_exc)
        code, out, err = run(capsys, "verify-lemmas", "--p", "5", "--r-to", "20")
        assert code == cli.EXIT_INTERNAL == 6 and out == ""
        assert err == "error: internal: MemoryError\n"


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

    def test_q_factors_check_builds_no_X(self, capsys, monkeypatch):
        # the "q" check reads only the terminal quotient, so X is not built
        args = ["sweep", "--p", "5", "--r-from", "11", "--r-to", "30",
                "--check", "q-factors", "--format", "csv"]
        code, before, _ = run(capsys, *args)

        def refuse(p, r):
            raise AssertionError("build_X called for a q-only check")

        monkeypatch.setattr(report, "build_X", refuse)
        assert structure_report(5, 23, ("q",)).passed
        assert code == 0 and run(capsys, *args) == (0, before, "")

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

    def test_lemma_sweep_refuses_r_from(self, capsys):
        # the lemma rows always start at r = 1, so a start degree, even one
        # above --r-to, is refused rather than ignored
        for r_from in ("1", "20"):
            code, out, err = run(capsys, "sweep", "--p", "5", "--r-from", r_from,
                                 "--r-to", "12", "--check", "lemmas")
            assert code == 2 and "--r-from" in err and out == ""

    def test_lemma_sweep_refuses_csv(self, capsys):
        # the lemma rows have no csv form: refused rather than printed as text
        code, out, err = run(capsys, "sweep", "--p", "5", "--r-to", "6",
                             "--check", "lemmas", "--format", "csv")
        assert code == 2 and "error:" in err and "--format csv" in err and out == ""


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

    def test_slope_outside_window_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "witness", "--case", "T8.2", "--p", "5",
                             "--r", "19", "--slope", "5/2")
        assert code == 2 and "outside" in err and out == ""

    def test_ubar_with_p_zero_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "witness", "--case", "T8.2", "--p", "0",
                             "--r", "19", "--slope", "3/2", "--ubar", "0")
        assert code == 2 and "p = 0 is not an odd prime" in err and out == ""

    def test_non_integral_witness_exits_1(self, capsys, monkeypatch):
        from crysred import witness

        real = witness.build_witness
        monkeypatch.setattr(witness, "build_witness",
                            lambda c: real(c).scale(Fraction(1, c.p**2)))
        code, out, _ = run(capsys, "witness", "--case", "T8.2", "--p", "5",
                           "--r", "19", "--slope", "5/4")
        assert code == 1 and "[FAIL] integral" in out and "verdict: FAILED" in out

    @staticmethod
    def _moved(red, p):
        # the image moved from the depth-1 coset g0(1, (0,)) to g0(1, (1,))
        from crysred.hecke import g0

        return {(g0(1, (1,)) if coset == g0(1, (0,)) else coset, e): v
                for (coset, e), v in red.items()}

    @staticmethod
    def _bumped(red, p):
        # 1 added at monomial index 9 of the first value: its class leaves the bottom constituent
        key = next(iter(red))
        value = dict(red[key])
        value[9] = (value.get(9, 0) + 1) % p
        return {**red, key: value}

    @pytest.mark.parametrize("tag, p, r, slope, perturb", [
        ("T8.6", "7", "88", "5/3", "_moved"),
        ("T8.8-i", "3", "123", "5/4", "_moved"),
        ("T9.2", "5", "105", "4/3", "_bumped"),
    ])
    def test_failed_image_check_exits_1(self, capsys, monkeypatch, tag, p, r, slope, perturb):
        # a reduced image that fails a check ends in a report with ok False,
        # not in an exception from reading the image the check refused
        from crysred import witness

        real, change = witness.residue_terms, getattr(self, perturb)
        monkeypatch.setattr(witness, "residue_terms", lambda audit: change(real(audit), int(p)))
        rep = witness.verify_witness(witness.WitnessCase(tag, int(p), int(r), Fraction(slope)))
        assert rep.integral and rep.ok is False
        code, out, _ = run(capsys, "witness", "--case", tag, "--p", p, "--r", r, "--slope", slope)
        assert code == 1 and "[FAIL]" in out and "verdict: FAILED" in out

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

        monkeypatch.setattr(cli.arith, "_beta_spec", broken)
        code, out, err = run(capsys, "verify-lemmas", "--p", "5", "--r-to", "10")
        assert code == 6 and "internal: IndexError" in err and "failures:" not in out

    def test_failed_family_check_is_a_mismatch(self, capsys, monkeypatch):
        # beta families asked to land on 1 mod p at the binom(j, 2) weight
        spec = cli.arith._beta_spec
        monkeypatch.setattr(cli.arith, "_beta_spec", lambda *args: spec(*args)._replace(target=1))
        code, out, _ = run(capsys, "verify-lemmas", "--p", "5", "--r-to", "10", "--format", "json")
        doc = json.loads(out)
        betas = [row for row in doc["families"] if row["family"] == "beta" and row["r"] > row["b"]]
        assert code == 1 and betas and doc["failed"] == len(betas)
        assert all(not row["pass"] for row in betas)
        assert {row["error"] for row in betas} == {"beta family failed checks: choose2_sum_mod_p1"}

    def test_lemma_failures_counted_as_the_sweep_counts_them(self, capsys, monkeypatch):
        # the lemma sweep's class sums off by one at every third degree fail
        # those lemma rows and no family; verify-lemmas counts them on
        # arrays, sweep on its rows
        sums = cli.arith._step_class_sums

        def corrupted(N, s, p, k, count=1):
            rows = sums(N, s, p, k, count)
            if list(N) == [60, 60] and list(s) == [0, 1]:  # column n at degree 60 - n
                rows = [[t + ((60 - n) % 3 == 0) for n, t in enumerate(row)] for row in rows]
            return rows

        monkeypatch.setattr(cli.arith, "_step_class_sums", corrupted)
        code, out, _ = run(capsys, "verify-lemmas", "--p", "5", "--r-to", "60", "--format", "json")
        sweep_code, sweep_out, _ = run(capsys, "sweep", "--p", "5", "--check", "lemmas",
                                       "--r-to", "60", "--format", "json")
        doc, sweep = json.loads(out), json.loads(sweep_out)
        assert code == sweep_code == 1
        assert doc["lemma_rows"] == len(sweep["rows"]) == 60
        assert all(row["pass"] for row in doc["families"])
        assert doc["failed"] == sweep["failed"] == sum(not row["pass"] for row in sweep["rows"]) > 0
        assert [row["r"] for row in sweep["rows"] if not row["pass"]] == list(range(3, 61, 3))


class TestRecordCodecs:
    def test_report_record_roundtrip(self):
        rec = structure_report(5, 23)
        again = ReportRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert again == rec

    def test_factor_string_form(self):
        for factors, text in [
            (Counter(), "-"),
            (Counter({JHLabel(3, 2): 1}), "3.2"),
            (Counter({JHLabel(3, 1): 1, JHLabel(1, 0): 2}), "1.0^2+3.1"),
        ]:
            assert factors_to_str(factors) == text


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
    --r-to, structure degrees up to 3^30, each witness tag, malformed and
    out-of-range slopes, --ubar."""
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
        r = draw(st.one_of(st.integers(-2, 40), st.integers(41, 3**30)))
        return ["structure", *p, "--r", str(r), "--format", draw(FORMATS)]
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


class TestModuleEntryPoint:
    def test_python_dash_m_returns_the_documented_codes(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        for argv, code in [(["classify", "--p", "5", "--k", "30", "--slope", "3/2"], 0),
                           (["structure", "--p", "4", "--r", "20"], 2)]:
            done = subprocess.run([sys.executable, "-m", "crysred", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == code, (argv, done.stderr[-400:])
