import contextlib
import io
import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from geodouble import cli, construction, presentations, triangulation
from geodouble.cli import main, parse_complex_number, parse_matrix
from geodouble.construction import family_scheme, family_stats, is_admissible
from geodouble.doubling import Double, DoubleWord
from geodouble.freegroups import SubgroupGraph, stallings_graph, word_from_str
from geodouble.isometries import Isometry, commuting_criterion, fixed_points
from geodouble.presentations import AuditCase, AuditError, Presentation, surface_rank
from geodouble.triangulation import render_scheme

from oracles import reference_parse_complex_number, reference_validate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_error(capsys, *argv):
    """Run a command that must fail with one ``error:`` line; return that line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


class TestParsing:
    def test_complex_literals(self):
        assert parse_complex_number("1+2i") == 1 + 2j
        assert parse_complex_number("-0.5i") == -0.5j
        assert parse_complex_number("3") == 3
        assert parse_complex_number("i") == 1j
        assert parse_complex_number("2-i") == 2 - 1j
        with pytest.raises(ValueError):
            parse_complex_number("zz")
        # complex() reads these; an ASCII literal has no other digits, no
        # digit-group underscores and no parentheses.
        for text in ("٣", "1_0", "(2+i)", "(3)"):
            with pytest.raises(ValueError, match=f"^bad complex literal '{re.escape(text)}'$"):
                parse_complex_number(text)

    @pytest.mark.parametrize("text", ["nan", "1e999", "-1e999", "1e999i", "nan+1i"])
    def test_complex_literal_must_be_finite(self, text):
        with pytest.raises(ValueError, match="not finite"):
            parse_complex_number(text)

    def test_complex_literals_match_the_character_loop(self):
        # Strings over the literal alphabet, blanks, a superscript two (a
        # digit to str.isdigit only), an Arabic-Indic three (a decimal digit
        # that complex() reads, refused as non-ASCII), the underscore and
        # parentheses that complex() reads and the literal rule refuses, and
        # the letters of nan and inf: the same value or the same error text
        # as the character loop.
        rng = random.Random(97)
        alphabet = "0123456789.+-eEijJ \t²٣naf_()"
        parsed = 0

        def outcome(parse, text):
            try:
                return repr(parse(text))
            except ValueError as exc:
                return f"ValueError: {exc}"

        for _ in range(100_000):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 8)))
            expected = outcome(reference_parse_complex_number, text)
            assert outcome(parse_complex_number, text) == expected, text
            parsed += not expected.startswith("ValueError")
        assert parsed > 1000

    def test_matrix(self):
        assert parse_matrix("i,0;0,-i") == [[1j, 0], [0, -1j]]
        with pytest.raises(ValueError):
            parse_matrix("1,2,3;4,5,6")


class TestFamily:
    def test_verify_pass(self, capsys):
        code, out = run(capsys, "family", "verify", "--n", "4")
        assert code == 0
        assert "PASS edge_class_count" in out
        assert "FAIL" not in out

    def test_verify_inadmissible_is_domain_error(self, capsys):
        code = main(["family", "verify", "--n", "6"])
        assert code == 1

    def test_report_table(self, capsys):
        code, out = run(capsys, "family", "report", "--n-min", "4", "--n-max", "13")
        assert code == 0
        assert "6/7" in out
        assert "5/8" in out
        assert "PASS all_ratios_below_two" in out

    def test_report_epsilon(self, capsys):
        code, out = run(capsys, "family", "report", "--n-min", "4", "--n-max", "5",
                        "--epsilon", "0.1")
        assert code == 0
        assert "min_n_for_ratio = 79" in out

    @pytest.mark.parametrize("epsilon", ["1/0", "7/0"])
    def test_report_zero_denominator_epsilon(self, capsys, epsilon):
        line = run_error(capsys, "family", "report", "--epsilon", epsilon)
        assert line == f"error: epsilon {epsilon!r} has a zero denominator"

    def test_machine_output_deterministic(self, capsys):
        args = ("--machine", "family", "report", "--n-min", "4", "--n-max", "20")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "row.4.ratio_closed=6/7" in out1


def expected_report(n_min, n_max, machine, epsilon=None):
    """``family report`` output written from ``family_stats`` and ``Fraction``."""
    stats = [family_stats(n) for n in range(n_min, n_max + 1) if is_admissible(n)]
    strict = all(st.ratio_closed < 2 and st.ratio_cusped < 2 for st in stats)
    columns = ("n bgenus rank_bound fix_rank ratio ratio_dec "
               "cusped_fix cusped_bound cusped_ratio cusped_ratio_dec")
    sep = "=" if machine else " = "
    lines = [f"command{'=' if machine else ': '}family report --n-min {n_min} --n-max {n_max}",
             f"columns{sep}{columns}"]
    for st in stats:
        n = st.n
        if machine:
            lines += [f"row.{n}.boundary_genus={st.boundary_genus}",
                      f"row.{n}.rank_upper_closed={st.rank_upper_closed}",
                      f"row.{n}.fix_rank_closed={st.fix_rank_closed}",
                      f"row.{n}.ratio_closed={st.ratio_closed}",
                      f"row.{n}.fix_rank_cusped={st.fix_rank_cusped}",
                      f"row.{n}.rank_upper_cusped=<{st.rank_upper_cusped}",
                      f"row.{n}.ratio_cusped={st.ratio_cusped}"]
        else:
            lines.append(
                f"{n:5d} {st.boundary_genus:6d} {st.rank_upper_closed:10d} "
                f"{st.fix_rank_closed:8d} {str(st.ratio_closed):>9s} "
                f"{float(st.ratio_closed):.6f} {st.fix_rank_cusped:10d} "
                f"{'<' + str(st.rank_upper_cusped):>12s} "
                f"{str(st.ratio_cusped):>12s} {float(st.ratio_cusped):.6f}")
    if machine:
        lines.append(f"check.all_ratios_below_two={'pass' if strict else 'fail'}")
    else:
        lines.append(f"{'PASS' if strict else 'FAIL'} all_ratios_below_two")
    if epsilon is not None:
        eps = Fraction(epsilon)
        lines += [f"epsilon{sep}{eps}",
                  f"min_n_for_ratio{sep}{construction.min_n_for_ratio(eps)}"]
    return int(not strict), "\n".join(lines) + "\n"


class TestFamilyReportRows:
    """Every row of ``family report`` against ``family_stats``: the ratio
    text is ``str(Fraction)``, the decimal ``float(Fraction)`` to six places,
    whole-number ratios (n = 5 closed, n = 7 cusped) included."""

    @pytest.mark.parametrize("machine", [False, True])
    @pytest.mark.parametrize("epsilon", [None, "0.05", "1/1000"])
    def test_rows_match_family_stats(self, capsys, machine, epsilon):
        argv = ["family", "report", "--n-min", "4", "--n-max", "3000"]
        argv = (["--machine"] if machine else []) + argv
        argv += ["--epsilon", epsilon] if epsilon is not None else []
        code, out = run(capsys, *argv)
        assert (code, out) == expected_report(4, 3000, machine, epsilon)
        assert code == 0

    @pytest.mark.parametrize("machine", [False, True])
    def test_ratio_two_fails_the_check(self, capsys, monkeypatch, machine):
        """The strictness check reads each row: a member whose fix rank
        reaches twice its bound fails it, and ``family_stats`` agrees."""
        ranks = construction.family_ranks

        def touching_two(n):
            row = ranks(n)
            return (*row[:2], 2 * row[1], *row[3:]) if n == 10 else row

        monkeypatch.setattr(construction, "family_ranks", touching_two)
        assert family_stats(10).ratio_closed == 2
        code, out = run(capsys, *(["--machine"] if machine else []),
                        "family", "report", "--n-min", "4", "--n-max", "40")
        assert (code, out) == expected_report(4, 40, machine)
        assert code == 1


class TestFailingCheckOutput:
    """A failing check through ``cli.main``: exit 1 and only its own line
    differs from the passing report."""

    @pytest.mark.parametrize("machine", [False, True])
    def test_one_failing_check(self, capsys, monkeypatch, machine):
        flag = ["--machine"] if machine else []
        code, passing = run(capsys, *flag, "family", "verify", "--n", "4")
        assert code == 0
        real = construction.verify_family

        def one_failure(n):
            checks = list(real(n).checks)
            checks[2] = construction.FamilyCheck("vertex_class_count", 1, 7)
            return construction.FamilyReport(n, tuple(checks))

        monkeypatch.setattr(construction, "verify_family", one_failure)
        code, failing = run(capsys, *flag, "family", "verify", "--n", "4")
        assert code == 1
        if machine:
            old, new = "check.vertex_class_count=pass", "check.vertex_class_count=fail"
        else:
            old = "PASS vertex_class_count  (expected 1, got 1)"
            new = "FAIL vertex_class_count  (expected 1, got 7)"
        assert passing.splitlines().count(old) == 1
        assert failing.splitlines() == [new if line == old else line
                                        for line in passing.splitlines()]

    @pytest.mark.parametrize("argv", [
        ["fg", "fold", "--rank", "2", "--gens", "aa,b,abA"],
        ["audit", "--g", "2", "--m", "1", "--l", "0", "--orientable", "--separating"],
    ], ids=["fg_fold", "audit_case"])
    def test_text_rows_stay_out_of_machine_output(self, capsys, monkeypatch, argv):
        written = []
        text = cli.Report.text

        def record(self, line):
            written.append(line)
            text(self, line)

        monkeypatch.setattr(cli.Report, "text", record)
        code, out = run(capsys, "--machine", *argv)
        assert code == 0 and written
        assert not set(written) & set(out.splitlines())


class TestScheme:
    def test_info(self, tmp_path, capsys):
        path = tmp_path / "family4.scheme"
        path.write_text(render_scheme(family_scheme(4)))
        code, out = run(capsys, "scheme", "info", str(path))
        assert code == 0
        assert "edge_classes = 2" in out
        assert "orientable = True" in out
        assert "handlebody_genus = 5" in out

    def test_canon_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "raw.scheme"
        path.write_text("tets 2\npair 2.453 1.132\npair 1.264 2.516\n"
                        "pair 1.453 2.132\npair 1.516 2.264\n")
        code, out = run(capsys, "scheme", "canon", str(path))
        assert code == 0
        assert out.splitlines()[0] == "tets 2"
        assert "pair 1.132 2.453" in out

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.scheme"
        path.write_text("tets 1\npair 1.132 1.132\n")
        assert main(["scheme", "info", str(path)]) == 1

    def test_family_emit(self, capsys):
        code, out = run(capsys, "scheme", "family", "--n", "4")
        assert code == 0
        assert out == render_scheme(family_scheme(4))

    @pytest.mark.parametrize("text,message", [
        ("# comment\ntetz 2\n", "line 2: expected header 'tets N'"),
        ("tets two\n", "line 1: bad tet count 'two'"),
        ("tets 2\npair 1.132 2.132 order 1 2 3\n", "line 2: expected 'edgeorder', got 'order'"),
        ("tets 2\npair 1-132 2.132\n", "line 2: bad face token '1-132'"),
        ("tets 2\npair x.132 2.132\n", "line 2: bad tetrahedron index in 'x.132'"),
        ("tets 2\n\npair 1.132 2.132 edgeorder 1 2 z\n",
         "line 3: bad edge order ['1', '2', 'z']"),
        ("tets 2\npair 0.132 1.453\n", "line 2: tetrahedron index 0 out of range"),
        ("tets 1\npair 1.132 2.453\n", "line 2: face 2.453 beyond tet count 1"),
        ("tets 2\npair 1.132 2.453\n\npair 1.132 2.264\n",
         "line 4: face 1.132 appears in more than one pairing"),
        # Two errors each: the earlier line is reported.
        ("tets 2\npair 1.132 2.453\npair 3.132 1.264\npair 1.132 2.516\n",
         "line 3: face 3.132 beyond tet count 2"),
        ("tets 2\npair 2.264 2.516\npair 1.132 2.453\npair 1.132 2.516\n",
         "line 4: face 1.132 appears in more than one pairing"),
        # No line holds a header, so this one error names no line.
        ("# comment only\n\n", "missing 'tets N' header"),
    ], ids=["bad-header", "bad-tet-count", "no-edgeorder-keyword", "bad-face-token",
            "bad-tet-index", "bad-edge-order", "tet-below-one", "tet-beyond-count",
            "repeated-face", "beyond-count-before-repeat", "repeat-after-sorted-pair",
            "missing-header"])
    def test_scheme_errors_name_their_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.scheme"
        path.write_text(text)
        assert run_error(capsys, "scheme", "info", str(path)) == f"error: {message}"


class TestFg:
    def test_fold_edge_list(self, capsys):
        code, out = run(capsys, "fg", "fold", "--rank", "2", "--gens", "aa,b,abA")
        assert code == 0
        assert "vertices = 2" in out
        assert "--a-->" in out

    def test_member(self, capsys):
        code, out = run(capsys, "fg", "member", "--rank", "2", "--gens", "a",
                        "--word", "aaa")
        assert code == 0
        assert "member = True" in out

    def test_rank_index_rep(self, capsys):
        _, out = run(capsys, "fg", "rank", "--rank", "2", "--gens", "aa,b,abA")
        assert "rank = 3" in out
        _, out = run(capsys, "fg", "index", "--rank", "2", "--gens", "a")
        assert "index = infinite" in out
        _, out = run(capsys, "fg", "rep", "--rank", "2", "--gens", "aa,b,abA",
                     "--word", "aaa")
        assert "representative = a" in out


    def test_python_dash_m_runs_the_cli(self, capsys):
        argv = ["fg", "fold", "--rank", "2", "--gens", "aa,b"]
        code, out = run(capsys, *argv)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "geodouble", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


class TestDouble:
    def test_nf(self, capsys):
        code, out = run(capsys, "double", "nf", "--rank", "2", "--H", "aa,b,abA",
                        "--word", "u:abA p:bb u:a")
        assert code == 0
        assert "syllables = 1" in out
        assert "fixed_by_swap = False" in out

    def test_fixtest_deterministic(self, capsys):
        args = ("double", "fixtest", "--rank", "2", "--H", "aa,b,abA",
                "--samples", "300", "--seed", "7")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "agreements = 300/300" in out1

    def test_negative_samples_rejected(self, capsys):
        line = run_error(capsys, "double", "fixtest", "--rank", "2", "--H", "aa",
                         "--samples", "-3")
        assert line == "error: --samples must be non-negative, got -3"

    @pytest.mark.parametrize("rank", ["0", "-2"])
    def test_fixtest_rank_below_one_rejected(self, capsys, rank):
        line = run_error(capsys, "double", "fixtest", "--rank", rank, "--H", "")
        assert line == f"error: --rank must be at least 1, got {rank}"

    @pytest.mark.parametrize("value", ["x", "11"])
    def test_seed_variable_is_not_read(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GEODOUBLE_SEED", value)
        code, out = run(capsys, "double", "fixtest", "--rank", "2", "--H", "aa", "--samples", "5")
        assert code == 0 and "--samples 5 --seed 0" in out and "seed = 0" in out

    def test_fixtest_seed_changes_stream(self, capsys):
        _, out1 = run(capsys, "double", "fixtest", "--rank", "2", "--H", "aa",
                      "--samples", "50", "--seed", "1")
        _, out2 = run(capsys, "double", "fixtest", "--rank", "2", "--H", "aa",
                      "--samples", "50", "--seed", "2")
        assert out1 != out2


class TestIso:
    def test_classify(self, capsys):
        code, out = run(capsys, "iso", "classify", "--m", "1,1;0,1")
        assert code == 0
        assert "class = parabolic" in out

    def test_classify_reversing(self, capsys):
        code, out = run(capsys, "iso", "classify", "--m", "0,-1;1,0", "--rev")
        assert code == 0
        assert "fixed_set = empty" in out

    def test_commute(self, capsys):
        code, out = run(capsys, "iso", "commute", "--m1", "i,0;0,-i",
                        "--m2", "0,1;-1,0")
        assert code == 0
        assert "commute = True" in out
        assert "criterion = perpendicular_pi_rotations" in out

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        for argv in (("iso", "classify", "--m", "1,1;0,1"),
                     ("iso", "commute", "--m1", "i,0;0,-i", "--m2", "0,1;-1,0")):
            line = run_error(capsys, *argv, "--tol", tol)
            assert line.startswith("error: tolerance must be a positive finite number")

    def test_tiny_tolerance_accepted(self, capsys):
        code, out = run(capsys, "iso", "classify", "--m", "1,1;0,1", "--tol", "1e-300")
        assert code == 0
        assert "class = parabolic" in out

    def test_non_finite_matrix_entry_rejected(self, capsys):
        line = run_error(capsys, "iso", "classify", "--m", "nan,0;0,1")
        assert line == "error: complex literal 'nan' is not finite"

    def test_overflowing_determinant_rejected(self, capsys):
        # det = 2e400: normalising it would give the zero matrix.
        line = run_error(capsys, "iso", "classify", "--m", "1e200,1e200;-1e200,1e200")
        assert line == "error: matrix determinant is not finite: entries too large"

    @pytest.mark.parametrize("argv", [
        ("iso", "classify", "--m", "1.5e308+1.5e308j,1;-1,0"),
        ("iso", "classify", "--m", "1,1.5e308-1.5e308j;0,1"),
        ("iso", "commute", "--m1", "1,1;0,1", "--m2", "0,-1;1,1.5e308+1.5e308j"),
        # det = 4e-14: normalising multiplies by 1/sqrt(det) = 5e6, and the
        # entry 1e308 becomes infinite.
        ("iso", "classify", "--m", "1e308,2e-7;-2e-7,0"),
    ])
    def test_overflowing_entry_modulus_rejected(self, capsys, argv):
        line = run_error(capsys, *argv)
        assert line == "error: matrix entry modulus is not finite: entries too large"

    def test_overflowing_entry_modulus_has_no_traceback(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "geodouble", "iso", "classify", "--m",
             "1.5e308+1.5e308j,1;-1,0"], capture_output=True, text=True, env=env)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: matrix entry modulus is not finite: entries too large\n"

    def test_overflowing_determinant_modulus_rejected(self, capsys):
        # det = 1.5e308 + 1.5e308i has finite parts; its modulus overflows.
        line = run_error(capsys, "iso", "classify", "--m", "1.5e308+1.5e308j,0;0,1")
        assert line == "error: matrix determinant is not finite: entries too large"

    def test_huge_trace_classifies_without_overflow(self, capsys):
        code, out = run(capsys, "iso", "classify", "--m", "1e200,0;0,1e-200")
        assert code == 0
        assert out.splitlines()[1:] == ["class = loxodromic", "fixed_set = pair",
                                        "fixed_points = 0j (inf+0j)"]

    def test_far_fixed_point_commute_without_overflow(self, capsys):
        code, out = run(capsys, "iso", "commute", "--m1", "2,1e160;0,0.5",
                        "--m2", "3,0;0,0.3333333333333333")
        assert code == 0
        assert out.splitlines()[1:] == ["commute = False", "criterion = none",
                                        "PASS commute_iff_criterion"]

    def test_overflowing_fixed_point_equation_rejected(self, capsys):
        # One fixed point is about -1e313, past the float range.
        line = run_error(capsys, "iso", "classify", "--m", "1e308,1e5;-1e-5,0")
        assert line == ("error: fixed points out of floating-point range: "
                        "(d - a)^2 + 4bc overflows")

    def test_overflowing_discriminant_with_finite_fixed_points(self, capsys):
        # (d - a)^2 = 1e320 overflows; the points multiply to -b/c = 1.
        code, out = run(capsys, "iso", "classify", "--m", "1e160,1;-1,0")
        assert code == 0
        assert out.splitlines()[1:] == ["class = loxodromic", "fixed_set = pair",
                                        "fixed_points = (-1e+160+0j) (-1e-160+0j)"]

    def test_table(self, capsys):
        code, out = run(capsys, "iso", "table", "--preserving", "--closed")
        assert code == 0
        assert "fix_types = G Z" in out
        code, out = run(capsys, "iso", "table", "--reversing", "--phi2-id")
        assert "pi1(S)" in out


def _signed(magnitudes):
    return st.builds(lambda x, sign: sign * x, magnitudes, st.sampled_from((1, -1)))


_REALS = st.one_of(
    st.floats(-10, 10),
    _signed(st.floats(1e150, sys.float_info.max)),
    _signed(st.floats(5e-324, 2.2e-308)),           # subnormal
    st.just(0.0),
).map(repr)
_ENTRIES = st.one_of(
    _REALS,
    st.builds(lambda re, im, unit: f"{re}{'' if im.startswith('-') else '+'}{im}{unit}",
              _REALS, _REALS, st.sampled_from("ji")),
    st.sampled_from(("inf", "-inf", "nan", "1+infj", "nanj")),
    st.text(alphabet="0123456789.e+-ij,; x()", max_size=8),   # malformed, mostly
)
_MATRICES = st.builds(lambda a, b, c, d: f"{a},{b};{c},{d}",
                      _ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES)
_TOLS = st.one_of(st.none(), st.floats(1e-300, 1e3).map(repr),
                  st.sampled_from(("0", "-1", "nan", "inf")))


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestIsoContract:
    """``iso classify`` (with and without ``--rev``) and ``iso commute`` on
    moderate, huge, subnormal, zero, non-finite and malformed entries and
    on valid and invalid tolerances: exit 0, 1 or 2 and no traceback.  Exit
    1 is one ``error:`` line and nothing else, or a report whose check
    failed (``commute_iff_criterion``, which floats can break when entries
    reach 1e150 and past)."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from((("classify",), ("classify", "--rev"), ("commute",))),
           _MATRICES, _MATRICES, _TOLS)
    def test_exit_status_and_error_lines(self, command, m1, m2, tol):
        if command[0] == "commute":
            argv = ["iso", "commute", f"--m1={m1}", f"--m2={m2}"]
        else:
            argv = ["iso", "classify", f"--m={m1}", *command[1:]]
        if tol is not None:
            argv.append(f"--tol={tol}")
        code, out, err = _captured(argv)  # an exception (a traceback) fails here
        assert code in (0, 1, 2)
        if code == 0:
            assert err == ""
        elif code == 1 and err:
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err
        elif code == 1:
            assert "\nFAIL " in out
        else:
            assert err.startswith("usage: ")


_ORIENTATIONS = ((), ("--orientable",), ("--non-orientable",),
                 ("--orientable", "--non-orientable"), ("--non-orientable", "--orientable"))


class TestAuditContract:
    """``audit`` on one case, with every flag combination, and ``audit
    --sweep`` on drawn maxima: exit 0 ends with a ``PASS`` line; exit 1
    prints nothing on stdout and one ``error:`` line, for one case the text
    of ``reference_validate``; options of both modes in one call exit 2 with
    a usage text; no run raises."""

    @staticmethod
    def assert_contract(argv, fault):
        code, out, err = _captured(argv)  # an exception (a traceback) fails here
        if fault is None:
            assert code == 0 and err == "", (argv, err)
            assert out.splitlines()[-1].startswith("PASS "), out
        else:
            assert code == 1 and out == "", (argv, out)
            assert err == f"error: {fault}\n"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-3, 60), st.integers(-3, 60), st.integers(-3, 60),
           st.sampled_from(_ORIENTATIONS), st.booleans(), st.booleans())
    def test_one_case(self, g, m, l, orientation, separating, same):
        flags = [*orientation]
        flags += ["--separating"] * separating + ["--same-component"] * same
        case = AuditCase(g, m, l, orientation[-1:] != ("--non-orientable",), separating, same)
        try:
            reference_validate(case)
        except AuditError as exc:
            fault = str(exc)
        else:
            fault = None
        self.assert_contract(["audit", f"--g={g}", f"--m={m}", f"--l={l}", *flags], fault)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-2, 12), st.integers(-2, 12), st.integers(-2, 12))
    def test_sweep(self, g_max, m_max, l_max):
        maxima = (("genus_max", g_max), ("torus_pairs_max", m_max),
                  ("single_circles_max", l_max))
        fault = next((f"{name} must be >= 0, got {value}" for name, value in maxima
                      if value < 0), None)
        self.assert_contract(["audit", "--sweep", f"--g-max={g_max}", f"--m-max={m_max}",
                              f"--l-max={l_max}"], fault)

    @settings(max_examples=300, deadline=None)
    @given(st.booleans(),
           st.lists(st.sampled_from(("--g", "--m", "--l", "--g-max", "--m-max", "--l-max")),
                    unique=True),
           st.lists(st.sampled_from(("--orientable", "--non-orientable", "--separating",
                                     "--same-component")), max_size=3),
           st.sampled_from(("-1", "0", "1", "3", "5", "10")), st.randoms(use_true_random=False))
    def test_one_mode_per_call(self, sweep, valued, flags, value, rng):
        # A single-case option given with --sweep, or a maximum given without
        # it, is a usage error naming one such option, also at its default.
        argv = [*flags, *(f"{option}={value}" for option in valued)]
        if sweep:
            argv.insert(rng.randint(0, len(argv)), "--sweep")
            # Of --orientable and --non-orientable the later wins, as for a
            # single case, and is the one named.
            stray = [o for o in valued if not o.endswith("-max")]
            stray += [f for f in flags if not f.endswith("orientable")]
            stray += [f for f in flags if f.endswith("orientable")][-1:]
        else:
            stray = [o for o in valued if o.endswith("-max")]
        code, out, err = _captured(["audit", *argv])
        if not stray:
            assert code in (0, 1), (argv, err)
            if code == 0:
                assert err == "" and out.splitlines()[-1].startswith("PASS "), out
            else:
                assert out == "" and err.count("\n") == 1 and err.startswith("error: "), err
            return
        assert code == 2 and out == "", (argv, out)
        assert err.startswith("usage: geodouble audit "), err
        match = re.fullmatch(r"geodouble audit: error: argument (\S+): not allowed "
                             r"(with|without) argument --sweep", err.splitlines()[-1])
        assert match and match[1] in stray and match[2] == ("with" if sweep else "without"), err


# Arguments for the contract of the other rows: counts at and past their
# bounds and malformed, words and syllables over letters, brackets, signs
# and digits, and scheme files of at most five tetrahedra with bad headers,
# unknown faces, self-pairings, repeated faces and bad edgeorders.
_COUNTS = st.sampled_from(("-1", "0", "1", "2", "4", "5", "6", "27", "x", "2.5"))
_WORD_TEXT = st.one_of(st.text(alphabet="abAB", max_size=6),
                       st.text(alphabet="abcABC1[]-0z", max_size=8))
_GENERATORS = st.lists(_WORD_TEXT, max_size=4).map(",".join)
_SYLLABLES = st.lists(st.tuples(st.sampled_from(("u:", "p:", "x:", "", "u")), _WORD_TEXT)
                      .map("".join), max_size=4).map(" ".join)
_EPSILONS = st.sampled_from(("0", "3", "1/0", "x", "0.1", "1/2", "1"))
_FACE_TOKENS = st.builds("{}.{}".format, st.integers(-1, 6),
                         st.sampled_from(triangulation.FACE_NAMES + ("123", "x")))
_PAIR_LINES = st.builds(
    lambda a, b, order: f"pair {a} {b}{order}", _FACE_TOKENS, _FACE_TOKENS,
    st.one_of(st.just(""), st.lists(st.integers(0, 7), max_size=4).map(
        lambda o: " edgeorder " + " ".join(map(str, o))), st.just(" edge 1 6 5")))
_SCHEME_TEXTS = st.one_of(
    st.sampled_from(("tets 1\n", "tets 2\npair 1.132 2.453 edgeorder 3 1 2\n",
                     render_scheme(family_scheme(4)), render_scheme(family_scheme(5)))),
    st.builds(lambda header, lines, self_pair: "\n".join([header, *lines, *self_pair]) + "\n",
              st.sampled_from(("tets 1", "tets 2", "tets 5", "tets 0", "tets -1", "tets x",
                               "tet 2", "# no header")),
              st.lists(_PAIR_LINES, max_size=6),
              st.lists(_FACE_TOKENS.map(lambda f: f"pair {f} {f}"), max_size=1)))


def _option(flag, values):
    return st.tuples(st.just(flag), values).map(list)


def _contract_argv(path, scheme):
    """A strategy of argv lists for the row ``path``, with ``scheme`` the
    path of a scheme file."""
    file = st.just([scheme])
    rank_gens = (_option("--rank", _COUNTS), _option("--gens", _GENERATORS))
    pres_input = st.one_of(
        _option("--scheme", st.just(scheme)),
        st.tuples(_option("--gens", _COUNTS), _option("--relators", _GENERATORS))
        .map(lambda options: options[0] + options[1]))
    args = {
        "family report": (_option("--n-min", _COUNTS), _option("--n-max", _COUNTS),
                          st.one_of(st.just([]), _option("--epsilon", _EPSILONS))),
        "family verify": (_option("--n", _COUNTS),),
        "scheme info": (file,),
        "scheme canon": (file,),
        "scheme family": (_option("--n", _COUNTS),),
        "fg fold": rank_gens,
        "fg member": (*rank_gens, _option("--word", _WORD_TEXT)),
        "fg rank": rank_gens,
        "fg index": rank_gens,
        "fg rep": (*rank_gens, _option("--word", _WORD_TEXT)),
        "double nf": (_option("--rank", _COUNTS), _option("--H", _GENERATORS),
                      _option("--word", _SYLLABLES)),
        "double fixtest": (_option("--rank", _COUNTS), _option("--H", _GENERATORS),
                           _option("--samples", _COUNTS), _option("--seed", _COUNTS)),
        "pres from-scheme": (file,),
        "pres simplify": (pres_input,),
        "pres h1rank": (pres_input,),
    }[path]
    return st.tuples(*args).map(lambda parts: [*path.split(), *itertools.chain(*parts)])


class TestCommandContract:
    """Every row but ``iso`` and ``audit`` (which have their own contract
    tests above), with and without ``--machine``, on drawn valid, boundary
    and malformed arguments and scheme files: exit 0, 1 or 2 and no
    traceback.  Exit 1 is empty stdout and one ``error:`` line, or a report
    holding a failed check; exit 2 is a usage text."""

    @pytest.mark.parametrize("path", [p for p in cli.COMMANDS
                                      if not p.startswith(("iso ", "audit"))])
    @settings(max_examples=50, deadline=None)
    @given(machine=st.booleans(), scheme_text=_SCHEME_TEXTS, data=st.data())
    def test_exit_status_and_error_lines(self, tmp_path_factory, path, machine, scheme_text,
                                         data):
        scheme = tmp_path_factory.getbasetemp() / "contract.scheme"
        scheme.write_text(scheme_text)
        argv = ["--machine"] * machine + data.draw(_contract_argv(path, str(scheme)))
        code, out, err = _captured(argv)  # an exception (a traceback) fails here
        assert code in (0, 1, 2), (argv, code)
        if code == 0:
            assert err == "", (argv, err)
        elif code == 1 and err:
            assert out == "", (argv, out)
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        elif code == 1:
            assert "\nFAIL " in out or "=fail\n" in out, (argv, out)
        else:
            assert out == "" and err.startswith("usage: "), (argv, out, err)


class TestPresAudit:
    def test_pres_from_scheme(self, tmp_path, capsys):
        path = tmp_path / "family4.scheme"
        path.write_text(render_scheme(family_scheme(4)))
        code, out = run(capsys, "pres", "from-scheme", str(path))
        assert code == 0
        assert "generators = 2" in out
        assert "relators = 8" in out

    def test_pres_from_scheme_empty_path_is_error(self, capsys):
        line = run_error(capsys, "pres", "from-scheme", "")
        assert "No such file or directory" in line

    def test_pres_simplify_empty_scheme_option_is_empty_presentation(self, capsys):
        code, out = run(capsys, "pres", "simplify", "--scheme", "")
        assert code == 0
        assert out == ("command: pres simplify\npresentation = <  |  >\n"
                       "simplified = <  |  >\ngenerators = 0\nrelators = 0\n")

    def test_pres_h1rank(self, capsys):
        code, out = run(capsys, "pres", "h1rank", "--gens", "2",
                        "--relators", "abAB")
        assert code == 0
        assert "h1_rank = 2" in out

    def test_pres_h1rank_names_generators_past_z(self, capsys):
        code, out = run(capsys, "pres", "h1rank", "--gens", "30", "--relators", "")
        assert code == 0
        assert out.splitlines()[1] == (
            "presentation = < a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t, "
            "u, v, w, x, y, z, [27], [28], [29], [30] |  >")

    def test_pres_h1rank_reads_generators_past_z(self, capsys):
        code, out = run(capsys, "pres", "h1rank", "--gens", "28", "--relators", "[27]")
        assert code == 0
        assert out.splitlines()[1:3] == [
            "presentation = < a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t, "
            "u, v, w, x, y, z, [27], [28] | [27] >", "h1_rank = 27"]
        assert run_error(capsys, "pres", "h1rank", "--gens", "28", "--relators", "[29]") == (
            "error: letter '[29]' outside the rank-28 alphabet")

    def test_pres_simplify(self, capsys):
        code, out = run(capsys, "pres", "simplify", "--gens", "2",
                        "--relators", "b")
        assert code == 0
        assert "generators = 1" in out

    def test_audit_single_case(self, capsys):
        code, out = run(capsys, "audit", "--g", "2", "--m", "1", "--l", "0",
                        "--orientable", "--separating")
        assert code == 0
        assert "PASS final_inequality_strict" in out

    def test_audit_sweep(self, capsys):
        code, out = run(capsys, "audit", "--sweep", "--g-max", "5",
                        "--m-max", "3", "--l-max", "3")
        assert code == 0
        assert "PASS all_final_inequalities_strict" in out

    @pytest.mark.parametrize("box, cases", [(("10", "5", "5"), 877),
                                            (("80", "20", "20"), 74322)])
    def test_audit_sweep_output(self, capsys, box, cases):
        code, out = run(capsys, "audit", "--sweep", "--g-max", box[0],
                        "--m-max", box[1], "--l-max", box[2])
        assert code == 0
        assert out == (f"command: audit sweep --g-max {box[0]} --m-max {box[1]} "
                       f"--l-max {box[2]}\ncases = {cases}\n"
                       "PASS all_final_inequalities_strict\n")

    def test_audit_sweep_fails_on_a_zero_margin(self, capsys, monkeypatch):
        # The orientable separating region without circles bounds twice the
        # ambient rank by 4 + 4g against 2 * surface rank = 4g.  A bound of
        # 5g leaves margin g, which is 0 at the one case g = 0 of that region.
        region = (True, True, False, False)
        steps = presentations._REGIONS[region]
        label, _, assumed, strict = steps[-1]
        monkeypatch.setitem(presentations._REGIONS, region,
                            steps[:-1] + ((label, (0, 5, 0, 0), assumed, strict),))
        code, out = run(capsys, "audit", "--sweep")
        assert code == 1
        assert out.splitlines()[1:] == ["cases = 877", "FAIL all_final_inequalities_strict"]

    def test_audit_inconsistent_params(self, capsys):
        assert main(["audit", "--g", "2", "--m", "1", "--l", "1",
                     "--separating"]) == 1

    @pytest.mark.parametrize("flag, name", [("--g-max", "genus_max"),
                                            ("--m-max", "torus_pairs_max"),
                                            ("--l-max", "single_circles_max")])
    def test_audit_sweep_negative_maximum_is_error(self, capsys, flag, name):
        line = run_error(capsys, "audit", "--sweep", flag, "-1")
        assert line == f"error: {name} must be >= 0, got -1"


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["bogus"]) == 2

    def test_missing_required_usage_error(self, capsys):
        assert main(["family", "verify"]) == 2


class TestErrorTexts:
    """Error texts of the library's own argument checks, and the one
    ``error:`` line the CLI prints for those it reaches."""

    @pytest.mark.parametrize("call, message, argvs", [
        (lambda: parse_matrix("1,0"), "matrix needs two ';'-separated rows",
         [["iso", "classify", "--m", "1,0"]]),
        (lambda: DoubleWord.from_str("ab"), "syllable 'ab' needs a side prefix u: or p:",
         [["double", "nf", "--rank", "2", "--H", "aa,b", "--word", "ab"]]),
        (lambda: Presentation(-1, ()), "generator count must be >= 0", []),
        (lambda: surface_rank(0, -1, True), "boundary circle count must be >= 0", []),
        # The rank is checked ahead of the letters it bounds.
        (lambda: stallings_graph([], -1), "ambient rank must be >= 0",
         [["fg", "fold", "--rank", "-1", "--gens", "a"],
          ["double", "nf", "--rank", "-1", "--H", "a", "--word", "u:a"]]),
        (lambda: commuting_criterion(Isometry(1, 0, 0, 1, reversing=True), Isometry(1, 1, 0, 1)),
         "criterion applies to orientation-preserving isometries", []),
        # An inversion in a circle of radius 1e-5: r^2 = 1e-10 is inside the tolerance.
        (lambda: fixed_points(Isometry(0, 1e-10, 1, 0, reversing=True)),
         "degenerate reversing involution",
         [["iso", "classify", "--m", "0,1e-10;1,0", "--rev"]]),
        (lambda: AuditCase(genus=-1, torus_pairs=0, single_circles=0, orientable=True,
                           separating=True).validate(),
         "orientable genus must be >= 0",
         [["audit", "--g", "-1", "--orientable", "--separating"]]),
        # Ranks and generator counts are plain ints >= 0, checked where they enter.
        (lambda: stallings_graph(["a"], 2.0), "ambient rank 2.0 is not an int", []),
        (lambda: stallings_graph(["a"], True), "ambient rank True is not an int", []),
        (lambda: Double.from_generators(["a"], "2"), "ambient rank '2' is not an int", []),
        (lambda: SubgroupGraph.from_adjacency(-1, [{1: 0, -1: 0}]),
         "ambient rank must be >= 0", []),
        (lambda: SubgroupGraph.from_adjacency(1.0, [{1: 0, -1: 0}]),
         "ambient rank 1.0 is not an int", []),
        (lambda: word_from_str("a", -1), "ambient rank must be >= 0", []),
        (lambda: word_from_str("a", 2.5), "ambient rank 2.5 is not an int", []),
        (lambda: Presentation(2.0, ((1,),)), "generator count 2.0 is not an int", []),
        (lambda: Presentation(False, ()), "generator count False is not an int", []),
    ], ids=["parse_matrix", "double_word", "presentation", "surface_rank", "stallings_graph",
            "commuting_criterion", "fixed_points", "audit_case", "float_rank", "bool_rank",
            "str_rank", "adjacency_negative_rank", "adjacency_float_rank",
            "word_negative_rank", "word_float_rank", "float_generator_count",
            "bool_generator_count"])
    def test_message(self, capsys, call, message, argvs):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
        for argv in argvs:
            assert run_error(capsys, *argv) == f"error: {message}"


class TestCommandTable:
    def test_every_group_and_path_has_a_parser(self, capsys):
        for path in cli.COMMANDS:
            assert main([*path.split(), "--help"]) == 0
            assert capsys.readouterr().out.startswith(f"usage: geodouble {path} ")
        for group in cli.GROUP_HELP:
            assert main([group, "--help"]) == 0
            assert f"usage: geodouble {group} " in capsys.readouterr().out

    def test_parser_built_once_seed_read_per_call(self, capsys):
        cli.build_parser.cache_clear()
        argv = ("--machine", "double", "fixtest", "--rank", "2", "--H", "aa", "--samples", "5")
        code, out = run(capsys, *argv, "--seed", "11")
        assert code == 0 and "seed=11" in out.splitlines()
        code, out = run(capsys, *argv, "--seed", "12")
        assert code == 0 and "seed=12" in out.splitlines()
        assert cli.build_parser.cache_info().misses == 1


class TestNoRecordsOnHotPaths:
    """The column layout of a scheme is read directly: no step of the family
    pipeline, ``family verify`` or ``scheme info`` builds a FaceSlot or
    FacePairing record."""

    @pytest.fixture
    def no_records(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            # Not a ValueError, so that cli.main does not report it as input.
            raise AssertionError("a scheme record was built")

        monkeypatch.setattr(triangulation.FaceSlot, "__init__", refuse)
        monkeypatch.setattr(triangulation.FacePairing, "__init__", refuse)

    def test_records_are_refused(self, no_records):
        with pytest.raises(AssertionError):
            family_scheme(4).pairings

    def test_family_pipeline(self, no_records):
        n = 64
        scheme = family_scheme(n)
        parsed = triangulation.parse_scheme(render_scheme(scheme))
        assert parsed == scheme and hash(parsed) == hash(scheme)
        cx = triangulation.glue(parsed)
        assert [c.genus for c in triangulation.boundary_surfaces(cx).components] == [n - 1]
        assert triangulation.handle_structure(cx) == (n + 1, 2)
        assert len(triangulation.dihedral_report(cx)) == 2
        pres = presentations.presentation_from_complex(cx)
        assert presentations.abelianization(pres).rank == 0

    def test_family_verify_and_scheme_info(self, capsys, tmp_path, no_records):
        code, out = run(capsys, "family", "verify", "--n", "64")
        assert code == 0 and "FAIL" not in out
        path = tmp_path / "f8.scheme"
        path.write_text(render_scheme(family_scheme(8)))
        code, out = run(capsys, "--machine", "scheme", "info", str(path))
        assert code == 0 and "pairings=16" in out.splitlines()
