import argparse
import contextlib
import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permsphere import KENDALL, L1, cli, count_report, growth, oracle, oracle_sphere, pipeline, verify
from permsphere.cli import main
from permsphere.oracle import EnumerationCapError
from permsphere.metrics import MetricId

from helpers import cold_pipeline

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


class TestDist:
    def test_l1_single(self, capsys):
        code, out = run(capsys, "dist", "--metric", "l1", "--perm", "1 4 3 2 5 7 6")
        assert code == 0 and out.strip() == "6"

    def test_transposition(self, capsys):
        code, out = run(capsys, "dist", "--metric", "l1", "--perm", "2 1")
        assert code == 0 and out.strip() == "2"

    def test_kendall(self, capsys):
        code, out = run(capsys, "dist", "--metric", "kendall", "--perm", "3 2 1")
        assert code == 0 and out.strip() == "3"

    def test_lp_scale_labelled(self, capsys):
        code, out = run(capsys, "dist", "--metric", "lp:2", "--perm", "3 2 1")
        assert code == 0 and out.startswith("8") and "p-th power" in out

    def test_pairwise(self, capsys):
        code, out = run(capsys, "dist", "--metric", "l1", "--perm", "2 1", "--perm2", "1 2")
        assert code == 0 and out.strip() == "2"


class TestSphereBall:
    def test_sphere_both(self, capsys):
        code, out = run(
            capsys, "sphere", "--metric", "l1", "--n", "5", "--radius", "12", "--method", "both"
        )
        assert code == 0
        assert "pipeline: 20" in out and "oracle: 20" in out and "match" in out

    def test_sphere_radius_zero(self, capsys):
        code, out = run(capsys, "sphere", "--metric", "l1", "--n", "3", "--radius", "0")
        assert code == 0 and "pipeline: 1" in out

    def test_ball(self, capsys):
        code, out = run(
            capsys, "ball", "--metric", "l1", "--n", "4", "--radius", "4", "--method", "both"
        )
        assert code == 0 and "pipeline: 11" in out

    def test_json_decimal_strings(self, capsys):
        code, out = run(
            capsys,
            "--format", "json",
            "sphere", "--metric", "l1", "--n", "5", "--radius", "12", "--method", "both",
        )
        doc = json.loads(out)
        assert doc["pipeline"] == "20" and doc["oracle"] == "20" and doc["match"] is True

    def test_pipeline_beyond_the_oracle_cap(self, capsys):
        code, out = run(capsys, "sphere", "--metric", "l1", "--n", "30", "--radius", "26")
        assert code == 0 and out.startswith("pipeline: ")

    def test_ball_at_a_huge_radius_is_the_group(self, capsys):
        code, out = run(capsys, "ball", "--metric", "l1", "--n", "3", "--radius", "1000000000")
        assert code == 0 and out == "pipeline: 6\n"


class TestBeta:
    def test_single_cell(self, capsys):
        code, out = run(
            capsys, "beta", "--metric", "l1", "--k", "6", "--m", "8", "--q", "2"
        )
        assert code == 0 and "beta=405" in out

    def test_k1_slice(self, capsys):
        code, out = run(capsys, "beta", "--metric", "l1", "--k", "1")
        assert code == 0 and out.strip() == "R=2 m=2 q=1 beta=1"

    def test_lemma_value(self, capsys):
        code, out = run(capsys, "beta", "--metric", "l1", "--k", "9", "--m", "6", "--q", "1")
        assert code == 0 and "beta=36" in out

    # no split type of degree 3 lies past farthest(3) = 4: the read is 0 at
    # once and grows no cell of the table
    @pytest.mark.parametrize("metric", ["l1", "kendall"])
    def test_cell_past_the_farthest_distance_grows_nothing(self, capsys, metric):
        pipeline.beta_table.cache_clear()
        code, out = run(capsys, "beta", "--metric", metric, "--k", "1000000", "--m", "3", "--q", "1")
        radius = 1000000 * pipeline.radius_step(MetricId.parse(metric))
        assert code == 0 and out == f"R={radius} m=3 q=1 beta=0\n"
        assert pipeline.beta_table(MetricId.parse(metric)).rows == {}

    def test_csv_header(self, capsys):
        code, out = run(capsys, "--format", "csv", "beta", "--metric", "l1", "--k", "2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert {r["m"]: r["beta"] for r in rows} == {"3": "3", "4": "1"}

    def test_format_after_subcommand(self, capsys):
        code, out = run(capsys, "beta", "--metric", "l1", "--k", "2", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert {r["m"]: r["beta"] for r in rows} == {"3": "3", "4": "1"}

    # --k is the size bound N(R): radius 2k under l1, k under Kendall
    @pytest.mark.parametrize("metric, k, radius", [("kendall", "3", "3"), ("l1", "3", "6")])
    def test_k_is_the_size_bound(self, capsys, metric, k, radius):
        by_k = run(capsys, "beta", "--metric", metric, "--k", k)
        by_radius = run(capsys, "beta", "--metric", metric, "--radius", radius)
        assert by_k == by_radius and by_k[1].startswith(f"R={radius} ")

    @pytest.mark.parametrize("args", [
        ("--k", "1"), ("--k", "2"), ("--radius", "0"), ("--k", "6", "--m", "7", "--q", "2"),
    ])
    def test_json_is_a_list_whatever_the_row_count(self, capsys, args):
        code, out = run(capsys, "--format", "json", "beta", "--metric", "l1", *args)
        doc = json.loads(out)
        assert code == 0 and isinstance(doc, list) and doc
        assert all(set(row) == {"radius", "m", "q", "beta"} for row in doc)

    @pytest.mark.parametrize("args", [
        ("dist", "--metric", "l1", "--perm", "2 1"),
        ("sphere", "--metric", "l1", "--n", "4", "--radius", "4"),
        ("ball", "--metric", "kendall", "--n", "4", "--radius", "2"),
        ("poly", "--metric", "l1", "--radius", "4"),
        ("poly", "--metric", "l1", "--radius", "4", "--basis", "monomial"),
        ("poly", "--metric", "l1", "--radius", "4", "--eval", "5"),
    ])
    def test_single_row_commands_print_an_object(self, capsys, args):
        code, out = run(capsys, "--format", "json", *args)
        assert code == 0 and isinstance(json.loads(out), dict)


class TestPoly:
    def test_monomial(self, capsys):
        code, out = run(
            capsys, "poly", "--metric", "l1", "--radius", "4", "--basis", "monomial"
        )
        assert code == 0 and out.strip() == "(n^2 + n - 6)/2"

    def test_eval(self, capsys):
        code, out = run(capsys, "poly", "--metric", "l1", "--radius", "12", "--eval", "5")
        assert code == 0 and out.strip() == "20"

    @pytest.mark.parametrize("metric, radius, n", [
        ("l1", 0, 1), ("l1", 9, 6), ("l1", 16, 3), ("l1", 16, 12), ("l1", 24, 40),
        ("kendall", 5, 2), ("kendall", 8, 7), ("kendall", 8, 100),
    ])
    def test_eval_is_the_polynomial_value(self, capsys, metric, radius, n):
        poly = growth.sphere_polynomial(MetricId.parse(metric), radius)
        code, out = run(capsys, "poly", "--metric", metric, "--radius", str(radius), "--eval", str(n))
        assert code == 0 and out == f"{poly.evaluate(n)}\n"

    def test_eval_builds_no_base_above_n(self, capsys, monkeypatch):
        from permsphere.pipeline import connected_histogram

        cold_pipeline()
        degrees = []
        monkeypatch.setattr(
            pipeline,
            "connected_histogram",
            lambda metric, m, radius=None: degrees.append(m) or connected_histogram(metric, m, radius),
        )
        code, out = run(capsys, "poly", "--metric", "l1", "--radius", "40", "--eval", "3")
        assert code == 0 and out == "0\n"
        code, out = run(capsys, "poly", "--metric", "kendall", "--radius", "2", "--eval", "3")
        assert code == 0 and out == "2\n"
        assert degrees and max(degrees) <= 3

    def test_binomial_json(self, capsys):
        code, out = run(
            capsys, "--format", "json", "poly", "--metric", "l1", "--radius", "2"
        )
        doc = json.loads(out)
        assert doc["terms"] == [{"coef": "1", "m": 2, "q": 1}]

    @pytest.mark.parametrize("radius, rows", [
        # (n^2 + n - 6)/2, ascending powers of n
        (4, [("0", "-6", "2"), ("1", "1", "2"), ("2", "1", "2")]),
        # an odd l1 radius has the zero polynomial
        (3, [("0", "0", "1")]),
    ])
    def test_monomial_csv_row_per_power(self, capsys, radius, rows):
        code, out = run(capsys, "--format", "csv", "poly", "--metric", "l1", "--radius", str(radius),
                        "--basis", "monomial")
        got = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert [(r["degree"], r["coefficient"], r["denominator"]) for r in got] == rows
        code, out = run(capsys, "--format", "json", "poly", "--metric", "l1", "--radius", str(radius),
                        "--basis", "monomial")
        doc = json.loads(out)
        assert doc["coefficients"] == [r[1] for r in rows]
        assert {doc["denominator"]} == {r[2] for r in rows}

    def test_zero_polynomial_csv_is_a_header(self, capsys):
        # an odd l1 radius has the zero polynomial, as text prints 0
        code, out = run(capsys, "poly", "--metric", "l1", "--radius", "3", "--format", "csv")
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [["coef", "m", "q"]]


class TestVerify:
    def test_report_equals_the_pinned_json(self, capsys):
        """Every verdict and value of the n <= 8, k <= 12 matrix, byte for
        byte as committed; a pipeline refactor must leave it unchanged."""
        pinned = (Path(__file__).parent / "verify_n8_k12_p6.json").read_text()
        code, out = run(
            capsys, "--format", "json", "verify", "--max-n", "8", "--max-k", "12",
            "--include-printed-p6",
        )
        assert code == 0 and out == pinned

    def test_small_matrix(self, capsys):
        code, out = run(capsys, "verify", "--max-n", "4", "--max-k", "3")
        assert code == 0
        assert "[PASS]" in out and "FAIL" not in out

    def test_json_report(self, capsys):
        code, out = run(capsys, "--format", "json", "verify", "--max-n", "3", "--max-k", "2")
        doc = json.loads(out)
        assert code == 0 and doc["ok"] is True
        assert all(c["verdict"] == "match" for c in doc["checks"])

    def test_second_drop_reported_against_the_published_constant(self, capsys):
        code, out = run(capsys, "verify", "--max-n", "2", "--max-k", "7", "--format", "json")
        doc = json.loads(out)
        checks = {c["name"]: c for c in doc["checks"]}
        assert code == 0 and doc["ok"] is True
        assert checks["closed-forms-vs-convolution"]["verdict"] == "match"
        disputed = checks["closed-form-beta-disputed-cells"]
        assert disputed["verdict"] == "paper-discrepancy"
        assert disputed["values"]["cells"] == "(k=7,m=6,q=1): published 128, table 136"

    def test_trivial(self, capsys):
        code, out = run(capsys, "verify", "--max-n", "2", "--max-k", "1")
        assert code == 0

    def test_truncated_identity_checked_where_it_holds(self, capsys):
        code, out = run(capsys, "verify", "--max-n", "6", "--max-k", "10", "--format", "json")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert code == 0
        assert checks["truncated-polynomial-identity"]["values"] == {"k": "1..9", "mismatches": "none"}

    def test_over_cap_fails_before_sweeping(self, capsys, monkeypatch):
        swept = []
        monkeypatch.setattr(oracle, "_sweep_group", lambda metric, n: swept.append(n) or {})
        code = main(["verify", "--max-n", "13"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and swept == []
        assert captured.err == "error: enumerating S_13 exceeds the configured cap of 12\n"

    # with the disputed cell the matrix also sweeps S_7, above a cap of 6
    def test_disputed_cell_over_cap_fails_before_sweeping(self, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("an oracle sweep ran before the cap check")

        for entry in ("group_histogram", "oracle_sphere", "oracle_ball"):
            monkeypatch.setattr(verify, entry, sweep)
        with pytest.raises(EnumerationCapError, match="enumerating S_7 exceeds the configured cap of 6"):
            verify.run_verify(6, 6, True, cap=6)

    def test_disputed_cell_needs_k6(self):
        report = verify.run_verify(6, 5, True, cap=6)
        assert report.ok and "printed-polynomial-k6-disputed-cell" not in {c.name for c in report.checks}

    def test_one_debug_line_per_check_function(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="permsphere.verify"):
            report = verify.run_verify(2, 6, True)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("verify check ")]
        names = [line.split()[2].rstrip(":") for line in lines]
        counts = [int(line.split()[3]) for line in lines]
        assert names == [check.__name__ for check in verify._CHECKS]
        assert sum(counts) == len(report.checks)
        assert counts[names.index("_printed_polynomials")] == 7

    @pytest.mark.parametrize("metric", (L1, KENDALL), ids=("l1", "kendall"))
    def test_whole_lists_each_group_histogram(self, metric):
        ctx = verify.VerifyContext(6, 1, False, 6)
        whole = ctx.whole(metric)
        assert len(whole) == 7 and whole[0] == {0: 1}
        for m in range(1, 7):
            assert whole[m] == oracle.group_histogram(metric, m)
            assert sum(whole[m].values()) == math.factorial(m)
        # the caller owns what it gets: edits reach neither the memo nor the next call
        expected = [dict(h) for h in whole]
        whole[6][0] = -1
        whole.append({})
        assert ctx.whole(metric) == expected


def _off_by_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1


def _printed(k, cell, coef):
    """The printed radius-2k polynomial with the (m, q) cell's coefficient replaced."""
    return tuple((coef if (m, q) == cell else c, m, q) for c, m, q in verify.PRINTED_SPHERE_POLYS[k])


# Each case breaks one side of one check: (patch, check, max_n, max_k), where
# patch applies the break through pytest's monkeypatch.
MISMATCHES = {
    "pipeline-vs-oracle": (
        lambda mp: mp.setattr(verify, "pipeline_sphere", _off_by_one(verify.pipeline_sphere)),
        "l1-oracle-equivalence-n2", 2, 1,
    ),
    "printed-k6-undisputed": (
        lambda mp: mp.setitem(verify.PRINTED_SPHERE_POLYS, 6, _printed(6, (8, 2), 406)),
        "printed-polynomial-k6-undisputed", 2, 6,
    ),
    "closed-form-vs-convolution": (
        lambda mp: mp.setattr(verify, "beta", _off_by_one(verify.beta)), "closed-forms-vs-convolution", 2, 2,
    ),
    "series-vs-slice": (
        lambda mp: mp.setattr(verify, "series_coefficients", lambda k, count: [1] * (count + 1)),
        "series-vs-slice-polynomial", 2, 1,
    ),
    "truncated-identity": (
        lambda mp: mp.setattr(verify, "q_polynomial", lambda k: growth.BinomialPoly(())),
        "truncated-polynomial-identity", 2, 1,
    ),
    "hamming-formula": (
        lambda mp: mp.setattr(verify, "hamming_sphere", lambda n, j: 0), "hamming-sphere-formula", 2, 1,
    ),
    "max-l1-closed": (lambda mp: mp.setattr(verify, "max_l1", lambda m: 0), "max-l1-distances", 2, 1),
    "max-l1-maximizers": (lambda mp: mp.setitem(verify.MAX_L1_SPHERE, 4, 5), "max-l1-distances", 4, 1),
}


@pytest.mark.parametrize("patch, name, max_n, max_k", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_a_broken_side_fails_the_matrix(capsys, monkeypatch, patch, name, max_n, max_k):
    patch(monkeypatch)
    report = verify.run_verify(max_n, max_k)
    check = {c.name: c for c in report.checks}[name]
    assert check.verdict == verify.MISMATCH and check.values["mismatches"] != "none"
    assert not report.ok
    code, out = run(capsys, "verify", "--max-n", str(max_n), "--max-k", str(max_k))
    assert code == 1 and out.endswith("INTERNAL MISMATCH DETECTED\n")


# the disputed cell: the pipeline against the S_7 sweep fails the run; a
# printed coefficient that agrees with the table makes the cell a match
@pytest.mark.parametrize("broken", (True, False), ids=("pipeline-off", "printed-agrees"))
def test_disputed_cell_verdicts(capsys, monkeypatch, broken):
    if broken:
        monkeypatch.setattr(verify, "pipeline_sphere", _off_by_one(verify.pipeline_sphere))
    else:
        agreed = growth.sphere_polynomial(L1, 12).coefficient(*verify.DISPUTED_P6_CELL)
        monkeypatch.setitem(verify.PRINTED_SPHERE_POLYS, 6, _printed(6, verify.DISPUTED_P6_CELL, agreed))
    report = verify.run_verify(2, 6, True)
    check = {c.name: c for c in report.checks}["printed-polynomial-k6-disputed-cell"]
    values = check.values
    assert (values["pipeline-count-n7"] != values["oracle-count-n7"]) is broken
    assert check.verdict == (verify.MISMATCH if broken else verify.MATCH)
    assert report.ok is not broken
    code, out = run(capsys, "verify", "--max-n", "2", "--max-k", "6", "--include-printed-p6")
    assert code == int(broken)
    assert out.endswith("INTERNAL MISMATCH DETECTED\n" if broken else "all internal checks passed\n")


class TestOptions:
    def test_max_enum_degree_after_subcommand(self, capsys):
        code, out = run(capsys, "sphere", "--metric", "l1", "--n", "5", "--radius", "4",
                        "--method", "oracle", "--max-enum-degree", "12")
        assert code == 0 and out == "oracle: 12\n"
        code = main(["--max-enum-degree", "12", "verify", "--max-n", "5", "--max-enum-degree", "4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: enumerating S_5 exceeds the configured cap of 4\n"

    def test_max_enum_degree_lasts_one_call(self, capsys):
        code, out = run(capsys, "--max-enum-degree", "5", "sphere", "--metric", "l1", "--n", "4",
                        "--radius", "4", "--method", "oracle")
        assert code == 0 and out == "oracle: 7\n"
        code, out = run(capsys, "sphere", "--metric", "l1", "--n", "7", "--radius", "4",
                        "--method", "oracle")
        assert code == 0 and out == "oracle: 25\n"

    # The cap is an argument of the call, not a setting of the module, so a
    # command that sweeps nothing leaves no lowered cap behind either.
    def test_max_enum_degree_leaves_the_library_uncapped(self, capsys):
        assert main(["--max-enum-degree", "4", "dist", "--metric", "l1", "--perm", "2 1"]) == 0
        assert capsys.readouterr().out == "2\n"
        assert oracle_sphere(L1, 5, 4) == 12
        assert count_report(L1, 5, 4, method="oracle").oracle_count == 12

    def test_log_level_after_subcommand(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "permsphere", "sphere", "--metric", "l1", "--n", "4",
             "--radius", "8", "--method", "oracle", "--log-level", "debug"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == "oracle: 4\n"
        assert "oracle sweep of S_4 under l1: 24 permutations in " in proc.stderr

    # each in-process call applies its own level, in bare lines, to the stderr
    # current at that call
    def test_each_call_logs_at_its_own_level(self, capsys):
        errs = []
        for level in ("warning", "debug", "warning"):
            cold_pipeline()
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert main(["--log-level", level, "sphere", "--metric", "l1", "--n", "20", "--radius", "6"]) == 0
            assert capsys.readouterr() == ("pipeline: 1649\n", "")
            errs.append(err.getvalue())
        assert [err.count("connected base ") for err in errs] == [0, 1, 0]
        assert errs[1].startswith("connected base up to degree 4, distances <= 6, under l1: 3 distances in ")

    def test_debug_log_times_the_oracle_sweep(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "permsphere", "--log-level", "debug",
             "sphere", "--metric", "l1", "--n", "5", "--radius", "12", "--method", "oracle"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == "oracle: 20\n"
        assert "oracle sweep of S_5 under l1: 120 permutations in " in proc.stderr
        assert "per second), bytes tally, 1 flushes, 34 count passes, 120 leaves\n" in proc.stderr

    def test_python_m_permsphere(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "permsphere", "dist", "--metric", "l1", "--perm", "2 1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == "2\n"

    def test_cold_import_stays_lean(self):
        # -S: no site hooks (.pth files) that import modules of their own;
        # dataclasses pulls in inspect, ast, dis and tokenize, and @dataclass
        # builds each class by exec, all at the cost of every command's start
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import permsphere.cli\n"
            "print(sorted({'argparse', 'dataclasses', 'gettext', 'inspect', 'locale'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr

    # argparse's import and its first gettext lookup, which imports locale,
    # cost a cold command more than its count; a whole-name line needs neither
    def test_whole_name_command_leaves_argparse_unimported(self):
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import permsphere.cli\n"
            f"code = permsphere.cli.main({list(SPHERE)!r})\n"
            "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0 and proc.stdout == "pipeline: 12\n0 []\n", proc.stderr


COMMAND_HELP = {
    "dist": "distance between permutations (native integer scale; for lp:<p> this is the p-th power)",
    "sphere": "count permutations at exact distance",
    "ball": "count permutations within distance",
    "beta": "split-type counts beta(R, m, q)",
    "poly": "sphere counting polynomial",
    "verify": "run the cross-validation matrix",
}
SPHERE = ("sphere", "--metric", "l1", "--n", "5", "--radius", "4")
USAGE_ERRORS = {
    "unknown-command": (("bogus",), "permsphere: error: argument command: invalid choice: 'bogus'"),
    "missing-option": (SPHERE[:-2], "permsphere sphere: error: the following arguments are required: --radius"),
    "non-integer": (("sphere", "--metric", "l1", "--n", "x", "--radius", "2"),
                    "permsphere sphere: error: argument --n: invalid int value: 'x'"),
}


def usage_exit(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParse:
    def test_help_lists_every_command(self, capsys):
        code, out, _ = usage_exit(capsys, ["--help"])
        lines = out.splitlines()
        assert code == 0 and out.startswith("usage: permsphere ")
        for name, about in COMMAND_HELP.items():
            assert any(line.split()[:1] == [name] and line.endswith(about) for line in lines), name

    @pytest.mark.parametrize("command", COMMAND_HELP)
    def test_command_help(self, capsys, command):
        code, out, _ = usage_exit(capsys, [command, "--help"])
        assert code == 0 and out.startswith(f"usage: permsphere {command} ")
        assert "--format" in out and "--max-enum-degree" in out and "--log-level" in out

    @pytest.mark.parametrize("flag, before, after", [
        ("--format", "json", "csv"), ("--max-enum-degree", "4", "12"), ("--log-level", "error", "debug"),
    ])
    def test_shared_option_after_the_command_wins(self, flag, before, after):
        dest = flag[2:].replace("-", "_")
        for argv, value in (
            ([flag, before, *SPHERE], before),
            ([*SPHERE, flag, after], after),
            ([flag, before, *SPHERE, flag, after], after),
        ):
            assert str(getattr(cli.parse_args(argv), dest)) == value

    @pytest.mark.parametrize("radius", [("--radius=4",), ("--rad", "4")])
    def test_option_spellings(self, capsys, radius):
        code, out = run(capsys, "sphere", "--metric", "l1", "--n", "5", *radius)
        assert code == 0 and out == "pipeline: 12\n"

    @pytest.mark.parametrize("argv, error", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
    def test_usage_error_exits_2(self, capsys, argv, error):
        code, out, err = usage_exit(capsys, argv)
        assert code == 2 and out == "" and err.startswith("usage: permsphere")
        assert err.splitlines()[-1].startswith(error)

    # a whole-name line builds no parser; one left to argparse builds the top
    # parser and, for a known command, that command's parser and no other
    @pytest.mark.parametrize("argv, parsers", [
        (SPHERE, []),
        (SPHERE[:-2] + ("--rad", "4"), ["permsphere", "permsphere sphere"]),
        (SPHERE[:-2] + ("--radius=4",), ["permsphere", "permsphere sphere"]),
        (("sphere", "--help"), ["permsphere", "permsphere sphere"]),
        *((argv, ["permsphere"] if name == "unknown-command" else ["permsphere", "permsphere sphere"])
          for name, (argv, _) in USAGE_ERRORS.items()),
    ], ids=["whole-names", "abbreviation", "equals", "help", *USAGE_ERRORS])
    def test_parsers_built(self, capsys, monkeypatch, argv, parsers):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        with contextlib.suppress(SystemExit):
            main(list(argv))
        capsys.readouterr()
        assert built == parsers


UNKNOWN_METRIC = "unknown metric kind 'bogus'; expected one of ('l1', 'lp', 'linf', 'hamming', 'cayley', 'kendall')"
NO_ROUTE = "no split-type pipeline for hamming; l1 and kendall only"
SUBCOMMANDS = {
    "dist": ("--perm", "2 1"),
    "sphere": ("--n", "5", "--radius", "2"),
    "ball": ("--n", "5", "--radius", "2"),
    "beta": ("--k", "2"),
    "poly": ("--radius", "4"),
}
REFUSALS = {
    **{
        f"{command}-{metric}": ((command, "--metric", metric, *rest), message)
        for command, rest in SUBCOMMANDS.items()
        for metric, message in (("bogus", UNKNOWN_METRIC), ("lp:x", "invalid lp exponent in 'lp:x'"))
    },
    **{
        f"{command}-negative-radius-{metric}": (
            (command, "--metric", metric, "--n", "5", "--radius", "-2"), "radius must be nonnegative"
        )
        for command in ("sphere", "ball")
        for metric in ("l1", "kendall")
    },
    "sphere-hamming-radius-0": (("sphere", "--metric", "hamming", "--n", "5", "--radius", "0"), NO_ROUTE),
    "poly-hamming-radius-0": (("poly", "--metric", "hamming", "--radius", "0"), NO_ROUTE),
    # beta --k reaches the route through radius_step, poly --eval through pipeline_sphere
    "beta-k-cayley": (("beta", "--metric", "cayley", "--k", "2"), NO_ROUTE.replace("hamming", "cayley")),
    "poly-eval-linf": (
        ("poly", "--metric", "linf", "--radius", "3", "--eval", "5"), NO_ROUTE.replace("hamming", "linf")
    ),
    "beta-neither-k-nor-radius": (("beta", "--metric", "l1", "--m", "2"), "give exactly one of --k or --radius"),
    "beta-negative-radius": (
        ("beta", "--metric", "kendall", "--radius", "-3", "--m", "4", "--q", "2"),
        "radius must be nonnegative",
    ),
    "beta-negative-k": (("beta", "--metric", "l1", "--k", "-1"), "radius must be nonnegative"),
    "beta-negative-m": (("beta", "--metric", "l1", "--k", "1", "--m", "-5"), "--m must be at least 1, got -5"),
    "beta-negative-q": (
        ("beta", "--metric", "l1", "--k", "1", "--m", "4", "--q", "-2"), "--q must be at least 1, got -2"
    ),
    "beta-m-0": (("beta", "--metric", "kendall", "--radius", "3", "--m", "0"), "--m must be at least 1, got 0"),
    "beta-q-0": (("beta", "--metric", "l1", "--k", "2", "--q", "0"), "--q must be at least 1, got 0"),
    "poly-eval-0": (("poly", "--metric", "l1", "--radius", "4", "--eval", "0"), "--eval must be at least 1, got 0"),
    "poly-eval-negative": (
        ("poly", "--metric", "l1", "--radius", "4", "--eval", "-3"), "--eval must be at least 1, got -3"
    ),
    "max-enum-degree-0": (
        ("--max-enum-degree", "0", "dist", "--metric", "l1", "--perm", "2 1"),
        "--max-enum-degree: cap must be positive",
    ),
    "verify-max-n-0": (("verify", "--max-n", "0", "--max-k", "-1"), "max_n must be at least 2, got 0"),
    "verify-max-n-1": (("verify", "--max-n", "1", "--max-k", "3"), "max_n must be at least 2, got 1"),
    "verify-max-k-0": (("verify", "--max-n", "4", "--max-k", "0"), "max_k must be at least 1, got 0"),
    "verify-over-cap": (("verify", "--max-n", "13"), "enumerating S_13 exceeds the configured cap of 12"),
    "verify-over-lowered-cap": (
        ("--max-enum-degree", "4", "verify", "--max-n", "5"), "enumerating S_5 exceeds the configured cap of 4"
    ),
    # with the disputed cell the matrix also sweeps S_7
    "verify-disputed-cell-over-cap": (
        ("--max-enum-degree", "6", "verify", "--max-n", "6", "--max-k", "6", "--include-printed-p6"),
        "enumerating S_7 exceeds the configured cap of 6",
    ),
    "sphere-oracle-over-cap": (
        ("sphere", "--metric", "l1", "--n", "14", "--radius", "2", "--method", "oracle"),
        "enumerating S_14 exceeds the configured cap of 12",
    ),
    "dist-bad-permutation": (("dist", "--metric", "l1", "--perm", "1 1 2"), "duplicate value 1"),
}


# Every refusal, from the library or from a command, reaches the user the
# same way: exit 1, nothing on stdout, one stderr line starting "error: ".
@pytest.mark.parametrize("argv, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_with_one_line(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and captured.err == f"error: {message}\n"


# a fault is not a refusal: an ArithmeticError (the oracle's leaf count, the
# pipeline's divisibility check) still ends in a traceback
def test_internal_fault_is_not_caught(monkeypatch):
    def fault(*args, **kwargs):
        raise ArithmeticError("a sweep that counts other than n! leaves")

    monkeypatch.setattr(cli, "count_report", fault)
    with pytest.raises(ArithmeticError):
        main(["sphere", "--metric", "l1", "--n", "5", "--radius", "2"])
