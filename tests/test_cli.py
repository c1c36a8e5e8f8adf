import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permsphere import L1, count_report, enumeration, growth, oracle_sphere, verify
from permsphere.cli import main
from permsphere.enumeration import EnumerationCapError
from permsphere.metrics import MetricId

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

    def test_parse_error(self, capsys):
        code = main(["dist", "--metric", "l1", "--perm", "1 1 2"])
        captured = capsys.readouterr()
        assert code == 1 and "duplicate value 1" in captured.err


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

    def test_oracle_cap(self, capsys):
        code = main(["sphere", "--metric", "l1", "--n", "14", "--radius", "2", "--method", "oracle"])
        captured = capsys.readouterr()
        assert code == 1 and "cap" in captured.err

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

    def test_requires_radius_or_k(self, capsys):
        code = main(["beta", "--metric", "l1", "--m", "2"])
        assert code == 1

    @pytest.mark.parametrize(
        "args",
        [("--metric", "kendall", "--radius", "-3", "--m", "4", "--q", "2"), ("--metric", "l1", "--k", "-1")],
        ids=["radius", "k"],
    )
    def test_negative_radius_refused(self, capsys, args):
        code = main(["beta", *args])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: radius must be nonnegative\n"

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
        from permsphere.enumeration import BetaTable, ball_terms, connected_histogram, sphere_terms

        for memo in (sphere_terms, ball_terms, BetaTable._row, enumeration._pipeline_form):
            memo.cache_clear()
        degrees = []
        monkeypatch.setattr(
            enumeration,
            "connected_histogram",
            lambda metric, m: degrees.append(m) or connected_histogram(metric, m),
        )
        code, out = run(capsys, "poly", "--metric", "l1", "--radius", "40", "--eval", "3")
        assert code == 0 and out == "0\n"
        code, out = run(capsys, "poly", "--metric", "kendall", "--radius", "2", "--eval", "3")
        assert code == 0 and out == "2\n"
        assert degrees and max(degrees) <= 3

    @pytest.mark.parametrize("n", [0, -3])
    def test_eval_below_one_refused(self, capsys, n):
        code = main(["poly", "--metric", "l1", "--radius", "4", "--eval", str(n)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: --eval must be at least 1, got {n}\n"

    def test_binomial_json(self, capsys):
        code, out = run(
            capsys, "--format", "json", "poly", "--metric", "l1", "--radius", "2"
        )
        doc = json.loads(out)
        assert doc["terms"] == [{"coef": "1", "m": 2, "q": 1}]

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
        monkeypatch.setattr(enumeration, "_sweep_group", lambda metric, n: swept.append(n) or {})
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

    def test_disputed_cell_over_cap_is_one_line(self, capsys):
        code = main(["--max-enum-degree", "6", "verify", "--max-n", "6", "--max-k", "6", "--include-printed-p6"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: enumerating S_7 exceeds the configured cap of 6\n"

    @pytest.mark.parametrize("max_n, max_k, message", [
        ("0", "-1", "max_n must be at least 2, got 0"),
        ("1", "3", "max_n must be at least 2, got 1"),
        ("4", "0", "max_k must be at least 1, got 0"),
    ])
    def test_empty_matrix_is_an_error(self, capsys, max_n, max_k, message):
        code = main(["verify", "--max-n", max_n, "--max-k", max_k])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and captured.err == f"error: {message}\n"

    def test_lowered_cap(self, capsys):
        code = main(["--max-enum-degree", "4", "verify", "--max-n", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: enumerating S_5 exceeds the configured cap of 4\n"


class TestOptions:
    def test_zero_max_enum_degree(self, capsys):
        code = main(["--max-enum-degree", "0", "dist", "--metric", "l1", "--perm", "2 1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == "error: --max-enum-degree: cap must be positive\n"

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
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr
