import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permsphere import L1, cli, count_report, growth, oracle, oracle_sphere, pipeline, verify
from permsphere.cli import main
from permsphere.oracle import EnumerationCapError
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
        from permsphere.pipeline import BetaTable, connected_histogram, sphere_terms

        for memo in (sphere_terms, BetaTable._row, pipeline._pipeline_form):
            memo.cache_clear()
        degrees = []
        monkeypatch.setattr(
            pipeline,
            "connected_histogram",
            lambda metric, m: degrees.append(m) or connected_histogram(metric, m),
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


COMMAND_HELP = {
    "dist": "distance between permutations (native integer scale; for lp:<p> this is the p-th power)",
    "sphere": "count permutations at exact distance",
    "ball": "count permutations within distance",
    "beta": "split-type counts beta(R, m, q)",
    "poly": "sphere counting polynomial",
    "verify": "run the cross-validation matrix",
}
SPHERE = ("sphere", "--metric", "l1", "--n", "5", "--radius", "4")


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

    @pytest.mark.parametrize("argv, error", [
        (("bogus",), "permsphere: error: argument command: invalid choice: 'bogus'"),
        (SPHERE[:-2], "permsphere sphere: error: the following arguments are required: --radius"),
        (("sphere", "--metric", "l1", "--n", "x", "--radius", "2"),
         "permsphere sphere: error: argument --n: invalid int value: 'x'"),
    ], ids=["unknown-command", "missing-option", "non-integer"])
    def test_usage_error_exits_2(self, capsys, argv, error):
        code, out, err = usage_exit(capsys, argv)
        assert code == 2 and out == "" and err.startswith("usage: permsphere")
        assert err.splitlines()[-1].startswith(error)

    # a command builds its own parser and no other
    def test_a_command_builds_two_parsers(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, out = run(capsys, *SPHERE)
        assert code == 0 and out == "pipeline: 12\n"
        assert built == ["permsphere", "permsphere sphere"]


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
