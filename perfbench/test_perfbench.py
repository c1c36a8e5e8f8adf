"""Tests of the benchmark itself, on the tiny ``--quick`` sizes."""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--seed", "7", "--seconds", "0", "--quick", *args]) == 0
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_run_reports_every_metric_of_every_workload(trace, key):
    result, _ = bench("--workload", "all", "--trace", trace)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}/{m['name']}" for w in run.WORKLOADS for m in SPEC[key]}
    assert set(result["metrics"]) == expected
    if key == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_command(result):
    result["stdout"] += "0"


def _corrupt_sweep(result):
    result["answers"]["sphere"][0] += 1


def _corrupt_table(result):
    result["answers"][0] += 1


def _corrupt_verify(result):
    report = json.loads(result["stdout"])
    report["checks"][0]["verdict"] = "mismatch"
    result["stdout"] = json.dumps(report)


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("pipeline-cold", _corrupt_command),
        ("oracle-sweep", _corrupt_sweep),
        ("ball-table", _corrupt_table),
        ("verify-matrix", _corrupt_verify),
    ],
)
def test_a_wrong_answer_is_a_failed_operation(monkeypatch, workload, corrupt):
    real_spawn = run.spawn

    def spawn(spec, trace):
        result = real_spawn(spec, trace)
        corrupt(result)
        return result

    monkeypatch.setattr(run, "spawn", spawn)
    rounds = [run.ROUNDS[workload]("quick", random.Random(1), False, 0)]
    assert run.workload_figures(rounds)["error_rate"][0] > 0
    with contextlib.redirect_stdout(io.StringIO()):
        correct, attempted, failed, _ = run.run_workload(workload, "quick", 1, 0, False, SPEC)
    assert not correct and 0 < failed <= attempted


def test_self_times_of_a_parent_and_its_children_add_up_to_its_duration():
    ticks = iter(range(1000))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def middle():
        t.span("leaf", leaf, (), {})
        t.span("leaf", leaf, (), {})

    def top():
        t.span("middle", middle, (), {})
        t.span("leaf", leaf, (), {})

    t.run("timed", t.span, "top", top, (), {})
    stats = t.stats["timed"]
    root = stats[tracer.ROOT]
    assert sum(s.self_s for s in stats.values()) == root.total_s
    assert stats["top"].total_s == stats["top"].self_s + stats["middle"].total_s + 1.0
    assert stats["middle"].total_s == stats["middle"].self_s + 2.0
    assert stats["leaf"].calls == 3 and stats["leaf"].self_s == 3.0

    spans = [["p", 0.0, 10.0, -1], ["c", 1.0, 4.0, 0], ["g", 2.0, 3.0, 1], ["c", 5.0, 9.0, 0]]
    own = tracer.self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0] and sum(own) == 10.0


def test_a_missing_entry_point_makes_its_layer_absent(monkeypatch):
    layers = {"gone": (("permsphere.enumeration", "no_such_function"),)}
    monkeypatch.setattr(tracer, "LAYERS", layers)
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["gone"] and t.missing == ["permsphere.enumeration.no_such_function"]


def test_a_traced_run_fails_when_an_exercised_layer_reads_zero_calls(monkeypatch):
    monkeypatch.setitem(run.EXERCISED, "ball-table", ("enumeration.oracle",))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        correct, _, failed, _ = run.run_workload("ball-table", "quick", 1, 0, True, SPEC)
    assert not correct and failed == 0
    assert "enumeration.oracle exists but read zero calls" in out.getvalue()
