#!/usr/bin/env python3
"""The permsphere benchmark.

    python3 perfbench/run.py --workload ball-table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 --quick

Runs one workload (or ``all``) from the root of a checkout. Every unit of
work runs in a fresh child interpreter with the checkout's ``src`` on
``PYTHONPATH``; children run one at a time. Rounds of the workload repeat
until ``--seconds`` have passed. Every answer is checked after the timed
part. The report ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
``--quick`` runs the same code on tiny sizes in seconds. The seed only
permutes the order of commands and queries. README.md describes the
workloads and the layer table.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("pipeline-cold", "oracle-sweep", "ball-table", "verify-matrix")
CHILD_TIMEOUT_S = 150
# Mean of ``child.calibration_s`` on the reference machine (2 cores,
# Python 3.11). Each child's timings are scaled by CALIBRATION_REF_S over the
# mean of the calibration samples taken while it ran, so they read as
# seconds on that machine running at its usual speed.
CALIBRATION_REF_S = 0.0012

# (command, metric, n, radius); each runs as `permsphere <command> ...`.
SIZES = {
    "full": {
        "commands": (("sphere", "l1", 100, 18), ("ball", "kendall", 100, 8), ("poly", "l1", None, 16)),
        "sweeps": (("l1", 10), ("kendall", 9), ("hamming", 9), ("cayley", 9)),
        "table_n": 1500,
        "table_radius": {"l1": 16, "kendall": 8},
        "oracle_max_n": 8,
        "verify": ("--max-n", "8", "--max-k", "8"),
    },
    "quick": {
        "commands": (("sphere", "l1", 100, 10), ("ball", "kendall", 100, 4), ("poly", "l1", None, 8)),
        "sweeps": (("l1", 6), ("kendall", 5), ("hamming", 5), ("cayley", 5)),
        "table_n": 8,
        "table_radius": {"l1": 8, "kendall": 4},
        "oracle_max_n": 8,
        "verify": ("--max-n", "5", "--max-k", "4"),
    },
}

# Largest distance in S_n, so a sweep asks for every radius.
MAX_RADIUS = {
    "l1": lambda n: n * n // 2,
    "kendall": lambda n: n * (n - 1) // 2,
    "hamming": lambda n: n,
    "cayley": lambda n: n - 1,
}

# The layers each workload is built to exercise; a traced run fails if one
# of them exists but reads zero calls.
EXERCISED = {
    "pipeline-cold": ("cli", "growth.build", "growth.expand", "enumeration.base"),
    "oracle-sweep": ("enumeration.oracle",),
    "ball-table": ("enumeration.pipeline", "enumeration.convolution", "enumeration.base"),
    "verify-matrix": (
        "cli", "verify", "growth.build", "growth.expand", "growth.eval", "enumeration.base",
        "enumeration.oracle",
    ),
}


def radii(metric: str, radius: int) -> list[int]:
    """The nonzero radii a sphere can have, up to ``radius``."""
    return list(range(2, radius + 1, 2)) if metric == "l1" else list(range(1, radius + 1))


def base_degree(metric: str, radius: int) -> int:
    """Largest connected-part degree the pipeline reads at this radius."""
    return (radius // 2 if metric == "l1" else radius) + 1


def command_argv(command: str, metric: str, n: int | None, radius: int) -> list[str]:
    argv = [command, "--metric", metric]
    if n is not None:
        argv += ["--n", str(n)]
    argv += ["--radius", str(radius)]
    return argv + (["--basis", "monomial"] if command == "poly" else [])


def child_env() -> dict[str, str]:
    """The parent's environment with the checkout's ``src`` as the only
    ``PYTHONPATH`` entry, and without the settings that change how the
    program enumerates (worker processes and the degree cap)."""
    env = {k: v for k, v in os.environ.items() if k not in ("THREADS", "MAX_ENUM_DEGREE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(spec: dict, trace: bool) -> dict | None:
    """Run one child to completion; None if it failed. Adds ``setup_s``
    (spawn to ready) and ``latency_s`` (spawn to the end of the timed part),
    and scales every time by the child's machine-speed calibration."""
    spec = dict(spec, src=str(SRC), trace=trace)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out: {spec['kind']}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    cal = result["calibration"]
    scale = CALIBRATION_REF_S / cal["mean_s"] if cal["mean_s"] else 1.0
    result["scale"] = scale
    result["setup_s"] = scale * (result["ready"] - start - cal["setup_spent_s"])
    result["latency_s"] = scale * (result["done"] - start - cal["setup_spent_s"] - cal["timed_spent_s"])
    for key in ("wall_s", "cpu_s", "import_s"):
        result[key] *= scale
    for layers in result.get("trace", {}).get("phases", {}).values():
        for row in layers.values():
            row["self_s"] *= scale
            row["total_s"] *= scale
    for one in result.get("passes", []):
        factor = CALIBRATION_REF_S / one["calibration_s"] if one["calibration_s"] else scale
        one["wall_s"] *= factor
        one["cpu_s"] *= factor
        one["p50_s"] *= factor
        one["p99_s"] *= factor
    return result


@dataclass
class Round:
    """One repetition of a workload's fixed work, in one or more children.
    Times are scaled by machine speed (see ``spawn``)."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    setups_s: list[float] = field(default_factory=list)
    imports_s: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    rss_kb: int = 0
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)
    passes: list[dict] = field(default_factory=list)

    def samples(self) -> list[tuple[float, float]]:
        """(wall, CPU) of each repetition of the fixed work: the round, or
        each pass a child made over the same work."""
        if self.passes:
            return [(p["wall_s"], p["cpu_s"]) for p in self.passes]
        return [(self.wall_s, self.cpu_s)]

    def child(self, result: dict | None, ops: int, failed: int) -> bool:
        """Account one child's timings and its ``ops`` operations."""
        self.attempted += ops
        if result is None:
            self.failed += ops
            return False
        self.failed += failed
        self.wall_s += result["wall_s"]
        self.cpu_s += result["cpu_s"]
        self.setups_s.append(result["setup_s"])
        self.imports_s.append(result["import_s"])
        self.scales.append(result["scale"])
        self.rss_kb = max(self.rss_kb, result["rss_kb"])
        if "trace" in result:
            self.traces.append(result["trace"])
        return True


def pipeline_cold(size: str, rng: random.Random, trace: bool, seconds: float) -> Round:
    """Three CLI commands, each in a fresh interpreter with empty caches."""
    commands = list(SIZES[size]["commands"])
    rng.shuffle(commands)
    out = Round()
    for command, metric, n, radius in commands:
        name = f"{command}_{metric}_r{radius}"
        spec = {
            "kind": "cli",
            "argv": command_argv(command, metric, n, radius),
            "connected": {metric: base_degree(metric, radius)},
        }
        result = spawn(spec, trace)
        ok = result is not None and reference.command_ok(size, name, result)
        if out.child(result, 1, 0 if ok else 1):
            out.figures[f"latency.{name}_s"] = (result["latency_s"], "s")
    return out


def oracle_sweep(size: str, rng: random.Random, trace: bool, seconds: float) -> Round:
    """``oracle_sphere`` and ``oracle_ball`` at every radius, one group per child."""
    sweeps = list(SIZES[size]["sweeps"])
    rng.shuffle(sweeps)
    out = Round()
    perms = 0
    for metric, n in sweeps:
        queries = [[kind, r] for kind in ("sphere", "ball") for r in range(MAX_RADIUS[metric](n) + 1)]
        rng.shuffle(queries)
        result = spawn({"kind": "oracle", "metric": metric, "n": n, "queries": queries}, trace)
        ok = result is not None and reference.sweep_ok(size, metric, n, result["answers"])
        if out.child(result, 1, 0 if ok else 1):
            perms += math.factorial(n)
    if out.wall_s:
        out.figures["oracle_perms_per_s"] = (perms / out.wall_s, "1/s")
    return out


def ball_table(size: str, rng: random.Random, trace: bool, seconds: float) -> Round:
    """``pipeline_ball`` for every n up to N and every radius, on a warm base.

    One child warms the base, then makes passes over the table for a third
    of the run (one pass when traced, so per-layer counts repeat exactly)."""
    sizes = SIZES[size]
    top = sizes["table_n"]
    table_radii = {m: radii(m, r) for m, r in sizes["table_radius"].items()}
    queries = [[m, n, r] for m, rs in table_radii.items() for n in range(1, top + 1) for r in rs]
    rng.shuffle(queries)
    spec = {
        "kind": "table",
        "warm": [[m, top, r] for m, r in sizes["table_radius"].items()],
        "queries": queries,
        "seconds": 0 if trace else seconds / 3,
        "oracle_max_n": sizes["oracle_max_n"],
        "connected": {m: base_degree(m, r) for m, r in sizes["table_radius"].items()},
    }
    result = spawn(spec, trace)
    out = Round()
    if result is None:
        out.child(None, len(queries), 0)
        return out
    keys = [f"{m} {n} {r}" for m, n, r in queries]
    wrong = reference.table_wrong(size, table_radii, dict(zip(keys, result["answers"])), result)
    # A later pass is wrong where it differs from the checked first pass,
    # and where the first pass was wrong.
    failed = sum(len(wrong | {keys[i] for i in one["differs"]}) for one in result["passes"])
    out.child(result, len(queries) * len(result["passes"]), failed)
    out.passes = result["passes"]
    median_wall = statistics.median(one["wall_s"] for one in out.passes)
    out.figures["queries_per_s"] = (len(queries) / median_wall, "1/s")
    for q in ("p50", "p99"):
        out.figures[f"query_{q}_ms"] = (1e3 * statistics.median(one[q + "_s"] for one in result["passes"]), "ms")
    return out


def verify_matrix(size: str, rng: random.Random, trace: bool, seconds: float) -> Round:
    """The verify matrix as a CLI user runs it, in a fresh interpreter."""
    argv = ["--format", "json", "verify", *SIZES[size]["verify"], "--include-printed-p6"]
    result = spawn({"kind": "cli", "argv": argv}, trace)
    out = Round()
    out.child(result, 1, 0 if result is not None and reference.verify_ok(result) else 1)
    return out


ROUNDS = {
    "pipeline-cold": pipeline_cold,
    "oracle-sweep": oracle_sweep,
    "ball-table": ball_table,
    "verify-matrix": verify_matrix,
}


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """Medians over the untraced repetitions, and over all children for set-up."""
    samples = [sample for r in rounds for sample in r.samples()]
    return {
        "setup_s": statistics.median(t for r in rounds for t in r.setups_s),
        "wall_s": statistics.median(wall for wall, _ in samples),
        "cpu_s": statistics.median(cpu for _, cpu in samples),
        "peak_rss_mb": max(r.rss_kb for r in rounds) / 1024,
    }


def workload_figures(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    """Figures that exist on one workload only, as medians over rounds:
    printed, not part of the result line."""
    out = {}
    for name in sorted({name for r in rounds for name in r.figures}):
        values = [r.figures[name] for r in rounds if name in r.figures]
        out[name] = (statistics.median(v for v, _ in values), values[0][1])
    out["error_rate"] = (sum(r.failed for r in rounds) / sum(r.attempted for r in rounds), "ratio")
    return out


def layer_metrics(plain: list[Round], traced: list[Round]) -> tuple[dict[str, float], set[str], set[str]]:
    """Per-layer values per traced round, the layers absent from the program,
    and the entry points missing from it."""
    sums: dict[str, float] = {}
    timed_self: dict[str, float] = {}
    absent = set(tracer.LAYERS)
    missing: set[str] = set()
    for report in (t for r in traced for t in r.traces):
        absent &= set(report["absent"])
        missing |= set(report["missing"])
        rows = [(phase, layer, row) for phase, layers in report["phases"].items() for layer, row in layers.items()]
        rows += [("", layer, row) for layer, row in report["keys"].items()]
        for phase, layer, row in rows:
            for key, value in row.items():
                name = f"{layer}.{key}"
                sums[name] = max(sums.get(name, 0), value) if key == "max_m" else sums.get(name, 0) + value
            if phase == "timed":
                timed_self[layer] = timed_self.get(layer, 0.0) + row["self_s"]
    values = {name: v if name.endswith("max_m") else v / len(traced) for name, v in sums.items()}
    base_calls = sums.get("enumeration.base.calls", 0)
    if base_calls:
        values["enumeration.base.repeat_ratio"] = 1 - sums["enumeration.base.distinct_keys"] / base_calls
    if sums.get("enumeration.oracle.self_s"):
        values["enumeration.oracle.perms_per_s"] = sums["enumeration.oracle.perms"] / sums["enumeration.oracle.self_s"]
    summed = sum(timed_self.values())
    for name, layers in (
        ("enumeration.base.self_share", ("enumeration.base",)),
        ("enumeration.oracle.self_share", ("enumeration.oracle",)),
        ("timed.pipeline_convolution.self_share", ("enumeration.pipeline", "enumeration.convolution")),
    ):
        values[name] = sum(timed_self.get(layer, 0.0) for layer in layers) / summed
    values["process.import_s"] = statistics.median(t for r in plain + traced for t in r.imports_s)
    values["trace.overhead_s"] = statistics.median(
        wall for r in traced for wall, _ in r.samples()
    ) - statistics.median(wall for r in plain for wall, _ in r.samples())
    return values, absent, missing


def run_workload(workload: str, size: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple:
    """Run rounds until ``seconds`` have passed; print the report. With
    ``trace``, each untraced round is followed by a traced one."""
    rng = random.Random(seed)
    plain: list[Round] = []
    traced: list[Round] = []
    begin = time.monotonic()
    while not plain or time.monotonic() - begin < seconds:
        plain.append(ROUNDS[workload](size, rng, False, seconds))
        if trace:
            traced.append(ROUNDS[workload](size, rng, True, seconds))
    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = failed == 0
    print(f"workload {workload}: {len(plain)} untraced and {len(traced)} traced rounds, "
          f"{attempted} operations, {failed} failed")
    if failed:
        print(f"  WRONG ANSWERS: {failed} of {attempted} operations failed")
    if not all(r.setups_s for r in rounds):
        return False, attempted, failed, {}
    if trace:
        values, absent, missing = layer_metrics(plain, traced)
        zero = [layer for layer in EXERCISED[workload] if layer not in absent
                and not values.get(f"{layer}.calls")]
        for entry in sorted(missing):
            print(f"  entry point {entry}: missing")
        for layer in sorted(absent):
            print(f"  layer {layer}: absent (no entry point left to trace)")
        for layer in zero:
            print(f"  FAILED: layer {layer} exists but read zero calls on {workload}")
        correct = correct and not zero
        specs = spec["per_layer"]
    else:
        scales = [scale for r in plain for scale in r.scales]
        print(f"  machine speed: times scaled by {statistics.median(scales):.4f} "
              f"(median over {len(scales)} children; {min(scales):.4f} to {max(scales):.4f})")
        values = end_to_end(plain)
        for name, (value, unit) in workload_figures(plain).items():
            print(f"  {name:42} {value:>16.6g} {unit}   (this workload only)")
        specs = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in specs}
    for name, m in metrics.items():
        print(f"  {name:42} {m['value']:>16.6g} {m['unit']}")
    return correct, attempted, failed, metrics


def environment(args: argparse.Namespace) -> dict:
    """What the numbers depend on besides the program."""
    commit = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = proc.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "permsphere" / "__init__.py").is_file():
        print(f"error: no permsphere sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    size = "quick" if args.quick else "full"
    print("environment " + json.dumps(environment(args)))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, size, args.seed, args.seconds, bool(args.trace), spec) for w in workloads}
    if len(results) == 1:
        correct, attempted, failed, metrics = results[args.workload]
    else:
        correct = all(r[0] for r in results.values())
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        metrics = {f"{w}/{name}": m for w, r in results.items() for name, m in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
