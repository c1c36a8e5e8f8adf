"""Answer checks. They run after the timed part and are never timed.

Reference values come from two places: classical counts computed here,
independently of the program (factorials, Mahonian numbers from the
q-factorial product, A003319 from its recurrence), and answers recorded in
``golden.json`` from the seed code (commit 1bfafaf), whose oracle and
pipeline agree on every one of them.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


def mahonian(n: int) -> list[int]:
    """Coefficients of the q-factorial [n]_q! = prod_{i<=n} (1 + q + ... + q^(i-1)):
    the number of permutations of S_n with each inversion count."""
    coeffs = [1]
    for i in range(1, n + 1):
        out = [0] * (len(coeffs) + i - 1)
        for d, c in enumerate(coeffs):
            for j in range(i):
                out[d + j] += c
        coeffs = out
    return coeffs


def connected_counts(m_max: int) -> list[int]:
    """A003319, the connected permutations of S_m, for m = 0..m_max:
    c_m = m! - sum_{k<m} c_k (m-k)!."""
    c = [0]
    for m in range(1, m_max + 1):
        c.append(math.factorial(m) - sum(c[k] * math.factorial(m - k) for k in range(1, m)))
    return c


def row_digest(metric: str, n: int, values: list[int]) -> str:
    """Digest of one ball-table row: the answers for one (metric, n) in radius order."""
    text = " ".join([metric, str(n)] + [str(v) for v in values])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def connected_ok(totals: dict[str, list[int]]) -> bool:
    """Each list holds sum(connected_histogram(metric, m)) for m = 2, 3, ..."""
    for values in totals.values():
        if values != connected_counts(len(values) + 1)[2:]:
            return False
    return True


def command_ok(size: str, name: str, result: dict) -> bool:
    """A pipeline CLI command: exit code 0, recorded output, A003319 base totals."""
    return (
        result["rc"] == 0
        and result["stdout"] == GOLDEN[size]["commands"][name]
        and connected_ok(result["connected"])
    )


def sweep_ok(size: str, metric: str, n: int, answers: dict) -> bool:
    """One oracle sweep: ``answers[kind][radius]`` for kind sphere and ball,
    for every radius from 0 to the largest distance in S_n."""
    spheres, balls = answers["sphere"], answers["ball"]
    if not all(type(v) is int for v in spheres + balls):
        return False
    if sum(spheres) != math.factorial(n) or balls[-1] != math.factorial(n):
        return False
    running = 0
    for sphere, ball in zip(spheres, balls):
        running += sphere
        if ball != running:
            return False
    if metric == "kendall" and spheres != mahonian(n):
        return False
    golden = GOLDEN[size]["oracle"][f"{metric} {n}"]
    return spheres == [int(golden.get(str(r), 0)) for r in range(len(spheres))]


def table_wrong(size: str, radii: dict[str, list[int]], answers: dict, result: dict) -> set[str]:
    """Wrong ball-table answers, keyed "metric n radius": rows whose digest
    differs from the recorded one, and queries that disagree with
    ``oracle_ball`` for small n."""
    wrong = set()
    for metric, rs in radii.items():
        for n, digest in enumerate(GOLDEN[size]["table"][metric], start=1):
            keys = [f"{metric} {n} {r}" for r in rs]
            if row_digest(metric, n, [answers.get(k) for k in keys]) != digest:
                wrong.update(keys)
    wrong.update(k for k, v in result["oracle"].items() if answers.get(k) != v)
    if not connected_ok(result["connected"]):
        wrong.update(answers)
    return wrong


def verify_ok(result: dict) -> bool:
    """The verify matrix: exit code 0, ``ok``, and no internal mismatch."""
    if result["rc"] != 0:
        return False
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        return False
    return (
        isinstance(report, dict)
        and report.get("ok") is True
        and all(check.get("verdict") != "mismatch" for check in report.get("checks", []))
    )
