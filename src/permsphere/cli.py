"""Command-line interface: dist, sphere, ball, beta, poly, verify."""
from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys

from . import enumeration, growth, verify as verify_mod
from .enumeration import beta_table, count_report, pipeline_sphere, sphere_terms
from .metrics import MetricId, distance, distance_to_identity
from .perm import Permutation


def _emit_rows(
    fmt: str, doc: dict | list[dict], text_lines: list[str], fields: list[str] | None = None
) -> None:
    """Print one row (a JSON object) or a list of rows (a JSON list) in ``fmt``."""
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        rows = doc if isinstance(doc, list) else [doc]
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=fields or list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        print(out.getvalue(), end="")
    else:
        for line in text_lines:
            print(line)


def cmd_dist(args) -> int:
    metric = MetricId.parse(args.metric)
    u = Permutation.parse(args.perm)
    v = Permutation.parse(args.perm2) if args.perm2 else None
    value = distance(metric, u, v) if v is not None else distance_to_identity(metric, u)
    scale = f"p-th power (p={metric.p})" if metric.kind == "lp" else "distance"
    row = {"metric": metric.name, "value": str(value), "scale": scale}
    text = [f"{value} ({scale})" if metric.kind == "lp" else str(value)]
    _emit_rows(args.format, row, text)
    return 0


def cmd_count(args) -> int:
    metric = MetricId.parse(args.metric)
    report = count_report(
        metric, args.n, args.radius, ball=args.ball, method=args.method, cap=args.max_enum_degree
    )
    text = []
    if report.pipeline_count is not None:
        text.append(f"pipeline: {report.pipeline_count}")
    if report.oracle_count is not None:
        text.append(f"oracle: {report.oracle_count}")
    if report.match is not None:
        text.append("match" if report.match else "MISMATCH")
    _emit_rows(args.format, report.as_dict(), text)
    return 0 if report.match in (True, None) else 2


def cmd_beta(args) -> int:
    metric = MetricId.parse(args.metric)
    if (args.k is None) == (args.radius is None):
        raise ValueError("give exactly one of --k or --radius")
    radius = args.radius if args.radius is not None else 2 * args.k
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    for flag, value in (("--m", args.m), ("--q", args.q)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    if args.m is not None and args.q is not None:
        cells = [(beta_table(metric).beta(radius, args.m, args.q), args.m, args.q)]
    else:
        # the identity's term (q = 0) at radius 0 is no split-type cell
        cells = [
            (b, m, q) for b, m, q in sphere_terms(metric, radius, 2 * radius)
            if q and args.m in (None, m) and args.q in (None, q)
        ]
    rows = [{"radius": radius, "m": m, "q": q, "beta": str(b)} for b, m, q in cells]
    if not rows:
        rows = [{"radius": radius, "m": args.m or 0, "q": args.q or 0, "beta": "0"}]
    text = [f"R={r['radius']} m={r['m']} q={r['q']} beta={r['beta']}" for r in rows]
    _emit_rows(args.format, rows, text)
    return 0


def cmd_poly(args) -> int:
    metric = MetricId.parse(args.metric)
    if args.eval is not None:
        if args.eval < 1:
            # the polynomial counts permutations only in S_n with n >= 1
            raise ValueError(f"--eval must be at least 1, got {args.eval}")
        # the polynomial's value at n, built only from the cells with m <= n
        value = pipeline_sphere(metric, args.eval, args.radius)
        row = {"metric": metric.name, "radius": args.radius, "n": args.eval, "value": str(value)}
        _emit_rows(args.format, row, [str(value)])
        return 0
    poly = growth.sphere_polynomial(metric, args.radius)
    if args.basis == "monomial":
        poly = growth.to_rational(poly)
        row = poly.as_dict()
        # one row per power of n, whose coefficient is coefficient / denominator
        rows = [
            {"degree": i, "coefficient": c, "denominator": row["denominator"]}
            for i, c in enumerate(row["coefficients"])
        ]
        fields = ["degree", "coefficient", "denominator"]
    else:
        row = poly.as_dict()
        # a zero polynomial has no terms, so the header is given
        rows, fields = row["terms"], ["coef", "m", "q"]
    _emit_rows(args.format, rows if args.format == "csv" else row, [str(poly)], fields)
    return 0


def cmd_verify(args) -> int:
    report = verify_mod.run_verify(
        max_n=args.max_n, max_k=args.max_k, include_printed_p6=args.include_printed_p6,
        cap=args.max_enum_degree,
    )
    rows = [
        {"name": c.name, "verdict": c.verdict, "formula": c.formula, "source": c.source}
        for c in report.checks
    ]
    text = []
    for c in report.checks:
        tag = {"match": "PASS", "mismatch": "FAIL", "paper-discrepancy": "DISCREPANCY"}[c.verdict]
        text.append(f"[{tag}] {c.name}: {c.formula}")
        text.extend(f"    {key}: {value}" for key, value in c.values.items())
    text.append("all internal checks passed" if report.ok else "INTERNAL MISMATCH DETECTED")
    _emit_rows(args.format, report.as_dict() if args.format == "json" else rows, text)
    return report.exit_code


# Options accepted before and after the subcommand. The main parser holds
# the defaults; each subparser takes them from ``after``, which suppresses
# them, so a value given after the subcommand overrides one given before it
# and an absent one keeps it.
_SHARED_OPTIONS = (
    ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
    ("--max-enum-degree", {
        "type": int, "default": enumeration.DEFAULT_MAX_DEGREE,
        "help": "largest symmetric group the oracle enumerates "
        f"(default {enumeration.DEFAULT_MAX_DEGREE})",
    }),
    ("--log-level", {
        "choices": ("debug", "info", "warning", "error"), "default": "warning",
        "help": "least severe log message written to stderr",
    }),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsphere",
        description="Exact sphere and ball cardinalities in symmetric groups "
        "under right-invariant metrics.",
    )
    after = argparse.ArgumentParser(add_help=False)
    for flag, spec in _SHARED_OPTIONS:
        parser.add_argument(flag, **spec)
        after.add_argument(flag, **{**spec, "default": argparse.SUPPRESS})
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[after], help="distance between permutations "
                       "(native integer scale; for lp:<p> this is the p-th power)")
    p.add_argument("--metric", required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--perm2")
    p.set_defaults(fn=cmd_dist)

    for name, about in (
        ("sphere", "count permutations at exact distance"),
        ("ball", "count permutations within distance"),
    ):
        p = sub.add_parser(name, parents=[after], help=about)
        p.add_argument("--metric", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--radius", type=int, required=True)
        p.add_argument("--method", choices=("pipeline", "oracle", "both"), default="pipeline")
        p.set_defaults(fn=cmd_count, ball=name == "ball")

    p = sub.add_parser("beta", parents=[after], help="split-type counts beta(R, m, q)")
    p.add_argument("--metric", required=True)
    p.add_argument("--k", type=int, help="half-radius for l1 (radius = 2k)")
    p.add_argument("--radius", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--q", type=int)
    p.set_defaults(fn=cmd_beta)

    p = sub.add_parser("poly", parents=[after], help="sphere counting polynomial")
    p.add_argument("--metric", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--basis", choices=("binomial", "monomial"), default="binomial")
    p.add_argument("--eval", type=int)
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("verify", parents=[after], help="run the cross-validation matrix")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-k", type=int, default=6)
    p.add_argument("--include-printed-p6", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # bare messages, as Python prints a warning when logging is not configured
    logging.basicConfig(level=args.log_level.upper(), format="%(message)s")
    # the one place a refusal becomes output: a library or command ValueError
    # is one stderr line and exit 1; anything else is a fault and a traceback
    try:
        if args.max_enum_degree < 1:
            raise ValueError("--max-enum-degree: cap must be positive")
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
