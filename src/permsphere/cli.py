"""Command-line interface: dist, sphere, ball, beta, poly, verify."""
from __future__ import annotations

import csv
import io
import json
import logging
import sys
from types import SimpleNamespace

from . import growth, verify as verify_mod
from .enumeration import count_report
from .metrics import MetricId, distance, distance_to_identity
from .oracle import DEFAULT_MAX_DEGREE
from .perm import Permutation
from .pipeline import beta_table, pipeline_sphere, radius_step, sphere_terms


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
    radius = args.radius if args.radius is not None else radius_step(metric) * args.k
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


# Options accepted before and after the command. The top parser holds the
# defaults; the command's parser takes them with the defaults suppressed, so a
# value given after the command overrides one given before it and an absent
# one keeps it.
_SHARED_OPTIONS = (
    ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
    ("--max-enum-degree", {
        "type": int, "default": DEFAULT_MAX_DEGREE,
        "help": "largest symmetric group the oracle enumerates "
        f"(default {DEFAULT_MAX_DEGREE})",
    }),
    ("--log-level", {
        "choices": ("debug", "info", "warning", "error"), "default": "warning",
        "help": "least severe log message written to stderr",
    }),
)

_INT, _REQUIRED = {"type": int}, {"required": True}
_METRIC = ("--metric", _REQUIRED)
_COUNT = (_METRIC, ("--n", {**_INT, **_REQUIRED}), ("--radius", {**_INT, **_REQUIRED}),
          ("--method", {"choices": ("pipeline", "oracle", "both"), "default": "pipeline"}))

# name: (one-line help, options, defaults)
_COMMANDS = {
    "dist": ("distance between permutations (native integer scale; for lp:<p> this is the p-th power)",
             (_METRIC, ("--perm", _REQUIRED), ("--perm2", {})), {"fn": cmd_dist}),
    "sphere": ("count permutations at exact distance", _COUNT, {"fn": cmd_count, "ball": False}),
    "ball": ("count permutations within distance", _COUNT, {"fn": cmd_count, "ball": True}),
    "beta": ("split-type counts beta(R, m, q)", (
        _METRIC, ("--k", {**_INT, "help": "the size bound N(R): radius 2k for l1, k for kendall"}),
        ("--radius", _INT), ("--m", _INT), ("--q", _INT),
    ), {"fn": cmd_beta}),
    "poly": ("sphere counting polynomial", (
        _METRIC, ("--radius", {**_INT, **_REQUIRED}),
        ("--basis", {"choices": ("binomial", "monomial"), "default": "binomial"}), ("--eval", _INT),
    ), {"fn": cmd_poly}),
    "verify": ("run the cross-validation matrix", (
        ("--max-n", {**_INT, "default": 6}), ("--max-k", {**_INT, "default": 6}),
        ("--include-printed-p6", {"action": "store_true"}),
    ), {"fn": cmd_verify}),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _store_true(spec: dict) -> bool:
    return spec.get("action") == "store_true"


def _read_options(tokens: list[str], table: dict, values: dict) -> int:
    """Store the leading ``--option value`` pairs and ``store_true`` flags of
    ``tokens``, each under its whole name in ``table``, in ``values`` with
    argparse's ``type`` and ``choices``. Return the index of the first token
    that names no option, or -1 at a value that argparse would refuse or
    that starts with "-", which argparse may read as an option."""
    i = 0
    while i < len(tokens) and tokens[i] in table:
        flag, spec = tokens[i], table[tokens[i]]
        if _store_true(spec):
            value, i = True, i + 1
        else:
            if i + 1 == len(tokens) or tokens[i + 1].startswith("-"):
                return -1
            try:
                value = spec.get("type", str)(tokens[i + 1])
            except ValueError:
                return -1
            if "choices" in spec and value not in spec["choices"]:
                return -1
            i += 2
        values[_dest(flag)] = value
    return i


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a command line spelled as the examples spell it, or
    None for any other: whole option names, each value its own token, shared
    options before or after the command, the last one winning. A None goes
    to the argparse parse, which reads abbreviations and ``--option=value``
    and owns help, usage errors and exit codes; the two agree on every line
    this one reads."""
    values = {_dest(flag): spec["default"] for flag, spec in _SHARED_OPTIONS}
    shared = dict(_SHARED_OPTIONS)
    at = _read_options(argv, shared, values)
    if at < 0 or at == len(argv) or argv[at] not in _COMMANDS:
        return None
    command, rest = argv[at], argv[at + 1:]
    _, options, defaults = _COMMANDS[command]
    for flag, spec in options:
        values[_dest(flag)] = spec.get("default", False if _store_true(spec) else None)
    if _read_options(rest, {**shared, **dict(options)}, values) != len(rest):
        return None
    # a required option has no default, so it is None until it is read
    if any(spec.get("required") and values[_dest(flag)] is None for flag, spec in options):
        return None
    return SimpleNamespace(**values, command=command, rest=rest, **defaults)


def _parse_with_argparse(argv: list[str]) -> SimpleNamespace:
    """Parse in two stages: the shared options and the command name, then the
    rest by a parser built for that command alone."""
    import argparse

    top = argparse.ArgumentParser(
        prog="permsphere",
        description="Exact sphere and ball cardinalities in symmetric groups\n"
        "under right-invariant metrics.",
        epilog="commands:\n" + "\n".join(f"  {name:<8}{about}" for name, (about, _, _) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    for flag, spec in _SHARED_OPTIONS:
        top.add_argument(flag, **spec)
    top.add_argument("command", choices=_COMMANDS)
    top.add_argument("rest", nargs=argparse.REMAINDER, metavar="...",
                     help="the command's options, which 'permsphere <command> --help' lists")
    args = top.parse_args(argv)
    about, options, defaults = _COMMANDS[args.command]
    parser = argparse.ArgumentParser(prog=f"permsphere {args.command}", description=about)
    for flag, spec in _SHARED_OPTIONS:
        parser.add_argument(flag, **{**spec, "default": argparse.SUPPRESS})
    for flag, spec in options:
        parser.add_argument(flag, **spec)
    parser.set_defaults(**defaults)
    return SimpleNamespace(**vars(parser.parse_args(args.rest, namespace=args)))


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """The command line's namespace: the options, ``command``, ``rest`` (the
    tokens after the command) and the command's ``fn`` and defaults."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _read(argv)
    return args if args is not None else _parse_with_argparse(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # bare messages, as Python prints a warning when logging is not configured,
    # at this call's level and to the sys.stderr current at this call; both
    # last only as long as the call, so a program that embeds main() keeps its
    # own handlers and level
    root, handler = logging.getLogger(), logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = root.level
    root.addHandler(handler)
    root.setLevel(args.log_level.upper())
    # the one place a refusal becomes output: a library or command ValueError
    # is one stderr line and exit 1; anything else is a fault and a traceback
    try:
        if args.max_enum_degree < 1:
            raise ValueError("--max-enum-degree: cap must be positive")
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        root.removeHandler(handler)
        root.setLevel(level)


if __name__ == "__main__":
    raise SystemExit(main())
