"""The CLI's argparse-free reader against the argparse parse it stands in for.

argparse's rules differ between Python versions, so these run on every
supported interpreter: whenever the reader returns a namespace, the two-stage
argparse parse accepts the same line and returns the same namespace.
"""
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from permsphere import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench_run  # noqa: E402

SHARED = [flag for flag, _ in cli._SHARED_OPTIONS]
SPECS = {flag: spec for _, options, _ in cli._COMMANDS.values() for flag, spec in options}
SPECS.update(cli._SHARED_OPTIONS)
# values argparse reads in its own way, or refuses
ODD_VALUES = ("x", "", "-3", " 7", "+4", "1_0", "-", "--", "--radius", "sphere")


def argparse_parse(argv):
    """The argparse parse's namespace, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._parse_with_argparse(list(argv))
        except SystemExit:
            return None


def good_values(spec):
    if "choices" in spec:
        return [str(c) for c in spec["choices"]]
    if "type" in spec:
        return ["0", "1", "4", "12"]
    return ["l1", "kendall", "2 1"]


@st.composite
def option(draw, names):
    flag = draw(st.sampled_from(names))
    spec = SPECS[flag]
    # mostly well-formed, so that many lines take the reader's path
    value = draw(st.sampled_from(good_values(spec) if draw(st.integers(0, 7)) else ODD_VALUES))
    spelling = "whole" if draw(st.integers(0, 7)) else draw(
        st.sampled_from(["bare", "pair", "equals", "abbreviated", "help"])
    )
    if spelling == "whole":
        return [flag] if cli._store_true(spec) else [flag, value]
    if spelling == "bare":
        return [flag]
    if spelling == "pair":
        return [flag, value]
    if spelling == "equals":
        return [f"{flag}={value}"]
    if spelling == "abbreviated":
        return [flag[:draw(st.integers(2, len(flag) - 1))], value]
    return [draw(st.sampled_from(["-h", "--help"]))]


@st.composite
def command_lines(draw):
    """Shared options, a command (known, unknown or none), then the command's
    required options among others, in any order and any spelling."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus"]))
    options = [flag for flag, _ in cli._COMMANDS[command][1]] if command in cli._COMMANDS else []
    before = draw(st.lists(option(SHARED), max_size=3))
    # each required option, most of the time
    required = [
        draw(option([flag])) for flag in options
        if SPECS[flag].get("required") and draw(st.integers(0, 9))
    ]
    # now and then an option of another command
    others = draw(st.lists(
        st.integers(0, 7).flatmap(lambda i: option(SHARED + options if i else sorted(SPECS))), max_size=4
    ))
    after = draw(st.permutations(required + others))
    named = [command] if draw(st.integers(0, 19)) else []
    return [token for tokens in (*before, named, *after) for token in tokens]


@given(command_lines())
@settings(max_examples=600, deadline=None)
def test_the_reader_agrees_with_argparse(argv):
    read = cli._read(argv)
    if read is not None:
        parsed = argparse_parse(argv)
        assert parsed is not None, argv
        assert vars(read) == vars(parsed), argv


@pytest.mark.parametrize("argv", [
    ["sphere", "--metric", "l1", "--n", " 7", "--radius", "+4", "--max-enum-degree", "1_0"],
    ["--format", "json", "--format", "csv", "poly", "--metric", "", "--radius", "4", "--format", "text"],
    ["verify", "--include-printed-p6", "--include-printed-p6", "--max-n", "3"],
    ["dist", "--metric", "l1", "--perm", "2 1", "--perm", "1 2"],
])
def test_odd_but_whole_name_lines(argv):
    read = cli._read(argv)
    assert read is not None and vars(read) == vars(argparse_parse(argv))


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["sphere", "--help"], ["bogus"], ["--format", "json"],
    ["sphere", "--metric", "l1", "--n", "5", "--rad", "4"],
    ["sphere", "--metric", "l1", "--n", "5", "--radius=4"],
    ["sphere", "--metric", "l1", "--n", "5", "--radius", "-2"],
    ["sphere", "--metric", "l1", "--n", "5"],
    ["sphere", "--metric", "l1", "--n", "x", "--radius", "2"],
    ["sphere", "--metric", "l1", "--n", "5", "--radius", "2", "--method", "all"],
    ["sphere", "--metric", "l1", "--n", "5", "--radius", "2", "extra"],
    ["sphere", "--metric", "l1", "--n", "5", "--radius", "2", "--eval", "3"],
    ["sphere", "--metric", "l1", "--n", "5", "--radius", "2", "--", "--n", "4"],
    ["--metric", "l1", "sphere", "--n", "5", "--radius", "2"],
    ["verify", "--include-printed-p6", "yes"],
])
def test_other_lines_go_to_argparse(argv):
    assert cli._read(argv) is None


def readme_lines():
    block = (ROOT / "README.md").read_text().split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("permsphere ")]


def tier1_lines():
    """Each ``permsphere`` call of the tier-1 workflow that names no shell
    variable, up to its redirections, with or without a ``timeout N`` before it."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    calls = re.findall(r"(?:^\s*(?:run: )?|\$\()(?:timeout \d+ )?permsphere ([^$\n]*?)\s*(?:\d?>.*|\).*)?$",
                       text, re.MULTILINE)
    return [shlex.split(call) for call in calls]


# the tier-1 workflow's loops, expanded
TIER1_LOOPS = [
    ["ball", "--metric", *args.split(), "--n", "10", "--method", "oracle"]
    for args in ("linf --radius 9", "lp:2 --radius 510", "hamming --radius 10", "cayley --radius 9")
]
# tier-1 calls that ask for help or a usage error, or pass a negative value
TIER1_ARGPARSE = [["--help"], ["bogus"], ["beta", "--metric", "l1", "--k", "2", "--m", "-5"]]


def perfbench_lines():
    lines = []
    for sizes in perfbench_run.SIZES.values():
        lines += [perfbench_run.command_argv(*command) for command in sizes["commands"]]
        # as perfbench's verify-matrix workload spells it
        lines.append(["--format", "json", "verify", *sizes["verify"], "--include-printed-p6"])
    return lines


def test_pinned_lines_are_found():
    assert len(readme_lines()) == 11
    assert len(tier1_lines()) == 26
    assert all(line in tier1_lines() for line in TIER1_ARGPARSE)


@pytest.mark.parametrize("argv", [
    *readme_lines(),
    *(line for line in tier1_lines() if line not in TIER1_ARGPARSE),
    *TIER1_LOOPS,
    *perfbench_lines(),
], ids=" ".join)
def test_every_documented_line_takes_the_reader(argv):
    read = cli._read(argv)
    assert read is not None and vars(read) == vars(argparse_parse(argv))
