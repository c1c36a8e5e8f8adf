"""The two counting routes share no code: each module reaches only the
package modules its allowlist names, and the names the benchmark harness
reads through ``permsphere.enumeration`` are the routes' own objects."""
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from permsphere import enumeration, oracle, pipeline

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "permsphere"

# module -> every package module it may reach, directly or through others.
# An allowlist: a module added later is out of bounds until it is named here.
MAY_REACH = {
    "oracle": {"metrics", "perm"},
    "pipeline": {"metrics", "perm"},
    "growth": {"pipeline", "metrics", "perm"},
}


def imported(source: str) -> set[str]:
    """The package modules named by every import statement in ``source``,
    at module level or inside a function; a name imported from the package
    itself, or the bare package, is ``__init__``, which imports every
    module."""
    found = set()

    def add(names: list[str]) -> None:
        found.update(name if (PACKAGE / f"{name}.py").exists() else "__init__" for name in names)

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if not node.level:
                if parts[:1] != ["permsphere"]:
                    continue
                parts = parts[1:]
            add(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "permsphere":
                    add(alias.name.split(".")[1:2] or ["__init__"])
    return found


def reach(module: str) -> set[str]:
    """Every package module ``module`` imports, followed transitively."""
    seen, todo = set(), [module]
    while todo:
        for name in imported((PACKAGE / f"{todo.pop()}.py").read_text()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen - {module}


def test_imports_are_found_at_every_level_and_form():
    source = (
        "import math\n"
        "from .metrics import L1\n"
        "def late():\n"
        "    from . import oracle, count_report\n"
        "    import permsphere.cli\n"
        "    from permsphere.verify import run_verify\n"
        "    from permsphere import pipeline_sphere\n"
    )
    assert imported(source) == {"metrics", "oracle", "__init__", "cli", "verify"}


def test_reach_follows_imports_transitively():
    # pipeline imports perm only through metrics
    assert reach("pipeline") == {"metrics", "perm"}
    assert reach("enumeration") == {"oracle", "pipeline", "metrics", "perm"}


@pytest.mark.parametrize("module", MAY_REACH)
def test_module_reaches_only_its_allowlist(module):
    assert reach(module) <= MAY_REACH[module], sorted(reach(module) - MAY_REACH[module])


# perfbench/child.py and the tracer's LAYERS address these seven names as
# permsphere.enumeration.*
HARNESS_NAMES = {
    oracle: ("oracle_sphere", "oracle_ball", "group_histogram"),
    pipeline: ("pipeline_sphere", "pipeline_ball", "connected_histogram", "BetaTable"),
}


@pytest.mark.parametrize(
    "owner, name", [(owner, name) for owner, names in HARNESS_NAMES.items() for name in names]
)
def test_enumeration_holds_the_owners_object(owner, name):
    assert getattr(enumeration, name) is getattr(owner, name)


def test_tracer_finds_every_entry_point():
    # install() rebinds module globals for good, so it runs in its own interpreter
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import permsphere.cli\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "print(json.dumps({'missing': tracer.missing, 'absent': tracer.absent}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"missing": [], "absent": []}


def package_nodes():
    """Each module of the package, by name, with every node of its syntax tree."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, list(ast.walk(ast.parse(path.read_text())))


# python -O drops assert statements, so an exactness check raises ArithmeticError
def test_the_package_holds_no_assert():
    found = [f"{module}:{node.lineno}" for module, nodes in package_nodes()
             for node in nodes if isinstance(node, ast.Assert)]
    assert found == []


# Fraction is the monomial view's type; the closed forms stay in integers
def test_only_growth_imports_fractions():
    importers = set()
    for module, nodes in package_nodes():
        for node in nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if "fractions" in (name.partition(".")[0] for name in names):
                importers.add(module)
    assert importers == {"growth"}
