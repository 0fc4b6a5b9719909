"""Every package tier-1, ``perf/`` and the examples import is declared.

CI installs the project with its ``dev`` extra and nothing else, so an
import that ``pyproject.toml`` does not declare breaks only a clean
runner. This test breaks on any host: each import under ``tests/``,
``perf/`` and ``examples/``, function-level ones included, must name the
standard library, ``repro``, a module of those trees, or a package in
``dependencies`` or the ``dev`` extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = ("tests", "perf", "examples")


def declared():
    """Import names of ``dependencies`` and the ``dev`` extra."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    names = {"repro"}
    for key in ("dependencies", "dev"):
        (listed,) = re.findall(rf"^{key} = \[(.*?)\]", text, re.M | re.S)
        for spec in re.findall(r'"([^"]+)"', listed):
            names.add(re.split(r"[\s<>=!~;\[]", spec)[0].lower().replace("-", "_"))
    return names


def imports():
    """(file, top-level name) of every absolute import in the trees."""
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    yield path.relative_to(ROOT), name.split(".")[0]


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+"
)
def test_every_import_is_declared():
    local = set(TREES) | {
        p.stem for tree in TREES for p in (ROOT / tree).rglob("*.py")
    }
    known = declared() | local | set(sys.stdlib_module_names)
    undeclared = sorted(
        f"{path}: {name}" for path, name in set(imports()) if name not in known
    )
    assert not undeclared, (
        "imported but not declared in pyproject.toml: " + ", ".join(undeclared)
    )
