"""Lint: every imported name in the program, scripts, tests and benchmark is
read somewhere, and no public name of the package lives on unit tests alone.

No linter is a dependency, so this test does the unused-import check with `ast`.
`__init__.py` is skipped: its imports are the package's public names.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src/boxrevive", "scripts", "tests", "perfbench")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, expected", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb = 1\nprint(b)\n", ["line 1: c"]),
    ("from __future__ import annotations\n", []),
    ("import numpy as np\ndef f(x: np.ndarray): pass\n", []),
])
def test_unused_imports_reads_only_loads(source, expected):
    assert unused_imports(source) == expected


# Where a public name must be used: the program, the scripts, the benchmark,
# the README and the acceptance suite, but not the unit tests.
USERS = sorted(
    [path for path in (ROOT / "src/boxrevive").glob("*.py") if path.name != "__init__.py"]
    + [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    + [ROOT / "README.md", ROOT / "tests/test_acceptance.py"]
)


def public_definitions(source: str) -> dict[str, tuple[int, int]]:
    """Module-level public names (functions, classes, assignments) -> their line span."""
    spans = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                spans[name] = (node.lineno, node.end_lineno)
    return spans


def test_every_public_name_is_used_beyond_unit_tests():
    sources = {path: path.read_text().splitlines() for path in USERS}
    unused = []
    for path in (p for p in USERS if p.parent.name == "boxrevive"):
        for name, (first, last) in public_definitions("\n".join(sources[path])).items():
            # Every user file, with the definition's own lines cut from its module.
            text = "\n".join(
                "\n".join(lines[: first - 1] + lines[last:] if user == path else lines)
                for user, lines in sources.items()
            )
            if not re.search(rf"\b{re.escape(name)}\b", text):
                unused.append(f"{path.stem}.{name}")
    assert unused == []
