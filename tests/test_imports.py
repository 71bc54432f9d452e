"""Lint: every imported name in the program, scripts, tests and benchmark is
read somewhere, no public name of the package lives on unit tests alone, and
no private module-level name of the package lives on tests at all. A name is
read by code alone: Python expressions, or the README's fenced code blocks;
docstrings, comments and README prose keep nothing alive.

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
# the README's code blocks and the acceptance suite, but not the unit tests.
PROGRAM = [path for path in MODULES if path.parent.name == "boxrevive"]
USERS = sorted(
    [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    + [ROOT / "tests/test_acceptance.py"]
)


def module_definitions(source: str, private: bool = False) -> dict[str, tuple[int, int]]:
    """Module-level public (or, if private, `_name`) functions, classes, assignments -> line span."""
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
            if name.startswith("_") == private:
                spans[name] = (node.lineno, node.end_lineno)
    return spans


def names_read(tree: ast.AST, skip: tuple[int, int] = (0, 0)) -> set[str]:
    """Names that tree loads, reads as an attribute or imports, outside the lines skip."""
    read = set()
    for node in ast.walk(tree):
        if skip[0] <= getattr(node, "lineno", 0) <= skip[1]:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_names(
    sources: dict[str, str], private: bool, readers: dict[str, str] | None = None, readme: str = ""
) -> list[str]:
    """module.name for each module-level public (or private) name of sources that no
    module of sources or readers reads beyond its definition, nor a code block of readme."""
    trees = {module: ast.parse(source) for module, source in {**sources, **(readers or {})}.items()}
    code = "\n".join(re.findall(r"^```\w*\n(.*?)^```$", readme, re.M | re.S))  # fenced blocks
    unread = []
    for module, source in sources.items():
        for name, span in module_definitions(source, private).items():
            if not any(
                name in names_read(tree, span if user == module else (0, 0))
                for user, tree in trees.items()
            ) and not re.search(rf"\b{re.escape(name)}\b", code):
                unread.append(f"{module}.{name}")
    return unread


@pytest.mark.parametrize("sources, readers, readme, expected", [
    ({"m": "def f():\n    return f()\n"}, {}, "", ["m.f"]),  # recursion is no reader
    ({"m": 'def f():\n    """f() is f."""\n'}, {"u": '"""Call f."""\n'}, "", ["m.f"]),  # docstrings
    ({"m": "A = 1\n"}, {"u": "# A\nB = 'A'\n"}, "", ["m.A"]),  # comments and strings
    ({"m": "def f(): pass\n"}, {}, "Call `f` in prose.\n```\ng()\n```\n", ["m.f"]),
    ({"m": "def f(): pass\n"}, {"u": "from m import f\n"}, "", []),
    ({"m": "A = 1\n"}, {"u": "import m\nm.A\n"}, "", []),
    ({"m": "def f(): pass\n"}, {}, "Prose.\n```python\nfrom m import f\n```\n", []),
    ({"m": "def f(): pass\n"}, {}, "Prose.\n```\nrun f --outdir out\n```\n", []),
])
def test_unread_public_names(sources, readers, readme, expected):
    assert unread_names(sources, False, readers, readme) == expected


def test_every_public_name_is_used_beyond_unit_tests():
    program = {path.stem: path.read_text() for path in PROGRAM}
    readers = {str(path.relative_to(ROOT)): path.read_text() for path in USERS}
    assert unread_names(program, False, readers, (ROOT / "README.md").read_text()) == []


@pytest.mark.parametrize("sources, expected", [
    ({"m": "def _f():\n    return _f()\n"}, ["m._f"]),  # recursion is no reader
    ({"m": "_A = 1\n# _A\nB = '_A'\n"}, ["m._A"]),  # nor are comments and strings
    ({"m": "def _f(): pass\nx = [_f]\n"}, []),
    ({"m": "def _f(): pass\n", "n": "from .m import _f\n"}, []),
    ({"m": "_A = 1\n", "n": "from . import m\nm._A\n"}, []),
])
def test_unread_private_names(sources, expected):
    assert unread_names(sources, True) == expected


def test_every_private_name_is_read_by_the_program():
    # A private helper that only tests call is dead code; tests do not keep it.
    assert unread_names({path.stem: path.read_text() for path in PROGRAM}, True) == []
