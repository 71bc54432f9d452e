"""The README's examples run as written: every CLI line and the Library snippet."""

import re
from pathlib import Path

import pytest

from boxrevive.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(language=""):
    """The bodies of the README's fenced blocks opened with ```<language>."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)
    return [body for lang, body in blocks if lang == language]


CLI_LINES = [
    line.split()
    for block in code_blocks()
    for line in block.splitlines()
    if line.startswith("boxrevive ")
]


def test_readme_lists_its_cli_lines():
    assert len(CLI_LINES) == 11


@pytest.mark.parametrize("argv", CLI_LINES, ids=[" ".join(a[1 : a.index("--outdir")]) for a in CLI_LINES])
def test_cli_line_runs(tmp_path, argv):
    i = argv.index("--outdir")
    out = tmp_path / argv[i + 1]
    assert run([*argv[1:i], "--outdir", str(out), *argv[i + 2 :]]) == 0
    assert (out / "manifest.txt").is_file()
    assert len(list(out.iterdir())) > 1, "no artifact besides the manifest"


def test_library_snippet_runs():
    (snippet,) = code_blocks("python")
    scope = {}
    exec(snippet, scope)
    assert scope["report"].action_A >= 0.5  # the Heisenberg floor
    assert scope["field"].values.shape == (256, 256)
    assert scope["density"].values.shape == (256, 512)
