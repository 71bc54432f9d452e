"""The README's examples run as written: every CLI line and the Library snippet."""

import re
from pathlib import Path

import pytest

from boxrevive import PacketSpec, SystemConfig, evolve, expand, wigner
from boxrevive.cli import run
from boxrevive.wigner import _tables

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


def test_wigner_cache_entry_sizes():
    # The README's entry sizes at 29 levels against the entries built for the
    # reference packet's default p axes, each to half a unit of its last
    # printed digit.
    text = " ".join(README.read_text().split())
    fields = re.search(r"At 29 levels an entry holds (.*?)\. ", text).group(1)
    printed = re.findall(r"([\d.]+) MB at (\d+)²", fields)
    assert [grid for _, grid in printed] == ["256", "512", "1024"]
    cfg = SystemConfig(0.0)
    state = evolve(expand(PacketSpec(0.5, 0.1, 50.0), cfg), 0.25, cfg)
    e = state.expansion
    assert len(e.coefficients) == 29
    for mb, grid in printed:
        p_axis = wigner(state, int(grid), int(grid)).p_axis
        entry = _tables(int(grid), p_axis.tobytes(), e.n_min, e.n_max)
        half_unit = 0.5 * 10.0 ** -len(mb.partition(".")[2])
        assert abs(sum(a.nbytes for a in entry) / 1e6 - float(mb)) <= half_unit, mb
