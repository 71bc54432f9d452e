"""Reproduction scripts run end to end as their own processes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import boxrevive

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_wigner_snapshots_rebuild_the_mirrored_cat(tmp_path):
    src = str(Path(boxrevive.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_wigner_snapshots.py"),
         "--grid", "64", "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.iterdir())) == 8
    mirrored = re.search(r"overlap\(d_super, a_cat\) = \S+\s+mirrored: (\S+)", proc.stdout)
    assert mirrored is not None, proc.stdout
    assert float(mirrored.group(1)) >= 0.95
