"""Command-line contract: exit codes, artifacts, manifests, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import boxrevive
from boxrevive import PacketSpec, SystemConfig, sensitivity_reports, subplanck_dimension
from boxrevive.cli import FMT, GRID_DEFAULTS, run


def run_quiet(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(argv)


def manifest_entries(path):
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


class TestExitCodes:
    def test_success(self, tmp_path):
        assert run_quiet(["spectrum", "--q2", "1e-5", "--outdir", str(tmp_path)]) == 0

    def test_validation_failure_names_precondition(self, tmp_path, capsys):
        rc = run_quiet(["carpet", "--dx", "0", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "delta_x" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run_quiet(["frobnicate"]) == 2

    def test_negative_q2_rejected(self, tmp_path, capsys):
        rc = run_quiet(["spectrum", "--q2", "-1", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "q_squared" in capsys.readouterr().err

    def test_revivals_require_positive_strength(self, tmp_path, capsys):
        rc = run_quiet(["revivals", "--q2", "0", "--outdir", str(tmp_path)])
        assert rc == 2

    def test_numerical_failure_is_exit_one(self, tmp_path, capsys):
        # A packet too fat for its truncation budget fails numerically, not
        # at configuration time.
        rc = run_quiet(
            ["fidelity", "--dx", "0.2", "--pbar", "0", "--xbar", "0.5",
             "--nt", "11", "--t1", "0.1", "--t0", "0.0", "--outdir", str(tmp_path)]
        )
        assert rc == 1

    def test_marginal_breach_is_exit_one(self, tmp_path, capsys):
        # Mid-bounce states keep 1/p^2 coherence tails from the hard walls;
        # their position marginal cannot close at the contract tolerance.
        rc = run_quiet(
            ["wigner", "--q2", "5e-4", "--t", "0.25", "--nx", "64", "--np", "128",
             "--outdir", str(tmp_path)]
        )
        assert rc == 1
        assert "marginal" in capsys.readouterr().err

    def test_uncovered_momentum_grid_is_exit_two(self, tmp_path, capsys):
        rc = run_quiet(["wigner", "--pmax", "10", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "|p_bar| + 6/delta_x" in capsys.readouterr().err

    def test_time_past_phase_domain_is_exit_two(self, tmp_path):
        src = str(Path(boxrevive.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "boxrevive.cli", "wigner", "--t", "1e300",
             "--nx", "16", "--np", "16", "--outdir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "1e+200" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestArtifacts:
    def test_carpet_outputs(self, tmp_path):
        rc = run_quiet(
            ["carpet", "--q2", "0", "--t1", "0.5", "--nt", "32", "--nx", "64",
             "--outdir", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "carpet.csv").exists()
        assert (tmp_path / "carpet.pgm").exists()
        assert (tmp_path / "manifest.txt").exists()
        header = (tmp_path / "carpet.pgm").read_bytes().split(b"\n")
        assert header[0] == b"P5"
        assert header[2] == b"64 32"  # nx columns by nt rows

    def test_formats_subset(self, tmp_path):
        rc = run_quiet(
            ["carpet", "--nt", "8", "--nx", "32", "--formats", "csv",
             "--outdir", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "carpet.csv").exists()
        assert not (tmp_path / "carpet.pgm").exists()

    def test_spectrum_table(self, tmp_path):
        rc = run_quiet(
            ["spectrum", "--q2", "1e-5", "--pbar", "50", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        scales = dict(
            line.split(",")
            for line in (tmp_path / "timescales.csv").read_text().splitlines()[3:]
        )
        assert float(scales["t_sr4"]) == pytest.approx(1e5, rel=1e-9)
        assert float(scales["t_rev_bar"]) == pytest.approx(1.0156, abs=1e-4)
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert rows[3].startswith("1,")
        assert len(rows) == 3 + 64

    def test_revivals_json(self, tmp_path):
        rc = run_quiet(
            ["revivals", "--q2", "5e-4", "--smax", "4", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "revivals.json").read_text())
        assert payload["t_sr4"] == pytest.approx(2000.0)
        times = [p["time"] for p in payload["predictions"]]
        assert times == sorted(times)
        assert 500.0 in times

    def test_subplanck_columns(self, tmp_path):
        rc = run_quiet(
            ["subplanck", "--q2-list", "0,2e-6", "--mode", "short_time",
             "--outdir", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "subplanck.csv").read_text().splitlines()
        assert lines[2] == (
            "q_squared,time,delta_x,delta_p,action_A,dim_a,delta_ratio,fringe_spacing"
        )
        assert len(lines) == 3 + 2

    def test_subplanck_fringe_rows_match_per_report_rebuild(self, tmp_path, ref_packet):
        # Reference: every report built without the fringe, then rebuilt with it.
        q2_list = [0.0, 2e-6]
        rc = run_quiet(
            ["subplanck", "--q2-list", "0,2e-6", "--mode", "short_time", "--fringe",
             "--outdir", str(tmp_path)]
        )
        assert rc == 0
        want = []
        for report, delta in sensitivity_reports(ref_packet, q2_list, "short_time"):
            r = subplanck_dimension(
                ref_packet, SystemConfig(q_squared=report.q_squared), report.time,
                with_fringe=True,
            )
            row = (r.q_squared, r.time, r.delta_x_eff, r.delta_p_eff, r.action_A, r.dim_a,
                   delta, r.fringe_spacing)
            want.append(",".join(FMT % v for v in row))
        assert (tmp_path / "subplanck.csv").read_text().splitlines()[3:] == want

    def test_fidelity_peaks(self, tmp_path):
        rc = run_quiet(
            ["fidelity", "--q2", "0", "--t0", "0.9", "--t1", "1.1", "--nt", "201",
             "--outdir", str(tmp_path)]
        )
        assert rc == 0
        peaks = (tmp_path / "fidelity_peaks.csv").read_text().splitlines()[3:]
        assert len(peaks) == 1
        assert float(peaks[0].split(",")[0]) == pytest.approx(1.0, abs=1e-4)


class TestManifest:
    def test_every_config_key_recorded(self, tmp_path):
        rc = run_quiet(
            ["wigner", "--t", "0.0", "--nx", "32", "--np", "64", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        entries = manifest_entries(tmp_path / "manifest.txt")
        expected = {"tool", "subcommand", "output_dir", "formats", "n_bar_override", "threads"}
        expected |= {f.name for f in dataclasses.fields(SystemConfig)}
        expected |= {f.name for f in dataclasses.fields(PacketSpec)}
        expected |= set(GRID_DEFAULTS["wigner"])
        missing = expected - set(entries)
        assert not missing, f"manifest lacks {missing}"

    def test_defaults_resolved_not_blank(self, tmp_path):
        run_quiet(["carpet", "--nt", "4", "--nx", "32", "--outdir", str(tmp_path)])
        entries = manifest_entries(tmp_path / "manifest.txt")
        assert entries["t1"] == "0.5"
        assert entries["truncation_epsilon"] == "1e-06"
        assert entries["captured_norm"].startswith("0.99999")


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "[packet]\nxbar = 0.5\ndx = 0.1\npbar = 50.0\n"
            "[grid]\nnt = 8\nnx = 64\nt1 = 0.5\n"
        )
        out = tmp_path / "out"
        rc = run_quiet(
            ["carpet", "--config", str(cfgfile), "--nx", "48", "--outdir", str(out)]
        )
        assert rc == 0
        entries = manifest_entries(out / "manifest.txt")
        assert entries["nt"] == "8"      # from file
        assert entries["nx"] == "48"     # flag wins
        assert entries["t1"] == "0.5"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[grid]\nwavelength = 3\n")
        rc = run_quiet(["carpet", "--config", str(cfgfile), "--outdir", str(tmp_path)])
        assert rc == 2
        assert "wavelength" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path):
        rc = run_quiet(["carpet", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["carpet", "--q2", "5e-4", "--t1", "0.5", "--nt", "24", "--nx", "64"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_quiet(args + ["--outdir", str(a)]) == 0
        assert run_quiet(args + ["--outdir", str(b)]) == 0
        assert (a / "carpet.csv").read_bytes() == (b / "carpet.csv").read_bytes()
        assert (a / "carpet.pgm").read_bytes() == (b / "carpet.pgm").read_bytes()

    def test_thread_cap_does_not_change_output(self, tmp_path, monkeypatch):
        args = ["wigner", "--t", "0.25", "--nx", "64", "--np", "64"]
        outs = []
        for cap, sub in (("1", "t1"), ("4", "t4")):
            monkeypatch.setenv("BOXREVIVE_THREADS", cap)
            out = tmp_path / sub
            assert run_quiet(args + ["--outdir", str(out)]) == 0
            outs.append((out / "wigner.csv").read_bytes())
            entries = manifest_entries(out / "manifest.txt")
            assert entries["threads"] == cap
        assert outs[0] == outs[1]

    def test_invalid_thread_cap_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BOXREVIVE_THREADS", "zero")
        rc = run_quiet(["spectrum", "--outdir", str(tmp_path)])
        assert rc == 2
