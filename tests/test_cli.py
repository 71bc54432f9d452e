"""Command-line contract: exit codes, artifacts, manifests, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import boxrevive
from boxrevive import (
    Field2D, SystemConfig, carpet, cli, sensitivity_reports, subplanck_dimension,
)
from boxrevive.cli import run


def run_quiet(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(argv)


def manifest_entries(path, section=None):
    out = {}
    current = None
    for line in path.read_text().splitlines():
        if line.startswith("["):
            current = line.strip("[]")
        elif "=" in line and section in (None, current):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def run_process(argv, cwd=None, **env):
    """Run the CLI as its own process in cwd, with env added to the environment;
    returns (exit code, stderr)."""
    src = str(Path(boxrevive.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env)
    proc = subprocess.run(
        [sys.executable, "-m", "boxrevive.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
    )
    return proc.returncode, proc.stderr


# A non-default value for every parameter, spelled as the manifest prints it.
COMMON_VALUES = {
    "q2": "1e-05", "eps": "1e-07", "nmax_cap": "400", "xbar": "0.45", "dx": "0.09",
    "pbar": "47", "nbar_override": "15", "formats": "csv",
}
GRID_VALUES = {
    "spectrum": {"nmax": "8"},
    "carpet": {"t0": "0.1", "t1": "0.2", "nt": "4", "nx": "64"},
    "wigner": {"t": "0", "nx": "32", "np": "64", "pmax": "120"},
    "subplanck": {"t": "0.5", "q2_list": "2e-06,1e-05", "mode": "super_revival", "fringe": "1"},
    "revivals": {"smax": "3"},
    "fidelity": {"t0": "0.95", "t1": "1.05", "nt": "11"},
}
MANIFEST_KEY = {
    "q2": "q_squared", "eps": "truncation_epsilon", "nmax_cap": "n_max_cap", "xbar": "x_bar",
    "dx": "delta_x", "pbar": "p_bar", "nbar_override": "n_bar_override", "outdir": "output_dir",
}


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    """Per subcommand: the given values, the manifest of a run with every
    parameter as a flag and of a run with every parameter from a config file,
    and the keys of that last manifest's [grid] section."""
    cache = {}

    def manifests(sub):
        if sub not in cache:
            out = tmp_path_factory.mktemp(sub)
            manifest = out / "manifest.txt"
            values = {**COMMON_VALUES, "outdir": str(out), **GRID_VALUES[sub]}
            flags = []
            for key, text in values.items():
                flag = "--" + key.replace("_", "-")
                flags += [flag] if key == "fringe" else [flag, text]
            assert run_quiet([sub, *flags]) == 0
            by_flag = manifest_entries(manifest)
            manifest.unlink()
            cfgfile = tmp_path_factory.mktemp("cfg") / "run.cfg"
            cfgfile.write_text("[run]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
            assert run_quiet([sub, "--config", str(cfgfile)]) == 0
            grid_keys = set(manifest_entries(manifest, "grid"))
            cache[sub] = values, by_flag, manifest_entries(manifest), grid_keys
        return cache[sub]

    return manifests


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

    @pytest.mark.parametrize("argv", [
        # Mid-bounce states keep 1/p^2 coherence tails from the hard walls;
        # their position marginal cannot close at the contract tolerance.
        ["--q2", "5e-4", "--t", "0.25", "--nx", "64", "--np", "128"],
        # An 8-point grid cannot resolve the packet, whatever p_max is.
        ["--nx", "8", "--np", "8"],
        ["--pmax", "1e307", "--nx", "8", "--np", "8"],
    ], ids=["mid_bounce", "coarse_grid", "coarse_grid_pmax_1e307"])
    def test_marginal_breach_is_exit_one(self, tmp_path, capsys, argv):
        rc = run_quiet(["wigner", *argv, "--outdir", str(tmp_path)])
        assert rc == 1
        assert "marginal" in capsys.readouterr().err

    def test_uncovered_momentum_grid_is_exit_two(self, tmp_path, capsys):
        for pmax in ("10", "-200"):  # |-200| would cover the packet
            rc = run_quiet(["wigner", "--pmax", pmax, "--outdir", str(tmp_path)])
            assert rc == 2
            assert "|p_bar| + 6/delta_x" in capsys.readouterr().err

    def test_time_past_phase_domain_is_exit_two(self, tmp_path):
        rc, err = run_process(
            ["wigner", "--t", "1e300", "--nx", "16", "--np", "16", "--outdir", str(tmp_path)]
        )
        assert rc == 2
        assert "1e+200" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("pmax", ["nan", "inf", "1e308"])  # 2 * 1e308 overflows
    def test_non_finite_pmax_is_exit_two(self, tmp_path, capsys, pmax):
        out = tmp_path / "out"
        rc = run_quiet(["wigner", "--pmax", pmax, "--nx", "8", "--np", "8", "--outdir", str(out)])
        assert rc == 2
        assert "2 p_max must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_allocation_failure_is_exit_two(self, tmp_path, capsys, monkeypatch):
        # numpy's text for `wigner --nx 100000000`, whose first large block past
        # the 0.75 GiB x grid is the table of cos and sin(2 pi n L): 5e7 near rows
        # by 29 levels by 2.
        text = "Unable to allocate 21.6 GiB for an array with shape (50000000, 29, 2) and data type float64"

        def too_large(*args, **kwargs):
            raise MemoryError(text)

        monkeypatch.setattr(cli, "wigner", too_large)
        out = tmp_path / "out"
        rc = run_quiet(["wigner", "--nx", "8", "--np", "8", "--outdir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"configuration error: out of memory ({text})" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("errors", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_marginal_error_is_a_breach(self, tmp_path, capsys, monkeypatch, errors):
        monkeypatch.setattr(cli, "marginal_errors", lambda field, state: errors)
        out = tmp_path / "out"
        rc = run_quiet(["wigner", "--nx", "8", "--np", "8", "--outdir", str(out)])
        assert rc == 1
        assert "marginal" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_row_norm_is_a_breach(self, tmp_path, capsys, monkeypatch):
        def poisoned(*args, **kwargs):
            field = carpet(*args, **kwargs)
            values = field.values.copy()
            values[0, 0] = math.nan
            return Field2D(field.axis1, field.axis2, values, field.meta)

        monkeypatch.setattr(cli, "carpet", poisoned)
        out = tmp_path / "out"
        rc = run_quiet(["carpet", "--nt", "4", "--nx", "32", "--outdir", str(out)])
        assert rc == 1
        assert "row norm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, code, needle", [
        # Overflowing packets end as their finite neighbours (--dx 100,
        # --pbar 5000) do: the basis cap is reached with no norm captured.
        ("wigner --dx 1e300", 1, "basis cap"),
        ("subplanck --dx 1e300", 1, "basis cap"),
        ("fidelity --dx 1e200", 1, "basis cap"),
        ("carpet --pbar 1e300", 1, "basis cap"),
        ("fidelity --dx 1e-300 --pbar 1e300", 1, "basis cap"),  # dx |pbar| = 1, pbar^2 overflows
        ("carpet --dx 1e-170 --pbar 1e170", 1, "basis cap"),  # dx^2 underflows, pbar^2 overflows
        ("carpet --dx 100", 1, "basis cap"),
        ("carpet --pbar 5000", 1, "basis cap"),
        ("carpet --dx inf", 2, "delta_x"),
        ("carpet --dx 1e308", 2, "4 pi delta_x must be finite"),  # the prefactor overflows
        ("spectrum --pbar 1e308", 2, "n_bar^3"),
        ("revivals --pbar 1e308 --q2 1e-5", 2, "n_bar^3"),
        ("spectrum --nbar-override " + "1" * 130, 2, "n_bar^3"),
    ])
    def test_overflowing_packet_has_no_traceback(self, tmp_path, command, code, needle):
        rc, err = run_process([*command.split(), "--outdir", str(tmp_path / "out")])
        assert rc == code
        assert needle in err
        assert not re.search(r"\bnan\b", err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        # Packets much wider than the box: the closed form counts more than
        # the norm of a box state.
        "fidelity --dx 10 --pbar -3.141592653589793 --nt 11",
        "fidelity --dx 0.3 --nt 11",
        "carpet --dx 1.0 --xbar 0.3 --nt 4 --nx 32",
    ])
    def test_packet_wider_than_box_is_exit_two(self, tmp_path, command):
        out = tmp_path / "out"
        rc, err = run_process([*command.split(), "--outdir", str(out)])
        assert rc == 2
        assert "captured norm <= 1 + epsilon = 1.000001 violated" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sub, grid", [
        ("carpet", ["--nt", "2", "--nx", "32"]), ("fidelity", ["--nt", "11"]),
    ])
    def test_bad_window_is_exit_two(self, tmp_path, capsys, bad_window, sub, grid):
        out = tmp_path / "out"
        t0, t1 = map(repr, map(float, bad_window))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run([sub, f"--t0={t0}", f"--t1={t1}", *grid, "--outdir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "time window" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if not any(map(math.isnan, bad_window)):
            assert "nan" not in err
        assert not out.exists()

    def test_outdir_that_is_a_file_is_exit_two(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        rc, err = run_process(["carpet", "--nt", "4", "--nx", "32", "--outdir", str(taken)])
        assert rc == 2
        assert f"output directory {taken}" in err
        assert "Traceback" not in err

    # A directory at an artifact's name makes its write fail whoever runs the
    # suite; file permissions would not stop root.
    @pytest.mark.parametrize("argv, blocked, written", [
        (["spectrum", "--nmax", "8"], "manifest.txt", ["spectrum.csv", "timescales.csv"]),
        (["wigner", "--nx", "32", "--np", "64"], "wigner.csv", []),
    ])
    def test_artifact_that_cannot_be_written_is_exit_two(
        self, tmp_path, capsys, argv, blocked, written
    ):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        rc = run_quiet([*argv, "--outdir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"configuration error: cannot write {out / blocked} (Is a directory)" in err
        # The artifacts before the failed one stay; nothing after it is written.
        assert sorted(p.name for p in out.iterdir()) == sorted([blocked, *written])

    def test_artifact_that_cannot_be_written_has_no_traceback(self, tmp_path):
        out = tmp_path / "out"
        (out / "manifest.txt").mkdir(parents=True)
        rc, err = run_process(["spectrum", "--nmax", "8", "--outdir", str(out)])
        assert rc == 2
        assert f"cannot write {out / 'manifest.txt'}" in err
        assert "Traceback" not in err

    def test_super_revival_without_positive_q2_is_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_quiet(
            ["subplanck", "--mode", "super_revival", "--q2-list", "0", "--outdir", str(out)]
        )
        assert rc == 2
        assert "at least one q2 > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum --pbar 0", "revivals --q2 1e-5 --pbar 0"])
    def test_resting_packet_needs_a_level_for_the_time_scales(self, tmp_path, command):
        # n_bar = round(|pbar| / pi) = 0 has no classical period; no n_bar is invented.
        out = tmp_path / "out"
        rc, err = run_process([*command.split(), "--outdir", str(out)])
        assert rc == 2
        assert "|pbar| > pi/2 is needed for a classical period" in err
        assert "--nbar-override" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert run_quiet([*command.split(), "--nbar-override", "16", "--outdir", str(out)]) == 0

    @pytest.mark.parametrize("nmax", ["9742", "100000000000"])
    def test_spectrum_nmax_past_the_level_domain_is_exit_two(self, tmp_path, capsys, nmax):
        # Past MAX_LEVEL = 9741, n^4 is not an exact double; 1e11 rows would never finish.
        out = tmp_path / "out"
        assert run_quiet(["spectrum", "--nmax", nmax, "--outdir", str(out)]) == 2
        assert f"nmax must be in the level domain [1, 9741] (got {nmax})" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "spectrum --q2 1e-310",
        "revivals --q2 3e-309 --smax 2",
        "revivals --q2 1e-310 --smax 2",
        "subplanck --q2-list 1e-310 --mode super_revival",
    ])
    def test_subnormal_q2_overflowing_t_sr4_is_exit_two(self, tmp_path, command):
        # At or below 1/DBL_MAX ~ 5.56e-309, t_sr4 = 1/q2 is not a finite double.
        out = tmp_path / "out"
        rc, err = run_process([*command.split(), "--outdir", str(out)])
        assert rc == 2
        assert "1/q_squared <= 1.79769e+308 violated" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["carpet", "--t0", "0.4", "--t1", "0.2"], 2),  # library precondition
        (["wigner", "--q2", "1e-5", "--t", "1.0"], 1),  # mid-bounce marginal breach
    ])
    def test_failed_run_makes_no_directory(self, tmp_path, argv, code):
        out = tmp_path / "out"
        assert run_quiet([*argv, "--outdir", str(out)]) == code
        assert not out.exists()


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

    @pytest.mark.parametrize("argv, name, header", [
        (["carpet", "--nt", "8", "--nx", "32"], "carpet.csv",
         "# axis1 (rows): time [T_rev]; axis2 (columns): position [L]; "
         "values: probability density [1/L]"),
        (["wigner", "--nx", "32", "--np", "32"], "wigner.csv",
         "# axis1 (rows): position [L]; axis2 (columns): momentum [hbar/L]; "
         "values: Wigner quasiprobability [1/hbar]"),
    ], ids=["carpet", "wigner"])
    def test_field_csv_names_its_axes(self, tmp_path, argv, name, header):
        assert run_quiet([*argv, "--formats", "csv", "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / name).read_text().splitlines()[0] == header

    @pytest.mark.parametrize("formats", ["csv", "pgm", "csv,pgm"])
    @pytest.mark.parametrize("argv, artifacts", [
        (["spectrum", "--nmax", "4"], {"spectrum.csv", "timescales.csv"}),
        (["carpet", "--nt", "8", "--nx", "32"], {"carpet.csv", "carpet.pgm"}),
        (["wigner", "--nx", "32", "--np", "32"], {"wigner.csv", "wigner.pgm"}),
        (["subplanck", "--q2-list", "0,2e-6"], {"subplanck.csv"}),
        (["revivals", "--q2", "5e-4", "--smax", "3"], {"revivals.json"}),
        (["fidelity", "--nt", "11"], {"fidelity.csv", "fidelity_peaks.csv"}),
    ], ids=["spectrum", "carpet", "wigner", "subplanck", "revivals", "fidelity"])
    def test_formats_subset(self, tmp_path, argv, artifacts, formats):
        # --formats filters csv and pgm; revivals.json and manifest.txt are always written.
        assert run_quiet([*argv, "--formats", formats, "--outdir", str(tmp_path)]) == 0
        chosen = formats.split(",")
        want = {n for n in artifacts if n.endswith(".json") or n.split(".")[1] in chosen}
        assert {f.name for f in tmp_path.iterdir()} == want | {"manifest.txt"}
        assert "n_bar" in manifest_entries(tmp_path / "manifest.txt", "derived")

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

    def test_spectrum_table_reaches_the_last_level(self, tmp_path):
        assert run_quiet(["spectrum", "--nmax", "9741", "--outdir", str(tmp_path)]) == 0
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()[3:]
        assert len(rows) == 9741
        assert rows[-1].startswith("9741,")

    def test_negative_momentum_keeps_n_bar(self, tmp_path):
        # |a_n| is unchanged under p_bar -> -p_bar, so every time scale is too.
        for pbar in ("50", "-50"):
            assert run_quiet(["spectrum", f"--pbar={pbar}", "--outdir", str(tmp_path / pbar)]) == 0
            assert manifest_entries(tmp_path / pbar / "manifest.txt", "derived")["n_bar"] == "16"
        csv = [(tmp_path / pbar / "timescales.csv").read_bytes() for pbar in ("50", "-50")]
        assert csv[0] == csv[1]
        out = tmp_path / "revivals"
        assert run_quiet(["revivals", "--q2", "5e-4", "--pbar=-50", "--outdir", str(out)]) == 0
        assert json.loads((out / "revivals.json").read_text())["n_bar"] == 16

    def test_revivals_json(self, tmp_path):
        rc = run_quiet(
            ["revivals", "--q2", "5e-4", "--smax", "4", "--outdir", str(tmp_path)]
        )
        assert rc == 0

        def reject(name):
            raise ValueError(f"revivals.json holds {name}")

        payload = json.loads((tmp_path / "revivals.json").read_text(), parse_constant=reject)
        assert {"n_bar", "q_squared", "s_max", "t_sr3", "t_sr4"} <= set(payload)
        assert payload["t_sr4"] == pytest.approx(2000.0)
        assert all(set(p) == {"time", "r2", "s2"} for p in payload["predictions"])
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
            want.append(",".join("%.12g" % v for v in row))
        assert (tmp_path / "subplanck.csv").read_text().splitlines()[3:] == want

    def test_subplanck_fringe_of_a_state_without_fringes_is_empty(self, tmp_path):
        # A packet at rest at t = 0 has no crossings: the cell is written empty.
        rc = run_quiet(
            ["subplanck", "--pbar", "0", "--t", "0", "--fringe", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        header, row = (tmp_path / "subplanck.csv").read_text().splitlines()[2:]
        assert header.endswith(",fringe_spacing")
        assert row.endswith(",") and row.count(",") == header.count(",")

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
        expected = {"tool", "subcommand", "output_dir", "formats", "n_bar_override"}
        expected |= {"q_squared", "truncation_epsilon", "n_max_cap"}
        expected |= {"x_bar", "delta_x", "p_bar"}
        expected |= {"t", "nx", "np", "pmax"}
        missing = expected - set(entries)
        assert not missing, f"manifest lacks {missing}"

    def test_defaults_resolved_not_blank(self, tmp_path):
        run_quiet(["carpet", "--nt", "4", "--nx", "32", "--outdir", str(tmp_path)])
        entries = manifest_entries(tmp_path / "manifest.txt")
        assert entries["t1"] == "0.5"
        assert entries["truncation_epsilon"] == "1e-06"
        assert entries["captured_norm"].startswith("0.99999")

    @pytest.mark.parametrize("argv", [
        ["carpet", "--nt", "4", "--nx", "32"],
        ["wigner", "--nx", "32", "--np", "64"],
        ["subplanck", "--t", "0.25", "--fringe"],
        ["subplanck", "--q2-list", "0,1e-5"],
        ["fidelity", "--nt", "11"],
    ], ids=["carpet", "wigner", "subplanck_point", "subplanck_curve", "fidelity"])
    def test_every_expansion_records_its_ledger(self, tmp_path, argv):
        # The default packet expands over levels 3..31.
        assert run_quiet([*argv, "--outdir", str(tmp_path)]) == 0
        derived = manifest_entries(tmp_path / "manifest.txt", "derived")
        assert (derived["captured_norm"], derived["n_min"], derived["n_max"]) == (
            "0.999999999057", "3", "31")

    def test_layout_is_pinned(self, tmp_path):
        # Section order, key order within each section, value spelling and the
        # final newline; output_dir is the test's own directory.
        argv = ["spectrum", "--q2", "1e-5", "--pbar", "50", "--nmax", "4"]
        assert run_quiet([*argv, "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / "manifest.txt").read_text().split("\n")
        assert [line for line in lines if not line.startswith("output_dir = ")] == [
            "[run]",
            f"tool = boxrevive {boxrevive.__version__}",
            "subcommand = spectrum",
            "formats = csv,pgm",
            "n_bar_override = ",
            "[system]",
            "q_squared = 1e-05",
            "truncation_epsilon = 1e-06",
            "n_max_cap = 512",
            "[packet]",
            "x_bar = 0.5",
            "delta_x = 0.1",
            "p_bar = 50",
            "[grid]",
            "nmax = 4",
            "[derived]",
            "n_bar = 16",
            "spectrum_turnover = 223.60679775",
            "t_sr4 = 100000",
            "",
        ]


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

    @pytest.mark.parametrize("sub, text, flags, key", [
        ("carpet", "[grid]\nnt = abc\n", [], "nt"),
        ("subplanck", "[grid]\nfringe = yes\n", [], "fringe"),
        ("carpet", "[run]\nnbar-override = x\n", [], "nbar_override"),
        ("subplanck", None, ["--q2-list", "1e-5,abc"], "q2_list"),
    ], ids=["nt", "fringe", "nbar-override", "q2-list"])
    def test_unparsable_value_names_its_key(self, tmp_path, capsys, sub, text, flags, key):
        if text is not None:
            (tmp_path / "run.cfg").write_text(text)
            flags = flags + ["--config", str(tmp_path / "run.cfg")]
        rc = run_quiet([sub, *flags, "--outdir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{key}\b", err), err
        assert "unknown config key" not in err

    @pytest.mark.parametrize("text, needle", [
        ("q2 = 1e-5\n", "file {path}: File contains no section headers. file: '{path}', line: 1"),
        ("[a]\nq2 = 1e-5\n[a]\nnt = 11\n", "file {path}: While reading from '{path}' [line 3]: "
         "section 'a' already exists"),
        ("[a]\nq2 = 1e-5\nq2 = 2e-5\n", "file {path}: While reading from '{path}' [line 3]: "
         "option 'q2' in section 'a' already exists"),
        ("[a]\nq2\n", "file {path}: Source contains parsing errors: '{path}' [line 2]: 'q2\\n'"),
        # No % interpolation: the value reaches the float parser as written.
        ("[a]\nq2 = %\n", "error: q2: could not convert string to float: '%'"),
    ], ids=["no_header", "repeated_section", "repeated_key", "no_separator", "percent"])
    def test_malformed_file_is_exit_two(self, tmp_path, text, needle):
        cfgfile, out = tmp_path / "run.cfg", tmp_path / "out"
        cfgfile.write_text(text)
        rc, err = run_process(
            ["fidelity", "--nt", "11", "--config", str(cfgfile), "--outdir", str(out)]
        )
        assert rc == 2
        assert err.startswith("boxrevive: configuration error: ")
        assert needle.format(path=cfgfile) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("make, needle", [
        (Path.mkdir, "cannot read config file {path} (Is a directory)"),
        # 0xff ends the q2 line: the file is not UTF-8.
        (lambda path: path.write_bytes(b"[a]\nq2 = 1e-5\xff\n"), "cannot read config file "
         "{path} ('utf-8' codec can't decode byte 0xff in position 13: invalid start byte)"),
    ], ids=["directory", "not_utf8"])
    def test_unreadable_file_is_exit_two(self, tmp_path, make, needle):
        cfgfile, out = tmp_path / "run.cfg", tmp_path / "out"
        make(cfgfile)
        rc, err = run_process(
            ["fidelity", "--nt", "11", "--config", str(cfgfile), "--outdir", str(out)]
        )
        assert rc == 2
        assert err == f"boxrevive: configuration error: {needle.format(path=cfgfile)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, key, value", [
        ("[DEFAULT]\nq2 = 1e-5\n", "q_squared", "1e-05"),
        ("[system]\nQ2 = 1e-5\n", "q_squared", "1e-05"),
        ("[system]\nq2: 1e-5\n", "q_squared", "1e-05"),
        ("# note\n[system]\n; note\nq2 = 1e-5\n# q2 = 2e-5\n", "q_squared", "1e-05"),
        ("[system]\nnmax-cap = 300\n", "n_max_cap", "300"),
        ("[a]\nq2 = 1e-5\n[b]\nq2 = 2e-5\n", "q_squared", "2e-05"),
    ], ids=["default_section", "upper_case_key", "colon", "comments", "hyphen", "last_wins"])
    def test_accepted_syntax(self, tmp_path, text, key, value):
        cfgfile, out = tmp_path / "run.cfg", tmp_path / "out"
        cfgfile.write_text(text)
        rc = run_quiet(["fidelity", "--nt", "11", "--config", str(cfgfile), "--outdir", str(out)])
        assert rc == 0
        assert manifest_entries(out / "manifest.txt")[key] == value

    @pytest.mark.parametrize("sub, key", [
        (sub, key) for sub in GRID_VALUES for key in (*COMMON_VALUES, "outdir", *GRID_VALUES[sub])
    ])
    def test_every_parameter_round_trips_through_file(self, round_trip, sub, key):
        values, by_flag, by_file, _ = round_trip(sub)
        entry = MANIFEST_KEY.get(key, key)
        assert by_file[entry] == by_flag[entry] == values[key]

    @pytest.mark.parametrize("sub", GRID_VALUES)
    def test_grid_section_holds_the_subcommand_parameters(self, round_trip, sub):
        # The round trip covers every parameter only if GRID_VALUES is complete.
        assert round_trip(sub)[3] == set(GRID_VALUES[sub])


class TestWarnings:
    TURNOVER = (
        "boxrevive: warning: PerturbativeValidityWarning: basis extends to n=31, past 0.7 of "
        "the spectral turnover n*={}; quartic correction is no longer a small perturbation there"
    )

    def test_one_line_without_source_path(self, tmp_path):
        rc, err = run_process(
            ["subplanck", "--q2", "5e-4", "--t", "500", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        assert err == self.TURNOVER.format("31.62") + "\n"
        assert ".py:" not in err

    def test_warning_precedes_the_error_line(self, tmp_path):
        rc, err = run_process(["wigner", "--q2", "0.1", "--outdir", str(tmp_path / "out")])
        assert rc == 1
        warning, error = err.splitlines()
        assert warning == self.TURNOVER.format("2.236")
        assert error.startswith("boxrevive: numerical contract failure: Wigner marginal mismatch")

    @pytest.fixture
    def probe(self, monkeypatch):
        """Make `spectrum` a runner that only warns RuntimeWarning("probe")."""
        def warns(cfg):
            warnings.warn("probe", RuntimeWarning)
            return {}, {}

        monkeypatch.setitem(cli.SUBCOMMANDS, "spectrum", (*cli.SUBCOMMANDS["spectrum"][:2], warns))

    def test_error_filter_still_raises(self, tmp_path, probe):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="probe"):
                run(["spectrum", "--outdir", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_recording_caller_sees_the_warning(self, tmp_path, probe):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["spectrum", "--outdir", str(tmp_path / "out")]) == 0
        assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, "probe")]


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["carpet", "--q2", "5e-4", "--t1", "0.5", "--nt", "24", "--nx", "64"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_quiet(args + ["--outdir", str(a)]) == 0
        assert run_quiet(args + ["--outdir", str(b)]) == 0
        assert (a / "carpet.csv").read_bytes() == (b / "carpet.csv").read_bytes()
        assert (a / "carpet.pgm").read_bytes() == (b / "carpet.pgm").read_bytes()

    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS splits each product by its thread count; no Wigner field or
        # fringe spacing may move with it. Each run writes to the same
        # relative --outdir, so the manifests compare too.
        commands = {
            "wigner": ["wigner", "--q2", "0", "--t", "0.25"],
            "subplanck": ["subplanck", "--q2-list", "0,2e-6,1e-5", "--mode", "short_time", "--fringe"],
        }
        for threads in ("1", "2"):
            for name, argv in commands.items():
                cwd = tmp_path / threads / name
                cwd.mkdir(parents=True)
                rc, err = run_process([*argv, "--outdir", "out"], cwd=cwd, OPENBLAS_NUM_THREADS=threads)
                assert rc == 0, err
        for name in commands:
            one, two = (tmp_path / threads / name / "out" for threads in ("1", "2"))
            artifacts = sorted(path.name for path in one.iterdir())
            assert len(artifacts) > 1 and artifacts == sorted(path.name for path in two.iterdir())
            for artifact in artifacts:
                assert (one / artifact).read_bytes() == (two / artifact).read_bytes(), artifact
