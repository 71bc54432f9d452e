"""Tests of the benchmark itself: seeded inputs, output checks, tracer.

    python3 -m pytest perfbench
"""

import json
import random
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import boxrevive  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIZE_KEYS = ("nt", "nx", "grid", "mode", "fringe")


def shape_of(job):
    """Everything about a job that sets its amount of work."""
    p = job.params
    sizes = {k: p[k] for k in SIZE_KEYS if k in p}
    if "q2_list" in p:
        sizes["points"] = len(p["q2_list"])
    if job.kind == "cli":
        sizes["subcommand"] = p["argv"][0]
        sizes.update({k: v for k, v in p["spec"].items() if k in ("nt", "nx", "mode", "fringe")})
    return job.name, job.kind, job.expect_exit, sizes


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_job_list(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_changes_inputs_but_not_work(name):
    a, b = workloads.generate(name, 1), workloads.generate(name, 2)
    assert a.packet != b.packet
    assert [j.params for j in a.jobs] != [j.params for j in b.jobs]
    assert [shape_of(j) for j in a.jobs] == [shape_of(j) for j in b.jobs]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", range(1, 13))
def test_generated_inputs_are_accepted(name, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error", boxrevive.WallClearanceWarning)
        wl = workloads.generate(name, seed)
        packet = boxrevive.PacketSpec(wl.packet.x_bar, wl.packet.delta_x, wl.packet.p_bar)
    exp = boxrevive.expand(packet, boxrevive.SystemConfig())
    assert exp.n_max - exp.n_min + 1 == workloads.REFERENCE_LEVELS
    n_bar = boxrevive.mean_quantum_number(packet.p_bar)
    for job in wl.jobs:
        params = job.params.get("spec", job.params)
        for q2 in [params["q2"]] if "q2" in params else params.get("q2_list", []):
            boxrevive.time_scales(n_bar, boxrevive.SystemConfig(q2))


def test_tail_leaves_ten_samples_beyond():
    for name in workloads.WORKLOADS:
        wl = workloads.generate(name, 1)
        n = wl.min_rounds * len(wl.jobs)
        assert n * (1 - wl.tail_percentile() / 100) >= 10
        assert wl.tail_jobs * wl.min_rounds >= 10
        assert 4 * wl.tail_jobs <= len(wl.jobs) + 3  # the slowest quarter, rounded up


def test_every_per_layer_metric_is_defined():
    names = [m["name"] for m in SPEC["per_layer"]]
    runner = SimpleNamespace(rows_emitted=0, exit_codes=Counter())
    values = run.layer_metrics(names, tracer.Tracer(), runner, 1, [1.0], 0.0)
    assert sorted(values) == sorted(names)


# ------------------------------------------------------------ the checks

PACKET = boxrevive.PacketSpec(0.5, 0.1, 50.0)


@pytest.fixture(scope="module")
def ref0():
    return checks.Reference(PACKET, 0.0)


def test_exact_cycles_agree_with_integer_revivals():
    n = np.arange(1, 40)
    assert np.all(checks.exact_cycles(3.0, 0.0, n) == 0.0)
    cycles = checks.exact_cycles(2000.0, 5e-4, n)  # whole cycles, up to float(5e-4)
    assert np.all(np.minimum(cycles, 1.0 - cycles) < 1e-9)


def test_carpet_check_rejects_a_perturbed_row(ref0):
    field = boxrevive.carpet(PACKET, boxrevive.SystemConfig(), (0.0, 0.5), nt=8, nx=64)
    args = ((0.0, 0.5), 8, 64, field.axis1, field.axis2)
    assert checks.check_carpet(ref0, *args, field.values, random.Random(3)) == []
    bad = field.values.copy()
    bad[3] *= 1.001
    assert checks.check_carpet(ref0, *args, bad, random.Random(3))


def test_scan_check_rejects_shifted_values(ref0):
    exp = boxrevive.expand(PACKET, boxrevive.SystemConfig())
    scan = boxrevive.fidelity_scan(PACKET, boxrevive.SystemConfig(), (0.9, 1.1), 41, expansion=exp)
    assert checks.check_scan(ref0, (0.9, 1.1), 41, scan.times, scan.values, random.Random(5)) == []
    assert checks.check_scan(ref0, (0.9, 1.1), 41, scan.times, scan.values + 1e-8, random.Random(5))


def test_recurrence_check_rejects_a_miss():
    ref = checks.Reference(PACKET, 5e-4)
    assert checks.check_recurrence(ref, 2000.0, ref.captured_norm) == []
    assert checks.check_recurrence(ref, 2000.0, ref.captured_norm - 1e-7)


def test_wigner_check_rejects_a_phase_flipped_coefficient(ref0):
    exp = boxrevive.expand(PACKET, boxrevive.SystemConfig())

    def field_of(expansion):
        state = boxrevive.evolve(expansion, 0.25, boxrevive.SystemConfig())
        f = boxrevive.wigner(state, nx=64, n_p=64)
        return (state.expansion.coefficients, f.x_axis, f.p_axis, f.values,
                boxrevive.marginal_errors(f, state))

    assert checks.check_wigner(ref0, 0.25, *field_of(exp)) == []
    coeffs = exp.coefficients.copy()
    k = int(np.argmax(np.abs(coeffs)))
    coeffs[k] = -coeffs[k]
    flipped = replace(exp, coefficients=coeffs)
    assert checks.check_wigner(ref0, 0.25, *field_of(flipped))


def test_curve_check_rejects_a_wrong_width():
    q2_list = (0.0, 1e-5)
    reports = boxrevive.sensitivity_reports(PACKET, q2_list, "short_time")
    rows = [(r.q_squared, r.time, r.delta_x_eff, r.delta_p_eff, r.action_A, r.dim_a, d,
             r.fringe_spacing) for r, d in reports]
    assert checks.check_curve_rows(PACKET, rows, q2_list, "short_time") == []
    bad = [rows[0], (*rows[1][:3], rows[1][3] * 1.001, *rows[1][4:])]
    assert checks.check_curve_rows(PACKET, bad, q2_list, "short_time")


def cli_outcome(tmp_path, argv):
    out = tmp_path / "out"
    code = boxrevive.cli.run([*argv, "--outdir", str(out)])
    files = {f.name: f.read_bytes() for f in out.iterdir()} if out.is_dir() else {}
    return {"exit": code, "stderr": "", "artifacts": files}


def test_cli_check_rejects_a_wrong_exit_code(tmp_path):
    import boxrevive.cli  # noqa: F401

    job = workloads.Job("reject", "cli", {"argv": ["revivals", "--q2", "0"], "spec": {}}, 2)
    assert checks.check_cli(PACKET, job, {"exit": 2, "stderr": "error", "artifacts": {}},
                            None) == []
    assert checks.check_cli(PACKET, job, {"exit": 0, "stderr": "", "artifacts": {}}, None)
    assert checks.check_cli(PACKET, job, {"exit": 2, "stderr": "Traceback (most recent",
                                          "artifacts": {}}, None)


def test_cli_check_rejects_a_corrupted_carpet(tmp_path):
    import boxrevive.cli  # noqa: F401

    argv = ["carpet", "--t1", "0.5", "--nt", "8"]
    spec = {"q2": 0.0, "window": (0.0, 0.5), "nt": 8, "nx": 512,
            "files": ("carpet.csv", "carpet.pgm", "manifest.txt")}
    job = workloads.Job("carpet", "cli", {"argv": argv, "spec": spec})
    outcome = cli_outcome(tmp_path, argv)
    assert checks.check_cli(PACKET, job, outcome, random.Random(1)) == []
    lines = outcome["artifacts"]["carpet.csv"].decode().splitlines()
    cells = lines[5].split(",")
    lines[5] = ",".join([cells[0]] + [repr(float(c) * 1.001) for c in cells[1:]])
    outcome["artifacts"]["carpet.csv"] = ("\n".join(lines) + "\n").encode()
    assert checks.check_cli(PACKET, job, outcome, random.Random(1))


# ------------------------------------------------------------ the tracer

def test_tracer_records_nested_spans_and_restores_functions():
    original = boxrevive.carpet
    t = tracer.Tracer()
    t.install()
    try:
        t.run_job("j", boxrevive.carpet, PACKET, boxrevive.SystemConfig(), (0.0, 0.5), 4, 16)
    finally:
        t.uninstall()
    assert boxrevive.carpet is original
    assert t.calls["carpet.carpet"] == 1 and t.calls["wavepacket.evolve"] == 4
    assert t.counts["carpet.carpet.cells"] == 64
    by_index = {i: s for i, s in enumerate(t.spans)}
    evolve = [s for s in t.spans if s[0] == "wavepacket.evolve"]
    assert all(by_index[s[3]][0] == "carpet.carpet" for s in evolve)
    assert all(v >= -1e-9 for v in t.self_time.values())


def test_tracer_reports_a_deleted_function_as_absent(monkeypatch):
    # The package attribute boxrevive.wigner is the function, so go by sys.modules.
    for module in ("boxrevive.wavepacket", "boxrevive.wigner"):
        monkeypatch.delattr(sys.modules[module], "fourier_amplitude")
    t = tracer.Tracer()
    t.install()
    try:
        t.run_job("j", boxrevive.carpet, PACKET, boxrevive.SystemConfig(), (0.0, 0.5), 2, 16)
    finally:
        t.uninstall()
    assert "wavepacket.fourier_amplitude" not in t.layers
    assert "wavepacket.momentum_amplitude" in t.layers
