#!/usr/bin/env python3
"""boxrevive benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload time_scan --seed 1 --seconds 40 --trace 0

Run from the repository root.  The library is imported from ``src/``; CLI jobs
start ``python -m boxrevive.cli`` child processes.  Load model: closed loop
with one client; the workload's fixed job list is repeated in rounds until
``--seconds`` have passed (and at least the workload's minimum round count);
an untraced run stops at the first job after that, a traced one at the end of
its round.  Numpy's BLAS pool keeps its default thread count, which is
recorded.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, with every time
scaled to one host speed by a calibration kernel timed before each job (see
README.md; the unscaled figures are on the detail line); ``--trace 1``
runs the same jobs with every library function wrapped (see tracer.py) and
prints the per-layer metrics.  Output checks (checks.py) run after the timed
rounds and feed ``failed``.  The last stdout line is the JSON result; the line
before it carries the environment and per-job-kind detail.  The full record,
and the spans of a traced run, are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7       # cli.startup_s samples in a traced cli_batch run
SETUP_PER_ROUND = 2     # setup_s samples before each round
CAL_REF_S = 0.0025      # calibration-kernel seconds that times are scaled to
LAYER_FIELDS = ("busy_s", "calls", "cells", "pairs", "bytes", "ns_per_pair", "redundant_ratio")


# ------------------------------------------------------------- environment

def _first_line(path: Path, prefix: str = "") -> str | None:
    try:
        for line in path.read_text().splitlines():
            if line.startswith(prefix):
                return line
    except OSError:
        return None
    return None


def loadavg_1min() -> float | None:
    line = _first_line(Path("/proc/loadavg"))
    return float(line.split()[0]) if line else None


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    head = _first_line(git / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head.strip()
    ref = head[5:].strip()
    loose = _first_line(git / ref)
    if loose:
        return loose.strip()
    packed = (git / "packed-refs").read_text() if (git / "packed-refs").is_file() else ""
    found = [ln.split()[0] for ln in packed.splitlines() if ln.endswith(" " + ref)]
    return found[0] if found else "unknown"


def blas_info(np) -> dict:
    """BLAS library name and the thread count of its pool (OpenBLAS builds)."""
    import ctypes

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    maps = Path("/proc/self/maps").read_text() if Path("/proc/self/maps").exists() else ""
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln and ".so" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = int(fn())
                return info
    return info


def environment(np) -> dict:
    model = _first_line(Path("/proc/cpuinfo"), "model name")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model.split(":", 1)[1].strip() if model else platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(np),
        "commit": git_commit(),
        "loadavg_1min_start": loadavg_1min(),
    }


# ------------------------------------------------------------------ timing

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_child(argv: list[str], **popen) -> tuple[float, int, int]:
    """Wall seconds, exit code and peak RSS (KiB) of one child process."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), **popen)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def child_seconds(args: list[str], repeats: int) -> list[float]:
    """Wall times of fresh interpreters running ``python3 <args>``."""
    times = []
    for _ in range(repeats):
        elapsed, rc, _ = time_child([sys.executable, *args],
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if rc != 0:
            raise RuntimeError(f"child exited {rc}: python3 {' '.join(args)}")
        times.append(elapsed)
    return times


def setup_args(workload: str, seed: int) -> list[str]:
    """Import boxrevive and build the inputs and expansions (cli_batch: import the CLI)."""
    if workload == "cli_batch":
        return ["-c", "import boxrevive.cli"]
    return ["-c", f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; "
                  f"workloads.build({workload!r}, {seed})"]


_CAL_T, _CAL_Q = Fraction(98765.4321), Fraction(7e-6)


def calibration_seconds(np) -> float:
    """Wall time of a fixed kernel that shares no code with boxrevive.

    It mixes what the workloads spend their time on: exact rational arithmetic
    in pure Python, and complex numpy exponentials and a matrix product small
    enough to stay on one BLAS thread.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    for n in range(1, 100):
        c = _CAL_T * (n * n) - _CAL_T * _CAL_Q * n**4
        acc += c - math.floor(c)
    grid = np.exp(1j * np.outer(np.arange(1.0, 49.0), np.linspace(0.0, 1.0, 384)))
    grid @ grid.conj().T
    return perf_counter() - t0


def job_means(samples, n_jobs: int) -> list[float]:
    """Each job's mean latency over all rounds of the run, in job-list order.

    The host's speed drifts by up to a third over tens of seconds, so no one
    sample, and no median of a handful of rounds, is steady; a job's mean
    over the whole run is the figure that averages the drift best.
    """
    return [statistics.fmean(dt for _, i, dt in samples if i == j) for j in range(n_jobs)]


# ------------------------------------------------------------------- jobs

class Runner:
    """Executes a workload's jobs and keeps what the checks need."""

    def __init__(self, wl, traced: bool, workdir: Path):
        import boxrevive

        self.bx = boxrevive
        self.wl = wl
        self.traced = traced
        self.workdir = workdir
        self.child_rss_kib = 0
        self.rows_emitted = 0
        self.exit_codes: Counter = Counter()
        for job in wl.jobs:
            if job.kind == "cli" and job.params["config"] is not None:
                (workdir / f"{job.name}.cfg").write_text(job.params["config"])

    def prepare(self, job):
        if job.kind == "cli":
            shutil.rmtree(self.workdir / job.name, ignore_errors=True)

    def execute(self, job):
        return getattr(self, f"_{job.kind}")(job)

    def _carpet(self, job):
        p = job.params
        cfg = self.bx.SystemConfig(p["q2"])
        return self.bx.carpet(self.wl.packet, cfg, p["window"], nt=p["nt"], nx=p["nx"])

    def _scan(self, job):
        p = job.params
        cfg = self.bx.SystemConfig(p["q2"])
        return self.bx.fidelity_scan(self.wl.packet, cfg, p["window"], p["nt"],
                                     expansion=self.wl.expansions[p["q2"]])

    def _wigner(self, job):
        p = job.params
        state = self.bx.evolve(self.wl.expansions[p["q2"]], p["t"], self.bx.SystemConfig(p["q2"]))
        field = self.bx.wigner(state, nx=p["grid"], n_p=p["grid"])
        return state, field, self.bx.marginal_errors(field, state)

    def _curve(self, job):
        p = job.params
        reports = self.bx.sensitivity_reports(self.wl.packet, p["q2_list"], p["mode"])
        if p["fringe"]:  # what `boxrevive subplanck --fringe` does with each report
            reports = [
                (self.bx.subplanck_dimension(self.wl.packet, self.bx.SystemConfig(r.q_squared),
                                             r.time, with_fringe=True), delta)
                for r, delta in reports
            ]
        return [(r.q_squared, r.time, r.delta_x_eff, r.delta_p_eff, r.action_A, r.dim_a,
                 delta, r.fringe_spacing) for r, delta in reports]

    def _argv(self, job):
        argv = [*job.params["argv"], "--outdir", str(self.workdir / job.name)]
        if job.params["config"] is not None:
            argv += ["--config", str(self.workdir / f"{job.name}.cfg")]
        return argv

    def _cli(self, job):
        if self.traced:  # in-process, so the tracer sees the layers
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = self.bx.cli.run(self._argv(job))
            return {"exit": code, "stderr": err.getvalue()}
        with open(self.workdir / f"{job.name}.stderr", "wb") as err:
            _, code, rss = time_child([sys.executable, "-m", "boxrevive.cli", *self._argv(job)],
                                      stdout=subprocess.DEVNULL, stderr=err)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        return {"exit": code, "stderr": None}

    def collect(self, job, out):
        """Untimed: read CLI artifacts and count emitted rows."""
        if job.kind == "cli":
            outdir = self.workdir / job.name
            if out["stderr"] is None:
                out["stderr"] = (self.workdir / f"{job.name}.stderr").read_text()
            out["artifacts"] = ({f.name: f.read_bytes() for f in sorted(outdir.iterdir())}
                                if outdir.is_dir() else {})
            self.exit_codes[out["exit"]] += 1
            table = out["artifacts"].get("subplanck.csv")
            if table is not None:
                self.rows_emitted += len(table.decode().splitlines()) - 3
        elif job.kind == "curve":
            self.rows_emitted += len(out)
        return out


def fingerprint(job, out) -> str:
    """Digest of everything a job produced; equal digests mean identical output."""
    import numpy as np

    h = hashlib.sha256()
    if job.kind == "carpet":
        parts = [out.axis1, out.axis2, out.values]
    elif job.kind == "scan":
        parts = [out.times, out.values, repr(out.peaks)]
    elif job.kind == "wigner":
        parts = [out[0].expansion.coefficients, out[1].values, repr(out[2])]
    elif job.kind == "curve":
        parts = [repr(out)]
    else:  # manifest.txt is left out: it is meant to gain run timings
        parts = [repr(out["exit"])] + [
            name.encode() + hashlib.sha256(data).digest()
            for name, data in out["artifacts"].items() if name != "manifest.txt"]
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def check_outputs(wl, outputs: dict, seed: int) -> dict:
    """Problems per job name, from the first round's outputs."""
    import boxrevive
    import checks

    refs = {}

    def ref(q2):
        if q2 not in refs:
            refs[q2] = checks.Reference(wl.packet, q2)
        return refs[q2]

    problems = {}
    for job in wl.jobs:
        if job.name not in outputs:
            problems[job.name] = ["raised in every round"]
            continue
        out = outputs[job.name]
        rng = random.Random(f"check:{seed}:{job.name}")
        p = job.params
        if job.kind == "carpet":
            found = checks.check_carpet(ref(p["q2"]), p["window"], p["nt"], p["nx"],
                                        out.axis1, out.axis2, out.values, rng)
        elif job.kind == "scan":
            found = checks.check_scan(ref(p["q2"]), p["window"], p["nt"], out.times,
                                      out.values, rng)
            if abs(out.captured_norm - ref(p["q2"]).captured_norm) > 1e-12:
                found.append(f"scan captured norm {out.captured_norm!r} is not the closed form")
            if "recurrence_time" in p:
                t = p["recurrence_time"]
                value = abs(boxrevive.autocorrelation(wl.expansions[p["q2"]], t,
                                                      boxrevive.SystemConfig(p["q2"])))
                found += checks.check_recurrence(ref(p["q2"]), t, value)
        elif job.kind == "wigner":
            state, field, errors = out
            found = checks.check_wigner(ref(p["q2"]), p["t"], state.expansion.coefficients,
                                        field.x_axis, field.p_axis, field.values, errors)
        elif job.kind == "curve":
            found = checks.check_curve_rows(wl.packet, out, p["q2_list"], p["mode"])
        else:
            found = checks.check_cli(wl.packet, job, out, rng)
        if found:
            problems[job.name] = found
    return problems


# ----------------------------------------------------------------- metrics

def layer_metrics(names, tracer, runner, rounds, traced_wall, startup_s) -> dict:
    """Per-round values of the per-layer metrics named in BENCHMARK.json."""
    r = float(rounds)

    def calls(layer):
        return tracer.calls.get(layer, 0) / r

    def busy(layer):
        return tracer.self_time.get(layer, 0.0) / r

    special = {
        "cli.startup_s": startup_s,
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": busy("job"),
        "wavepacket.expand.redundant_ratio":
            calls("wavepacket.expand") / len(tracer.packets) if tracer.packets else 0.0,
        "subplanck.useful_ratio":
            runner.rows_emitted / r / calls("subplanck.subplanck_dimension")
            if calls("subplanck.subplanck_dimension") else 0.0,
        "wavepacket.phase_cycles.ns_per_pair":
            1e9 * tracer.self_time.get("wavepacket.phase_cycles", 0.0)
            / tracer.counts["wavepacket.phase_cycles.pairs"]
            if tracer.counts["wavepacket.phase_cycles.pairs"] else 0.0,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif name.startswith("cli.exit_code."):
            values[name] = runner.exit_codes[int(name.rsplit(".", 1)[1])] / r
        elif name.endswith(".busy_s"):
            values[name] = busy(name[: -len(".busy_s")])
        elif name.endswith(".calls"):
            values[name] = calls(name[: -len(".calls")])
        elif re.search(r"\.(pairs|cells|bytes)$", name):
            values[name] = tracer.counts[name] / r
        else:
            raise KeyError(f"no measurement defined for per-layer metric {name!r}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "boxrevive" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"benchmark: no boxrevive sources under {SRC} (run from the repository root)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = environment(np)

    wl = workloads.build(args.workload, args.seed)
    workdir = OUT / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    tracer = None
    startup_s = 0.0
    if args.trace:
        import tracer as tracing

        if args.workload == "cli_batch":  # process floor, from untraced children
            startup_s = statistics.median(
                child_seconds(["-m", "boxrevive.cli", "--version"], SETUP_REPEATS))
        tracer = tracing.Tracer()
        tracer.install()
    runner = Runner(wl, bool(args.trace), workdir)

    samples = []                     # (round, job index, seconds)
    setup_times = []                 # (round, seconds)
    calibrations = []                # (round, seconds)
    first, digests = {}, {}
    bad_rounds = Counter()
    start = perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rnd = 0

        def done():
            return rnd >= wl.min_rounds and perf_counter() - start >= args.seconds

        while not done():
            if not tracer:  # set-up samples spread over the run, not bunched at its start
                setup_times += [(rnd, t) for t in child_seconds(
                    setup_args(args.workload, args.seed), SETUP_PER_ROUND)]
            for i, job in enumerate(wl.jobs):
                # An untraced run may stop mid-round, as its metrics are per-job
                # means; a traced one reports per-round counts, so it may not.
                if i and not tracer and done():
                    break
                if not tracer:
                    calibrations.append((rnd, calibration_seconds(np)))
                runner.prepare(job)
                t0 = perf_counter()
                try:
                    out = (tracer.run_job(f"{rnd}:{job.name}", runner.execute, job)
                           if tracer else runner.execute(job))
                except Exception as exc:  # a failed job is counted, the run goes on
                    out = None
                    print(f"job {job.name} raised {exc!r}", file=sys.stderr)
                dt = perf_counter() - t0
                samples.append((rnd, i, dt))
                if out is None:
                    bad_rounds[job.name] += 1
                    continue
                out = runner.collect(job, out)
                digest = fingerprint(job, out)
                if job.name not in first:
                    first[job.name], digests[job.name] = out, digest
                elif digest != digests[job.name]:
                    bad_rounds[job.name] += 1
                    print(f"job {job.name}: round {rnd} output differs from its first run",
                          file=sys.stderr)
            rnd += 1
    rounds = rnd
    raw_samples, raw_setup = samples, [t for _, t in setup_times]
    if not tracer:
        # Scale each round to one host speed, as measured by the calibration
        # kernel run before each of its jobs; see README.
        speed = {r: CAL_REF_S / statistics.median(c for q, c in calibrations if q == r)
                 for r in range(rounds)}
        samples = [(r, i, dt * speed[r]) for r, i, dt in samples]
        setup_times = [(r, t * speed[r]) for r, t in setup_times]
    means = job_means(samples, len(wl.jobs))
    wall = sum(means)
    peak_rss_kib = (runner.child_rss_kib if args.workload == "cli_batch"
                    else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    if tracer:
        tracer.uninstall()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        problems = check_outputs(wl, first, args.seed)
    for name, found in problems.items():
        for line in found[:5]:
            print(f"check {name}: {line}", file=sys.stderr)

    attempted = len(samples)
    failed = sum(1 for rnd, i, _ in samples if wl.jobs[i].name in problems) + sum(
        n for name, n in bad_rounds.items() if name not in problems)
    kinds = sorted({job.kind for job in wl.jobs})
    latencies = [dt for _, _, dt in samples]
    tail_q = wl.tail_percentile()
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "jobs_per_round": len(wl.jobs), "samples": attempted,
        "tail_percentile": tail_q, f"job_p{tail_q}_ms": 1e3 * statistics.quantiles(
            latencies, n=100, method="inclusive")[tail_q - 1],
        "sample_p50_ms": 1e3 * statistics.median(latencies),
        "tail_jobs": wl.tail_jobs, "error_rate": failed / attempted,
        "failed_jobs": sorted(problems) + sorted(n for n in bad_rounds if n not in problems),
        **{f"{kind}_p50_ms": 1e3 * statistics.median(
            dt for _, i, dt in samples if wl.jobs[i].kind == kind) for kind in kinds},
        "environment": {**env, "loadavg_1min_end": loadavg_1min()},
    }
    if args.workload == "time_scan":
        per_round = sum(job.params["nt"] for job in wl.jobs)
        detail["time_samples_per_s"] = per_round / wall

    if tracer:
        metric_spec = spec["per_layer"]
        names = [m["name"] for m in metric_spec]
        values = layer_metrics(names, tracer, runner, rounds, wall, startup_s)
        detail["layer_table"] = tracer.table(rounds)
        named = {n.rsplit(".", 1)[0] for n in names if n.rsplit(".", 1)[1] in LAYER_FIELDS}
        detail["absent_layers"] = sorted(named - set(tracer.layers))
        detail["count_errors"] = dict(tracer.count_errors)
    else:
        metric_spec = spec["end_to_end"]
        raw_means = job_means(raw_samples, len(wl.jobs))
        detail["calibration_ms"] = 1e3 * statistics.median(c for _, c in calibrations)
        detail["unscaled"] = {
            "setup_s": statistics.median(raw_setup), "wall_s": sum(raw_means),
            "job_p50_ms": 1e3 * statistics.median(raw_means),
            "job_tail_ms": 1e3 * statistics.fmean(sorted(raw_means)[-wl.tail_jobs:]),
        }
        values = {
            "setup_s": statistics.median(t for _, t in setup_times),
            "wall_s": wall,
            "job_p50_ms": 1e3 * statistics.median(means),
            "job_tail_ms": 1e3 * statistics.fmean(sorted(means)[-wl.tail_jobs:]),
            "peak_rss_mb": peak_rss_kib / 1024.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job_ms = {job.name: [1e3 * dt for _, i, dt in raw_samples if i == j]
              for j, job in enumerate(wl.jobs)}
    stem.with_suffix(".json").write_text(json.dumps(
        {**detail, "job_ms": job_ms, "calibrations_ms": [(r, 1e3 * c) for r, c in calibrations],
         "result": result}, indent=1))
    if tracer:
        tracer.write(stem.with_suffix(".spans.jsonl.gz"))
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
