"""Seeded job lists for the three benchmark workloads.

Every workload is a fixed list of jobs that one client runs back to back
(closed loop, one job in flight).  The seed moves packet parameters, q2 draws
and window positions; it never changes grid sizes or job counts, so every seed
does the same amount of work.  Jobs call only names in ``boxrevive.__all__``
and, for ``cli_batch``, CLI flags shown in the README (plus ``--fringe``, the
flag whose double computation ``subplanck.useful_ratio`` measures).

Workload sources: ``scripts/make_carpets.py`` (512^2 carpets at q2 = 0, 1e-5,
5e-4), ``scripts/make_wigner_snapshots.py`` (revival-class snapshots),
``scripts/make_sensitivity.py`` and acceptance criterion 09 (the six-point
``Q2_CURVE``), and the README CLI examples.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field

import boxrevive

Q2_SCAN = (0.0, 1e-6, 1e-5, 5e-4)
Q2_CURVE = (0.0, 2e-6, 4e-6, 6e-6, 8e-6, 1e-5)  # acceptance criterion 09
Q2_MODERATE = 5e-4                              # 1/q2 = 2000 is an integer

# The reference packet (0.5, 0.1, 50) expands over levels 3..31.  Draws are
# repeated until they keep that level count and stay below the q2 = 5e-4
# spectral turnover n* = 31.6, so every seed evaluates the same number of
# (time, level) pairs.
REFERENCE_LEVELS = 29
MAX_LEVEL = 31

SCAN_POINTS = 2001
SCAN_WIDTH = 0.2
CARPET_WIDTH = 0.5
FAR_TIME = 1e5

WORKLOADS = ("time_scan", "phase_space", "cli_batch")

# Fewest timed rounds per run.  It fixes the number of tail jobs and, with the
# job count, the tail percentile, so that neither moves with run length.
MIN_ROUNDS = {"time_scan": 3, "phase_space": 4, "cli_batch": 3}


@dataclass(frozen=True)
class Job:
    """One unit of work: ``kind`` selects the executor, ``params`` its inputs."""

    name: str
    kind: str
    params: dict
    expect_exit: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    packet: boxrevive.PacketSpec
    jobs: list[Job]
    expansions: dict = field(default_factory=dict)

    @property
    def min_rounds(self) -> int:
        return MIN_ROUNDS[self.name]

    @property
    def tail_jobs(self) -> int:
        """Fewest slowest jobs that give >= 10 samples at min_rounds."""
        return math.ceil(10 / self.min_rounds)

    def tail_percentile(self) -> int:
        """Highest multiple of 5 that leaves >= 10 samples beyond it at min_rounds."""
        n = self.min_rounds * len(self.jobs)
        return int(5 * math.floor(20 * (1.0 - 10.0 / n)))


def draw_packet(rng: random.Random) -> boxrevive.PacketSpec:
    """Packet inside wall clearance and the perturbative regime, n_bar = 16."""
    while True:
        packet = boxrevive.PacketSpec(
            x_bar=round(rng.uniform(0.45, 0.55), 6),
            delta_x=round(rng.uniform(0.095, 0.105), 6),
            p_bar=round(rng.uniform(49.0, 51.0), 6),
        )
        exp = boxrevive.expand(packet, boxrevive.SystemConfig())
        if exp.n_max - exp.n_min + 1 == REFERENCE_LEVELS and exp.n_max <= MAX_LEVEL:
            return packet


def shifted_revival(packet: boxrevive.PacketSpec, q2: float) -> float:
    n_bar = boxrevive.mean_quantum_number(packet.p_bar)
    return boxrevive.time_scales(n_bar, boxrevive.SystemConfig(q2)).t_rev_bar


def _window(center: float, width: float) -> tuple[float, float]:
    return (center - width / 2.0, center + width / 2.0)


def _time_scan_jobs(rng: random.Random, packet) -> list[Job]:
    def near_zero(width):
        t0 = round(rng.uniform(0.0, 0.05), 6)
        return (t0, t0 + width)

    def near_revival(q2, width):
        return _window(shifted_revival(packet, q2) + rng.uniform(-0.01, 0.01), width)

    def far(width):
        return _window(FAR_TIME + round(rng.uniform(0.0, 1.0), 6), width)

    k_sr = rng.choice((1, 3, 5, 7))        # window at k / (4 q2)
    k_rec = rng.choice((1, 2, 3, 4))       # recurrence checked at k / q2
    t_sr = k_sr / (4.0 * Q2_MODERATE)

    def carpet(name, q2, window, nt, nx):
        return Job(name, "carpet", {"q2": q2, "window": window, "nt": nt, "nx": nx})

    def scan(name, q2, window, **extra):
        return Job(name, "scan", {"q2": q2, "window": window, "nt": SCAN_POINTS, **extra})

    jobs = [carpet(f"carpet256_q{q2:g}", q2, near_zero(CARPET_WIDTH), 256, 256) for q2 in Q2_SCAN]
    jobs += [
        carpet("carpet512_q0", 0.0, near_zero(CARPET_WIDTH), 512, 512),
        carpet("carpet512_q1e-05", 1e-5, near_revival(1e-5, CARPET_WIDTH), 512, 512),
        carpet("carpet512_q0.0005", Q2_MODERATE, _window(t_sr, CARPET_WIDTH), 512, 512),
        carpet("carpet2048x1024_q1e-06", 1e-6, far(CARPET_WIDTH), 2048, 1024),
        scan("scan_q0_near0", 0.0, near_zero(SCAN_WIDTH)),
        scan("scan_q1e-06_revival", 1e-6, near_revival(1e-6, SCAN_WIDTH)),
        scan("scan_q1e-05_revival", 1e-5, near_revival(1e-5, SCAN_WIDTH)),
        scan("scan_q0_far", 0.0, far(SCAN_WIDTH)),
        scan("scan_q1e-05_far", 1e-5, far(SCAN_WIDTH)),
        scan(
            "scan_q0.0005_super",
            Q2_MODERATE,
            _window(t_sr + rng.uniform(-0.05, 0.05), SCAN_WIDTH),
            recurrence_time=k_rec / Q2_MODERATE,
        ),
    ]
    return jobs


def revival_instants(rng: random.Random) -> list[tuple[str, float, float]]:
    """(label, q2, t) where the state is a fractional revival (marginals close)."""
    k1, k2 = rng.sample((1, 3, 5, 7), 2)
    return [
        ("cat_q0", 0.0, 0.25 + rng.randrange(4)),   # t = 1/4 + whole revivals
        ("cat_q1e-05", 1e-5, 0.25),
        ("super_a", Q2_MODERATE, k1 / (4.0 * Q2_MODERATE)),
        ("super_b", Q2_MODERATE, k2 / (4.0 * Q2_MODERATE)),
    ]


def _phase_space_jobs(rng: random.Random, packet) -> list[Job]:
    instants = revival_instants(rng)
    jobs = [
        Job(f"wigner{grid}_{label}", "wigner", {"q2": q2, "t": t, "grid": grid})
        for grid in (256, 512)
        for label, q2, t in instants
    ]
    for fringe in (False, True):
        jobs.append(Job(f"curve_short_time{'_fringe' * fringe}", "curve",
                        {"q2_list": Q2_CURVE, "mode": "short_time", "fringe": fringe}))
        jobs.append(Job(f"curve_super_revival{'_fringe' * fringe}", "curve",
                        {"q2_list": tuple(q for q in Q2_CURVE if q > 0.0),
                         "mode": "super_revival", "fringe": fringe}))
    return jobs


def _fmt(v: float) -> str:
    return repr(float(v))


def _cli_jobs(rng: random.Random, packet) -> list[Job]:
    pk = ["--xbar", _fmt(packet.x_bar), "--dx", _fmt(packet.delta_x), "--pbar", _fmt(packet.p_bar)]
    q2_weak = round(rng.uniform(1e-6, 1e-5), 10)
    q2_draws = [k * 1e-7 for k in sorted(rng.sample(range(10, 101), 5))]
    q2_text = ",".join(_fmt(q) for q in q2_draws)
    fid_t0 = round(shifted_revival(packet, q2_weak) - 0.1 + rng.uniform(-0.01, 0.01), 6)
    fid_window = (fid_t0, fid_t0 + SCAN_WIDTH)
    (_, q_cat, t_cat), _, (_, q_sr, t_sr), _ = revival_instants(rng)
    c_t0 = round(rng.uniform(0.0, 0.05), 6)
    c_window = (c_t0, c_t0 + CARPET_WIDTH)
    wigner_files = ("wigner.csv", "wigner.pgm", "manifest.txt")

    def cli(name, argv, expect=0, config=None, **spec):
        return Job(name, "cli", {"argv": argv, "config": config, "spec": spec}, expect)

    return [
        cli("spectrum", ["spectrum", "--q2", _fmt(q2_weak), *pk], q2=q2_weak,
            files=("spectrum.csv", "timescales.csv", "manifest.txt")),
        cli("carpet", ["carpet", "--q2", _fmt(q2_weak), *pk, "--t0", _fmt(c_window[0]),
                       "--t1", _fmt(c_window[1]), "--nt", "256"],
            q2=q2_weak, window=c_window, nt=256, nx=512,
            files=("carpet.csv", "carpet.pgm", "manifest.txt")),
        cli("wigner_cat", ["wigner", "--q2", _fmt(q_cat), "--t", _fmt(t_cat), *pk],
            q2=q_cat, t=t_cat, files=wigner_files),
        cli("wigner_super", ["wigner", "--q2", _fmt(q_sr), "--t", _fmt(t_sr), *pk],
            q2=q_sr, t=t_sr, files=wigner_files),
        # Mid-bounce state: the position marginal cannot close, exit 1.
        cli("wigner_mid_bounce", ["wigner", "--q2", "1e-05", "--t", "1.0", *pk], expect=1),
        cli("subplanck_short_time", ["subplanck", "--q2-list", "0.0," + q2_text,
                                     "--mode", "short_time", *pk],
            q2_list=(0.0, *q2_draws), mode="short_time", fringe=False,
            files=("subplanck.csv", "manifest.txt")),
        cli("subplanck_super_fringe", ["subplanck", "--q2-list", q2_text,
                                       "--mode", "super_revival", "--fringe", *pk],
            q2_list=tuple(q2_draws), mode="super_revival", fringe=True,
            files=("subplanck.csv", "manifest.txt")),
        cli("revivals", ["revivals", "--q2", _fmt(Q2_MODERATE), "--smax", "4", *pk],
            q2=Q2_MODERATE, smax=4, files=("revivals.json", "manifest.txt")),
        # Accept path of the config file: values from the file, one flag overrides.
        cli("fidelity_config", ["fidelity", "--nt", "501"], config=(
            f"[system]\nq2 = {_fmt(q2_weak)}\n[packet]\nxbar = {_fmt(packet.x_bar)}\n"
            f"dx = {_fmt(packet.delta_x)}\npbar = {_fmt(packet.p_bar)}\n"
            f"[grid]\nt0 = {_fmt(fid_window[0])}\nt1 = {_fmt(fid_window[1])}\nnt = 11\n"),
            q2=q2_weak, window=fid_window, nt=501,
            files=("fidelity.csv", "fidelity_peaks.csv", "manifest.txt")),
        cli("reject_window", ["carpet", "--t0", _fmt(0.4 + c_t0), "--t1", "0.2", *pk],
            expect=2),
        cli("reject_xbar", ["wigner", "--xbar", _fmt(1.0 + packet.x_bar)], expect=2),
        cli("reject_revivals_q0", ["revivals", "--q2", "0", *pk], expect=2),
        cli("reject_config_key", ["carpet"], expect=2,
            config=f"[grid]\nnt = 64\nwavelength = {_fmt(q2_weak)}\n"),
    ]


BUILDERS = {
    "time_scan": _time_scan_jobs,
    "phase_space": _phase_space_jobs,
    "cli_batch": _cli_jobs,
}


def generate(name: str, seed: int) -> Workload:
    """The workload's packet and job list; a pure function of (name, seed)."""
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    packet = draw_packet(rng)
    return Workload(name, seed, packet, BUILDERS[name](rng, packet))


def build(name: str, seed: int) -> Workload:
    """Generate the workload and the expansions its in-process jobs start from."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl = generate(name, seed)
        if name != "cli_batch":
            for q2 in sorted({job.params["q2"] for job in wl.jobs if "q2" in job.params}):
                wl.expansions[q2] = boxrevive.expand(wl.packet, boxrevive.SystemConfig(q2))
    return wl
