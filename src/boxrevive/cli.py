"""Batch command-line front end.

Subcommands: spectrum, carpet, wigner, subplanck, revivals, fidelity. Every
run validates its configuration before any computation starts (violations exit
with status 2 and a message naming the broken precondition), writes its CSV /
PGM / JSON artifacts into the output directory, and records every resolved
parameter, including defaults, in manifest.txt. Preconditions the library
checks during the run (momentum-grid coverage, the time and level domain of
the phase reduction) also exit with status 2. Numerical contract failures
(truncation, row-norm and marginal-check breaches) exit with status 1.

Flags may also be supplied through a key = value config file (any section
names); explicit flags override file values. The BOXREVIVE_THREADS environment
variable caps BLAS parallelism when threadpoolctl is available; results are
identical either way.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .carpet import carpet
from .fields import Field2D, write_field_csv, write_field_pgm
from .revivals import enumerate_fractional, fidelity_scan
from .spectrum import (
    PerturbativeRegimeError,
    SystemConfig,
    energy_level,
    mean_quantum_number,
    spectrum_turnover,
    time_scales,
)
from .subplanck import MODES, evaluation_time, sensitivity_reports, subplanck_dimension
from .wavepacket import PacketSpec, TruncationError, evolve, expand
from .wigner import default_p_max, marginal_errors, wigner

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

MARGINAL_TOLERANCE = 1e-3
ROW_NORM_TOLERANCE = 1e-4

SUBCOMMANDS = ("spectrum", "carpet", "wigner", "subplanck", "revivals", "fidelity")

# Resolved per-subcommand grid/time defaults; every entry lands in the manifest.
GRID_DEFAULTS = {
    "spectrum": {"nmax": 64},
    "carpet": {"t0": 0.0, "t1": 0.5, "nt": 512, "nx": 512},
    "wigner": {"t": 0.25, "nx": 256, "np": 256, "pmax": None},  # pmax None: derived
    "subplanck": {"t": 0.25, "q2_list": None, "mode": "short_time", "fringe": 0},
    "revivals": {"smax": 4},
    "fidelity": {"t0": 0.9, "t1": 1.1, "nt": 2001},
}

COMMON_DEFAULTS = {
    "q2": 0.0,
    "eps": 1e-6,
    "nmax_cap": 512,
    "xbar": 0.5,
    "dx": 0.1,
    "pbar": 50.0,
    "nbar_override": None,
    "outdir": ".",
    "formats": "csv,pgm",
}


@dataclasses.dataclass
class RunConfig:
    """Fully resolved parameters of one CLI run."""

    subcommand: str
    system: SystemConfig
    packet: PacketSpec
    n_bar_override: int | None
    output_dir: Path
    formats: tuple[str, ...]
    grid: dict

    def n_bar(self) -> int:
        if self.n_bar_override is not None:
            return self.n_bar_override
        return mean_quantum_number(self.packet.p_bar)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxrevive",
        description="Revival dynamics of a slightly relativistic particle in a box "
        "(all times in units of T_rev, positions in units of L, momenta in hbar/L).",
    )
    parser.add_argument("--version", action="version", version=f"boxrevive {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, help="key = value config file; flags override")
        p.add_argument("--q2", type=float, help="relativistic strength q^2 >= 0")
        p.add_argument("--eps", type=float, help="truncation norm tolerance")
        p.add_argument("--nmax-cap", dest="nmax_cap", type=int, help="basis size hard cap")
        p.add_argument("--xbar", type=float, help="initial mean position in (0, 1)")
        p.add_argument("--dx", type=float, help="packet width delta_x > 0")
        p.add_argument("--pbar", type=float, help="mean momentum in hbar/L")
        p.add_argument(
            "--nbar-override", dest="nbar_override", type=int,
            help="override the derived mean quantum number",
        )
        p.add_argument("--outdir", type=str, help="output directory")
        p.add_argument("--formats", type=str, help="comma subset of csv,pgm")

    p = sub.add_parser("spectrum", help="energy table and derived time scales")
    add_common(p)
    p.add_argument("--nmax", type=int, help="largest level in the energy table")

    p = sub.add_parser("carpet", help="space-time probability density")
    add_common(p)
    p.add_argument("--t0", type=float, help="window start [T_rev]")
    p.add_argument("--t1", type=float, help="window end [T_rev]")
    p.add_argument("--nt", type=int, help="time samples")
    p.add_argument("--nx", type=int, help="position samples")

    p = sub.add_parser("wigner", help="phase-space Wigner distribution")
    add_common(p)
    p.add_argument("--t", type=float, help="evaluation time [T_rev]")
    p.add_argument("--nx", type=int, help="position samples")
    p.add_argument("--np", type=int, help="momentum samples")
    p.add_argument("--pmax", type=float, help="momentum half-range")

    p = sub.add_parser("subplanck", help="sub-Planck action / dimension report")
    add_common(p)
    p.add_argument("--t", type=float, help="evaluation time [T_rev] (single-point run)")
    p.add_argument("--q2-list", dest="q2_list", type=str, help="comma list of q^2 values")
    p.add_argument("--mode", type=str, choices=MODES, help="sensitivity evaluation time rule")
    p.add_argument("--fringe", action="store_const", const=1, help="measure fringe spacing")

    p = sub.add_parser("revivals", help="commensurate fractional revival predictions")
    add_common(p)
    p.add_argument("--smax", type=int, help="largest denominator of the quartic clock")

    p = sub.add_parser("fidelity", help="|autocorrelation| scan with peak detection")
    add_common(p)
    p.add_argument("--t0", type=float, help="scan start [T_rev]")
    p.add_argument("--t1", type=float, help="scan end [T_rev]")
    p.add_argument("--nt", type=int, help="scan samples")

    return parser


def _load_config_file(path: str) -> dict:
    known = set(COMMON_DEFAULTS) | {k for d in GRID_DEFAULTS.values() for k in d}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"config file not found: {path}")
    out = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            key = key.replace("-", "_")
            if key not in known:
                raise ValueError(f"unknown config key {key!r} in {path}")
            out[key] = value
    return out


def _coerce(key: str, value, template):
    if value is None or isinstance(value, (int, float)) or template is None:
        return value
    if isinstance(template, int) and not isinstance(template, bool):
        return int(value)
    if isinstance(template, float):
        return float(value)
    return value


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and flags into a validated RunConfig."""
    from_file = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(key, default):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in from_file:
            return _coerce(key, from_file[key], default)
        return default

    common = {k: pick(k, v) for k, v in COMMON_DEFAULTS.items()}
    grid = {k: pick(k, v) for k, v in GRID_DEFAULTS[args.subcommand].items()}

    system = SystemConfig(
        q_squared=float(common["q2"]),
        truncation_epsilon=float(common["eps"]),
        n_max_cap=int(common["nmax_cap"]),
    )
    packet = PacketSpec(
        x_bar=float(common["xbar"]),
        delta_x=float(common["dx"]),
        p_bar=float(common["pbar"]),
    )
    formats = tuple(f.strip() for f in str(common["formats"]).split(",") if f.strip())
    for f in formats:
        if f not in ("csv", "pgm"):
            raise ValueError(f"formats must be a subset of csv,pgm (got {f!r})")

    override = common["nbar_override"]
    if override is not None:
        override = int(override)
        if override < 1:
            raise ValueError(f"nbar_override must be a positive integer (got {override})")

    cfg = RunConfig(
        subcommand=args.subcommand,
        system=system,
        packet=packet,
        n_bar_override=override,
        output_dir=Path(str(common["outdir"])),
        formats=formats,
        grid=grid,
    )
    _validate_grid(cfg)
    return cfg


def _validate_grid(cfg: RunConfig) -> None:
    g = cfg.grid
    sub = cfg.subcommand
    if sub == "spectrum":
        if g["nmax"] < 1:
            raise ValueError(f"nmax must be >= 1 (got {g['nmax']})")
        if cfg.n_bar() < 1:
            raise ValueError(
                f"n_bar >= 1 violated (round(p_bar/pi) = {cfg.n_bar()}); "
                "set --pbar or --nbar-override"
            )
    elif sub == "carpet":
        if not (g["t0"] >= 0.0 and g["t1"] >= g["t0"]):
            raise ValueError(f"t1 >= t0 >= 0 violated (got [{g['t0']}, {g['t1']}])")
        if g["nt"] < 1 or g["nx"] < 2:
            raise ValueError(f"nt >= 1 and nx >= 2 violated (got nt={g['nt']}, nx={g['nx']})")
    elif sub == "wigner":
        if g["t"] < 0.0:
            raise ValueError(f"t >= 0 violated (got {g['t']})")
        if g["nx"] < 2 or g["np"] < 2:
            raise ValueError(f"nx, np >= 2 violated (got nx={g['nx']}, np={g['np']})")
        if g["pmax"] is None:
            g["pmax"] = default_p_max(cfg.packet)
    elif sub == "subplanck":
        if g["t"] < 0.0:
            raise ValueError(f"t >= 0 violated (got {g['t']})")
        if g["q2_list"] is not None:
            values = [float(v) for v in str(g["q2_list"]).split(",") if v.strip()]
            if not values or any(v < 0.0 for v in values):
                raise ValueError(f"q2_list values must be >= 0 (got {g['q2_list']})")
            g["q2_list"] = ",".join(repr(v) for v in values)
        if g["mode"] not in MODES:
            raise ValueError(f"mode must be one of {MODES} (got {g['mode']!r})")
        g["fringe"] = int(bool(g["fringe"]))
    elif sub == "revivals":
        if g["smax"] < 2:
            raise ValueError(f"smax >= 2 violated (got {g['smax']})")
        if cfg.system.q_squared <= 0.0:
            raise ValueError("revivals requires q2 > 0 (super-revival clocks undefined)")
        if cfg.n_bar() < 1:
            raise ValueError(f"n_bar >= 1 violated (round(p_bar/pi) = {cfg.n_bar()})")
    elif sub == "fidelity":
        if not (g["t0"] >= 0.0 and g["t1"] > g["t0"]):
            raise ValueError(f"t1 > t0 >= 0 violated (got [{g['t0']}, {g['t1']}])")
        if g["nt"] < 3:
            raise ValueError(f"nt >= 3 violated (got {g['nt']})")


def _thread_cap():
    """Resolve BOXREVIVE_THREADS and build the execution context.

    Worker parallelism lives at the level of independent output elements
    (rows, scan points); reductions must keep a fixed order so results are
    byte-identical for every thread count. BLAS pools are therefore pinned to
    a single thread for the duration of a run, and the environment variable
    caps the row-level workers (the current evaluators are vectorized
    in-process, so the cap is recorded but has nothing further to throttle).
    """
    raw = os.environ.get("BOXREVIVE_THREADS")
    cap = None
    if raw is not None:
        try:
            cap = int(raw)
            if cap < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"BOXREVIVE_THREADS must be a positive integer (got {raw!r})")
    try:
        from threadpoolctl import threadpool_limits

        return cap, threadpool_limits(limits=1)
    except ImportError:
        return cap, nullcontext()


FMT = "%.12g"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return FMT % value
    return str(value)


def write_manifest(path: Path, cfg: RunConfig, derived: dict, threads) -> None:
    lines = ["[run]"]
    lines.append(f"tool = boxrevive {__version__}")
    lines.append(f"subcommand = {cfg.subcommand}")
    lines.append(f"output_dir = {cfg.output_dir}")
    lines.append(f"formats = {','.join(cfg.formats)}")
    lines.append(f"n_bar_override = {_fmt(cfg.n_bar_override)}")
    lines.append(f"threads = {_fmt(threads) if threads is not None else 'unlimited'}")
    lines.append("[system]")
    for f in dataclasses.fields(SystemConfig):
        lines.append(f"{f.name} = {_fmt(getattr(cfg.system, f.name))}")
    lines.append("[packet]")
    for f in dataclasses.fields(PacketSpec):
        lines.append(f"{f.name} = {_fmt(getattr(cfg.packet, f.name))}")
    lines.append("[grid]")
    for key in sorted(cfg.grid):
        lines.append(f"{key} = {_fmt(cfg.grid[key])}")
    lines.append("[derived]")
    for key in sorted(derived):
        lines.append(f"{key} = {_fmt(derived[key])}")
    path.write_text("\n".join(lines) + "\n")


def _write_table_csv(path: Path, header: list[str], columns: list[str], rows) -> None:
    lines = [f"# {header[0]}", f"# {header[1]}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _expansion_derived(expansion) -> dict:
    return {
        "captured_norm": expansion.captured_norm,
        "n_min": expansion.n_min,
        "n_max": expansion.n_max,
    }


def _run_spectrum(cfg: RunConfig, out: Path) -> dict:
    n_bar = cfg.n_bar()
    ts = time_scales(n_bar, cfg.system)
    rows = [(n, energy_level(n, cfg.system)) for n in range(1, int(cfg.grid["nmax"]) + 1)]
    if "csv" in cfg.formats:
        _write_table_csv(
            out / "spectrum.csv",
            ["energy levels E_n [hbar^2/(m L^2)]", "n = 1 .. nmax"],
            ["n", "energy"],
            rows,
        )
        scale_rows = [
            ("n_bar", ts.n_bar),
            ("t_cl", ts.t_cl),
            ("t_cl_bar", ts.t_cl_bar),
            ("t_rev", ts.t_rev),
            ("t_rev_bar", ts.t_rev_bar),
            ("t_sr3", ts.t_sr3),
            ("t_sr4", ts.t_sr4),
        ]
        _write_table_csv(
            out / "timescales.csv",
            ["derived periods [T_rev]", "empty value: scale absent at q2 = 0"],
            ["name", "value"],
            scale_rows,
        )
    return {
        "n_bar": n_bar,
        "spectrum_turnover": spectrum_turnover(cfg.system),
        "t_sr4": ts.t_sr4,
    }


def _run_carpet(cfg: RunConfig, out: Path) -> dict:
    g = cfg.grid
    field = carpet(
        cfg.packet,
        cfg.system,
        (g["t0"], g["t1"]),
        nt=int(g["nt"]),
        nx=int(g["nx"]),
    )
    norms = np.trapezoid(field.values, field.axis2, axis=1)
    row_err = float(np.max(np.abs(norms - field.meta["captured_norm"])))
    if row_err > ROW_NORM_TOLERANCE:
        raise RowNormError(
            f"carpet row norm drifts by {row_err:.3g} > {ROW_NORM_TOLERANCE:g}"
        )
    if "csv" in cfg.formats:
        write_field_csv(out / "carpet.csv", field)
    if "pgm" in cfg.formats:
        write_field_pgm(out / "carpet.pgm", field, signed=False, gamma=0.5)
    return {
        "captured_norm": field.meta["captured_norm"],
        "n_min": field.meta["n_min"],
        "n_max": field.meta["n_max"],
        "n_bar": cfg.n_bar(),
        "row_norm_max_error": row_err,
    }


class RowNormError(RuntimeError):
    pass


class MarginalError(RuntimeError):
    pass


def _run_wigner(cfg: RunConfig, out: Path) -> dict:
    g = cfg.grid
    expansion = expand(cfg.packet, cfg.system)
    state = evolve(expansion, float(g["t"]), cfg.system)
    field = wigner(state, nx=int(g["nx"]), n_p=int(g["np"]), p_max=float(g["pmax"]))
    x_err, p_err = marginal_errors(field, state)
    if max(x_err, p_err) > MARGINAL_TOLERANCE:
        raise MarginalError(
            f"Wigner marginal mismatch (x: {x_err:.3g}, p: {p_err:.3g}) exceeds "
            f"{MARGINAL_TOLERANCE:g}"
        )
    f2d = field.to_field2d()
    if "csv" in cfg.formats:
        write_field_csv(out / "wigner.csv", f2d)
    if "pgm" in cfg.formats:
        write_field_pgm(out / "wigner.pgm", f2d, signed=True)
    return {
        **_expansion_derived(expansion),
        "n_bar": cfg.n_bar(),
        "marginal_error_x": x_err,
        "marginal_error_p": p_err,
        "min_value": float(np.min(field.values)),
    }


def _run_subplanck(cfg: RunConfig, out: Path) -> dict:
    g = cfg.grid
    with_fringe = bool(g["fringe"])
    columns = [
        "q_squared", "time", "delta_x", "delta_p",
        "action_A", "dim_a", "delta_ratio", "fringe_spacing",
    ]
    rows = []
    if g["q2_list"] is not None:
        q2_values = [float(v) for v in str(g["q2_list"]).split(",")]
        pairs = sensitivity_reports(
            cfg.packet, q2_values, g["mode"], cfg.system, with_fringe=with_fringe
        )
        for report, delta in pairs:
            rows.append(
                (report.q_squared, report.time, report.delta_x_eff, report.delta_p_eff,
                 report.action_A, report.dim_a, delta, report.fringe_spacing)
            )
    else:
        report = subplanck_dimension(cfg.packet, cfg.system, float(g["t"]), with_fringe)
        rows.append(
            (report.q_squared, report.time, report.delta_x_eff, report.delta_p_eff,
             report.action_A, report.dim_a, None, report.fringe_spacing)
        )
    if "csv" in cfg.formats:
        _write_table_csv(
            out / "subplanck.csv",
            ["sub-Planck diagnostics (hbar units; times in T_rev)",
             "delta_ratio = dim_a / dim_a(q2=0, t=0.25); empty when not applicable"],
            columns,
            rows,
        )
    return {"n_bar": cfg.n_bar(), "rows": len(rows)}


def _run_revivals(cfg: RunConfig, out: Path) -> dict:
    n_bar = cfg.n_bar()
    predictions = enumerate_fractional(n_bar, cfg.system, int(cfg.grid["smax"]))
    ts = time_scales(n_bar, cfg.system)
    payload = {
        "q_squared": cfg.system.q_squared,
        "n_bar": n_bar,
        "s_max": int(cfg.grid["smax"]),
        "t_sr3": ts.t_sr3,
        "t_sr4": ts.t_sr4,
        "predictions": [dataclasses.asdict(p) for p in predictions],
    }
    (out / "revivals.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return {"n_bar": n_bar, "predictions": len(predictions)}


def _run_fidelity(cfg: RunConfig, out: Path) -> dict:
    g = cfg.grid
    expansion = expand(cfg.packet, cfg.system)
    scan = fidelity_scan(
        cfg.packet, cfg.system, (g["t0"], g["t1"]), int(g["nt"]), expansion=expansion
    )
    if "csv" in cfg.formats:
        _write_table_csv(
            out / "fidelity.csv",
            ["|autocorrelation| versus time [T_rev]", f"captured_norm = {scan.captured_norm!r}"],
            ["t", "fidelity"],
            zip(scan.times, scan.values),
        )
        _write_table_csv(
            out / "fidelity_peaks.csv",
            ["refined local maxima above 0.8 * captured_norm", "parabolic sub-grid refinement"],
            ["t", "fidelity"],
            scan.peaks,
        )
    return {
        **_expansion_derived(expansion),
        "n_bar": cfg.n_bar(),
        "peak_count": len(scan.peaks),
    }


RUNNERS = {
    "spectrum": _run_spectrum,
    "carpet": _run_carpet,
    "wigner": _run_wigner,
    "subplanck": _run_subplanck,
    "revivals": _run_revivals,
    "fidelity": _run_fidelity,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = resolve_config(args)
        threads, limiter = _thread_cap()
    except (ValueError, PerturbativeRegimeError) as exc:
        print(f"boxrevive: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    try:
        with limiter:
            derived = RUNNERS[cfg.subcommand](cfg, cfg.output_dir)
    except (ValueError, PerturbativeRegimeError) as exc:
        print(f"boxrevive: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, RowNormError, MarginalError) as exc:
        print(f"boxrevive: numerical contract failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    write_manifest(cfg.output_dir / "manifest.txt", cfg, derived, threads)
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
