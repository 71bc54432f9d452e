"""Batch command-line front end.

Subcommands: spectrum, carpet, wigner, subplanck, revivals, fidelity. Each is
declared once, as a SUBCOMMANDS entry (help, parameter table, runner). Every
parameter is declared once, as a row of COMMON or of its subcommand's table;
the row gives its flag, config-file key, type, default, check and help. Every
run computes first, then makes the output directory and writes its artifacts
there. --formats selects which CSV and PGM artifacts of any
subcommand are written; revivals.json and manifest.txt, which records every
resolved parameter including defaults, are always written. A run that fails
makes no directory.

Exit status 2 means a configuration error: a value that does not parse or
fails its check, an output directory that cannot be created, an artifact
that cannot be written (the files written before it stay), or a
precondition the library checks during the run (packet and system
parameters, the captured-norm bound of the expansion, grid sizes and time
windows, momentum-grid coverage, the time and level domain of the phase
reduction), or a computation that does not fit in memory; the message names
the broken precondition, or the size and shape that could not be allocated.
Numerical contract failures (truncation, row-norm and marginal-check
breaches) exit with status 1.

Flags may also be supplied through a key = value config file (any section
names). The key of flag --some-name is some_name (some-name is accepted too);
a key that any subcommand declares is accepted, subcommands ignore keys they
do not declare, and any other key is rejected. Explicit flags override file
values. [DEFAULT] is read like any other section, values are literal text (no
% interpolation), and a file that cannot be read (missing, a directory, not
UTF-8) or parsed (no section header, a repeated section or key, a line with
no separator) exits 2 naming the file.

Run as a program (main), the CLI prints each warning to stderr as it fires,
one line with no source path: "boxrevive: warning: <Category>: <message>".
run() leaves the warning machinery alone, so a caller's filters and
warnings.catch_warnings(record=True) see every warning it raises.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .carpet import carpet
from .fields import FLOAT_FMT, trapezoid_weights, write_field_csv, write_field_pgm
from .revivals import enumerate_fractional, fidelity_scan
from .spectrum import (
    SystemConfig,
    energy_level,
    mean_quantum_number,
    spectrum_turnover,
    time_scales,
)
from .subplanck import MODES, sensitivity_reports, subplanck_dimension
from .wavepacket import MAX_LEVEL, PacketSpec, TruncationError, default_p_max, evolve, expand
from .wigner import DEFAULT_GRID, marginal_errors, wigner

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

MARGINAL_TOLERANCE = 1e-3
ROW_NORM_TOLERANCE = 1e-4


class ContractError(RuntimeError):
    """A numerical contract check of a run (row norm, marginals) failed."""


class Param(NamedTuple):
    """One parameter: flag --<name with hyphens>, config key and dest <name>.

    type parses the flag or file text. default is a value, or a function of
    the PacketSpec for a default derived from the packet. check, when given,
    is (predicate, requirement) and applies to parsed values.
    """

    name: str
    type: Callable[[str], object]
    default: object
    check: tuple[Callable[[object], bool], str] | None
    help: str


def _names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _switch(text: str) -> int:
    return int(bool(int(text)))


AT_LEAST_0 = (lambda v: v >= 0.0, ">= 0")
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
LEVEL_DOMAIN = (lambda v: 1 <= v <= MAX_LEVEL, f"in the level domain [1, {MAX_LEVEL}]")

_SYSTEM = SystemConfig()

COMMON = (
    Param("q2", float, _SYSTEM.q_squared, None, "relativistic strength q^2 >= 0"),
    Param("eps", float, _SYSTEM.truncation_epsilon, None, "truncation norm tolerance"),
    Param("nmax_cap", int, _SYSTEM.n_max_cap, None, "basis size hard cap"),
    Param("xbar", float, 0.5, None, "initial mean position in (0, 1)"),
    Param("dx", float, 0.1, None, "packet width delta_x > 0"),
    Param("pbar", float, 50.0, None, "mean momentum in hbar/L"),
    Param("nbar_override", int, None, AT_LEAST_1, "override the derived mean quantum number"),
    Param("outdir", Path, Path("."), None, "output directory"),
    Param(
        "formats", _names, ("csv", "pgm"),
        (lambda v: set(v) <= {"csv", "pgm"}, "a subset of csv,pgm"), "comma subset of csv,pgm",
    ),
)

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

    def clock_n_bar(self) -> int:
        """n_bar for the time scales, which need a classical period; a resting packet has none."""
        n_bar = self.n_bar()
        if n_bar < 1:
            raise ValueError(
                f"|pbar| > pi/2 is needed for a classical period (got pbar = {self.packet.p_bar}, "
                "so n_bar = 0); name the level with --nbar-override"
            )
        return n_bar


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxrevive",
        description="Revival dynamics of a slightly relativistic particle in a box "
        "(all times in units of T_rev, positions in units of L, momenta in hbar/L).",
    )
    parser.add_argument("--version", action="version", version=f"boxrevive {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, table, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file; flags override")
        for row in COMMON + table:
            flag = "--" + row.name.replace("_", "-")
            if row.type is _switch:
                p.add_argument(flag, action="store_const", const="1", help=row.help)
            else:
                p.add_argument(flag, help=row.help)
    return parser


def _load_config_file(path: str) -> dict:
    tables = (COMMON, *(table for _, table, _ in SUBCOMMANDS.values()))
    known = {row.name for table in tables for row in table}
    # No interpolation: values are literal text. No header matches "", so
    # [DEFAULT] is read like any other section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=path)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config file {path} ({exc})") from None
    except configparser.Error as exc:  # its message spans lines; print it as one
        raise ValueError(f"malformed config file {path}: {' '.join(str(exc).split())}") from None
    out = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            key = key.replace("-", "_")
            if key not in known:
                raise ValueError(f"unknown config key {key!r} in {path}")
            out[key] = value
    return out


def _parse(row: Param, text: str):
    try:
        value = row.type(text)
    except ValueError as exc:
        raise ValueError(f"{row.name}: {exc}") from None
    if row.check is not None and not row.check[0](value):
        raise ValueError(f"{row.name} must be {row.check[1]} (got {text})")
    return value


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and flags into a checked RunConfig."""
    from_file = _load_config_file(args.config) if args.config else {}

    def resolve(table, packet=None) -> dict:
        values = {}
        for row in table:
            text = getattr(args, row.name)
            if text is None:
                text = from_file.get(row.name)
            if text is not None:
                values[row.name] = _parse(row, text)
            elif callable(row.default):
                values[row.name] = row.default(packet)
            else:
                values[row.name] = row.default
        return values

    common = resolve(COMMON)
    system = SystemConfig(
        q_squared=common["q2"],
        truncation_epsilon=common["eps"],
        n_max_cap=common["nmax_cap"],
    )
    packet = PacketSpec(x_bar=common["xbar"], delta_x=common["dx"], p_bar=common["pbar"])
    return RunConfig(
        subcommand=args.subcommand,
        system=system,
        packet=packet,
        n_bar_override=common["nbar_override"],
        output_dir=common["outdir"],
        formats=common["formats"],
        grid=resolve(SUBCOMMANDS[args.subcommand][1], packet),
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return FLOAT_FMT % value
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def write_manifest(path: Path, cfg: RunConfig, derived: dict) -> None:
    run_keys = ("subcommand", "output_dir", "formats", "n_bar_override")
    sections = {
        "run": {"tool": f"boxrevive {__version__}", **{k: getattr(cfg, k) for k in run_keys}},
        "system": dataclasses.asdict(cfg.system),
        "packet": dataclasses.asdict(cfg.packet),
        "grid": dict(sorted(cfg.grid.items())),
        "derived": dict(sorted(derived.items())),
    }
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines += (f"{key} = {_fmt(value)}" for key, value in entries.items())
    path.write_text("\n".join(lines) + "\n")


# Artifact file name -> writer; a runner computes everything and returns every
# writer, and run() writes those whose format is selected.
Artifacts = dict[str, Callable[[Path], None]]


def _table_csv(header: list[str], columns: list[str], rows) -> Callable[[Path], None]:
    """Writer of a table; rows are formatted only if the table is written."""

    def write(path: Path) -> None:
        lines = [f"# {header[0]}", f"# {header[1]}", ",".join(columns)]
        lines += (",".join(_fmt(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")

    return write


EXPANSION_KEYS = ("captured_norm", "n_min", "n_max")  # [derived] entries of every expansion


def _expansion_derived(expansion) -> dict:
    return {key: getattr(expansion, key) for key in EXPANSION_KEYS}


def _run_spectrum(cfg: RunConfig) -> tuple[dict, Artifacts]:
    ts = time_scales(cfg.clock_n_bar(), cfg.system)
    rows = [(n, energy_level(n, cfg.system)) for n in range(1, cfg.grid["nmax"] + 1)]
    return {"spectrum_turnover": spectrum_turnover(cfg.system), "t_sr4": ts.t_sr4}, {
        "spectrum.csv": _table_csv(
            ["energy levels E_n [hbar^2/(m L^2)]", "n = 1 .. nmax"],
            ["n", "energy"],
            rows,
        ),
        "timescales.csv": _table_csv(
            ["derived periods [T_rev]", "empty value: scale absent at q2 = 0"],
            ["name", "value"],
            dataclasses.asdict(ts).items(),
        ),
    }


def _run_carpet(cfg: RunConfig) -> tuple[dict, Artifacts]:
    g = cfg.grid
    field = carpet(
        cfg.packet,
        cfg.system,
        (g["t0"], g["t1"]),
        nt=g["nt"],
        nx=g["nx"],
    )
    norms = field.values @ trapezoid_weights(field.axis2)
    row_err = float(np.max(np.abs(norms - field.meta["captured_norm"])))
    if not row_err <= ROW_NORM_TOLERANCE:  # NaN is a breach
        raise ContractError(
            f"carpet row norm drifts by {row_err:.3g} > {ROW_NORM_TOLERANCE:g}"
        )
    derived = {key: field.meta[key] for key in EXPANSION_KEYS}
    return {**derived, "row_norm_max_error": row_err}, {
        "carpet.csv": lambda path: write_field_csv(path, field),
        "carpet.pgm": lambda path: write_field_pgm(path, field, signed=False),
    }


def _run_wigner(cfg: RunConfig) -> tuple[dict, Artifacts]:
    g = cfg.grid
    expansion = expand(cfg.packet, cfg.system)
    state = evolve(expansion, g["t"], cfg.system)
    field = wigner(state, nx=g["nx"], n_p=g["np"], p_max=g["pmax"])
    x_err, p_err = marginal_errors(field, state)
    if not (x_err <= MARGINAL_TOLERANCE and p_err <= MARGINAL_TOLERANCE):  # NaN is a breach
        raise ContractError(
            f"Wigner marginal mismatch (x: {x_err:.3g}, p: {p_err:.3g}) exceeds "
            f"{MARGINAL_TOLERANCE:g}"
        )
    return {
        **_expansion_derived(expansion),
        "marginal_error_x": x_err,
        "marginal_error_p": p_err,
        "min_value": float(np.min(field.values)),
    }, {
        "wigner.csv": lambda path: write_field_csv(path, field),
        "wigner.pgm": lambda path: write_field_pgm(path, field, signed=True),
    }


def _run_subplanck(cfg: RunConfig) -> tuple[dict, Artifacts]:
    g = cfg.grid
    with_fringe = bool(g["fringe"])
    if g["q2_list"] is not None:
        pairs = sensitivity_reports(
            cfg.packet, g["q2_list"], g["mode"], cfg.system, with_fringe=with_fringe
        )
    else:
        pairs = [(subplanck_dimension(cfg.packet, cfg.system, g["t"], with_fringe), None)]
    rows = [
        (r.q_squared, r.time, r.delta_x_eff, r.delta_p_eff, r.action_A, r.dim_a, delta,
         r.fringe_spacing)
        for r, delta in pairs
    ]
    # Every report's expansion: the coefficients do not depend on q2, and at q2 = 0
    # it repeats no turnover warning.
    expansion = expand(cfg.packet, dataclasses.replace(cfg.system, q_squared=0.0))
    return {**_expansion_derived(expansion), "rows": len(rows)}, {
        "subplanck.csv": _table_csv(
            ["sub-Planck diagnostics (hbar units; times in T_rev)",
             "delta_ratio = dim_a / dim_a(q2=0, t=0.25); empty when not applicable"],
            ["q_squared", "time", "delta_x", "delta_p",
             "action_A", "dim_a", "delta_ratio", "fringe_spacing"],
            rows,
        ),
    }


def _run_revivals(cfg: RunConfig) -> tuple[dict, Artifacts]:
    n_bar = cfg.clock_n_bar()
    predictions = enumerate_fractional(cfg.system, cfg.grid["smax"])
    ts = time_scales(n_bar, cfg.system)
    payload = {
        "q_squared": cfg.system.q_squared,
        "n_bar": n_bar,
        "s_max": cfg.grid["smax"],
        "t_sr3": ts.t_sr3,
        "t_sr4": ts.t_sr4,
        "predictions": [dataclasses.asdict(p) for p in predictions],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return {"predictions": len(predictions)}, {
        "revivals.json": lambda path: path.write_text(text),
    }


def _run_fidelity(cfg: RunConfig) -> tuple[dict, Artifacts]:
    g = cfg.grid
    expansion = expand(cfg.packet, cfg.system)
    scan = fidelity_scan(
        cfg.packet, cfg.system, (g["t0"], g["t1"]), g["nt"], expansion=expansion
    )
    return {**_expansion_derived(expansion), "peak_count": len(scan.peaks)}, {
        "fidelity.csv": _table_csv(
            ["|autocorrelation| versus time [T_rev]",
             f"captured_norm = {expansion.captured_norm!r}"],
            ["t", "fidelity"],
            zip(scan.times, scan.values),
        ),
        "fidelity_peaks.csv": _table_csv(
            ["refined local maxima above 0.8 * captured_norm", "parabolic sub-grid refinement"],
            ["t", "fidelity"],
            scan.peaks,
        ),
    }


# subcommand -> (help, parameter table, runner); each table becomes the [grid] section.
SUBCOMMANDS = {
    "spectrum": ("energy table and derived time scales", (
        Param("nmax", int, 64, LEVEL_DOMAIN, "largest level in the energy table"),
    ), _run_spectrum),
    "carpet": ("space-time probability density", (
        Param("t0", float, 0.0, None, "window start [T_rev]"),
        Param("t1", float, 0.5, None, "window end [T_rev]"),
        Param("nt", int, 512, None, "time samples"),
        Param("nx", int, 512, None, "position samples"),
    ), _run_carpet),
    "wigner": ("phase-space Wigner distribution", (
        Param("t", float, 0.25, AT_LEAST_0, "evaluation time [T_rev]"),
        Param("nx", int, DEFAULT_GRID, None, "position samples"),
        Param("np", int, DEFAULT_GRID, None, "momentum samples"),
        Param("pmax", float, default_p_max, None, "momentum half-range (default |pbar| + 6/dx)"),
    ), _run_wigner),
    "subplanck": ("sub-Planck action / dimension report", (
        Param("t", float, 0.25, AT_LEAST_0, "evaluation time [T_rev] (single-point run)"),
        Param(
            "q2_list", _floats, None,
            (lambda v: bool(v) and all(q >= 0.0 for q in v), "a non-empty list of values >= 0"),
            "comma list of q^2 values",
        ),
        Param(
            "mode", str, MODES[0], (lambda v: v in MODES, "one of " + ", ".join(MODES)),
            "sensitivity evaluation time rule: " + " or ".join(MODES),
        ),
        Param("fringe", _switch, 0, None, "measure fringe spacing"),
    ), _run_subplanck),
    "revivals": ("commensurate fractional revival predictions", (
        Param("smax", int, 4, None, "largest denominator of the quartic clock"),
    ), _run_revivals),
    "fidelity": ("|autocorrelation| scan with peak detection", (
        Param("t0", float, 0.9, None, "scan start [T_rev]"),
        Param("t1", float, 1.1, None, "scan end [T_rev]"),
        Param("nt", int, 2001, None, "scan samples"),
    ), _run_fidelity),
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as it fires, on one line with no source path."""
    print(f"boxrevive: warning: {category.__name__}: {message}", file=sys.stderr)


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = resolve_config(args)
        derived, artifacts = SUBCOMMANDS[cfg.subcommand][2](cfg)
        derived["n_bar"] = cfg.n_bar()
        try:
            cfg.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                f"output directory {cfg.output_dir} cannot be created ({exc.strerror})"
            ) from None
    except ValueError as exc:
        print(f"boxrevive: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's message gives the size and shape asked for
        print(f"boxrevive: configuration error: out of memory ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, ContractError) as exc:
        print(f"boxrevive: numerical contract failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    writes = {
        name: write
        for name, write in artifacts.items()
        if name.rpartition(".")[2] in (*cfg.formats, "json")  # json is not a --formats choice
    }
    writes["manifest.txt"] = lambda path: write_manifest(path, cfg, derived)
    for name, write in writes.items():
        path = cfg.output_dir / name
        try:
            write(path)
        except OSError as exc:
            print(f"boxrevive: configuration error: cannot write {path} ({exc.strerror})",
                  file=sys.stderr)
            return EXIT_CONFIG
    return EXIT_OK


def main() -> None:
    warnings.showwarning = _show_warning  # the process's stderr only; run() leaves it alone
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
