"""Output checks that do not reuse the code they check.

References come from exact integer phase arithmetic, closed-form expansion
coefficients, direct sums over levels and the closed-form momentum transform of
sqrt(2) sin(n pi x).  The library's own evaluators (phase_cycles, the carpet
matmul, the quadrature Fourier transform, marginal_errors) are never the
reference.  Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import random
import warnings

import numpy as np

import boxrevive

CELL_TOL = 1e-9          # density cells and |A| samples, relative to max(1, |ref|)
PHASE_TOL = 1e-12        # evolved coefficients against exact phases
ROW_NORM_TOL = 1e-4      # the CLI's carpet row-norm tolerance
MARGINAL_TOL = 1e-3      # the Wigner marginal contract
# Relative, sub-Planck widths against the closed forms.  The library's momentum
# density promises its norm to 1e-4; its 2048-point quadrature misses the
# closed-form delta_p by up to ~5e-6 at super-revival instants.
MOMENT_TOL = 1e-4
RECURRENCE_TOL = 1e-9    # |A(k / q2)| against the captured norm
SAMPLE_ROWS = 8
SAMPLE_POINTS = 32
FINE_X = 4097


# --------------------------------------------------------------- references

def exact_cycles(t: float, q2: float, n_values) -> np.ndarray:
    """frac(t (n^2 - q2 n^4)) in integer arithmetic on the floats' exact ratios."""
    a, b = float(t).as_integer_ratio()
    c, d = float(q2).as_integer_ratio()
    den = b * d
    out = []
    for n in n_values:
        n = int(n)
        num = a * n * n * d - a * c * n**4
        out.append((num % den) / den)
    return np.array(out)


def coefficients(packet, n_values) -> np.ndarray:
    """Closed-form overlaps a_n of the Gaussian with sqrt(2) sin(n pi x)."""
    n = np.asarray(n_values, dtype=float)
    dx, xb, pb = packet.delta_x, packet.x_bar, packet.p_bar
    pref = math.sqrt(4.0 * dx * math.pi / math.sqrt(math.pi))
    plus = np.exp(1j * n * math.pi * xb - dx**2 * (pb + n * math.pi) ** 2 / 2.0)
    minus = np.exp(-1j * n * math.pi * xb - dx**2 * (pb - n * math.pi) ** 2 / 2.0)
    return pref / 2j * (plus - minus)


class Reference:
    """Closed-form state of one packet under one q2, over the library's n range."""

    def __init__(self, packet, q2: float):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # only the n range is taken from expand
            exp = boxrevive.expand(packet, boxrevive.SystemConfig(q2))
        self.packet = packet
        self.q2 = q2
        self.n = exp.n_values
        self.a = coefficients(packet, self.n)
        self.captured_norm = float(np.sum(np.abs(self.a) ** 2))

    def coefficients_at(self, t: float) -> np.ndarray:
        return self.a * np.exp(-2j * math.pi * exact_cycles(t, self.q2, self.n))

    def psi(self, t: float, x) -> np.ndarray:
        modes = math.sqrt(2.0) * np.sin(np.outer(self.n, math.pi * np.asarray(x, float)))
        return np.sum(self.coefficients_at(t)[:, None] * modes, axis=0)

    def density(self, t: float, x) -> np.ndarray:
        return np.abs(self.psi(t, x)) ** 2

    def fidelity(self, t: float) -> float:
        phases = np.exp(-2j * math.pi * exact_cycles(t, self.q2, self.n))
        return abs(complex(np.sum(np.abs(self.a) ** 2 * phases)))

    def phi(self, t: float, p) -> np.ndarray:
        """Closed-form momentum amplitude (2 pi)^-1/2 int_0^1 psi(x) e^{-ipx} dx."""
        p = np.asarray(p, dtype=float)[None, :]
        k = (self.n * math.pi)[:, None]
        sign = np.where(self.n % 2 == 0, 1.0, -1.0)[:, None]
        singular = np.abs(np.abs(p) - k) < 1e-9
        with np.errstate(divide="ignore", invalid="ignore"):
            f = k * (1.0 - sign * np.exp(-1j * p)) / (k * k - p * p)
        s = np.sign(p)
        limit = -0.5j * s * np.exp(-0.5j * (p - s * k))
        f = np.where(singular, limit, f)
        c = self.coefficients_at(t)[:, None]
        return math.sqrt(2.0) * np.sum(c * f, axis=0) / math.sqrt(2.0 * math.pi)

    def widths(self, t: float) -> tuple[float, float]:
        x = np.linspace(0.0, 1.0, FINE_X)
        p = boxrevive.default_momentum_grid(self.packet)
        return _std(x, self.density(t, x)), _std(p, np.abs(self.phi(t, p)) ** 2)


def _std(axis, density) -> float:
    norm = np.trapezoid(density, axis)
    mean = np.trapezoid(axis * density, axis) / norm
    return math.sqrt(np.trapezoid((axis - mean) ** 2 * density, axis) / norm)


def _close(got, want, tol) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# ------------------------------------------------------------ job checks

def check_carpet(ref: Reference, window, nt, nx, times, x, values, rng) -> list[str]:
    """Shape, axes, row norms and a seeded sample of cells against direct sums."""
    if values.shape != (nt, nx):
        return [f"carpet shape {values.shape} != ({nt}, {nx})"]
    want_t = np.linspace(window[0], window[1], nt)
    want_x = np.linspace(0.0, 1.0, nx)
    problems = []
    if not (np.allclose(times, want_t, rtol=1e-11, atol=0.0)
            and np.allclose(x, want_x, rtol=0.0, atol=1e-11)):
        problems.append("carpet axes are not the requested grid")
    row_err = float(np.max(np.abs(np.trapezoid(values, want_x, axis=1) - ref.captured_norm)))
    if row_err > ROW_NORM_TOL:
        problems.append(f"carpet row norm drifts by {row_err:.3g} > {ROW_NORM_TOL:g}")
    for i in sorted(rng.sample(range(nt), min(SAMPLE_ROWS, nt))):
        cols = sorted(rng.sample(range(nx), SAMPLE_ROWS))
        for j, w in zip(cols, ref.density(float(want_t[i]), want_x[cols])):
            if not _close(values[i, j], w, CELL_TOL):
                problems.append(f"carpet cell ({i}, {j}) = {values[i, j]!r}, exact {w!r}")
    return problems


def check_scan(ref: Reference, window, nt, times, values, rng) -> list[str]:
    """A seeded sample of |A(t)| against exact-phase sums."""
    if len(values) != nt:
        return [f"scan has {len(values)} samples, asked for {nt}"]
    want_t = np.linspace(window[0], window[1], nt)
    problems = []
    if not np.allclose(times, want_t, rtol=1e-11, atol=0.0):
        problems.append("scan times are not the requested window")
    for i in sorted(rng.sample(range(nt), SAMPLE_POINTS)):
        want = ref.fidelity(float(want_t[i]))
        if not _close(values[i], want, CELL_TOL):
            problems.append(f"|A({want_t[i]!r})| = {values[i]!r}, exact {want!r}")
    return problems


def check_recurrence(ref: Reference, t: float, value: float) -> list[str]:
    if abs(value - ref.captured_norm) > RECURRENCE_TOL:
        return [f"|A({t!r})| = {value!r} misses the captured norm {ref.captured_norm!r}"]
    return []


def check_wigner(ref: Reference, t, state_coeffs, x, p, w, lib_errors=None) -> list[str]:
    """Both marginals and the norm of W against the closed forms; phases if given."""
    problems = []
    if lib_errors is not None and max(lib_errors) > MARGINAL_TOL:
        problems.append(f"library marginal errors {lib_errors} exceed {MARGINAL_TOL:g}")
    if state_coeffs is not None:
        drift = float(np.max(np.abs(state_coeffs - ref.coefficients_at(t))))
        if drift > PHASE_TOL:
            problems.append(f"evolved coefficients differ from exact phases by {drift:.3g}")
    x_err = float(np.max(np.abs(np.trapezoid(w, p, axis=1) - ref.density(t, x))))
    p_err = float(np.max(np.abs(np.trapezoid(w, x, axis=0) - np.abs(ref.phi(t, p)) ** 2)))
    norm_err = abs(float(np.trapezoid(np.trapezoid(w, p, axis=1), x)) - ref.captured_norm)
    for label, err in (("position", x_err), ("momentum", p_err), ("norm", norm_err)):
        if err > MARGINAL_TOL:
            problems.append(f"Wigner {label} marginal misses the closed form by {err:.3g}")
    return problems


def check_curve_rows(packet, rows, q2_list, mode) -> list[str]:
    """rows: (q2, time, dx, dp, A, a, delta, fringe) in q2 order."""
    expect_q2 = [q for q in sorted(q2_list) if not (mode == "super_revival" and q == 0.0)]
    got_q2 = [r[0] for r in rows]
    if not np.allclose(got_q2, expect_q2, rtol=1e-12, atol=0.0):
        return [f"curve rows at q2 {got_q2}, expected {expect_q2}"]
    dx0, dp0 = Reference(packet, 0.0).widths(0.25)
    a_ref = 1.0 / (dx0 * dp0)
    problems = []
    for q2, t, dx, dp, action, dim, delta, fringe in rows:
        want_t = 0.25 if mode == "short_time" else 1.0 / (4.0 * q2)
        want_dx, want_dp = Reference(packet, q2).widths(want_t)
        for label, got, want in (
            ("time", t, want_t),
            ("delta_x", dx, want_dx),
            ("delta_p", dp, want_dp),
            ("action_A", action, want_dx * want_dp),
            ("dim_a", dim, 1.0 / (want_dx * want_dp)),
            ("delta_ratio", delta, 1.0 / (want_dx * want_dp) / a_ref),
        ):
            if got is None or abs(got - want) > MOMENT_TOL * abs(want):
                problems.append(f"q2={q2!r}: {label} = {got!r}, closed form {want!r}")
        if fringe is not None and not (0.0 < fringe < 1.0):
            problems.append(f"q2={q2!r}: fringe spacing {fringe!r} outside (0, 1)")
    return problems


# -------------------------------------------------------------- CLI outputs

def parse_field_csv(text: str):
    rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith("#")]
    axis2 = np.array([float(v) for v in rows[0][1:]])
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return data[:, 0], axis2, data[:, 1:]


def parse_table_csv(text: str) -> list[list[str]]:
    rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith("#")]
    return rows[1:]  # drop the column-name row


def _num(cell: str):
    return float(cell) if cell else None


def check_pgm(data: bytes, shape) -> list[str]:
    parts = data.split(b"\n", 4)
    if parts[0] != b"P5" or len(parts) < 5:
        return ["PGM header malformed"]
    w, h = (int(v) for v in parts[2].split())
    if (h, w) != tuple(shape) or len(parts[4]) != w * h:
        return [f"PGM is {w}x{h} with {len(parts[4])} bytes, field is {shape}"]
    return []


def check_cli(packet, job, outcome, rng: random.Random) -> list[str]:
    """outcome: {'exit': int, 'stderr': str, 'artifacts': {name: bytes}}."""
    expect = job.expect_exit
    if outcome["exit"] != expect:
        return [f"exit {outcome['exit']}, expected {expect}: {outcome['stderr'].strip()[-300:]}"]
    if "Traceback" in outcome["stderr"]:
        return ["stderr carries a traceback"]
    if expect != 0:
        return [] if outcome["stderr"].strip() else ["failure exit without a message"]
    files = outcome["artifacts"]
    spec = job.params["spec"]
    sub = job.params["argv"][0]
    missing = [n for n in spec["files"] if n not in files]
    if missing:
        return [f"missing artifacts {missing}"]
    text = {n: files[n].decode() for n in files if n.endswith((".csv", ".json"))}
    if sub == "spectrum":
        problems = []
        for n_text, e_text in parse_table_csv(text["spectrum.csv"]):
            n = int(n_text)
            want = (n * n - spec["q2"] * n**4) * math.pi**2 / 2.0
            if not _close(float(e_text), want, 1e-11):
                problems.append(f"E_{n} = {e_text}, closed form {want!r}")
        return problems
    if sub == "carpet":
        times, x, values = parse_field_csv(text["carpet.csv"])
        ref = Reference(packet, spec["q2"])
        return check_carpet(ref, spec["window"], spec["nt"], spec["nx"], times, x, values,
                            rng) + check_pgm(files["carpet.pgm"], values.shape)
    if sub == "wigner":
        x, p, w = parse_field_csv(text["wigner.csv"])
        ref = Reference(packet, spec["q2"])
        return check_wigner(ref, spec["t"], None, x, p, w) + check_pgm(
            files["wigner.pgm"], w.shape)
    if sub == "subplanck":
        rows = [tuple(_num(c) for c in r) for r in parse_table_csv(text["subplanck.csv"])]
        return check_curve_rows(packet, rows, spec["q2_list"], spec["mode"])
    if sub == "revivals":
        preds = json.loads(text["revivals.json"])["predictions"]
        fractions = sorted({(r, s) for s in range(2, spec["smax"] + 1)
                            for r in range(1, s) if math.gcd(r, s) == 1},
                           key=lambda f: f[0] / f[1])
        got = [(d["r2"], d["s2"]) for d in preds]
        if got != fractions:
            return [f"revival fractions {got} != {fractions}"]
        return [f"revival time {d['time']!r} != ({d['r2']}/{d['s2']}) / q2"
                for d in preds if not _close(d["time"], d["r2"] / d["s2"] / spec["q2"], 1e-12)]
    if sub == "fidelity":
        table = np.array([[float(c) for c in r] for r in parse_table_csv(text["fidelity.csv"])])
        ref = Reference(packet, spec["q2"])
        return check_scan(ref, spec["window"], spec["nt"], table[:, 0], table[:, 1], rng)
    return [f"no check for subcommand {sub!r}"]
