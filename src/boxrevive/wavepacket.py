"""Gaussian packets in the box: eigenexpansion, exact evolution, observables.

The initial state is a Gaussian of mean position x_bar, width delta_x and mean
momentum p_bar (box units, hbar = m = L = 1):

    psi(x) = (sqrt(pi) dx)^(-1/2) exp[-(x - xb)^2 / (2 dx^2) + i pb (x - xb)]

Its overlap with eigenfunction n, evaluated with the Gaussian extended over the
whole line, has the closed form

    a_n = (1/2i) sqrt(4 dx pi / sqrt(pi))
          * [e^{+i n pi xb} e^{-dx^2 (pb + n pi)^2 / 2}
             - e^{-i n pi xb} e^{-dx^2 (pb - n pi)^2 / 2}]

Coefficients are kept raw (no renormalization); the captured norm of the
truncated range is carried explicitly so downstream checks can account for it.

Evolution is exact: in units of T_rev the phase of level n at time t is
2 pi t (n^2 - q2 n^4) and the cycle count t (n^2 - q2 n^4) is reduced modulo 1
before any trigonometric call by an error-free float transformation (Dekker's
splitting into exact double products, each reduced modulo one exactly), so
the reduced count is within 1e-15 cycles of the exact one and times as large
as 1e5 T_rev lose no accuracy. Products whose level factor is zero for every
level are skipped: for n <= 90 a q2 > 0 reduction forms 6 of them, not 10.
An array of times is reduced in tiles of consecutive times whose stack of
parts fills at most _TILE_BYTES, so it stays in cache; autocorrelation sums
each tile as it goes and never holds a scan's (times x levels) phases. Its
domain is |t| max(1, q2) <= MAX_ABS_TIME and integer n with |n| <= MAX_LEVEL;
phase_cycles checks it once per call and rejects anything outside it.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spectrum import (
    TURNOVER_WARN_FRACTION,
    SystemConfig,
    _mode_matrix,
    spectrum_turnover,
)

DEFAULT_P_POINTS = 1024
STABLE_TAIL_TERMS = 3

# Momentum half-range, in units of 1/delta_x, required beyond |p_bar|. Covers
# the full occupied spectral band of revival-class states, where the marginal
# checks close at the 1e-3 level. States caught mid-bounce keep genuine 1/p^2
# coherence tails from the hard walls and no practical window closes them.
P_COVER_FACTOR = 6.0

# Domain of the error-free phase reduction (see phase_cycles).
MAX_ABS_TIME = 1e200
MAX_LEVEL = 9741  # largest n with n^4 < 2^53
_SPLITTER = 134217729.0  # 2^27 + 1
# Bytes of the (products x times x levels) stack of reduced parts per tile of an
# array of times: with its rounding temporary it stays well inside a 2 MB L2.
_TILE_BYTES = 1 << 18


class TruncationError(RuntimeError):
    """The basis cap was hit before the expansion reached its target norm."""

    def __init__(self, message, achieved_norm):
        super().__init__(message)
        self.achieved_norm = achieved_norm


class CoverageError(ValueError):
    """A momentum grid does not cover the packet's momentum content."""


class WallClearanceWarning(UserWarning):
    """The Gaussian ansatz leaks significantly outside the box."""


class PerturbativeValidityWarning(UserWarning):
    """The truncated basis approaches the turnover of the quartic spectrum."""


@dataclass(frozen=True)
class PacketSpec:
    """Initial Gaussian packet: mean position, width and mean momentum (box units)."""

    x_bar: float
    delta_x: float
    p_bar: float

    def __post_init__(self):
        if not (0.0 < self.x_bar < 1.0):
            raise ValueError(f"0 < x_bar < 1 violated (got {self.x_bar})")
        if not (self.delta_x > 0.0):
            raise ValueError(f"delta_x > 0 violated (got {self.delta_x})")
        if not math.isfinite(self.delta_x):
            raise ValueError(f"delta_x must be finite (got {self.delta_x})")
        if not math.isfinite(self.p_bar):
            raise ValueError(f"p_bar must be finite (got {self.p_bar})")
        if self.x_bar - 3.0 * self.delta_x <= 0.0 or self.x_bar + 3.0 * self.delta_x >= 1.0:
            warnings.warn(
                "packet tails reach the walls (x_bar +/- 3 delta_x leaves [0, 1]); "
                "the Gaussian ansatz is a poor box state",
                WallClearanceWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class EigenExpansion:
    """Truncated eigenbasis coefficients a_n for n in [n_min, n_max] (inclusive)."""

    n_min: int
    coefficients: np.ndarray
    captured_norm: float
    packet: PacketSpec

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        if self.n_min < 1:
            raise ValueError("n_min must be >= 1")

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.coefficients) - 1

    @property
    def n_values(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)


class EvolvedState(EigenExpansion):
    """An EigenExpansion whose coefficients already carry the eigenphases of one time."""

    @property
    def expansion(self) -> EvolvedState:
        """The state itself. A read-only alias that only `perfbench/` reads; it goes
        once the benchmark reads the state's fields directly."""
        return self


def _raw_coefficient(n: int, packet: PacketSpec) -> complex:
    dx, xb, pb = packet.delta_x, packet.x_bar, packet.p_bar
    pref = math.sqrt(4.0 * dx * math.pi / math.sqrt(math.pi))
    plus = cmath.exp(1j * n * math.pi * xb) * _gaussian(dx, pb + n * math.pi)
    minus = cmath.exp(-1j * n * math.pi * xb) * _gaussian(dx, pb - n * math.pi)
    return pref / 2j * (plus - minus)


def _gaussian(dx: float, k: float) -> float:
    """exp(-dx^2 k^2 / 2); 0.0 past dx |k| ~ 38.6, where the exponent is below -745."""
    try:
        return math.exp(-(dx**2) * k**2 / 2.0)
    except OverflowError:  # dx or |k| alone is past 1e154; u * u may overflow to inf, exp to 0.0
        u = dx * abs(k)
        return math.exp(-u * u / 2.0)


def expand(packet: PacketSpec, cfg: SystemConfig) -> EigenExpansion:
    """Truncated eigenexpansion of the packet.

    Coefficients are accumulated for increasing n until the cumulative norm
    exceeds 1 - epsilon with a stable tail (three consecutive |a_n|^2 each
    below epsilon/100). Leading terms below epsilon/100 are dropped from the
    stored range. Raises TruncationError (carrying the achieved norm) when the
    basis cap is reached first.

    A box state has norm at most 1, so a cumulative norm past 1 + epsilon
    (or NaN) means the closed form no longer describes the packet, a Gaussian
    much wider than the box: ValueError naming the bound. A delta_x whose
    prefactor 4 pi delta_x overflows a double is a ValueError too.
    """
    if not math.isfinite(4.0 * packet.delta_x * math.pi):
        raise ValueError(
            f"4 pi delta_x must be finite (got delta_x = {packet.delta_x:g}); "
            "the coefficient prefactor overflows"
        )
    eps = cfg.truncation_epsilon
    floor = eps / 100.0
    coeffs = []
    weights = []
    cumulative = 0.0
    tail_run = 0
    n = 0
    while True:
        n += 1
        if n > cfg.n_max_cap:
            raise TruncationError(
                f"basis cap n_max_cap={cfg.n_max_cap} reached at captured norm "
                f"{cumulative:.12g} < 1 - epsilon = {1.0 - eps:.12g}",
                achieved_norm=cumulative,
            )
        a = _raw_coefficient(n, packet)
        w = abs(a) ** 2
        coeffs.append(a)
        weights.append(w)
        cumulative += w
        if not cumulative <= 1.0 + eps:
            raise ValueError(
                f"captured norm <= 1 + epsilon = {1.0 + eps:.12g} violated (got "
                f"{cumulative:.12g} over levels 1..{n}); the packet does not fit in the box"
            )
        tail_run = tail_run + 1 if w < floor else 0
        if cumulative > 1.0 - eps and tail_run >= STABLE_TAIL_TERMS:
            break

    weights = np.asarray(weights)
    above = np.nonzero(weights > floor)[0]
    n_min = int(above[0]) + 1 if len(above) else 1
    kept = np.asarray(coeffs[n_min - 1 :], dtype=complex)
    captured = float(np.sum(weights[n_min - 1 :]))
    if captured <= 1.0 - eps:
        # Leading trim removed too much mass; keep everything instead.
        n_min = 1
        kept = np.asarray(coeffs, dtype=complex)
        captured = float(cumulative)

    expansion = EigenExpansion(
        n_min=n_min, coefficients=kept, captured_norm=captured, packet=packet
    )
    _warn_past_turnover(expansion, cfg, stacklevel=3)
    return expansion


def _warn_past_turnover(expansion: EigenExpansion, cfg: SystemConfig, stacklevel: int = 2) -> None:
    """PerturbativeValidityWarning if the basis reaches past the warned share of n*(cfg)."""
    n_star = spectrum_turnover(cfg)
    if expansion.n_max > TURNOVER_WARN_FRACTION * n_star:
        warnings.warn(
            f"basis extends to n={expansion.n_max}, past {TURNOVER_WARN_FRACTION:.1f} "
            f"of the spectral turnover n*={n_star:.4g}; quartic correction is no "
            "longer a small perturbation there",
            PerturbativeValidityWarning,
            stacklevel=stacklevel,
        )


def _split(a):
    """Dekker's split: a = hi + lo exactly, each half with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """Dekker's TwoProduct: (p, e) with p = fl(a b) and a b = p + e exactly."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _centered(x):
    """x minus its nearest integer, in [-1/2, 1/2]; exact for every finite double."""
    return x - np.rint(x)


@functools.lru_cache(maxsize=8)
def _level_factors(dtype: str, raw: bytes) -> tuple:
    """Rows L_k(n) pairing with the time factors of `_time_factors`, read-only.

    Returns (rows, keep): keep lists the factor index k of each row. The n^4
    rows that are zero for every level are dropped (the low halves vanish
    when every n^4 < 2^26, i.e. n <= 90), so a q2 > 0 reduction forms 6 exact
    products there instead of 10. n^2 has at most 27 significant bits and the
    halves of n^4 at most 26, so every product with a 26-bit time factor is
    an exact double.
    """
    n = np.frombuffer(raw, dtype=dtype).astype(float)
    if n.size and not np.max(np.abs(n)) <= MAX_LEVEL:
        raise ValueError(
            f"|n| <= {MAX_LEVEL} violated (got {np.max(np.abs(n)):.0f}); n^4 is no longer "
            "an exact double past it"
        )
    fractional = n[n != np.rint(n)]
    if fractional.size:
        raise ValueError(
            f"levels must be integers (got n = {fractional[0]:g}); the reduction of t "
            "modulo one cycle holds only for integer n^2"
        )
    n2 = n * n
    n4_hi, n4_lo = _split(n2 * n2)
    rows = [n2, n2] + [n4_hi, n4_lo] * 4
    keep = (0, 1) + tuple(k for k in range(2, len(rows)) if rows[k].any())
    rows = np.array([rows[k] for k in keep])
    rows.setflags(write=False)
    return rows, keep


def _time_factors(t, q2: float) -> list:
    """Factors c_k with t (n^2 - q2 n^4) = sum_k c_k L_k(n) (mod 1), each c_k 26 bits.

    t n^2 = tau n^2 (mod 1) with tau = t - rint(t), since n^2 is an integer.
    Dekker's TwoProduct gives t q2 = s + sigma exactly; s and sigma reduced
    the same way multiply n^4.
    """
    tau_hi, tau_lo = _split(_centered(t))
    if not q2:
        return [tau_hi, tau_lo]
    s, sigma = _two_product(t, q2)
    s_hi, s_lo = _split(-_centered(s))
    sigma_hi, sigma_lo = _split(-_centered(sigma))
    return [tau_hi, tau_lo, s_hi, s_hi, s_lo, s_lo, sigma_hi, sigma_hi, sigma_lo, sigma_lo]


def _reduced_cycles(t, q2: float, levels: tuple) -> np.ndarray:
    """phase_cycles for a float t (shape (n,)) or a 1-d array of times (shape (len, n))."""
    rows, keep = levels
    factors = _time_factors(t, q2)
    keep = keep[: len(factors)]
    factors = np.array([factors[k] for k in keep])  # (k,) or (k, len(t))
    rows = rows[: len(keep)]
    parts = factors[..., None] * (rows if factors.ndim == 1 else rows[:, None, :])
    parts -= np.rint(parts)
    # Pairwise sum, reduced after every level: each addition rounds by <= 2^-54.
    while len(parts) > 1:
        half = (len(parts) + 1) // 2
        parts[: len(parts) - half] += parts[half:]
        parts = parts[:half]
        parts -= np.rint(parts)
    cycles = np.mod(parts[0], 1.0)
    cycles[cycles == 1.0] = 0.0  # a tiny negative remainder rounds up to 1
    return cycles


def _cycle_tiles(t: np.ndarray, q2: float, n_values):
    """Check the domain of a phase_cycles call once, then yield (index, cycles) per tile.

    A 0-d t is one tile: index 0 and cycles of shape (levels,). An array is
    read flat in tiles of consecutive times whose (products x times x levels)
    stack of reduced parts fills at most _TILE_BYTES; each yields its slice
    of the flat times and cycles of shape (tile, levels).
    """
    if t.ndim == 0:
        span = abs(float(t))
    else:
        span = float(np.max(np.abs(t))) if t.size else 0.0
    if not math.isfinite(span):
        raise ValueError(f"time must be finite (got {t if t.ndim == 0 else 'a non-finite sample'})")
    if span * max(1.0, abs(q2)) > MAX_ABS_TIME:
        raise ValueError(
            f"|t| * max(1, q2) <= {MAX_ABS_TIME:g} violated (got |t| = {span:g}, "
            f"q2 = {q2:g}); the error-free phase reduction overflows past it"
        )
    n = np.asarray(n_values)
    levels = _level_factors(n.dtype.str, n.tobytes())
    if t.ndim == 0:
        yield 0, _reduced_cycles(float(t), q2, levels)
        return
    flat = t.reshape(-1)
    depth = len(levels[0]) if q2 else 2
    step = max(1, _TILE_BYTES // (8 * depth * max(1, n.size)))
    for i in range(0, flat.size, step):
        yield slice(i, i + step), _reduced_cycles(flat[i : i + step], q2, levels)


def phase_cycles(t, q2: float, n_values) -> np.ndarray:
    """t * (n^2 - q2 n^4) modulo one, in [0, 1), for each n; error-free to 1e-15.

    t is a float or an array of times; the result has shape
    (*shape(t), len(n_values)). t and q2 enter as the exact rationals their
    doubles represent. Dekker's splitting turns t n^2 and t q2 n^4 into sums of
    exact double products (the n^4 products whose level factor is zero for
    every n are skipped); each product is reduced modulo one exactly and the
    reduced parts are summed pairwise, so the cycle count is within 6e-16 of
    the exact fractional part (circularly) however large t n^4 grows. An
    array of times is reduced in cache-sized tiles of consecutive times.

    Domain: |t| max(1, q2) <= MAX_ABS_TIME (past it the splitting overflows),
    |n| <= MAX_LEVEL (past it n^4 is not an exact double) and integer n.
    """
    t = np.asarray(t, dtype=float)
    tiles = _cycle_tiles(t, q2, n_values)
    if t.ndim == 0:
        return next(tiles)[1]
    size = np.size(n_values)
    out = np.empty((t.size, size))
    for tile, cycles in tiles:
        out[tile] = cycles
    return out.reshape(t.shape + (size,))


def evolve(expansion: EigenExpansion, t: float, cfg: SystemConfig) -> EvolvedState:
    """Multiply each coefficient by its exact eigenphase exp(-i E_n t)."""
    cycles = phase_cycles(t, cfg.q_squared, expansion.n_values)
    phases = np.exp(-2j * math.pi * cycles)
    return EvolvedState(
        expansion.n_min, expansion.coefficients * phases, expansion.captured_norm, expansion.packet
    )


def _density_rows(coefficient_rows: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """|psi|^2 for each row of a (rows, levels) coefficient array; shape (rows, len(x))."""
    re = coefficient_rows.real @ modes
    im = coefficient_rows.imag @ modes
    return re * re + im * im


def position_density(state: EvolvedState, x_grid) -> np.ndarray:
    """|psi(x, t)|^2 at each grid point; nonnegative by construction."""
    modes = _mode_matrix(state.n_values, x_grid)
    return _density_rows(state.coefficients[None, :], modes)[0]


def fourier_amplitude(coefficients, n_values, p_values) -> np.ndarray:
    """phi(p) = (2 pi)^(-1/2) integral_0^1 psi(x) e^{-ipx} dx, psi = sum_n a_n sqrt(2) sin(n pi x).

    Each level transforms in closed form. With k = n pi, s = sign(p) (+1 at
    p = 0), d = p - s k and sinc(u) = sin(u)/u,

        integral_0^1 sin(kx) e^{-ipx} dx = -i s k e^{-id/2} sinc(d/2) / (k + s p).

    The denominator k + |p| never vanishes and nothing cancels at p = +/- n pi,
    so phi is one (levels x momenta) product with no quadrature error. The
    (levels x momenta) modes depend on no coefficient: they are one read-only
    cache entry per (levels, p axis), at most four entries, so repeated
    transforms on one grid (the marginal checks of `wigner.marginal_errors`,
    momentum_amplitude) pay only the product. p is a float or a 1-d array; a
    float gives the shape of a one-point axis.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim > 1:
        raise ValueError(f"p_values must be a float or a 1-d array (got shape {p.shape})")
    modes = _momentum_modes(np.asarray(n_values, dtype=float).tobytes(), p.tobytes())
    return (-1j / math.sqrt(math.pi)) * (np.asarray(coefficients) @ modes)


@functools.lru_cache(maxsize=4)
def _momentum_modes(n_bytes: bytes, p_bytes: bytes) -> np.ndarray:
    """The (levels x momenta) modes of `fourier_amplitude`, read-only; both axes as float64 bytes."""
    p = np.frombuffer(p_bytes)
    k = math.pi * np.frombuffer(n_bytes)[:, None]
    s = np.where(p < 0.0, -1.0, 1.0)
    d = p - s * k
    modes = s * k * np.exp(-0.5j * d) * np.sinc(d / (2.0 * math.pi)) / (k + np.abs(p))
    modes.setflags(write=False)
    return modes


def default_momentum_grid(packet: PacketSpec) -> np.ndarray:
    """Symmetric DEFAULT_P_POINTS grid covering both packet lobes plus 8-sigma tails."""
    p_max = abs(packet.p_bar) + 8.0 / packet.delta_x
    return np.linspace(-p_max, p_max, DEFAULT_P_POINTS)


def default_p_max(packet: PacketSpec) -> float:
    """The least momentum half-range that covers the packet: |p_bar| + P_COVER_FACTOR/delta_x."""
    return abs(packet.p_bar) + P_COVER_FACTOR / packet.delta_x


def momentum_amplitude(state: EvolvedState, p_grid) -> np.ndarray:
    """Momentum amplitude phi(p) of the zero-extended wave function (see fourier_amplitude).

    The p grid must be symmetric about 0 and reach at least
    |p_bar| + 6/delta_x on both sides, so that sum |phi|^2 dp recovers the
    captured norm to 1e-4.
    """
    p = np.asarray(p_grid, dtype=float)
    _check_coverage(state.packet, p)
    return fourier_amplitude(state.coefficients, state.n_values, p)


def _check_coverage(packet: PacketSpec, p: np.ndarray) -> None:
    """Raise CoverageError unless p is symmetric about 0 and reaches |p_bar| + 6/delta_x."""
    span = max(abs(p[0]), abs(p[-1]))
    if abs(p[0] + p[-1]) > 1e-9 * max(1.0, span):
        raise CoverageError("momentum grid must be symmetric about 0")
    _check_reach(packet, span)


def _check_reach(packet: PacketSpec, p_max: float) -> None:
    """Raise CoverageError unless the half-range p_max of a grid reaches default_p_max."""
    need = default_p_max(packet)
    if p_max < need - 1e-9:
        raise CoverageError(
            f"momentum grid half-range p_max = {p_max:.6g} is below "
            f"|p_bar| + {P_COVER_FACTOR:g}/delta_x = {need:.6g}"
        )


def autocorrelation(expansion: EigenExpansion, t, cfg: SystemConfig):
    """Overlap sum |a_n|^2 e^{-i E_n t} between the initial and evolved state.

    A float t gives a complex; an array of times gives a complex array of its
    shape. Each tile of phase cycles is summed as soon as it is reduced, so a
    scan never holds its (times x levels) phases at once.
    """
    t = np.asarray(t, dtype=float)
    weights = np.abs(expansion.coefficients) ** 2
    values = np.empty(t.size, dtype=complex)
    for tile, cycles in _cycle_tiles(t, cfg.q_squared, expansion.n_values):
        # Summed elementwise, not by a BLAS product per tile: on a busy host each
        # small threaded BLAS call can wait milliseconds for its worker thread.
        values[tile] = (np.exp(-2j * math.pi * cycles) * weights).sum(axis=-1)
    return complex(values[0]) if t.ndim == 0 else values.reshape(t.shape)
