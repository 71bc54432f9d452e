"""Closed-form spectrum and time scales of a slightly relativistic particle in a box.

Natural units hbar = m = L = 1 are used throughout. The revival time of the
non-relativistic box is T_rev = 4/pi in these units, and every time handled by
this package is expressed in units of T_rev. The spectral scale is therefore
2*pi*hbar/T_rev = pi^2/2, and the energy of level n reads

    E_n = (n^2 - q2 * n^4) * pi^2 / 2

where q2 >= 0 is the dimensionless relativistic strength (q2 = 0 recovers the
exact quadratic box spectrum). The quartic term makes the spectrum turn over
at n* = 1/sqrt(2*q2); states beyond that point are outside the perturbative
regime this model is meant for.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

HALF_PI_SQUARED = math.pi**2 / 2.0

# Warn once the truncated basis climbs past this fraction of the spectral
# turnover n*; a conservative artifact policy, not a sharp physical bound.
TURNOVER_WARN_FRACTION = 0.7


class PerturbativeRegimeError(ValueError):
    """Requested parameters fall outside the perturbative validity region."""


@dataclass(frozen=True)
class SystemConfig:
    """Global system parameters.

    q_squared: relativistic strength q^2 >= 0 (0 is the exact box).
    truncation_epsilon: norm deficit tolerated when truncating expansions.
    n_max_cap: hard cap on the basis size.
    """

    q_squared: float = 0.0
    truncation_epsilon: float = 1e-6
    n_max_cap: int = 512

    def __post_init__(self):
        if not (self.q_squared >= 0.0 and math.isfinite(self.q_squared)):
            raise ValueError(f"q_squared >= 0 violated (got {self.q_squared})")
        if not (0.0 < self.truncation_epsilon < 1.0):
            raise ValueError(
                f"truncation_epsilon in (0, 1) violated (got {self.truncation_epsilon})"
            )
        if int(self.n_max_cap) != self.n_max_cap or self.n_max_cap < 1:
            raise ValueError(f"n_max_cap must be a positive integer (got {self.n_max_cap})")


@dataclass(frozen=True)
class TimeScales:
    """Characteristic periods of the wave-packet dynamics, in units of T_rev.

    t_rev is identically 1 (it is the unit). t_sr3 and t_sr4 are the cubic and
    quartic super-revival times; they are None in the non-relativistic case
    where no such scales exist.
    """

    n_bar: int
    t_cl: float
    t_cl_bar: float
    t_rev: float
    t_rev_bar: float
    t_sr3: float | None
    t_sr4: float | None


def energy_level(n: int, cfg: SystemConfig) -> float:
    """Energy of level n in units of hbar^2/(m L^2).

    Exact closed form (n^2 - q2 n^4) * pi^2/2; no quadrature involved.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"quantum number must be a positive integer (got {n})")
    n = int(n)
    return (n * n - cfg.q_squared * n**4) * HALF_PI_SQUARED


def eigenfunction(n: int, x):
    """Normalized box eigenfunction sqrt(2) sin(n pi x), zero at both walls.

    x may be a scalar or array; every sample must lie in [0, 1].
    """
    if int(n) != n or n < 1:
        raise ValueError(f"quantum number must be a positive integer (got {n})")
    out = _mode_matrix([int(n)], x)[0]
    return float(out) if np.isscalar(x) else out


def _mode_matrix(n_values, x) -> np.ndarray:
    """sqrt(2) sin(n pi x) for each level n and sample x in [0, 1]; shape (len(n), *shape(x))."""
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0) or np.any(xv > 1.0):
        raise ValueError("position outside the box [0, 1]")
    return math.sqrt(2.0) * np.sin(np.multiply.outer(n_values, math.pi * xv))


def spectrum_turnover(cfg: SystemConfig) -> float:
    """Quantum number n* = 1/sqrt(2 q2) where the spectrum stops increasing.

    Returns inf for q2 = 0 (monotone quadratic spectrum, no turnover).
    """
    if cfg.q_squared == 0.0:
        return math.inf
    return 1.0 / math.sqrt(2.0 * cfg.q_squared)


def mean_quantum_number(p_bar: float) -> int:
    """Mean quantum number round(|p_bar| / pi) selected by a packet of momentum p_bar.

    |a_n| does not change under p_bar -> -p_bar, so neither does n_bar.
    """
    return int(round(abs(p_bar) / math.pi))


def time_scales(n_bar: int, cfg: SystemConfig) -> TimeScales:
    """All derived periods for a packet centered on level n_bar, in T_rev units.

    t_cl      = 1 / (2 n_bar)                  classical bounce period
    t_cl_bar  = 1 / (2 n_bar - 4 q2 n_bar^3)   shifted bounce period
    t_rev_bar = 1 / (1 - 6 q2 n_bar^2)         shifted revival time
    t_sr3     = 1 / (4 n_bar q2)               cubic super-revival time
    t_sr4     = 1 / q2                         quartic super-revival time

    Raises PerturbativeRegimeError when 6 q2 n_bar^2 >= 1, where the shifted
    revival time stops being a positive finite quantity, and ValueError when
    n_bar^3 overflows a double.
    """
    if int(n_bar) != n_bar or n_bar < 1:
        raise ValueError(f"n_bar must be a positive integer (got {n_bar})")
    n_bar = int(n_bar)
    if n_bar**3 > sys.float_info.max:
        raise ValueError(f"n_bar^3 <= {sys.float_info.max:.6g} violated (got n_bar = "
                         f"10^{math.log10(n_bar):.6g}); the time scales overflow past it")
    q2 = cfg.q_squared
    if q2 > 0.0 and 6.0 * q2 * n_bar**2 >= 1.0:
        raise PerturbativeRegimeError(
            f"beyond perturbative regime: 6*q2*n_bar^2 = {6.0 * q2 * n_bar**2:.6g} >= 1"
        )
    t_cl = 1.0 / (2.0 * n_bar)
    t_cl_bar = 1.0 / (2.0 * n_bar - 4.0 * q2 * n_bar**3)
    t_rev_bar = 1.0 / (1.0 - 6.0 * q2 * n_bar**2)
    if q2 > 0.0:
        t_sr3 = 1.0 / (4.0 * n_bar * q2)
        t_sr4 = 1.0 / q2
    else:
        t_sr3 = None
        t_sr4 = None
    return TimeScales(
        n_bar=n_bar,
        t_cl=t_cl,
        t_cl_bar=t_cl_bar,
        t_rev=1.0,
        t_rev_bar=t_rev_bar,
        t_sr3=t_sr3,
        t_sr4=t_sr4,
    )
