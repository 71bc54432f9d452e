"""Revival prediction and detection.

Fractional revivals of the relativistically perturbed box occur at times that
are simultaneously rational fractions of both super-revival clocks,

    t = (r1/s1) t_sr3 = (r2/s2) t_sr4,      t_sr4 = 4 n_bar t_sr3,

with each (r, s) pair coprime. Predictions are enumerated with exact rational
arithmetic; floats appear only when a prediction is handed to a scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

import numpy as np

from .fields import local_maxima, parabolic_vertex
from .spectrum import SystemConfig
from .wavepacket import EigenExpansion, PacketSpec, autocorrelation, expand

PEAK_THRESHOLD = 0.8  # fraction of the captured norm a peak must reach

RevivalKind = Literal["super4"]


@dataclass(frozen=True)
class RevivalPrediction:
    """One commensurate revival time and its exact clock fractions."""

    time: float
    r1: int
    s1: int
    r2: int
    s2: int
    kind: RevivalKind


@dataclass(frozen=True)
class FidelityScan:
    """Uniform |autocorrelation| samples plus refined local maxima."""

    times: np.ndarray
    values: np.ndarray
    peaks: list[tuple[float, float]]
    captured_norm: float

    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.times.tolist(), self.values.tolist()))


def enumerate_fractional(n_bar: int, cfg: SystemConfig, s_max: int) -> list[RevivalPrediction]:
    """All proper fractions (r2/s2) t_sr4 with s2 <= s_max, sorted ascending.

    The matching fraction of the cubic clock follows exactly from
    t_sr4 = 4 n_bar t_sr3.
    """
    if cfg.q_squared <= 0.0:
        raise ValueError("super-revival clocks are undefined for q_squared = 0")
    if int(n_bar) != n_bar or n_bar < 1:
        raise ValueError(f"n_bar must be a positive integer (got {n_bar})")
    if s_max < 2:
        raise ValueError(f"s_max must be >= 2 (got {s_max})")

    t_sr4 = Fraction(1, 1) / Fraction(cfg.q_squared)
    fractions = sorted(
        {
            Fraction(r2, s2)
            for s2 in range(2, s_max + 1)
            for r2 in range(1, s2)
            if math.gcd(r2, s2) == 1
        }
    )
    out = []
    for f2 in fractions:
        f1 = f2 * 4 * int(n_bar)
        out.append(
            RevivalPrediction(
                time=float(f2 * t_sr4),
                r1=f1.numerator,
                s1=f1.denominator,
                r2=f2.numerator,
                s2=f2.denominator,
                kind="super4",
            )
        )
    return out


def fidelity_scan(
    packet: PacketSpec,
    cfg: SystemConfig,
    t_range,
    nt: int,
    expansion: EigenExpansion | None = None,
) -> FidelityScan:
    """Scan |<psi(0)|psi(t)>| uniformly over t_range with nt samples.

    Local maxima above PEAK_THRESHOLD times the captured norm are refined to
    sub-grid accuracy with a parabola through the three bracketing samples.
    """
    if nt < 3:
        raise ValueError(f"nt >= 3 required for a scan (got {nt})")
    exp = expansion if expansion is not None else expand(packet, cfg)
    times = np.linspace(float(t_range[0]), float(t_range[1]), nt)
    values = np.abs(autocorrelation(exp, times, cfg))

    i = local_maxima(values)
    i = i[values[i] >= PEAK_THRESHOLD * exp.captured_norm]
    shift, heights = parabolic_vertex(values[i - 1], values[i], values[i + 1])
    peaks = list(zip((times[i] + shift * (times[1] - times[0])).tolist(), heights.tolist()))
    return FidelityScan(
        times=times, values=values, peaks=peaks, captured_norm=exp.captured_norm
    )
