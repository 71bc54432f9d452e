"""Revival prediction and detection.

Fractional revivals of the relativistically perturbed box are expected at the
instants (r2/s2) t_sr4, t_sr4 = 1/q2, for each reduced proper fraction r2/s2
(Averbukh & Perelman, Phys. Lett. A 139, 449 (1989)). They are listed in
ascending order by one walk of the Farey sequence F_smax, the reduced
fractions with denominator <= smax: the next-term recurrence is integer
arithmetic, so no set and no sort are needed. Each time is the correctly
rounded double of the exact rational (r2/s2)/q2.

A fidelity scan samples |A(t)| on a window checked by `fields.uniform_times`
and returns plain data: the samples, their refined peaks and the captured
norm the peak threshold is measured against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .fields import local_maxima, parabolic_vertex, uniform_times
from .spectrum import SystemConfig, _check_quartic_clock
from .wavepacket import EigenExpansion, PacketSpec, autocorrelation, expand

PEAK_THRESHOLD = 0.8  # fraction of the captured norm a peak must reach


@dataclass(frozen=True)
class RevivalPrediction:
    """One fractional revival time (r2/s2) t_sr4 and its reduced fraction."""

    time: float
    r2: int
    s2: int


@dataclass(frozen=True)
class FidelityScan:
    """Uniform |autocorrelation| samples, refined local maxima and the captured norm."""

    times: np.ndarray
    values: np.ndarray
    peaks: list[tuple[float, float]]
    captured_norm: float


def enumerate_fractional(cfg: SystemConfig, s_max: int) -> list[RevivalPrediction]:
    """All proper fractions (r2/s2) t_sr4 with s2 <= s_max, in ascending order.

    Each time r2 den / (s2 num), with num/den = q2, is rounded once by int
    true division.
    """
    if cfg.q_squared <= 0.0:
        raise ValueError("super-revival clocks are undefined for q_squared = 0")
    _check_quartic_clock(cfg.q_squared)
    if operator.index(s_max) < 2:  # a float s_max would walk in floats
        raise ValueError(f"s_max must be >= 2 (got {s_max})")

    num, den = cfg.q_squared.as_integer_ratio()
    a, b, c, d = 0, 1, 1, s_max
    out = []
    while c < d:
        out.append(RevivalPrediction(time=c * den / (d * num), r2=c, s2=d))
        k = (s_max + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return out


def fidelity_scan(
    packet: PacketSpec,
    cfg: SystemConfig,
    t_range,
    nt: int,
    expansion: EigenExpansion | None = None,
) -> FidelityScan:
    """Scan |<psi(0)|psi(t)>| uniformly over t_range with nt samples.

    The window follows `fields.uniform_times`, so t1 > t0 >= 0. Local maxima
    above PEAK_THRESHOLD times the captured norm are refined to sub-grid
    accuracy with a parabola through the three bracketing samples.
    """
    if nt < 3:
        raise ValueError(f"nt >= 3 required for a scan (got {nt})")
    times = uniform_times(t_range, nt)
    exp = expansion if expansion is not None else expand(packet, cfg)
    values = np.abs(autocorrelation(exp, times, cfg))

    i = local_maxima(values)
    i = i[values[i] >= PEAK_THRESHOLD * exp.captured_norm]
    shift, heights = parabolic_vertex(values[i - 1], values[i], values[i + 1])
    peaks = list(zip((times[i] + shift * (times[1] - times[0])).tolist(), heights.tolist()))
    return FidelityScan(
        times=times, values=values, peaks=peaks, captured_norm=exp.captured_norm
    )
