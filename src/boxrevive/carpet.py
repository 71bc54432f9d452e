"""Space-time probability density carpets |psi(x, t)|^2 on rectangular grids."""

from __future__ import annotations

import numpy as np

from .fields import Field2D, local_maxima, parabolic_vertex, trapezoid_weights
from .spectrum import SystemConfig, _mode_matrix
from .wavepacket import PacketSpec, _density_rows, evolve, expand

DEFAULT_NT = 512
DEFAULT_NX = 512
BLOCK_ROWS = 16  # rows whose densities one product forms; the scratch stays BLOCK_ROWS x nx
PAD_FACTOR = 8  # zero padding of the dominant_period periodogram, in trace lengths
PROMINENCE = 0.01  # least rise of a count_maxima peak above the minima on both sides


def carpet(
    packet: PacketSpec,
    cfg: SystemConfig,
    t_range=(0.0, 0.5),
    nt: int = DEFAULT_NT,
    nx: int = DEFAULT_NX,
) -> Field2D:
    """Density sampled on nt uniform times (rows) by nx uniform positions.

    Rows are mutually independent time slices, each evolved on its own and
    turned into densities BLOCK_ROWS rows per product; each row integrates
    (trapezoid) to the captured norm of the underlying expansion. nt = 1
    degenerates to a single row at t0.
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not (t0 >= 0.0 and t1 >= t0):
        raise ValueError(f"time window must satisfy t1 >= t0 >= 0 (got [{t0}, {t1}])")
    if nt < 1 or nx < 2:
        raise ValueError(f"grid must have nt >= 1, nx >= 2 (got nt={nt}, nx={nx})")
    if nt > 1 and t1 <= t0:
        raise ValueError(f"time window must satisfy t1 > t0 (got [{t0}, {t1}])")
    times = np.linspace(t0, t1, nt)

    expansion = expand(packet, cfg)
    x_grid = np.linspace(0.0, 1.0, nx)
    modes = _mode_matrix(expansion.n_values, x_grid)

    values = np.empty((len(times), nx))
    rows = np.empty((min(BLOCK_ROWS, len(times)), len(expansion.n_values)), dtype=complex)
    for start in range(0, len(times), BLOCK_ROWS):
        block = times[start : start + BLOCK_ROWS]
        for i, t in enumerate(block):
            rows[i] = evolve(expansion, float(t), cfg).expansion.coefficients
        values[start : start + len(block)] = _density_rows(rows[: len(block)], modes)

    meta = {
        "axis1": "time [T_rev]",
        "axis2": "position [L]",
        "values": "probability density [1/L]",
        "captured_norm": expansion.captured_norm,
        "n_min": expansion.n_min,
        "n_max": expansion.n_max,
    }
    return Field2D(times, x_grid, values, meta)


def centroid_trace(field: Field2D) -> np.ndarray:
    """Per-row centroid <x>(t) of a density carpet; values lie in [0, 1]."""
    weights = trapezoid_weights(field.axis2)
    norms = field.values @ weights
    empty = np.nonzero(norms <= 0.0)[0]
    if len(empty):
        raise ValueError(f"zero-norm row at index {empty[0]}; centroid undefined")
    return field.values @ (weights * field.axis2) / norms


def dominant_period(times: np.ndarray, trace: np.ndarray) -> float:
    """Period of the strongest oscillation in a centroid trace.

    Periodogram of the detrended trace, zero-padded to PAD_FACTOR times its
    length, with parabolic refinement of the peak bin.
    """
    sig = np.asarray(trace, float) - np.mean(trace)
    n = len(sig)
    dt = times[1] - times[0]
    spec = np.abs(np.fft.rfft(sig, n=PAD_FACTOR * n)) ** 2
    freqs = np.fft.rfftfreq(PAD_FACTOR * n, d=dt)
    k = int(np.argmax(spec[1:])) + 1
    shift = parabolic_vertex(*spec[k - 1 : k + 2])[0] if k < len(spec) - 1 else 0.0
    f_peak = freqs[k] + shift * (freqs[1] - freqs[0])
    return 1.0 / f_peak


def count_maxima(trace: np.ndarray) -> int:
    """Number of strict local maxima rising at least PROMINENCE above the
    neighboring minima on both sides."""
    t = np.asarray(trace, float)
    return sum(
        1
        for i in local_maxima(t)
        if t[i] - _running_min_until_rise(t[:i][::-1], t[i]) >= PROMINENCE
        and t[i] - _running_min_until_rise(t[i + 1 :], t[i]) >= PROMINENCE
    )


def _running_min_until_rise(arm: np.ndarray, peak: float) -> float:
    low = peak
    for v in arm:
        if v > peak:
            break
        low = min(low, v)
    return low
