"""Space-time probability density carpets |psi(x, t)|^2 on rectangular grids.

A carpet takes its time window and both grid sizes explicitly; the CLI
parameter table holds the defaults (window [0, 0.5], 512 x 512).
"""

from __future__ import annotations

import numpy as np

from .fields import Field2D, local_maxima, parabolic_vertex, trapezoid_weights, uniform_times
from .spectrum import SystemConfig, _mode_matrix
from .wavepacket import PacketSpec, _density_rows, evolve, expand

BLOCK_ROWS = 16  # rows whose densities one product forms
PAD_FACTOR = 8  # zero padding of the dominant_period periodogram, in trace lengths
PROMINENCE = 0.01  # least rise of a count_maxima peak above the minima on both sides


def carpet(packet: PacketSpec, cfg: SystemConfig, t_range, nt: int, nx: int) -> Field2D:
    """Density sampled on nt uniform times (rows) by nx uniform positions.

    Rows are mutually independent time slices, each evolved on its own and
    turned into densities BLOCK_ROWS rows per product; each row integrates
    (trapezoid) to the captured norm of the underlying expansion. The window
    follows `fields.uniform_times`; nt = 1 gives the single row t0.
    """
    if nt < 1 or nx < 2:
        raise ValueError(f"grid must have nt >= 1, nx >= 2 (got nt={nt}, nx={nx})")
    times = uniform_times(t_range, nt)

    expansion = expand(packet, cfg)
    x_grid = np.linspace(0.0, 1.0, nx)
    modes = _mode_matrix(expansion.n_values, x_grid)

    values = np.empty((nt, nx))
    for start in range(0, nt, BLOCK_ROWS):
        block = times[start : start + BLOCK_ROWS]
        rows = np.array([evolve(expansion, float(t), cfg).coefficients for t in block])
        values[start : start + len(block)] = _density_rows(rows, modes)

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
