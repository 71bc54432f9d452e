"""Oracles shared by the Wigner and fringe tests: the closed form summed pair by
pair, and the fringe spacing of one sampled column."""

import math

import numpy as np

from boxrevive.wavepacket import default_p_max
from boxrevive.wigner import DEFAULT_GRID, FRINGE_WINDOW


def per_pair_field(state, x_axis, p_axis):
    """(1/pi) sum over level pairs (n, m) of conj(a_n) a_m times

        e^{i pi d x} f(s pi) + e^{-i pi d x} f(-s pi) - e^{i pi s x} f(d pi) - e^{-i pi s x} f(-d pi)

    with s = n + m, d = n - m and f(k) = sin((k + 2p) L)/(k + 2p) = L sinc((k + 2p) L / pi),
    one level n at a time: the closed form with no grouping by key and no split of the sine.
    """
    a = state.coefficients
    n = state.n_values
    x = np.asarray(x_axis, float)[:, None, None]
    p = np.asarray(p_axis, float)[None, :, None]
    half = np.minimum(x, 1.0 - x)

    def f(k):
        return half * np.sinc((k + 2.0 * p) * half / math.pi)

    total = np.zeros((x.shape[0], p.shape[1]), dtype=complex)
    for a_n, level in zip(a, n):
        s = math.pi * (level + n)
        d = math.pi * (level - n)
        terms = (np.exp(1j * d * x) * f(s) + np.exp(-1j * d * x) * f(-s)
                 - np.exp(1j * s * x) * f(d) - np.exp(-1j * s * x) * f(-d))
        total += terms @ (np.conj(a_n) * a)
    return total.real / math.pi


def per_pair_zero_column(state):
    """(x, W) on the column of the default `wigner` grid nearest p = 0, from `per_pair_field`."""
    p_max = default_p_max(state.packet)
    p_axis = np.linspace(-p_max, p_max, DEFAULT_GRID)
    x = np.linspace(0.0, 1.0, DEFAULT_GRID)
    return x, per_pair_field(state, x, p_axis[[np.argmin(np.abs(p_axis))]])[:, 0]


def crossing_spacing(x, w, centre):
    """Twice the mean gap between the sign changes of w along x within
    +/- FRINGE_WINDOW of centre, each placed by linear interpolation between
    its two samples; None below two crossings. One pair of samples at a time,
    and the mean gap as (last - first) / (count - 1)."""
    points = [(xi, wi) for xi, wi in zip(x, w) if abs(xi - centre) <= FRINGE_WINDOW]
    crossings = [
        x0 + w0 / (w0 - w1) * (x1 - x0)
        for (x0, w0), (x1, w1) in zip(points, points[1:])
        if w0 < 0.0 < w1 or w1 < 0.0 < w0
    ]
    if len(crossings) < 2:
        return None
    return 2.0 * (crossings[-1] - crossings[0]) / (len(crossings) - 1)
