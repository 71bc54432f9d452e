"""Fringe spacing of one sampled Wigner column, shared by the tests as an oracle."""

from boxrevive.wigner import FRINGE_WINDOW


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
