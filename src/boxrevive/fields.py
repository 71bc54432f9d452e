"""Sampled 2-d fields and their CSV / PGM exporters.

Field2D is the one sampled-field type: a carpet has axis1 = t, axis2 = x; a
Wigner field (wigner.WignerField) has axis1 = x, axis2 = p. meta holds the CSV
header labels ("axis1", "axis2", "values") and the captured norm.

CSV layout: two '#' header lines describing the axes and units, then a matrix
whose first row holds the axis-2 coordinates and whose first column holds the
axis-1 coordinates. All numbers are printed with 12 significant digits so
output is byte-stable across runs. The package writes this format and does not
read it back.

PGM (P5, 8 bit) layout: axis-1 indexes rows (row 0 = first axis-1 sample),
axis-2 indexes columns. Unsigned fields are scaled by their global maximum and
compressed by the exponent GAMMA; signed fields are mapped symmetrically around
mid-gray. The mapping constants are recorded on the comment line.

Shared trace rules: uniform_times (the time window of carpets and fidelity
scans), trapezoid_weights (integrals and moments), local_maxima (fidelity
peaks, centroid maxima), parabolic_vertex (sub-grid peak refinement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.12g"
GAMMA = 0.5  # exponent of the unsigned PGM mapping


@dataclass(frozen=True)
class Field2D:
    """Real values sampled on the rectangular grid axis1 x axis2."""

    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        a1 = np.asarray(self.axis1, dtype=float)
        a2 = np.asarray(self.axis2, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(a1), len(a2)):
            raise ValueError(
                f"values shape {v.shape} does not match axes ({len(a1)}, {len(a2)})"
            )
        for arr in (a1, a2, v):
            arr.setflags(write=False)
        object.__setattr__(self, "axis1", a1)
        object.__setattr__(self, "axis2", a2)
        object.__setattr__(self, "values", v)


def write_field_csv(path, f: Field2D) -> None:
    """Write a field as CSV with a 2-line header (axis descriptions, units), one row at a time."""
    # One % per row, applied to a tuple of Python floats.
    cells = ",".join([FLOAT_FMT] * len(f.axis2))
    row_fmt = FLOAT_FMT + "," + cells + "\n"
    with Path(path).open("w") as out:
        out.write(
            "# axis1 (rows): {}; axis2 (columns): {}; values: {}\n".format(
                f.meta.get("axis1", "axis1"),
                f.meta.get("axis2", "axis2"),
                f.meta.get("values", "values"),
            )
        )
        out.write("# first data row lists axis2 coordinates; first column lists axis1 coordinates\n")
        out.write("," + cells % tuple(f.axis2.tolist()) + "\n")
        for t, row in zip(f.axis1.tolist(), f.values):
            out.write(row_fmt % (t, *row.tolist()))


def _pgm_bytes(quantized: np.ndarray, comment: str) -> bytes:
    h, w = quantized.shape
    header = f"P5\n# {comment}\n{w} {h}\n255\n".encode("ascii")
    return header + quantized.astype(np.uint8).tobytes()


def write_field_pgm(path, f: Field2D, *, signed: bool) -> None:
    """8-bit grayscale export.

    Unsigned (density) fields: v -> (v / max)^GAMMA, then quantized.
    Signed (quasiprobability) fields: v -> 0.5 + 0.5 v / max|v|, no gamma.
    """
    v = f.values
    if signed:
        scale = float(np.max(np.abs(v)))
        mapped = 0.5 + 0.5 * (v / scale if scale > 0.0 else v)
        comment = f"mapping=symmetric offset=0.5 absmax={FLOAT_FMT % scale}"
    else:
        if np.min(v) < 0.0:
            raise ValueError("unsigned export requested for a field with negative values")
        scale = float(np.max(v))
        mapped = (v / scale if scale > 0.0 else v) ** GAMMA
        comment = f"mapping=unsigned gamma={FLOAT_FMT % GAMMA} max={FLOAT_FMT % scale}"
    quantized = np.clip(np.rint(mapped * 255.0), 0, 255)
    Path(path).write_bytes(_pgm_bytes(quantized, comment))


def uniform_times(t_range, n: int) -> np.ndarray:
    """n uniform times over the window t_range = (t0, t1), both ends included.

    The window must be finite with t1 >= t0 >= 0, and t1 > t0 unless n = 1.
    It is checked before any time is formed, so no sample is NaN.
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"time window must be finite (got [{t0}, {t1}])")
    if not (t0 >= 0.0 and t1 >= t0):
        raise ValueError(f"time window must satisfy t1 >= t0 >= 0 (got [{t0}, {t1}])")
    if n > 1 and t1 <= t0:
        raise ValueError(f"time window must satisfy t1 > t0 (got [{t0}, {t1}])")
    return np.linspace(t0, t1, n)


def trapezoid_weights(axis) -> np.ndarray:
    """Weights w of the trapezoid rule on axis: w @ f integrates f sampled there."""
    axis = np.asarray(axis, dtype=float)
    weights = np.zeros_like(axis)
    steps = np.diff(axis) / 2.0
    weights[:-1] += steps
    weights[1:] += steps
    return weights


def trapezoid_2d(axis1, axis2, values) -> float:
    """Double trapezoid integral of values over the grid."""
    return float(trapezoid_weights(axis1) @ values @ trapezoid_weights(axis2))


def local_maxima(values) -> np.ndarray:
    """Indices i of the interior samples with v[i-1] < v[i] >= v[i+1], ascending."""
    v = np.asarray(values, dtype=float)
    return np.flatnonzero((v[:-2] < v[1:-1]) & (v[1:-1] >= v[2:])) + 1


def parabolic_vertex(left, mid, right):
    """Vertex (offset from mid in sample spacings, height) of the parabola through
    three equally spaced samples, elementwise; a flat triple gives (0, mid)."""
    denom = left - 2.0 * mid + right
    shift = np.divide(0.5 * (left - right), denom, out=np.zeros_like(denom), where=denom != 0.0)
    return shift, mid - 0.25 * (left - right) * shift
