"""Wigner quasiprobability of the evolved state on a phase-space grid.

W(x, p) = (1/pi) integral psi*(x - u) psi(x + u) e^{-2ipu} du, with psi
extended by zero outside the box so the u integration is exactly limited to
|u| <= min(x, 1 - x). The wave function is reconstructed on a fine position
grid that oversamples the output x grid by an integer factor, which puts every
output point and every u sample on the same lattice; the correlation product
c_j = psi*(x - j h) psi(x + j h) then satisfies c_{-j} = conj(c_j) and the
transform is assembled from real cosine / sine sums, so W is real by
construction. The oscillatory sum is exact for the band-limited integrand
because the fine lattice oversamples its highest frequency by far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import Field2D, trapezoid_2d
from .wavepacket import CoverageError, EvolvedState, fourier_amplitude, reconstruct

DEFAULT_GRID = 256
DEFAULT_OVERSAMPLE = 8

# Momentum half-range, in units of 1/delta_x, required beyond |p_bar|. Covers
# the full occupied spectral band of revival-class states, where the marginal
# checks close at the 1e-3 level. States caught mid-bounce keep genuine 1/p^2
# coherence tails from the hard walls and no practical window closes them.
P_COVER_FACTOR = 6.0


@dataclass(frozen=True)
class WignerField:
    """Wigner values on x_axis (rows) by p_axis (columns) at one instant."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    time: float
    captured_norm: float

    def __post_init__(self):
        for name in ("x_axis", "p_axis", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values.shape != (len(self.x_axis), len(self.p_axis)):
            raise ValueError("values shape does not match axes")

    def to_field2d(self) -> Field2D:
        return Field2D(
            self.x_axis,
            self.p_axis,
            self.values,
            {
                "axis1": "position [L]",
                "axis2": "momentum [hbar/L]",
                "values": "Wigner quasiprobability [1/hbar]",
                "time": self.time,
                "captured_norm": self.captured_norm,
            },
        )


def default_p_max(packet) -> float:
    return abs(packet.p_bar) + P_COVER_FACTOR / packet.delta_x


def wigner(
    state: EvolvedState,
    nx: int = DEFAULT_GRID,
    n_p: int = DEFAULT_GRID,
    p_max: float | None = None,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> WignerField:
    """Evaluate the Wigner distribution on an nx-by-n_p grid.

    The x grid spans [0, 1]; the p grid spans [-p_max, p_max] with a finite
    p_max that must cover the packet's momentum content (|p_bar| + 6/delta_x)
    or a CoverageError is raised.
    """
    if nx < 2 or n_p < 2:
        raise ValueError(f"grid must have nx, n_p >= 2 (got {nx}, {n_p})")
    packet = state.packet
    need = default_p_max(packet)
    if p_max is None:
        p_max = need
    if not math.isfinite(p_max):
        raise ValueError(f"p_max must be finite (got {p_max})")
    if p_max < need - 1e-9:
        raise CoverageError(
            f"p grid reaches |p| = {p_max:.6g} but |p_bar| + 6/delta_x = {need:.6g} is required"
        )

    x_axis = np.linspace(0.0, 1.0, nx)
    p_axis = np.linspace(-p_max, p_max, n_p)

    m = max(1, int(oversample))
    nf = (nx - 1) * m                 # fine intervals; fine step h = 1/nf
    h = 1.0 / nf
    x_fine = np.linspace(0.0, 1.0, nf + 1)
    psi = reconstruct(state, x_fine)

    j_max = nf // 2
    j = np.arange(1, j_max + 1)
    cos_m = np.cos(np.outer(j, 2.0 * h * p_axis))
    sin_m = np.sin(np.outer(j, 2.0 * h * p_axis))

    c_re = np.zeros((nx, j_max))
    c_im = np.zeros((nx, j_max))
    c0 = np.empty(nx)
    for r in range(nx):
        c = r * m
        half = min(c, nf - c)
        c0[r] = abs(psi[c]) ** 2
        if half == 0:
            continue
        prod = np.conj(psi[c - np.arange(1, half + 1)]) * psi[c + np.arange(1, half + 1)]
        c_re[r, :half] = prod.real
        c_im[r, :half] = prod.imag

    values = (h / math.pi) * (c0[:, None] + 2.0 * (c_re @ cos_m + c_im @ sin_m))
    return WignerField(
        x_axis=x_axis,
        p_axis=p_axis,
        values=values,
        time=state.time,
        captured_norm=state.expansion.captured_norm,
    )


def wigner_overlap(a: WignerField, b: WignerField) -> float:
    """Normalized phase-space inner product of two fields on identical grids."""
    if a.values.shape != b.values.shape or not (
        np.allclose(a.x_axis, b.x_axis) and np.allclose(a.p_axis, b.p_axis)
    ):
        raise ValueError("Wigner fields live on different grids")
    num = float(np.sum(a.values * b.values))
    den = math.sqrt(float(np.sum(a.values**2)) * float(np.sum(b.values**2)))
    return num / den


def parity_mirror(f: WignerField) -> WignerField:
    """The field reflected through the grid centre: values[i, j] -> values[-1-i, -1-j].

    On the grids `wigner` builds this is x -> 1 - x, p -> -p.
    """
    return replace(f, values=f.values[::-1, ::-1])


def negativity_volume(f: WignerField) -> float:
    """Integral of |W| minus the captured norm; zero for nonnegative W."""
    return trapezoid_2d(f.x_axis, f.p_axis, np.abs(f.values)) - f.captured_norm


def position_marginal(f: WignerField) -> np.ndarray:
    """sum_p W dp, which must reproduce |psi(x)|^2."""
    return np.trapezoid(f.values, f.p_axis, axis=1)


def momentum_marginal(f: WignerField) -> np.ndarray:
    """sum_x W dx, which must reproduce |phi(p)|^2."""
    return np.trapezoid(f.values, f.x_axis, axis=0)


def marginal_errors(f: WignerField, state: EvolvedState) -> tuple[float, float]:
    """Sup-norm mismatch of both marginals against the direct densities.

    The reference momentum density is the closed-form transform of the state's
    coefficients, independent of the discrete sums the field is built from.
    """
    x_err = float(np.max(np.abs(position_marginal(f) - _density_on(state, f.x_axis))))
    phi = fourier_amplitude(state.expansion.coefficients, state.expansion.n_values, f.p_axis)
    p_err = float(np.max(np.abs(momentum_marginal(f) - np.abs(phi) ** 2)))
    return x_err, p_err


def _density_on(state: EvolvedState, x_axis) -> np.ndarray:
    return np.abs(reconstruct(state, x_axis)) ** 2


def fringe_spacing(f: WignerField, x_center: float, window: float = 0.25) -> float | None:
    """Interference fringe wavelength along x in the slice nearest p = 0.

    Returns twice the mean gap between consecutive zero crossings of W(x, ~0)
    within +/- window of x_center, or None when fewer than two crossings exist
    (no resolvable fringes).
    """
    col = int(np.argmin(np.abs(f.p_axis)))
    mask = np.abs(f.x_axis - x_center) <= window
    x = f.x_axis[mask]
    w = f.values[mask, col]
    sign_flips = np.nonzero(np.sign(w[:-1]) * np.sign(w[1:]) < 0)[0]
    if len(sign_flips) < 2:
        return None
    crossings = []
    for i in sign_flips:
        frac = w[i] / (w[i] - w[i + 1])
        crossings.append(x[i] + frac * (x[i + 1] - x[i]))
    gaps = np.diff(crossings)
    return 2.0 * float(np.mean(gaps))
