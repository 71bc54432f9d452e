"""Wigner quasiprobability of the evolved state on a phase-space grid.

W(x, p) = (1/pi) integral psi*(x - u) psi(x + u) e^{-2ipu} du, with psi
extended by zero outside the box so the u integration is exactly limited to
|u| <= L = min(x, 1 - x). For psi = sum_n a_n sqrt(2) sin(n pi x) the integral
has a closed form. With s = n + m and d = n - m,

    W = (1/pi) sum_key c_key(x) sin((kappa_key + 2p) L) / (kappa_key + 2p)

over the keys kappa in {s pi, -s pi, d pi} (6N - 3 of them for N levels; keys
of equal value are merged). The real weights are
G_s = sum_{n+m=s} conj(a_n) a_m e^{i pi (n-m) x} for s pi, G'_s (the same sum
with e^{-i pi (n-m) x}, not G_s) for -s pi, and -2 Re H_d with
H_d = sum_{n-m=d} conj(a_n) a_m e^{i pi (n+m) x} for d pi. Every key and
phase is an integer multiple of pi, so one table of cos and sin(pi m L) gives
both the weights and sin(kappa L), cos(kappa L). Splitting
sin((kappa + 2p) L) = sin(kappa L) cos(2pL) + cos(kappa L) sin(2pL) makes the
field two real (x by key) times (key by p) products against 1/(kappa + 2p);
pairs within POLE_GAP of a pole are summed directly as c L sinc. The field is
exact to rounding and real by construction.

Rows x and 1 - x of the grid x = linspace(0, 1, nx) share the reach L, and
at x = 1 - L, e^{i pi m x} = (-1)^m e^{-i pi m L}. So every x-only table
(cos and sin(pi m L), the key weights, cos and sin(2pL), the pole reach) is
built on the ceil(nx/2) near rows alone, with L = x there; the far rows take
their key weights through the (-1)^m parity and sit at 1 - L, their grid x
to within an ulp. Each half is written into the field in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import Field2D, trapezoid_2d, trapezoid_weights
from .wavepacket import (
    EvolvedState,
    _check_reach,
    default_p_max,
    fourier_amplitude,
    position_density,
)

DEFAULT_GRID = 256

# Key-momentum pairs with |kappa + 2p| below this are summed directly, not
# through 1/(kappa + 2p).
POLE_GAP = 1e-2

FRINGE_WINDOW = 0.25  # half-width in x around the centre where fringes are read


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
            },
        )


def wigner(
    state: EvolvedState,
    nx: int = DEFAULT_GRID,
    n_p: int = DEFAULT_GRID,
    p_max: float | None = None,
) -> WignerField:
    """Evaluate the closed-form Wigner distribution on an nx-by-n_p grid.

    The x grid spans [0, 1]; the p grid spans [-p_max, p_max]. 2 p_max must
    be finite, since the kernel works with 2p, and p_max must cover the
    packet's momentum content (|p_bar| + 6/delta_x) or a CoverageError is
    raised, so that the marginals close.
    """
    if nx < 2 or n_p < 2:
        raise ValueError(f"grid must have nx, n_p >= 2 (got {nx}, {n_p})")
    if p_max is None:
        p_max = default_p_max(state.packet)
    if not math.isfinite(2.0 * p_max):
        raise ValueError(f"2 p_max must be finite (got p_max = {p_max})")
    _check_reach(state.packet, p_max)
    return _field(state, nx, np.linspace(-p_max, p_max, n_p))


def wigner_column(state: EvolvedState, p: float, nx: int = DEFAULT_GRID) -> WignerField:
    """W(x, p) at the single momentum p on nx points of [0, 1].

    2p must be finite. No coverage check: it protects the marginals of a
    whole field, and one column has none.
    """
    if nx < 2:
        raise ValueError(f"grid must have nx >= 2 (got {nx})")
    if not math.isfinite(2.0 * p):
        raise ValueError(f"2p must be finite (got p = {p})")
    return _field(state, nx, np.array([float(p)]))


def fringe_column(state: EvolvedState) -> WignerField:
    """The column of the default `wigner` grid nearest p = 0, where fringes are read."""
    p_max = default_p_max(state.packet)
    p_axis = np.linspace(-p_max, p_max, DEFAULT_GRID)
    return wigner_column(state, float(p_axis[np.argmin(np.abs(p_axis))]))


def _field(state: EvolvedState, nx: int, p_axis: np.ndarray) -> WignerField:
    keys, w_cos, w_sin = _key_weights(state.expansion.coefficients, state.expansion.n_values)
    m = np.arange(len(w_cos))
    x_axis = np.linspace(0.0, 1.0, nx)
    # Row i and its mirror nx - 1 - i share the reach L = x_i of the u
    # integral, so every x-only table is built on the near half alone.
    near, far = (nx + 1) // 2, nx // 2
    half = x_axis[:near]
    angle = np.outer(half, math.pi * m)
    cos_l, sin_l = np.cos(angle), np.sin(angle)
    # At the mirror x = 1 - L, e^{i pi m x} = (-1)^m e^{-i pi m L}.
    parity = (1.0 - 2.0 * (m % 2))[:, None]
    weights = (
        cos_l @ w_cos + sin_l @ w_sin,  # c_key(x) on the near rows
        cos_l[:far] @ (parity * w_cos) - sin_l[:far] @ (parity * w_sin),
    )

    kappa = math.pi * keys
    denom = kappa[:, None] + 2.0 * p_axis
    pole = np.abs(denom) < POLE_GAP
    inverse = np.divide(1.0, denom, out=np.zeros_like(denom), where=~pole)
    arg = np.outer(half, 2.0 * p_axis)
    cos_arg, sin_arg = np.cos(arg), np.sin(arg)
    sin_k = sin_l[:, np.abs(keys)] * np.sign(keys)
    cos_k = cos_l[:, np.abs(keys)]
    # Keys lie pi apart, so no momentum sits within POLE_GAP of two of them.
    rows, cols = np.nonzero(pole)
    reach = half * np.sinc(np.outer(denom[rows, cols], half) / math.pi)
    values = np.empty((nx, len(p_axis)))
    # The far half is written bottom up; each half is its own pair of
    # (rows x key) @ (key x p) products, which keeps the temporaries at half size.
    for w, out in zip(weights, (values[:near], values[::-1][:far])):
        k = len(w)
        np.multiply(cos_arg[:k], (w * sin_k[:k]) @ inverse, out=out)
        term = (w * cos_k[:k]) @ inverse
        term *= sin_arg[:k]
        out += term
        out[:, cols] += w[:, rows] * reach[:, :k].T
    values /= math.pi
    return WignerField(
        x_axis=x_axis,
        p_axis=p_axis,
        values=values,
        time=state.time,
        captured_norm=state.expansion.captured_norm,
    )


def _key_weights(coefficients, n_values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct keys kappa / pi and the weight matrices of c_key(x).

    Every pair c = conj(a_n) a_m adds w Re(c e^{i pi e x}) to key k for
    (k, e, w) in (s, d, 1), (-s, -d, 1) and (d, s, -2). So
    c_key(x) = sum_e cos(pi e x) w_cos[e, key] + sin(pi e x) w_sin[e, key]
    over 0 <= e <= 2 n_max, two fixed real matrices.
    """
    a = np.asarray(coefficients)
    n = np.asarray(n_values)
    c = (np.conj(a)[:, None] * a[None, :]).ravel()
    s = np.add.outer(n, n).ravel()
    d = np.subtract.outer(n, n).ravel()
    keys, col = np.unique(np.concatenate([s, -s, d]), return_inverse=True)
    e = np.concatenate([d, -d, s])
    w = np.repeat([1.0, 1.0, -2.0], len(c))
    cc = np.tile(c, 3)
    slot = np.abs(e) * len(keys) + col
    shape = (2 * int(n[-1]) + 1, len(keys))
    size = shape[0] * shape[1]
    w_cos = np.bincount(slot, w * cc.real, size).reshape(shape)
    w_sin = np.bincount(slot, -w * np.sign(e) * cc.imag, size).reshape(shape)
    return keys, w_cos, w_sin


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
    return f.values @ trapezoid_weights(f.p_axis)


def momentum_marginal(f: WignerField) -> np.ndarray:
    """sum_x W dx, which must reproduce |phi(p)|^2."""
    return trapezoid_weights(f.x_axis) @ f.values


def marginal_errors(f: WignerField, state: EvolvedState) -> tuple[float, float]:
    """Sup-norm mismatch of both marginals against the direct densities.

    Both references come from the state's coefficients, never from the field:
    |psi|^2 and |phi|^2 from the closed-form momentum transform.
    """
    x_err = float(np.max(np.abs(position_marginal(f) - position_density(state, f.x_axis))))
    phi = fourier_amplitude(state.expansion.coefficients, state.expansion.n_values, f.p_axis)
    p_err = float(np.max(np.abs(momentum_marginal(f) - np.abs(phi) ** 2)))
    return x_err, p_err


def fringe_spacing(f: WignerField, x_center: float) -> float | None:
    """Interference fringe wavelength along x in the slice nearest p = 0.

    Returns twice the mean gap between consecutive zero crossings of W(x, ~0)
    within +/- FRINGE_WINDOW of x_center, or None when fewer than two crossings
    exist (no resolvable fringes).
    """
    col = int(np.argmin(np.abs(f.p_axis)))
    mask = np.abs(f.x_axis - x_center) <= FRINGE_WINDOW
    x = f.x_axis[mask]
    w = f.values[mask, col]
    flips = np.nonzero(np.sign(w[:-1]) * np.sign(w[1:]) < 0)[0]
    if len(flips) < 2:
        return None
    crossings = x[flips] + w[flips] / (w[flips] - w[flips + 1]) * (x[flips + 1] - x[flips])
    return 2.0 * float(np.mean(np.diff(crossings)))
