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
at x = 1 - L, e^{i pi m x} = (-1)^m e^{-i pi m L}. So every table over x
(cos and sin(pi m L), the key weights, cos and sin(2pL), the pole reach) is
built on the ceil(nx/2) near rows alone, with L = x there; the far rows take
their key weights through the (-1)^m parity and sit at 1 - L, their grid x
to within an ulp. Each half is written into the field in place.

Everything a field needs that no state changes is one read-only cache
entry per (nx, p axis, n_min, n_max), at most four entries: the pair -> key
layout (bincount slots, the +-w, sign(e) factors), cos and sin(pi m L) with
its key columns cos and sin(kappa L), cos and sin(2pL), 1/(kappa + 2p) and
the pole terms. Both trig tables are np.cos and np.sin of their rounded
angle arrays, taken once per entry, so a cell's rounding error grows with
its largest angle |pi m L| or |2pL|. At levels 3..31 (125 keys) an entry holds
1.2 MB at 256 x 256 and 3.4 MB at 512 x 512. So a call does one lookup, its
state's two bincounts and, per half, the key weights (rows x key) and the two
(rows x key) @ (key x p) products.

Each half is built in row tiles whose (rows x p) block fits
wavepacket._TILE_BYTES (256 KiB; 64 rows at n_p = 512): both products of a
tile go through one reused tile buffer, and cos and sin(2pL), the pole terms
and 1/pi are applied straight into the field. So a call holds the field
plus about one tile and the key weights of one half: its tracemalloc peak
past the field is 1.1 MB at 512 x 512 and 1.6 MB at 1024 x 1024, where
whole-half products held 3.0 MB and 10.1 MB.

The one column that fringe_spacing reads does not go through these tables.
At one p the u integral of each pair closes on its boundary terms u = +-L,
so the column is (1/pi) Im of two (levels x levels) matrices M+- applied to
the coefficients and one (rows x levels) product with the near-row phases
e^{i(2p +- 2 pi n) L} (`_column`). Its state-free part is its own read-only
cache entry per (nx, p, n_min, n_max), 0.13 MB at levels 3..31 and 256 rows.

The result is a WignerField, a fields.Field2D with axis1 = x and axis2 = p
whose meta holds the axis labels and the captured norm; it is exported as is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from .fields import Field2D, trapezoid_2d, trapezoid_weights
from .wavepacket import (
    _TILE_BYTES,
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


class WignerField(Field2D):
    """Wigner values on axis1 = x (rows) by axis2 = p (columns) of one evolved state."""

    @property
    def x_axis(self) -> np.ndarray:
        return self.axis1

    @property
    def p_axis(self) -> np.ndarray:
        return self.axis2

    @property
    def captured_norm(self) -> float:
        return self.meta["captured_norm"]


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
    p_axis = _p_axis(p_max, n_p)
    _check_reach(state.packet, p_max)
    return _field(state, nx, p_axis)


def _p_axis(p_max: float, n_p: int) -> np.ndarray:
    """linspace(-p_max, p_max, n_p); 2 p_max must be finite, since the kernel works with 2p."""
    if not math.isfinite(2.0 * p_max):
        raise ValueError(f"2 p_max must be finite (got p_max = {p_max})")
    return np.linspace(-p_max, p_max, n_p)


def _field(state: EvolvedState, nx: int, p_axis: np.ndarray) -> WignerField:
    expansion = state.expansion
    layout, x_tables, p_tables = _tables(nx, p_axis.tobytes(), expansion.n_min, expansion.n_max)
    w_cos, w_sin = _key_weights(expansion.coefficients, layout)
    cos_l, sin_l, cos_k, sin_k = x_tables
    cos_arg, sin_arg, inverse, rows, cols, reach = p_tables
    # Row i and its mirror nx - 1 - i share the reach L = x_i of the u
    # integral, so every table over x is built on the near half alone.
    near, far = (nx + 1) // 2, nx // 2
    # At the mirror x = 1 - L, e^{i pi m x} = (-1)^m e^{-i pi m L}: the far
    # half, written bottom up, takes the parity on both weight matrices and
    # the opposite sign on the sin one.
    parity = (1.0 - 2.0 * (np.arange(len(w_cos)) % 2))[:, None]
    values = np.empty((nx, len(p_axis)))
    halves = (
        (values[:near], w_cos, w_sin),
        (values[::-1][:far], parity * w_cos, -(parity * w_sin)),
    )
    # Row tiles whose (rows x p) block fits _TILE_BYTES, so the product
    # buffer stays in cache; it and the key weights serve both halves.
    step = min(near, max(1, _TILE_BYTES // (8 * len(p_axis))))
    product = np.empty((step, len(p_axis)))
    weights = np.empty((near, w_cos.shape[1]))
    scratch = np.empty((step, w_cos.shape[1]))
    for out, a, b in halves:
        c = np.matmul(cos_l[: len(out)], a, out=weights[: len(out)])  # c_key(x)
        c += sin_l[: len(out)] @ b
        for i in range(0, len(out), step):
            j = min(i + step, len(out))
            w, dest, buf, wk = c[i:j], out[i:j], product[: j - i], scratch[: j - i]
            np.matmul(np.multiply(w, sin_k[i:j], out=wk), inverse, out=buf)
            np.multiply(cos_arg[i:j], buf, out=dest)
            np.matmul(np.multiply(w, cos_k[i:j], out=wk), inverse, out=buf)
            buf *= sin_arg[i:j]
            dest += buf
            dest[:, cols] += w[:, rows] * reach[:, i:j].T
            dest /= math.pi
    meta = {
        "axis1": "position [L]",
        "axis2": "momentum [hbar/L]",
        "values": "Wigner quasiprobability [1/hbar]",
        "captured_norm": expansion.captured_norm,
    }
    return WignerField(np.linspace(0.0, 1.0, nx), p_axis, values, meta)


def _key_weights(coefficients: np.ndarray, layout: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The weight matrices of c_key(x) for these coefficients, on a layout of `_tables`.

    Every pair c = conj(a_n) a_m adds w Re(c e^{i pi e x}) to key k for
    (k, e, w) in (s, d, 1), (-s, -d, 1) and (d, s, -2). So
    c_key(x) = sum_e cos(pi e x) w_cos[e, key] + sin(pi e x) w_sin[e, key]
    over 0 <= e <= 2 n_max, two fixed real matrices. The layout holds each
    (pair, key kind)'s bincount slot, its factors w and -w sign(e), and the
    matrix shape; only the two bincounts depend on the coefficients.
    """
    slot, cos_factor, sin_factor, shape = layout
    c = np.tile((np.conj(coefficients)[:, None] * coefficients[None, :]).ravel(), 3)
    size = shape[0] * shape[1]
    w_cos = np.bincount(slot, cos_factor * c.real, size).reshape(shape)
    w_sin = np.bincount(slot, sin_factor * c.imag, size).reshape(shape)
    return w_cos, w_sin


@functools.lru_cache(maxsize=4)
def _tables(nx: int, p_bytes: bytes, n_min: int, n_max: int) -> tuple:
    """Everything a field needs that no state changes: (layout, x tables, p tables), read-only.

    p_bytes is the p axis as float64 bytes, so any p axis of `_field`
    keys an entry. The layout is that of `_key_weights`.
    The x tables are cos and sin(pi m L) on the ceil(nx/2) near rows and
    their key columns cos(kappa L) and sin(kappa L). The p tables are cos and
    sin(2pL) on the near rows, 1/(kappa + 2p), and the pole terms: the
    (key, p) indices within POLE_GAP of kappa + 2p = 0 and their reach
    L sinc((kappa + 2p) L) on the near rows.
    """
    n = np.arange(n_min, n_max + 1)
    s = np.add.outer(n, n).ravel()
    d = np.subtract.outer(n, n).ravel()
    keys, col = np.unique(np.concatenate([s, -s, d]), return_inverse=True)
    e = np.concatenate([d, -d, s])
    w = np.repeat([1.0, 1.0, -2.0], len(s))
    half = np.linspace(0.0, 1.0, nx)[: (nx + 1) // 2]
    cos_l, sin_l = _cos_sin(half, math.pi * np.arange(2 * n_max + 1))
    p_axis = np.frombuffer(p_bytes)
    denom = math.pi * keys[:, None] + 2.0 * p_axis
    pole = np.abs(denom) < POLE_GAP
    # Keys lie pi apart, so no momentum sits within POLE_GAP of two of them.
    rows, cols = np.nonzero(pole)
    layout = (np.abs(e) * len(keys) + col, w, -w * np.sign(e))
    x_tables = (cos_l, sin_l, cos_l[:, np.abs(keys)], sin_l[:, np.abs(keys)] * np.sign(keys))
    p_tables = (
        *_cos_sin(half, 2.0 * p_axis),
        np.divide(1.0, denom, out=np.zeros_like(denom), where=~pole),
        rows,
        cols,
        half * np.sinc(np.outer(denom[rows, cols], half) / math.pi),
    )
    for arr in (*layout, *x_tables, *p_tables):
        arr.setflags(write=False)
    return (*layout, (2 * n_max + 1, len(keys))), x_tables, p_tables


def _cos_sin(axis: np.ndarray, freq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of outer(axis, freq); the sin is taken in place over the angles."""
    angle = np.outer(axis, freq)
    return np.cos(angle), np.sin(angle, out=angle)


def wigner_overlap(a: WignerField, b: WignerField) -> float:
    """Normalized phase-space inner product of two fields on identical grids.

    A field with no nonzero value (nx = 2 holds only the walls, where L = 0)
    has zero norm and no overlap: ValueError.
    """
    if a.values.shape != b.values.shape or not (
        np.allclose(a.x_axis, b.x_axis) and np.allclose(a.p_axis, b.p_axis)
    ):
        raise ValueError("Wigner fields live on different grids")
    num = float(np.sum(a.values * b.values))
    den = math.sqrt(float(np.sum(a.values**2)) * float(np.sum(b.values**2)))
    if den == 0.0:
        raise ValueError("a Wigner field has zero norm, so the overlap is undefined")
    return num / den


def parity_mirror(f: WignerField) -> WignerField:
    """The field reflected through the grid centre: values[i, j] -> values[-1-i, -1-j].

    On the grids `wigner` builds this is x -> 1 - x, p -> -p.
    """
    return replace(f, values=f.values[::-1, ::-1])


def negativity_volume(f: WignerField) -> float:
    """Integral of |W| minus the captured norm; zero for nonnegative W."""
    return trapezoid_2d(f.x_axis, f.p_axis, np.abs(f.values)) - f.captured_norm


def marginal_errors(f: WignerField, state: EvolvedState) -> tuple[float, float]:
    """Sup-norm mismatch of both marginals against the direct densities.

    The marginals are trapezoid sums of the field: sum_p W dp must reproduce
    |psi(x)|^2 and sum_x W dx must reproduce |phi(p)|^2. Both references come
    from the state's coefficients, never from the field: |psi|^2 and |phi|^2
    from the closed-form momentum transform, whose (levels x p) modes are
    cached per level range and p axis, so a repeated check on one grid costs
    one (levels) @ (levels x p) product for phi.
    """
    x_marginal = f.values @ trapezoid_weights(f.p_axis)
    x_err = float(np.max(np.abs(x_marginal - position_density(state, f.x_axis))))
    phi = fourier_amplitude(state.expansion.coefficients, state.expansion.n_values, f.p_axis)
    p_marginal = trapezoid_weights(f.x_axis) @ f.values
    p_err = float(np.max(np.abs(p_marginal - np.abs(phi) ** 2)))
    return x_err, p_err


def fringe_spacing(state: EvolvedState) -> float | None:
    """Interference fringe wavelength along x at p ~ 0.

    Reads the column of the default `wigner` grid nearest p = 0, from its
    closed form `_column`. Returns twice the mean gap between consecutive zero
    crossings of W(x, ~0) within +/- FRINGE_WINDOW of the packet's x_bar, or
    None when fewer than two crossings exist (no resolvable fringes). No
    coverage check: it protects the marginals of a whole field, and one
    column has none.
    """
    p_axis = _p_axis(default_p_max(state.packet), DEFAULT_GRID)
    x = np.linspace(0.0, 1.0, DEFAULT_GRID)
    w = _column(state, DEFAULT_GRID, float(p_axis[np.argmin(np.abs(p_axis))]))
    mask = np.abs(x - state.packet.x_bar) <= FRINGE_WINDOW
    x, w = x[mask], w[mask]
    flips = np.nonzero(np.sign(w[:-1]) * np.sign(w[1:]) < 0)[0]
    if len(flips) < 2:
        return None
    crossings = x[flips] + w[flips] / (w[flips] - w[flips + 1]) * (x[flips + 1] - x[flips])
    return 2.0 * float(np.mean(np.diff(crossings)))


def _column(state: EvolvedState, nx: int, p: float) -> np.ndarray:
    """W(x, p) at one momentum p on x = linspace(0, 1, nx), from the boundary terms of the u integral.

    At x = L <= 1/2 the integral of each pair closes at u = +-L, and
    W = (1/pi) Im[sum_n conj(a_n) ((M+ a)_n e^{i(2p + 2 pi n) L}
    + (M- a)_n e^{i(2p - 2 pi n) L})] with M+-[n, m] = 1/(2p +- pi(n + m))
    - 1/(2p +- pi(n - m)); at x = 1 - L the same holds with a_n replaced by
    conj((-1)^n a_n). So a column costs two (levels x levels) products and one
    (rows x levels) product per half, where `_field` forms every key weight
    of every row. The reciprocals within POLE_GAP of a pole are zero in M+-
    and their pair terms are summed directly as c L sinc, as in `_field`; the
    wall rows (L = 0) are exactly zero.
    """
    e = state.expansion
    plus, minus, phases, parity, pole_n, pole_m = _column_tables(nx, p, e.n_min, e.n_max)
    # Columns: the near half's coefficients and the far half's conj((-1)^n a_n).
    a = np.stack([e.coefficients, np.conj(parity * e.coefficients)], axis=1)
    b = np.conj(a)
    weights = np.concatenate([b * (plus @ a), b * (minus @ a), b[pole_n] * a[pole_m]])
    near = (phases @ weights).imag
    near[0] = 0.0  # L = 0 at both walls
    values = np.empty(nx)
    values[: len(near)] = near[:, 0]
    values[::-1][: nx // 2] = near[: nx // 2, 1]
    return values / math.pi


@functools.lru_cache(maxsize=4)
def _column_tables(nx: int, p: float, n_min: int, n_max: int) -> tuple:
    """What `_column` needs that no state changes: (M+, M-, phases, parity, pole pairs), read-only.

    The phases are e^{i(2p +- 2 pi n) L} on the ceil(nx/2) near rows, then,
    for each pair term (n, m) within POLE_GAP of its pole, i sign
    e^{i pi e L} L sinc((kappa + 2p) L): that term is
    sign Re(conj(a_n) a_m e^{i pi e L}) L sinc, for (kappa, e, sign) in
    (s, d, 1), (-s, -d, 1), (d, s, -1) and (-d, -s, -1).
    """
    n = np.arange(n_min, n_max + 1)
    s = np.add.outer(n, n)
    d = np.subtract.outer(n, n)
    half = np.linspace(0.0, 1.0, nx)[: (nx + 1) // 2]
    recips, pole_n, pole_m, pole_phase = [], [], [], []
    for key, e, sign in ((s, d, 1.0), (-s, -d, 1.0), (d, s, -1.0), (-d, -s, -1.0)):
        denom = math.pi * key + 2.0 * p
        pole = np.abs(denom) < POLE_GAP
        recips.append(np.divide(1.0, denom, out=np.zeros_like(denom), where=~pole))
        i, j = np.nonzero(pole)
        reach = half * np.sinc(denom[pole][:, None] * half / math.pi)
        pole_n.append(i)
        pole_m.append(j)
        pole_phase.append(1j * sign * reach.T * np.exp(1j * math.pi * np.outer(half, e[pole])))
    phases = np.hstack([
        np.exp(1j * np.outer(half, 2.0 * p + 2.0 * math.pi * n)),
        np.exp(1j * np.outer(half, 2.0 * p - 2.0 * math.pi * n)),
        *pole_phase,
    ])
    tables = (
        recips[0] - recips[2],
        recips[1] - recips[3],
        phases,
        1.0 - 2.0 * (n % 2),
        np.concatenate(pole_n),
        np.concatenate(pole_m),
    )
    for arr in tables:
        arr.setflags(write=False)
    return tables
