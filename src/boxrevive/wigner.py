"""Wigner quasiprobability of the evolved state on a phase-space grid.

W(x, p) = (1/pi) integral psi*(x - u) psi(x + u) e^{-2ipu} du, with psi
extended by zero outside the box so the u integration is exactly limited to
|u| <= L = min(x, 1 - x). For psi = sum_n a_n sqrt(2) sin(n pi x) the integral
of each pair closes on its boundary terms u = +-L: on the near rows x = L,

    W(L, p) = (1/pi) Im[e^{2ipL} sum_n (u+_n e^{2 pi i n L} + u-_n e^{-2 pi i n L})]

with u+- = conj(a) (M+-(p) a) and M+-[n, m] = 1/(2p +- pi(n + m))
- 1/(2p +- pi(n - m)), and at x = 1 - L the same with a_n replaced by
conj((-1)^n a_n). The field is exact to rounding and real by construction.

M+- reach p only through the reciprocals 1/(pi k + 2p) of the keys
k = -2 n_max..2 n_max, so u+- are the pair sums
P[n, k] = sum_m conj(a_n) a_m ([n + m = k] - [n - m = k]) times the (key x p)
reciprocals; u- reads P[n, -k]. Each P[n, k] holds at most two pairs, so
the sums are one gather of conj(a_n) a_m through a cached index table.
Folding k with -k, a half's real and imaginary parts take two
(2 levels x (2 n_max + 1)) @ ((2 n_max + 1) x p) products against the even
and odd reciprocals, and then in each row tile
W = sin(2pL) [C S] @ rhs_re + cos(2pL) [C S] @ rhs_im, with [C S] the
(rows x 2 levels) cos and sin(2 pi n L). So the products over the grid have
inner dimension 2 levels (58 at 29 levels) and no (rows x key) weights.
Reciprocals within POLE_GAP of a pole are zero, and the pairs on that key are
summed directly: their term is the column of that key's pair sums times
e^{-i pi k L} and the reach L sinc((pi k + 2p) L). The wall rows (L = 0) are
exactly zero.

Rows x and 1 - x of the grid x = linspace(0, 1, nx) share the reach L, so
every table over x is built on the ceil(nx/2) near rows alone, with L = x
there; the far half takes the near half's kernel with each key's pair sums
conjugated and signed by (-1)^k, and sits at 1 - L, its grid x to within an
ulp. Each half is written into the field in place.

Everything a field needs that no state changes is one read-only cache
entry per (nx, p axis, n_min, n_max), at most four entries: the x axis,
[C S], cos and sin(2pL), the pair sums' index table, the folded reciprocals
with 1/pi folded in, the far half's signs and the pole terms. Every trig
table of an entry is `_cos_sin` of its rounded angle array, taken once per
entry, so a cell's rounding error grows with its largest angle |2 pi n L| or
|2pL|. So a call does one lookup, the state's pair sums and, per half, the
two reciprocal products and the tile products.

Each half is built in row tiles whose (rows x p) block fits
wavepacket._TILE_BYTES (256 KiB; 64 rows at n_p = 512): both products of a
tile go through one reused tile buffer, and cos and sin(2pL) and the pole
terms are applied straight into the field. So a call holds the field plus
one tile and one half's (4 levels x p) reciprocal products: its tracemalloc
peak past the field is 0.94 MB at 512 x 512 and 1.4 MB at 1024 x 1024.

The one column that fringe_spacing reads is `_field` on a one-point p axis,
with an entry of its own in the same cache.

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
    EigenExpansion,
    _check_reach,
    default_p_max,
    fourier_amplitude,
    position_density,
)

DEFAULT_GRID = 256

# Key-momentum pairs with |kappa + 2p| below this are summed directly, not
# through 1/(kappa + 2p).
POLE_GAP = 1e-2

FRINGE_WINDOW = 0.25  # half-width in x around the box midpoint where fringes are read


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
    state: EigenExpansion,
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
    _check_reach(state.packet, p_max)
    return _field(state, nx, np.linspace(-p_max, p_max, n_p))


def _field(state: EigenExpansion, nx: int, p_axis: np.ndarray) -> WignerField:
    """W on x = linspace(0, 1, nx) by p_axis, from the boundary terms of the u integral.

    Per half: the pair sums of `_key_sums` (flipped for the far half), two
    (2 levels x keys) @ (keys x p) products against the folded reciprocals,
    and in each row tile W = sin(2pL) [C S] @ rhs_re + cos(2pL) [C S] @ rhs_im
    plus the pole terms, with [C S] = cos and sin(2 pi n L) and the levels'
    cos and sin columns interleaved. The wall rows (L = 0) are exactly zero.
    """
    x, cs, cos_arg, sin_arg, index, recip, flip, pole_keys, pole_signs, cols, pole_cos, pole_sin = _tables(
        nx, p_axis.tobytes(), state.n_min, state.n_max
    )
    sums = _key_sums(state.coefficients, index)
    levels, n_p = len(state.coefficients), len(p_axis)
    # rhs[part, n, even/odd, p]: rows (n, even/odd) of rhs_re and rhs_im pair
    # with the interleaved columns of [C S], and each reciprocal product
    # fills one even/odd slot of every row.
    rhs = np.empty((2, levels, 2, n_p))
    rhs_re, rhs_im = rhs.reshape(2, 2 * levels, n_p)
    even_odd = [rhs[:, :, k].reshape(2 * levels, n_p) for k in (0, 1)]
    near, far = (nx + 1) // 2, nx // 2
    values = np.empty((nx, n_p))
    # Row tiles whose (rows x p) block fits _TILE_BYTES, so the product
    # buffer stays in cache; it serves both halves.
    step = min(near, max(1, _TILE_BYTES // (8 * n_p)))
    product = np.empty((step, n_p))
    # Row i and its mirror nx - 1 - i share the reach L = x_i; the far half,
    # written bottom up, is the near half's kernel with a_n replaced by
    # conj((-1)^n a_n), which flips the sign of each key's sums.
    for out, mirror in ((values[:near], False), (values[::-1][:far], True)):
        if mirror:
            sums *= flip
        for k in (0, 1):
            np.matmul(sums[k].reshape(2 * levels, -1), recip[k], out=even_odd[k])
        if len(cols):  # each pole key's pair sums, in the row order of rhs
            poles = sums[..., pole_keys]
            poles[1] *= pole_signs
            poles = poles.transpose(1, 2, 0, 3).reshape(2, 2 * levels, -1)
        for i in range(0, len(out), step):
            j = min(i + step, len(out))
            dest, buf, c = out[i:j], product[: j - i], cs[i:j]
            np.multiply(sin_arg[i:j], np.matmul(c, rhs_re, out=buf), out=dest)
            np.matmul(c, rhs_im, out=buf)
            buf *= cos_arg[i:j]
            dest += buf
            if len(cols):
                dest[:, cols] += pole_cos[i:j] * (c @ poles[0]) + pole_sin[i:j] * (c @ poles[1])
    values[[0, -1]] = 0.0  # L = 0 at both walls
    meta = {
        "axis1": "position [L]",
        "axis2": "momentum [hbar/L]",
        "values": "Wigner quasiprobability [1/hbar]",
        "captured_norm": state.captured_norm,
    }
    return WignerField(x, p_axis, values, meta)


def _key_sums(coefficients: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The coefficient pairs summed by key and folded onto keys k >= 0: (2, 2, levels, 2 n_max + 1).

    P[n, k] = sum_m conj(a_n) a_m ([n + m = k] - [n - m = k]) over the keys
    -2 n_max..2 n_max. M- is M+ with the keys negated, so its sums are
    P[n, -k]; on k >= 0, P[n, k] = c[n, k - n] - c[n, n - k] and
    P[n, -k] = -c[n, n + k] with c[n, m] = conj(a_n) a_m, read as 0 outside
    the level range. So S = P[k] + P[-k] and D = P[k] - P[-k] are gathered
    through `index` of `_tables`, the flat positions of those three pairs,
    and the result is [[Re S, Im S], [-Im D, Re D]]: the left factors of the
    even and of the odd reciprocals of `_tables`.
    """
    levels = len(coefficients)
    c = np.empty(levels * levels + 1, complex)
    c[-1] = 0.0  # the pair outside the level range
    np.multiply(np.conj(coefficients)[:, None], coefficients, out=c[:-1].reshape(levels, levels))
    pos, diff, neg = c[index]  # the pairs with n + m = k, n - m = k and n - m = -k
    pos -= diff  # P[n, k]
    sums = np.empty((2, 2, *index.shape[1:]))
    np.subtract(pos, neg, out=diff)  # S
    sums[0, 0] = diff.real
    sums[0, 1] = diff.imag
    pos += neg  # D
    np.subtract(0.0, pos.imag, out=sums[1, 0])  # +0 where D is 0, as P[-k] - P[k] gives
    sums[1, 1] = pos.real
    return sums


@functools.lru_cache(maxsize=4)
def _tables(nx: int, p_bytes: bytes, n_min: int, n_max: int) -> tuple:
    """Everything a field needs that no state changes, read-only.

    p_bytes is the p axis as float64 bytes, so any p axis of `_field` keys an
    entry. In order: the x axis; [C S], cos and sin(2 pi n L) on the
    ceil(nx/2) near rows with each level's two columns side by side; cos and
    sin(2pL) on the near rows; the (3, levels, 2 n_max + 1) flat positions
    in c of the pairs c[n, k - n], c[n, n - k] and c[n, n + k] that
    `_key_sums` gathers, levels**2 for a pair outside the range; the
    reciprocals 1/(pi (pi k + 2p)) folded onto k >= 0, even (1/k+ + 1/k-,
    with k = 0 once) and odd (1/k+ - 1/k-); the far half's signs of the pair
    sums, (-1)^k [[1, -1], [-1, 1]]; and the poles of `_key_reciprocals`:
    their |key|, sign(key) and p column, and cos and sin(pi k L) times their
    reach over pi.
    """
    x = np.linspace(0.0, 1.0, nx)
    half = x[: (nx + 1) // 2]
    n = np.arange(n_min, n_max + 1)
    cs = np.stack(_cos_sin(half, 2.0 * math.pi * n), axis=-1)
    p_axis = np.frombuffer(p_bytes)
    recip, keys, cols, pole_cos, pole_sin = _key_reciprocals(n_max, p_axis, half)
    pos, neg = recip[2 * n_max :], recip[2 * n_max :: -1]
    folded = np.empty((2, *pos.shape))
    np.add(pos, neg, out=folded[0])
    folded[0, 0] = pos[0]
    np.subtract(pos, neg, out=folded[1])
    folded /= math.pi
    k = np.arange(2 * n_max + 1)
    # The level index m - n_min of the pairs with n + m = k, n - m = k and n - m = -k.
    m = np.stack([k - n[:, None], n[:, None] - k, n[:, None] + k]) - n_min
    index = np.where((m >= 0) & (m < len(n)), np.arange(len(n))[:, None] * len(n) + m, len(n) ** 2)
    tables = (
        x,
        cs.reshape(len(half), -1),
        *_cos_sin(half, 2.0 * p_axis),
        index,
        folded,
        np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None, None] * (1.0 - 2.0 * (k % 2)),
        np.abs(keys),
        np.sign(keys).astype(float),
        cols,
        pole_cos / math.pi,
        pole_sin / math.pi,
    )
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _key_reciprocals(n_max: int, p_axis: np.ndarray, half: np.ndarray) -> tuple:
    """1/(pi k + 2p) over keys k = -2 n_max..2 n_max (rows) and p_axis (columns), and its poles.

    Entries within POLE_GAP of a pole are zero; keys lie pi apart, so no
    momentum sits within POLE_GAP of two of them. Returns the reciprocals,
    each pole's key and p column, and cos and sin(pi k L) times its reach
    sin((pi k + 2p) L)/(pi k + 2p) = L sinc on the near rows `half`
    (rows x poles): the pair terms of that key at that momentum are summed
    directly with these.
    """
    keys = np.arange(-2 * n_max, 2 * n_max + 1)
    denom = math.pi * keys[:, None] + 2.0 * p_axis
    pole = np.abs(denom) < POLE_GAP
    rows, cols = np.nonzero(pole)
    reach = half[:, None] * np.sinc(half[:, None] * denom[rows, cols] / math.pi)
    pole_cos, pole_sin = _cos_sin(half, math.pi * keys[rows])
    recip = np.divide(1.0, denom, out=np.zeros_like(denom), where=~pole)
    return recip, keys[rows], cols, pole_cos * reach, pole_sin * reach


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


def marginal_errors(f: WignerField, state: EigenExpansion) -> tuple[float, float]:
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
    phi = fourier_amplitude(state.coefficients, state.n_values, f.p_axis)
    p_marginal = trapezoid_weights(f.x_axis) @ f.values
    p_err = float(np.max(np.abs(p_marginal - np.abs(phi) ** 2)))
    return x_err, p_err


def fringe_spacing(state: EigenExpansion) -> float | None:
    """Interference fringe wavelength along x at p ~ 0.

    Reads the column of the default `wigner` grid nearest p = 0, built alone
    by `_field` on that one momentum. Returns twice the mean gap between
    consecutive zero crossings of W(x, ~0) within +/- FRINGE_WINDOW of the
    box midpoint x = 1/2, or None when fewer than two crossings exist (no
    resolvable fringes). At the two-copy instants the copies sit at x_bar
    and 1 - x_bar, so their fringes lie around 1/2 wherever the packet
    started. The default p axis obeys `_check_reach` like any other.
    """
    p_max = default_p_max(state.packet)
    _check_reach(state.packet, p_max)
    p_axis = np.linspace(-p_max, p_max, DEFAULT_GRID)
    column = _field(state, DEFAULT_GRID, p_axis[[np.argmin(np.abs(p_axis))]])
    x, w = column.x_axis, column.values[:, 0]
    mask = np.abs(x - 0.5) <= FRINGE_WINDOW
    x, w = x[mask], w[mask]
    flips = np.nonzero(np.sign(w[:-1]) * np.sign(w[1:]) < 0)[0]
    if len(flips) < 2:
        return None
    crossings = x[flips] + w[flips] / (w[flips] - w[flips + 1]) * (x[flips + 1] - x[flips])
    return 2.0 * float(np.mean(np.diff(crossings)))
