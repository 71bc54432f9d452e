"""Sub-Planck structure diagnostics: action A = dx * dp and dimension a = 1/A.

dx is the exact standard deviation of the evolved state's position density on
[0, 1], dp that of its momentum density on default_momentum_grid (|p| <=
|p_bar| + 8/delta_x) by trapezoid sums (hbar units, so the Heisenberg floor is
A >= 0.5). Both are quadratic forms c G_k conj(c) of the coefficient vector c
whose matrices G_k depend only on the packet and its level range, so they are
built once and cached; a report then costs one evolve and a few (levels x
levels) products, with no grid. The optional fringe spacing, read by
`wigner.fringe_spacing` from the default Wigner grid's column nearest p = 0, is
reported alongside the moment-based value, never mixed into it. The sensitivity
curve is read from `sensitivity_reports`: each report's q_squared with delta =
a_q / a(q2=0, t=0.25).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import trapezoid_weights
from .spectrum import SystemConfig, _check_quartic_clock
from .wavepacket import (
    EigenExpansion,
    PacketSpec,
    _momentum_modes,
    _warn_past_turnover,
    default_momentum_grid,
    evolve,
    expand,
)
from .wigner import fringe_spacing

SHORT_TIME = 0.25  # quarter of the revival time, where the two-way cat forms

MODES = ("short_time", "super_revival")


@dataclass(frozen=True)
class SubPlanckReport:
    """Moment-based phase-space measurements of one evolved state."""

    time: float
    q_squared: float
    delta_x_eff: float
    delta_p_eff: float
    action_A: float
    fringe_spacing: float | None = None

    @property
    def dim_a(self) -> float:
        return 1.0 / self.action_A


def subplanck_dimension(
    packet: PacketSpec,
    cfg: SystemConfig,
    t: float,
    with_fringe: bool = False,
    expansion: EigenExpansion | None = None,
) -> SubPlanckReport:
    """Evolve the packet to t and measure dx, dp, A = dx dp and a = 1/A.

    expansion, if given, replaces expand(packet, cfg), its packet included; its
    coefficients do not depend on q2, so one serves every strength with the same truncation.
    """
    if expansion is None:
        expansion = expand(packet, cfg)
    state = evolve(expansion, t, cfg)
    x_forms, p_forms = _moment_forms(state.packet, state.n_min, state.n_max)
    dx_eff = _form_std(x_forms, state.coefficients)
    dp_eff = _form_std(p_forms, state.coefficients)
    return SubPlanckReport(
        time=t,
        q_squared=cfg.q_squared,
        delta_x_eff=dx_eff,
        delta_p_eff=dp_eff,
        action_A=dx_eff * dp_eff,
        fringe_spacing=fringe_spacing(state) if with_fringe else None,
    )


@functools.lru_cache(maxsize=8)
def _moment_forms(packet: PacketSpec, n_min: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Moment forms of the position and momentum densities, read-only.

    Each is a (3, levels, levels) stack G_k, k = 0, 1, 2: the k-th moment of
    |psi|^2 = |sum_n c_n M_n|^2 about the axis midpoint is c G_k conj(c).
    Position, exact: G_k[n, m] = I_k(|n - m|) - I_k(n + m) for M_n =
    sqrt(2) sin(n pi x) on [0, 1]. Momentum: sum_j w_j p_j^k M_n(p_j)
    conj(M_m(p_j)), trapezoid weights w_j on the symmetric default_momentum_grid,
    M_n the closed-form transform of level n. Neither depends on q2 or t.
    """
    n = np.arange(n_min, n_max + 1)
    x_forms = _cosine_moments(abs(n[:, None] - n)) - _cosine_moments(n[:, None] + n)
    p_grid = default_momentum_grid(packet)
    # The modes of fourier_amplitude, uncached: these forms are cached themselves.
    modes = _momentum_modes.__wrapped__(n.astype(float).tobytes(), p_grid.tobytes())
    p_modes = (-1j / math.sqrt(math.pi)) * modes
    weights = trapezoid_weights(p_grid)
    adjoint = p_modes.conj().T
    p_forms = np.array([(p_modes * (weights * p_grid**k)) @ adjoint for k in range(3)])
    for forms in (x_forms, p_forms):
        forms.setflags(write=False)
    return x_forms, p_forms


def _cosine_moments(j: np.ndarray) -> np.ndarray:
    """I_k(j) = integral_0^1 (x - 1/2)^k cos(j pi x) dx, k = 0, 1, 2, on a new first axis."""
    zero, odd = j == 0, j % 2 == 1
    scale = np.where(zero, 0.0, 2.0 / (math.pi * np.maximum(j, 1)) ** 2)
    return np.array([zero * 1.0, np.where(odd, -scale, 0.0), np.where(odd, 0.0, scale) + zero / 12])


def _form_std(forms: np.ndarray, coefficients: np.ndarray) -> float:
    """Standard deviation of the density whose moments are the forms at these coefficients."""
    norm, first, second = ((forms @ coefficients.conj()) @ coefficients).real
    mean = first / norm
    return math.sqrt(max(second / norm - mean * mean, 0.0))


def evaluation_time(q2: float, mode: str) -> float:
    """Evaluation instant for a sensitivity point: 0.25 or t_sr4 / 4."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES} (got {mode!r})")
    if mode == "short_time":
        return SHORT_TIME
    if q2 <= 0.0:
        raise ValueError("super_revival mode requires q2 > 0")
    _check_quartic_clock(q2)
    return 1.0 / (4.0 * q2)


def sensitivity_reports(
    packet: PacketSpec,
    q2_list,
    mode: str,
    base_cfg: SystemConfig | None = None,
    with_fringe: bool = False,
) -> list[tuple[SubPlanckReport, float]]:
    """Reports plus ratios delta = a_q / a(q2=0, t=0.25), sorted by q2.

    In super_revival mode the q2 = 0 entry is skipped (its super-revival time
    does not exist), and a list with no other entry is a ValueError.
    with_fringe adds the fringe spacing to every report.
    """
    points = [float(q2) for q2 in sorted(q2_list) if not (mode == "super_revival" and q2 == 0.0)]
    if mode == "super_revival" and not points:
        raise ValueError("super_revival mode requires at least one q2 > 0")
    base = replace(base_cfg if base_cfg is not None else SystemConfig(), q_squared=0.0)
    expansion = expand(packet, base)
    reference = subplanck_dimension(packet, base, SHORT_TIME, expansion=expansion)
    out = []
    for q2 in points:
        cfg = replace(base, q_squared=q2)
        _warn_past_turnover(expansion, cfg)
        report = subplanck_dimension(
            packet, cfg, evaluation_time(q2, mode), with_fringe, expansion
        )
        out.append((report, report.dim_a / reference.dim_a))
    return out
