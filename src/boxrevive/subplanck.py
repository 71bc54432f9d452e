"""Sub-Planck structure diagnostics: action A = dx * dp and dimension a = 1/A.

The action is estimated from the second moments of the position and momentum
densities of the evolved state (hbar units, so the Heisenberg floor is
A >= 0.5). The optional fringe-spacing estimate from the Wigner slice is
reported alongside the moment-based value and never mixed into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spectrum import SystemConfig
from .wavepacket import (
    DEFAULT_X_POINTS,
    PacketSpec,
    default_momentum_grid,
    evolve,
    expand,
    momentum_amplitude,
    position_density,
    trapezoid_mean_std,
)
from .wigner import DEFAULT_GRID, default_p_max, fringe_spacing, wigner_column

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
    dim_a: float
    fringe_spacing: float | None = None

    def __post_init__(self):
        if not math.isclose(self.dim_a * self.action_A, 1.0, rel_tol=1e-12):
            raise ValueError("dim_a must be the exact reciprocal of action_A")


def subplanck_dimension(
    packet: PacketSpec,
    cfg: SystemConfig,
    t: float,
    with_fringe: bool = False,
) -> SubPlanckReport:
    """Evolve the packet to t and measure dx, dp, A = dx dp and a = 1/A."""
    state = evolve(expand(packet, cfg), t, cfg)

    x_grid = np.linspace(0.0, 1.0, DEFAULT_X_POINTS)
    _, dx_eff = trapezoid_mean_std(x_grid, position_density(state, x_grid))

    p_grid = default_momentum_grid(packet)
    phi = momentum_amplitude(state, p_grid)
    _, dp_eff = trapezoid_mean_std(p_grid, np.abs(phi) ** 2)

    action = dx_eff * dp_eff
    spacing = None
    if with_fringe:
        spacing = fringe_spacing(wigner_column(state, _fringe_momentum(packet)), packet.x_bar)
    return SubPlanckReport(
        time=t,
        q_squared=cfg.q_squared,
        delta_x_eff=dx_eff,
        delta_p_eff=dp_eff,
        action_A=action,
        dim_a=1.0 / action,
        fringe_spacing=spacing,
    )


def _fringe_momentum(packet: PacketSpec) -> float:
    """The momentum nearest 0 on the default grid of `wigner`, where fringes are read."""
    p_max = default_p_max(packet)
    p_axis = np.linspace(-p_max, p_max, DEFAULT_GRID)
    return float(p_axis[np.argmin(np.abs(p_axis))])


def evaluation_time(q2: float, mode: str) -> float:
    """Evaluation instant for a sensitivity point: 0.25 or t_sr4 / 4."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES} (got {mode!r})")
    if mode == "short_time":
        return SHORT_TIME
    if q2 <= 0.0:
        raise ValueError("super_revival mode requires q2 > 0")
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
    does not exist). with_fringe adds the fringe spacing to every report.
    """
    base = base_cfg if base_cfg is not None else SystemConfig()
    reference = subplanck_dimension(packet, replace(base, q_squared=0.0), SHORT_TIME)
    out = []
    for q2 in sorted(q2_list):
        if mode == "super_revival" and q2 == 0.0:
            continue
        cfg = replace(base, q_squared=float(q2))
        report = subplanck_dimension(
            packet, cfg, evaluation_time(float(q2), mode), with_fringe
        )
        out.append((report, report.dim_a / reference.dim_a))
    return out


def sensitivity_curve(
    packet: PacketSpec,
    q2_list,
    mode: str,
    base_cfg: SystemConfig | None = None,
) -> list[tuple[float, float]]:
    """Pairs (q2, delta) with delta = a_q / a(q2=0, t=0.25), sorted by q2."""
    return [(r.q_squared, d) for r, d in sensitivity_reports(packet, q2_list, mode, base_cfg)]
