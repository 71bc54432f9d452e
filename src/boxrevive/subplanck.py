"""Sub-Planck structure diagnostics: action A = dx * dp and dimension a = 1/A.

dx and dp are the standard deviations of the evolved state's position density
on DEFAULT_X_POINTS points of [0, 1] and of its momentum density on
default_momentum_grid (|p| <= |p_bar| + 8/delta_x), each from trapezoid sums
(hbar units, so the Heisenberg floor is A >= 0.5). Those sums are quadratic
forms c G_k conj(c) of the coefficient vector c. The matrices G_k depend only
on the packet and its level range, so they are built once and cached; a report
then costs one evolve and a few (levels x levels) products, with no grid. The
optional fringe-spacing estimate is read from `wigner.fringe_column`, the
Wigner slice nearest p = 0 that `wigner` chooses, and is reported alongside
the moment-based value, never mixed into it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import trapezoid_weights
from .spectrum import SystemConfig, _mode_matrix
from .wavepacket import (
    DEFAULT_X_POINTS,
    EigenExpansion,
    PacketSpec,
    _check_coverage,
    _warn_past_turnover,
    default_momentum_grid,
    evolve,
    expand,
    fourier_amplitude,
)
from .wigner import fringe_column, fringe_spacing

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

    expansion, if given, must be the packet's; its coefficients do not depend
    on q2, so one expansion serves every strength with the same truncation.
    """
    if expansion is None:
        expansion = expand(packet, cfg)
    state = evolve(expansion, t, cfg)
    x_forms, p_forms = _moment_forms(packet, expansion.n_min, expansion.n_max)
    dx_eff = _form_std(x_forms, state.expansion.coefficients)
    dp_eff = _form_std(p_forms, state.expansion.coefficients)
    action = dx_eff * dp_eff
    spacing = None
    if with_fringe:
        spacing = fringe_spacing(fringe_column(state), packet.x_bar)
    return SubPlanckReport(
        time=t,
        q_squared=cfg.q_squared,
        delta_x_eff=dx_eff,
        delta_p_eff=dp_eff,
        action_A=action,
        fringe_spacing=spacing,
    )


@functools.lru_cache(maxsize=8)
def _moment_forms(packet: PacketSpec, n_min: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid moment forms of the position and momentum densities, read-only.

    Each is a (3, levels, levels) stack G_k[n, m] = sum_j w_j g_j^k M_n(g_j)
    conj(M_m(g_j)), k = 0, 1, 2, over trapezoid weights w_j on a grid g_j
    measured from its midpoint, so the k-th moment of |psi|^2 = |sum_n c_n M_n|^2
    is c G_k conj(c). Position: M_n = sqrt(2) sin(n pi x) on DEFAULT_X_POINTS
    points of [0, 1]; momentum: the closed-form transform of level n on
    default_momentum_grid(packet). They depend on neither q2 nor t.
    """
    n_values = np.arange(n_min, n_max + 1)
    x_grid = np.linspace(0.0, 1.0, DEFAULT_X_POINTS)
    p_grid = default_momentum_grid(packet)
    _check_coverage(packet, p_grid)
    x_modes = _mode_matrix(n_values, x_grid)
    p_modes = fourier_amplitude(np.eye(len(n_values)), n_values, p_grid)
    return _trapezoid_forms(x_grid, x_modes), _trapezoid_forms(p_grid, p_modes)


def _trapezoid_forms(axis: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """The stack G_0, G_1, G_2 of `_moment_forms` for modes sampled on axis."""
    weights = trapezoid_weights(axis)
    centred = axis - 0.5 * (axis[0] + axis[-1])
    adjoint = modes.conj().T
    forms = np.array([(modes * (weights * centred**k)) @ adjoint for k in range(3)])
    forms.setflags(write=False)
    return forms


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


def sensitivity_curve(packet: PacketSpec, q2_list, mode: str) -> list[tuple[float, float]]:
    """Pairs (q2, delta) with delta = a_q / a(q2=0, t=0.25), sorted by q2, on SystemConfig()."""
    return [(r.q_squared, d) for r, d in sensitivity_reports(packet, q2_list, mode)]
