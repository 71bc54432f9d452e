"""Sub-Planck action / dimension measurements and sensitivity curves."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxrevive import (
    PacketSpec,
    PerturbativeValidityWarning,
    SystemConfig,
    default_momentum_grid,
    evolve,
    expand,
    fringe_spacing,
    momentum_amplitude,
    position_density,
    sensitivity_reports,
    subplanck_dimension,
)
from boxrevive.subplanck import MODES, SHORT_TIME, _moment_forms, evaluation_time
from boxrevive.wavepacket import _momentum_modes
from fringes import crossing_spacing, per_pair_zero_column
from moments import trapezoid_mean_std

Q2_GRID = [0.0, 2e-6, 4e-6, 8e-6, 1e-5]  # 1/(4 q2) integer for each q2 > 0
# Gauss-Legendre nodes of the dx oracle: they integrate the position density,
# whose highest harmonic is cos(2 n_max pi x), to rounding at every level range
# these tests expand (n_max below 100).
GAUSS_NODES = 600


def quadrature_widths(packet, cfg, t):
    """Oracle: dx by Gauss-Legendre quadrature of the position density on [0, 1]
    (no grid of the library's), dp as trapezoid moments of the momentum density
    on the report's grid."""
    state = evolve(expand(packet, cfg), t, cfg)
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
    x, w = (nodes + 1.0) / 2.0, weights / 2.0
    rho = position_density(state, x)
    norm = w @ rho
    mean = w @ (x * rho) / norm
    dx = math.sqrt(w @ ((x - mean) ** 2 * rho) / norm)
    p = default_momentum_grid(packet)
    _, dp = trapezoid_mean_std(p, np.abs(momentum_amplitude(state, p)) ** 2)
    return dx, dp


def width_errors(packet, cfg, t):
    report = subplanck_dimension(packet, cfg, t)
    dx, dp = quadrature_widths(packet, cfg, t)
    return abs(report.delta_x_eff / dx - 1.0), abs(report.delta_p_eff / dp - 1.0)


@st.composite
def report_cases(draw):
    """A packet clear of the walls, a strength and an instant: free, short_time or
    a fraction r/s of the super-revival period 1/q2."""
    packet = PacketSpec(
        x_bar=draw(st.floats(0.4, 0.6)),
        delta_x=draw(st.floats(0.04, 0.1)),
        p_bar=draw(st.floats(-60.0, 60.0)),
    )
    q2 = draw(st.sampled_from([0.0, 2e-6, 6e-6, 1e-5, 1e-4]))
    instants = [st.floats(0.0, 2.0), st.just(SHORT_TIME)]
    if q2:
        fraction = st.sampled_from([(1, 8), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 1)])
        instants.append(fraction.map(lambda rs: rs[0] / (rs[1] * q2)))
    return packet, SystemConfig(q2), draw(st.one_of(instants))


class TestSingleReport:
    def test_minimum_uncertainty_at_start(self, ref_packet, cfg0):
        report = subplanck_dimension(ref_packet, cfg0, 0.0)
        assert report.action_A == pytest.approx(0.5, abs=1e-4)
        assert report.dim_a == pytest.approx(2.0, abs=4e-4)

    def test_cat_action_and_dimension(self, ref_packet, cfg0):
        report = subplanck_dimension(ref_packet, cfg0, 0.25)
        assert report.action_A == pytest.approx(3.57, rel=0.15)
        assert report.dim_a == pytest.approx(0.28, rel=0.15)

    @pytest.mark.parametrize(
        "q2, t", [(0.0, 0.25), (1e-5, 25000.0), (2e-6, 125000.0), (2.0**-11, 512.0)]
    )
    def test_two_copy_cat_matches_its_closed_forms(self, ref_packet, q2, t):
        # At t = 1/4 (q2 = 0) and at t_sr4/4 with 4 | 1/q2 the state is the
        # two-copy momentum cat c+ psi0(x) + c- psi0(1 - x), |c+-|^2 = 1/2. For
        # x_bar = 1/2 both copies share the position density, so dx = dx0/sqrt(2),
        # and the lobes at +-p_bar give dp = sqrt(p_bar^2 + 1/(2 dx0^2)). The
        # misses, 4.14e-8 (dx), 4.6e-10 (dp) and 4.2e-8 (a) at all four
        # instants, are the default truncation (levels 3..31 at epsilon 1e-6);
        # at epsilon 1e-10 all three fall below 1e-11.
        dx0, p_bar = ref_packet.delta_x, ref_packet.p_bar
        dx, dp = dx0 / math.sqrt(2.0), math.sqrt(p_bar**2 + 1.0 / (2.0 * dx0**2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # basis passes 0.7 n* at q2 = 2^-11
            report = subplanck_dimension(ref_packet, SystemConfig(q2), t)
        assert report.delta_x_eff == pytest.approx(dx, rel=1e-7)
        assert report.delta_p_eff == pytest.approx(dp, rel=1e-9)
        assert report.dim_a == pytest.approx(1.0 / (dx * dp), rel=1e-7)
        assert 1.0 / (dx * dp) == pytest.approx(0.28006, abs=5e-6)

    def test_weak_relativistic_dimension(self, ref_packet, cfg_weak):
        report = subplanck_dimension(ref_packet, cfg_weak, 0.25)
        assert report.dim_a == pytest.approx(0.17, rel=0.15)

    def test_reciprocal_identity(self, ref_packet, cfg0):
        report = subplanck_dimension(ref_packet, cfg0, 0.37)
        assert report.dim_a * report.action_A == pytest.approx(1.0, rel=1e-12)

    def test_heisenberg_floor(self, ref_packet, cfg0, cfg_weak):
        for cfg, t in ((cfg0, 0.0), (cfg0, 0.25), (cfg_weak, 0.25), (cfg_weak, 0.1)):
            assert subplanck_dimension(ref_packet, cfg, t).action_A >= 0.5

    def test_fringe_measurement_attached_on_request(self, ref_packet, cfg0):
        report = subplanck_dimension(ref_packet, cfg0, 0.25, with_fringe=True)
        assert report.fringe_spacing == pytest.approx(math.pi / 50.0, rel=0.10)

    def test_fringe_spacing_equal_at_the_two_copy_cat_instants(self, ref_packet):
        # t = 1/4 at q2 = 0 and t_sr4/4 = 1/(4 q2) are both the two-copy
        # momentum cat with the same copy weights, so one estimator reads one
        # spacing. Its fringe is cos(2 p_bar x + phi), of spacing pi/|p_bar|;
        # the estimator reads 7.198e-4 (relative) above that at all three
        # instants, a bias of the estimator itself (one 256-point column,
        # linearly interpolated crossings) whose source is still open.
        instants = ((0.0, 0.25), (1e-5, 25000.0), (2e-6, 125000.0))
        spacings = [
            subplanck_dimension(ref_packet, SystemConfig(q2), t, with_fringe=True).fringe_spacing
            for q2, t in instants
        ]
        assert max(spacings) == pytest.approx(min(spacings), rel=1e-12)
        # Off the box centre the copies sit at 0.4 and 0.6 and the fringes
        # around 1/2, where they are read: 8.03e-4 above pi/|p_bar| at t = 1/4
        # and 7.64e-4 at the other two instants (at t = 1/4, 3.95 % below
        # when read around x_bar).
        off_centre = PacketSpec(0.4, 0.08, 40.0)
        spacings += [
            subplanck_dimension(off_centre, SystemConfig(q2), t, with_fringe=True).fringe_spacing
            for q2, t in instants
        ]
        for spacing, packet in zip(spacings, [ref_packet] * 3 + [off_centre] * 3):
            assert spacing == pytest.approx(math.pi / abs(packet.p_bar), rel=1e-3)

    def test_resting_packet_has_no_fringe(self):
        # One packet at rest: W(x, ~0) is a positive Gaussian ridge with no crossing.
        packet, cfg = PacketSpec(0.5, 0.1, 0.0), SystemConfig(0.0)
        assert fringe_spacing(evolve(expand(packet, cfg), 0.0, cfg)) is None
        assert subplanck_dimension(packet, cfg, 0.0, with_fringe=True).fringe_spacing is None


class TestEvaluationTime:
    def test_short_time(self):
        assert evaluation_time(1e-5, "short_time") == 0.25

    def test_super_revival_quarter(self):
        assert evaluation_time(1e-5, "super_revival") == pytest.approx(25000.0, rel=1e-9)

    def test_super_revival_rejects_q2_whose_super_revival_time_overflows(self):
        # 1/q2 is finite down to the double just above 2^-1024 = 1/DBL_MAX rounded.
        smallest = math.nextafter(2.0**-1024, 1.0)
        assert math.isfinite(evaluation_time(smallest, "super_revival"))
        for q2 in (2.0**-1024, 3e-309, 1e-310, 5e-324):
            with pytest.raises(ValueError, match="t_sr4 = 1/q_squared overflows"):
                evaluation_time(q2, "super_revival")

    def test_super_revival_needs_positive_strength(self):
        with pytest.raises(ValueError):
            evaluation_time(0.0, "super_revival")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            evaluation_time(1e-5, "sideways")


class TestSensitivityCurve:
    def test_short_time_reference_point(self, ref_packet):
        curve = {r.q_squared: d for r, d in sensitivity_reports(ref_packet, [0.0], "short_time")}
        assert curve[0.0] == pytest.approx(1.0, rel=1e-12)

    def test_short_time_curve_falls_monotonically(self, ref_packet):
        deltas = [d for _, d in sensitivity_reports(ref_packet, Q2_GRID, "short_time")]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] == pytest.approx(0.61, abs=0.1)

    def test_super_revival_curve_flat_at_commensurate_points(self, ref_packet):
        # Super-revival quarters rebuild the cat (mirrored) whenever 1/(4 q2)
        # lands on an integer number of revival periods; the moment-based
        # dimension is then indistinguishable from the unperturbed one.
        curve = sensitivity_reports(ref_packet, Q2_GRID, "super_revival")
        assert [r.q_squared for r, _ in curve] == [q for q in Q2_GRID if q > 0.0]
        for _, delta in curve:
            assert delta == pytest.approx(1.0, abs=0.05)

    def test_super_revival_breaks_at_incommensurate_point(self, ref_packet):
        # 1/(4 q2) = 125000/3 for q2 = 6e-6: the quadratic clock sits at a
        # two-thirds fractional revival there and splits the cat further, so
        # the measured dimension drops well below the unperturbed value.
        (_, delta), = sensitivity_reports(ref_packet, [6e-6], "super_revival")
        assert delta < 0.5

    def test_super_revival_needs_a_positive_strength(self, ref_packet):
        with pytest.raises(ValueError, match="at least one q2 > 0"):
            sensitivity_reports(ref_packet, [0.0], "super_revival")

    def test_one_expansion_still_warns_for_each_point_past_the_turnover(self, ref_packet):
        # The reference packet's basis ends at n = 31, past 0.7 n* once q2 > 2.6e-4.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sensitivity_reports(ref_packet, [1e-5, 5e-4, 1e-3], "short_time")
        stars = [re.search(r"n\*=(\S+);", str(w.message)).group(1)
                 for w in caught if issubclass(w.category, PerturbativeValidityWarning)]
        assert stars == ["31.62", "22.36"]

    @pytest.mark.parametrize("mode", MODES)
    def test_curve_reports_equal_standalone_reports(self, ref_packet, mode):
        # A curve expands once and evolves that expansion to each point; a
        # standalone report expands per call. Expansions do not depend on q2,
        # so both read the same state and every field agrees bitwise.
        for report, _ in sensitivity_reports(ref_packet, Q2_GRID, mode, with_fringe=True):
            q2, t = report.q_squared, report.time
            assert report == subplanck_dimension(ref_packet, SystemConfig(q2), t, True)

    def test_pairs_sorted_by_strength(self, ref_packet):
        curve = sensitivity_reports(ref_packet, [1e-5, 2e-6, 8e-6], "short_time")
        qs = [r.q_squared for r, _ in curve]
        assert qs == sorted(qs)


class TestFringeColumn:
    """The fringe spacing reads one column, the one nearest p = 0 of the
    default 256 x 256 field, instead of building the whole field. The
    reference is that column summed pair by pair, which shares no code
    with the kernel."""

    @pytest.mark.parametrize("q2", [0.0, 6e-6, 1e-5, 5e-4])
    def test_column_and_spacing_match_the_whole_field(self, ref_packet, q2):
        cfg = SystemConfig(q2)
        t = evaluation_time(q2, "super_revival") if q2 else SHORT_TIME
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # basis passes 0.7 n* at q2 = 5e-4
            state = evolve(expand(ref_packet, cfg), t, cfg)
            report = subplanck_dimension(ref_packet, cfg, t, with_fringe=True)
        assert report.fringe_spacing == fringe_spacing(state)
        expected = crossing_spacing(*per_pair_zero_column(state), 0.5)
        assert expected is not None
        assert report.fringe_spacing == pytest.approx(expected, rel=1e-9)


class TestMomentForms:
    """dx read from the cached quadratic forms is the exact position moment,
    checked against Gauss-Legendre quadrature; dp is the trapezoid moment of
    the sampled momentum density, summed in another order."""

    @settings(max_examples=60, deadline=None)
    @given(report_cases())
    def test_widths_match_trapezoid_moments(self, case):
        packet, cfg, t = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # wide packets pass 0.7 n* at q2 = 1e-4
            assert max(width_errors(packet, cfg, t)) <= 1e-12

    def test_each_packet_and_level_range_gets_its_own_forms(self):
        # a and b share a level range at eps = 1e-10 but not a momentum grid;
        # a has another level range at the default eps.
        a, b = PacketSpec(0.5, 0.1, 50.0), PacketSpec(0.5, 0.1, 52.0)
        fine, coarse = SystemConfig(1e-5, truncation_epsilon=1e-10), SystemConfig(1e-5)
        levels = {
            (p, c): (e.n_min, e.n_max)
            for p, c in ((a, fine), (b, fine), (a, coarse))
            for e in [expand(p, c)]
        }
        assert levels[(a, fine)] == levels[(b, fine)] != levels[(a, coarse)]
        _moment_forms.cache_clear()
        for packet, cfg in [(a, fine), (b, fine), (a, coarse)] * 2:
            assert max(width_errors(packet, cfg, 0.25)) <= 1e-12
        info = _moment_forms.cache_info()
        assert (info.misses, info.hits) == (3, 3)

    def test_cold_forms_leave_the_momentum_mode_cache_alone(self, ref_packet):
        # The forms are cached themselves, so their modes take no entry of
        # fourier_amplitude's mode cache and make no lookup there.
        e = expand(ref_packet, SystemConfig(1e-5))
        _moment_forms.cache_clear()
        before = _momentum_modes.cache_info()
        _moment_forms(ref_packet, e.n_min, e.n_max)
        assert _moment_forms.cache_info().misses == 1
        assert _momentum_modes.cache_info() == before
