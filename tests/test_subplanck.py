"""Sub-Planck action / dimension measurements and sensitivity curves."""

import math
import warnings

import numpy as np
import pytest

from boxrevive import (
    PacketSpec,
    SystemConfig,
    evolve,
    expand,
    fringe_spacing,
    sensitivity_curve,
    subplanck_dimension,
    wigner,
    wigner_column,
)
from boxrevive.subplanck import SHORT_TIME, SubPlanckReport, evaluation_time

Q2_GRID = [0.0, 2e-6, 4e-6, 8e-6, 1e-5]  # 1/(4 q2) integer for each q2 > 0


class TestSingleReport:
    def test_minimum_uncertainty_at_start(self, ref_packet, cfg0):
        report = subplanck_dimension(ref_packet, cfg0, 0.0)
        assert report.action_A == pytest.approx(0.5, abs=1e-4)
        assert report.dim_a == pytest.approx(2.0, abs=4e-4)

    def test_cat_action_and_dimension(self, ref_packet, cfg0):
        report = subplanck_dimension(ref_packet, cfg0, 0.25)
        assert report.action_A == pytest.approx(3.57, rel=0.15)
        assert report.dim_a == pytest.approx(0.28, rel=0.15)

    def test_weak_relativistic_dimension(self, ref_packet, cfg_weak):
        report = subplanck_dimension(ref_packet, cfg_weak, 0.25)
        assert report.dim_a == pytest.approx(0.17, rel=0.15)

    def test_reciprocal_identity(self, ref_packet, cfg0):
        report = subplanck_dimension(ref_packet, cfg0, 0.37)
        assert report.dim_a * report.action_A == pytest.approx(1.0, rel=1e-12)

    def test_reciprocal_identity_enforced_by_type(self):
        with pytest.raises(ValueError):
            SubPlanckReport(
                time=0.0, q_squared=0.0, delta_x_eff=0.1, delta_p_eff=5.0,
                action_A=0.5, dim_a=3.0,
            )

    def test_heisenberg_floor(self, ref_packet, cfg0, cfg_weak):
        for cfg, t in ((cfg0, 0.0), (cfg0, 0.25), (cfg_weak, 0.25), (cfg_weak, 0.1)):
            assert subplanck_dimension(ref_packet, cfg, t).action_A >= 0.5

    def test_fringe_measurement_attached_on_request(self, ref_packet, cfg0):
        report = subplanck_dimension(ref_packet, cfg0, 0.25, with_fringe=True)
        assert report.fringe_spacing == pytest.approx(math.pi / 50.0, rel=0.10)


class TestEvaluationTime:
    def test_short_time(self):
        assert evaluation_time(1e-5, "short_time") == 0.25

    def test_super_revival_quarter(self):
        assert evaluation_time(1e-5, "super_revival") == pytest.approx(25000.0, rel=1e-9)

    def test_super_revival_needs_positive_strength(self):
        with pytest.raises(ValueError):
            evaluation_time(0.0, "super_revival")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            evaluation_time(1e-5, "sideways")


class TestSensitivityCurve:
    def test_short_time_reference_point(self, ref_packet):
        curve = dict(sensitivity_curve(ref_packet, [0.0], "short_time"))
        assert curve[0.0] == pytest.approx(1.0, rel=1e-12)

    def test_short_time_curve_falls_monotonically(self, ref_packet):
        curve = sensitivity_curve(ref_packet, Q2_GRID, "short_time")
        deltas = [d for _, d in curve]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] == pytest.approx(0.61, abs=0.1)

    def test_super_revival_curve_flat_at_commensurate_points(self, ref_packet):
        # Super-revival quarters rebuild the cat (mirrored) whenever 1/(4 q2)
        # lands on an integer number of revival periods; the moment-based
        # dimension is then indistinguishable from the unperturbed one.
        curve = sensitivity_curve(ref_packet, Q2_GRID, "super_revival")
        assert [q for q, _ in curve] == [q for q in Q2_GRID if q > 0.0]
        for _, delta in curve:
            assert delta == pytest.approx(1.0, abs=0.05)

    def test_super_revival_breaks_at_incommensurate_point(self, ref_packet):
        # 1/(4 q2) = 125000/3 for q2 = 6e-6: the quadratic clock sits at a
        # two-thirds fractional revival there and splits the cat further, so
        # the measured dimension drops well below the unperturbed value.
        (_, delta), = sensitivity_curve(ref_packet, [6e-6], "super_revival")
        assert delta < 0.5

    def test_pairs_sorted_by_strength(self, ref_packet):
        curve = sensitivity_curve(ref_packet, [1e-5, 2e-6, 8e-6], "short_time")
        qs = [q for q, _ in curve]
        assert qs == sorted(qs)


class TestFringeColumn:
    """The fringe spacing reads one column, the one nearest p = 0 of the
    default 256 x 256 field, instead of building the whole field."""

    @pytest.mark.parametrize("q2", [0.0, 6e-6, 1e-5, 5e-4])
    def test_column_and_spacing_match_the_whole_field(self, ref_packet, q2):
        cfg = SystemConfig(q2)
        t = evaluation_time(q2, "super_revival") if q2 else SHORT_TIME
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # basis passes 0.7 n* at q2 = 5e-4
            state = evolve(expand(ref_packet, cfg), t, cfg)
            report = subplanck_dimension(ref_packet, cfg, t, with_fringe=True)
        field = wigner(state)
        col = int(np.argmin(np.abs(field.p_axis)))
        column = wigner_column(state, field.p_axis[col])
        assert np.max(np.abs(column.values[:, 0] - field.values[:, col])) <= 1e-12
        expected = fringe_spacing(field, ref_packet.x_bar)
        assert expected is not None
        assert report.fringe_spacing == pytest.approx(expected, rel=1e-9)
