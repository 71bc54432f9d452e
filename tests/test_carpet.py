"""Space-time carpet contracts: norms, symmetries, centroid dynamics."""

import numpy as np
import pytest

from boxrevive import (
    Field2D,
    PacketSpec,
    SystemConfig,
    carpet,
    centroid_trace,
    evolve,
    position_density,
    time_scales,
)
from boxrevive.carpet import count_maxima, dominant_period


@pytest.fixture(scope="module")
def carpet0(ref_packet, cfg0):
    return carpet(ref_packet, cfg0, (0.0, 0.5), nt=256, nx=512)


@pytest.fixture(scope="module")
def carpet_moderate(ref_packet, cfg_moderate):
    with pytest.warns(UserWarning):
        return carpet(ref_packet, cfg_moderate, (0.0, 0.5), nt=512, nx=512)


class TestCarpet:
    def test_rows_integrate_to_captured_norm(self, carpet0):
        norms = np.trapezoid(carpet0.values, carpet0.axis2, axis=1)
        assert np.max(np.abs(norms - carpet0.meta["captured_norm"])) < 1e-4

    def test_half_revival_row_matches_initial_row(self, carpet0):
        x = carpet0.axis2
        diff = carpet0.values[-1] - carpet0.values[0]
        assert np.sqrt(np.trapezoid(diff**2, x)) < 1e-3

    def test_parity_symmetry_at_exact_times(self, carpet0):
        # x_bar = 0.5 packets: values(t, x) = values(t, 1 - x) at t = 0 and 0.5.
        for row in (carpet0.values[0], carpet0.values[-1]):
            assert np.max(np.abs(row - row[::-1])) < 1e-6

    def test_degenerate_single_row(self, ref_packet, cfg0, exp0):
        for window in ((0.1, 0.5), (0.3, 0.3)):
            field = carpet(ref_packet, cfg0, window, nt=1, nx=256)
            assert field.values.shape == (1, 256)
            assert field.axis1.tolist() == [window[0]]
            want = position_density(evolve(exp0, window[0], cfg0), field.axis2)
            assert np.array_equal(field.values[0], want)

    def test_downsampling_consistency(self, ref_packet, cfg0):
        coarse = carpet(ref_packet, cfg0, (0.0, 0.2), nt=17, nx=128)
        fine = carpet(ref_packet, cfg0, (0.0, 0.2), nt=33, nx=128)
        assert np.max(np.abs(fine.values[::2] - coarse.values)) < 1e-12

    def test_values_nonnegative(self, carpet_moderate):
        assert np.min(carpet_moderate.values) >= 0.0

    def test_rejects_bad_windows(self, ref_packet, cfg0):
        with pytest.raises(ValueError):
            carpet(ref_packet, cfg0, (0.5, 0.2), nt=8, nx=64)
        with pytest.raises(ValueError):
            carpet(ref_packet, cfg0, (-0.1, 0.2), nt=8, nx=64)
        with pytest.raises(ValueError):
            carpet(ref_packet, cfg0, (0.0, 0.5), nt=8, nx=1)

    def test_window_rejected_by_name(self, ref_packet, cfg0, bad_window):
        with pytest.raises(ValueError, match="time window"):
            carpet(ref_packet, cfg0, bad_window, nt=2, nx=64)


class TestCentroid:
    def test_initial_centroid_at_packet_mean(self, carpet0):
        trace = centroid_trace(carpet0)
        assert abs(trace[0] - 0.5) < 1e-3

    def test_cat_time_centroid_at_center(self, carpet0):
        trace = centroid_trace(carpet0)
        i = np.argmin(np.abs(carpet0.axis1 - 0.25))
        assert abs(trace[i] - 0.5) < 1e-3

    def test_zero_norm_row_rejected(self):
        field = Field2D(
            np.array([0.0, 1.0]),
            np.linspace(0.0, 1.0, 8),
            np.vstack([np.ones(8), np.zeros(8)]),
        )
        with pytest.raises(ValueError):
            centroid_trace(field)

    def test_bounce_period_follows_shifted_classical_time(
        self, carpet_moderate, cfg_moderate
    ):
        trace = centroid_trace(carpet_moderate)
        ts = time_scales(16, cfg_moderate)
        period = dominant_period(carpet_moderate.axis1, trace)
        assert abs(period - ts.t_cl_bar) / ts.t_cl_bar < 0.02

    def test_bounce_count_matches_shifted_period(self, carpet_moderate, cfg_moderate):
        trace = centroid_trace(carpet_moderate)
        ts = time_scales(16, cfg_moderate)
        count = count_maxima(trace)
        assert abs(count - 0.5 / ts.t_cl_bar) <= 1.0
