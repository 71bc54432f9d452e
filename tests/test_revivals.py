"""Fractional revival prediction and fidelity-scan detection."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxrevive import (
    SystemConfig,
    autocorrelation,
    enumerate_fractional,
    fidelity_scan,
)


class TestEnumeration:
    def test_quarter_point(self, cfg_moderate):
        preds = enumerate_fractional(16, cfg_moderate, 4)
        quarter = next(p for p in preds if (p.r2, p.s2) == (1, 4))
        assert quarter.time == pytest.approx(500.0, rel=1e-12)
        assert (quarter.r1, quarter.s1) == (16, 1)

    def test_half_point(self, cfg_moderate):
        preds = enumerate_fractional(16, cfg_moderate, 4)
        half = next(p for p in preds if (p.r2, p.s2) == (1, 2))
        assert (half.r1, half.s1) == (32, 1)
        assert half.time == pytest.approx(1000.0, rel=1e-12)

    def test_sorted_and_distinct(self, cfg_moderate):
        times = [p.time for p in enumerate_fractional(16, cfg_moderate, 6)]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_rejects_quadratic_spectrum(self, cfg0):
        with pytest.raises(ValueError):
            enumerate_fractional(16, cfg0, 4)

    def test_rejects_small_smax(self, cfg_moderate):
        with pytest.raises(ValueError):
            enumerate_fractional(16, cfg_moderate, 1)

    @given(
        n_bar=st.integers(1, 40),
        s_max=st.integers(2, 8),
        q2=st.sampled_from([1e-6, 1e-5, 2.5e-4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_fraction_pairs_are_exact_and_coprime(self, n_bar, s_max, q2):
        preds = enumerate_fractional(n_bar, SystemConfig(q2), s_max)
        for p in preds:
            assert math.gcd(p.r1, p.s1) == 1
            assert math.gcd(p.r2, p.s2) == 1
            assert p.s2 <= s_max and 0 < p.r2 < p.s2
            # both clock conditions name the same instant, exactly
            assert Fraction(p.r1, p.s1) == Fraction(p.r2, p.s2) * 4 * n_bar


class TestFidelityScan:
    def test_exact_revival_peak(self, ref_packet, cfg0, exp0):
        scan = fidelity_scan(ref_packet, cfg0, (0.9, 1.1), 401, expansion=exp0)
        assert len(scan.peaks) == 1
        t_peak, v_peak = scan.peaks[0]
        assert t_peak == pytest.approx(1.0, abs=1e-6)
        assert v_peak == pytest.approx(scan.captured_norm, abs=1e-4)

    def test_rejects_degenerate_scan(self, ref_packet, cfg0):
        with pytest.raises(ValueError):
            fidelity_scan(ref_packet, cfg0, (0.0, 1.0), 2)

    def test_window_rejected_by_name(self, ref_packet, cfg0, exp0, bad_window):
        with pytest.raises(ValueError, match="time window"):
            fidelity_scan(ref_packet, cfg0, bad_window, 11, expansion=exp0)

    def test_super_revival_peak(self, ref_packet, cfg_moderate, exp_moderate):
        scan = fidelity_scan(
            ref_packet, cfg_moderate, (1990.0, 2010.0), 2001, expansion=exp_moderate
        )
        i = int(np.argmax(scan.values))
        assert abs(scan.times[i] - 2000.0) < 0.5
        assert scan.values[i] > 0.999 * scan.captured_norm

    def test_integer_inverse_strength_gives_exact_recurrence(
        self, exp_moderate, cfg_moderate
    ):
        value = abs(autocorrelation(exp_moderate, 2000.0, cfg_moderate))
        assert abs(value - exp_moderate.captured_norm) < 1e-10

    def test_predicted_times_coincide_with_local_maxima(
        self, ref_packet, cfg_moderate, exp_moderate
    ):
        """Every enumerated quartic-clock fraction with s2 <= 4 lands on a
        local maximum of |A| within one scan step."""
        preds = enumerate_fractional(16, cfg_moderate, 4)
        for pred in preds:
            scan = fidelity_scan(
                ref_packet,
                cfg_moderate,
                (pred.time - 0.05, pred.time + 0.05),
                401,
                expansion=exp_moderate,
            )
            step = scan.times[1] - scan.times[0]
            v = scan.values
            local_max = [
                scan.times[i]
                for i in range(1, len(v) - 1)
                if v[i] > v[i - 1] and v[i] >= v[i + 1]
            ]
            assert local_max, f"no local maxima near t = {pred.time}"
            assert min(abs(t - pred.time) for t in local_max) <= step

    def test_peak_refinement_is_step_consistent(self, ref_packet, cfg0, exp0):
        # Halving the scan step moves the refined revival peak by less than
        # the coarse step squared (quadratic convergence of the parabola fit).
        coarse = fidelity_scan(ref_packet, cfg0, (0.95, 1.05), 501, expansion=exp0)
        fine = fidelity_scan(ref_packet, cfg0, (0.95, 1.05), 1001, expansion=exp0)
        t_coarse = coarse.peaks[0][0]
        t_fine = fine.peaks[0][0]
        step = coarse.times[1] - coarse.times[0]
        assert abs(t_fine - t_coarse) < step**2

    def test_weak_strength_peak_location(self, ref_packet, cfg_weak, exp_weak):
        # The strongest recurrence in [0.9, 1.1] is the classical alignment
        # nearest the shifted revival time, not the shifted time itself.
        scan = fidelity_scan(ref_packet, cfg_weak, (0.9, 1.1), 2001, expansion=exp_weak)
        assert len(scan.peaks) == 1
        t_peak, v_peak = scan.peaks[0]
        e_prime = 2 * 16 - 4 * cfg_weak.q_squared * 16**3
        assert t_peak == pytest.approx(32.0 / e_prime, abs=2e-4)
        assert v_peak > 0.9
