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
    expand,
    fidelity_scan,
)


class TestEnumeration:
    def test_quarter_point(self, cfg_moderate):
        preds = enumerate_fractional(cfg_moderate, 4)
        quarter = next(p for p in preds if (p.r2, p.s2) == (1, 4))
        assert quarter.time == pytest.approx(500.0, rel=1e-12)

    def test_half_point(self, cfg_moderate):
        preds = enumerate_fractional(cfg_moderate, 4)
        half = next(p for p in preds if (p.r2, p.s2) == (1, 2))
        assert half.time == pytest.approx(1000.0, rel=1e-12)

    def test_sorted_and_distinct(self, cfg_moderate):
        times = [p.time for p in enumerate_fractional(cfg_moderate, 6)]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_rejects_quadratic_spectrum(self, cfg0):
        with pytest.raises(ValueError):
            enumerate_fractional(cfg0, 4)

    def test_rejects_small_smax(self, cfg_moderate):
        with pytest.raises(ValueError):
            enumerate_fractional(cfg_moderate, 1)
        with pytest.raises(TypeError):
            enumerate_fractional(cfg_moderate, 4.0)

    @given(
        s_max=st.integers(2, 60),
        q2=st.sampled_from([2.0**-11, 5e-4, 1e-5, 6e-6, 3e-7, 1e-300]),
    )
    @settings(max_examples=40, deadline=None)
    def test_farey_walk_matches_sorted_fraction_set(self, s_max, q2):
        preds = enumerate_fractional(SystemConfig(q2), s_max)
        expected = sorted({Fraction(r, s) for s in range(2, s_max + 1) for r in range(1, s)})
        assert [(p.r2, p.s2) for p in preds] == [
            (f.numerator, f.denominator) for f in expected
        ]
        # sum of Euler's phi(s) over 2 <= s <= s_max
        assert len(preds) == sum(
            sum(math.gcd(r, s) == 1 for r in range(1, s + 1)) for s in range(2, s_max + 1)
        )
        for p in preds:
            # the correctly rounded double of the exact rational (r2/s2)/q2
            assert p.time.hex() == float(Fraction(p.r2, p.s2) / Fraction(q2)).hex()

    def test_rejects_q2_whose_super_revival_time_overflows(self):
        (half,) = enumerate_fractional(SystemConfig(math.nextafter(2.0**-1024, 1.0)), 2)
        assert math.isfinite(half.time)
        for q2 in (2.0**-1024, 1e-310):
            with pytest.raises(ValueError, match="t_sr4 = 1/q_squared overflows"):
                enumerate_fractional(SystemConfig(q2), 2)


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
        preds = enumerate_fractional(cfg_moderate, 4)
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


class TestFractionalStructure:
    """At t = (r/s) t_sr4 with q2 = 2^-14 and s a power of two, t n^2 is an
    integer and t (n^2 - q2 n^4) = -r n^4 / s (mod 1) has period s in n. So
    e^{-2 pi i cycles_n} = sum_k b_k e^{2 pi i k n/s} with b the length-s DFT
    divided by s, the state is at most s copies of the packet, and exactly
    A(t) = sum_k b_k G(k/s) with G(y) = sum_n |a_n|^2 e^{2 pi i y n}."""

    Q2 = Fraction(1, 2**14)

    @pytest.fixture(scope="class")
    def reference(self, ref_packet):
        cfg = SystemConfig(float(self.Q2))
        return expand(ref_packet, cfg), cfg

    def structure(self, expansion, t, s):
        """The copy amplitudes b_k and the predicted autocorrelation sum_k b_k G(k/s)."""
        residues = [t * (n * n - self.Q2 * n**4) % 1 for n in range(s)]
        for n in expansion.n_values.tolist():
            assert t * (n * n - self.Q2 * n**4) % 1 == residues[n % s]
        b = np.fft.fft(np.exp(-2j * math.pi * np.array([float(c) for c in residues]))) / s
        # k n reduced modulo s before scaling, so each angle lies in [0, 2 pi).
        kn = np.outer(np.arange(s), expansion.n_values) % s
        g = np.exp(2j * math.pi * kn / s) @ np.abs(expansion.coefficients) ** 2
        return b, complex(b @ g)

    @pytest.mark.parametrize("r, s, copies", [
        (1, 4, 2), (1, 8, 2), (3, 8, 2), (1, 16, 2), (5, 16, 2), (1, 64, 12), (3, 64, 12),
    ])
    def test_autocorrelation_is_the_sum_over_copies(self, reference, r, s, copies):
        expansion, cfg = reference
        t = Fraction(r, s) / self.Q2
        assert Fraction(float(t)) == t  # an exact double
        b, predicted = self.structure(expansion, t, s)
        assert int(np.sum(np.abs(b) > 1e-12)) == copies
        assert abs(autocorrelation(expansion, float(t), cfg) - predicted) <= 1e-14

    def test_overlapping_copies_are_not_the_first_weight(self, reference):
        # At t_sr3 = t_sr4/64 the copies overlap the packet: |A| is not |b_0|.
        expansion, cfg = reference
        t = Fraction(1, 64) / self.Q2
        b, _ = self.structure(expansion, t, 64)
        assert abs(b[0]) == pytest.approx(0.3536, abs=5e-5)
        assert abs(autocorrelation(expansion, float(t), cfg)) == pytest.approx(0.6824, abs=5e-5)
