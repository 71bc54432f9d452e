"""Spectrum, turnover and time-scale contracts."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxrevive import (
    PerturbativeRegimeError,
    SystemConfig,
    energy_level,
    mean_quantum_number,
    spectrum_turnover,
    time_scales,
)
from boxrevive.spectrum import _mode_matrix

HALF_PI_SQ = math.pi**2 / 2.0


def relativistic_oracle(n: int, q2: float) -> float:
    """Independent route: kinetic term minus its square over 2 c^2.

    The relativistic strength fixes the light speed through c = pi / (2 q)
    in box units, so no reference to the packaged formula is needed.
    """
    k = n * math.pi
    kinetic = k * k / 2.0
    if q2 == 0.0:
        return kinetic
    c = math.pi / (2.0 * math.sqrt(q2))
    return kinetic - kinetic**2 / (2.0 * c * c)


class TestEnergyLevel:
    def test_ground_state(self):
        assert energy_level(1, SystemConfig(0.0)) == pytest.approx(HALF_PI_SQ, rel=1e-15)

    def test_quadratic_spectrum(self):
        assert energy_level(16, SystemConfig(0.0)) == pytest.approx(256 * HALF_PI_SQ, rel=1e-15)

    def test_quartic_correction(self):
        got = energy_level(16, SystemConfig(5e-4))
        assert got == pytest.approx((256.0 - 5e-4 * 65536.0) * HALF_PI_SQ, rel=1e-13)
        assert got == pytest.approx(1101.61, rel=1e-4)

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_rejects_nonpositive_levels(self, bad):
        with pytest.raises(ValueError):
            energy_level(bad, SystemConfig(0.0))

    @pytest.mark.parametrize("q2", [1e-6, 1e-5, 5e-4])
    def test_matches_independent_relativistic_form(self, q2):
        cfg = SystemConfig(q2)
        for n in range(1, 65):
            want = relativistic_oracle(n, q2)
            assert energy_level(n, cfg) == pytest.approx(want, rel=1e-12)

    @given(n=st.integers(1, 128))
    def test_quadratic_limit(self, n):
        assert energy_level(n, SystemConfig(0.0)) == pytest.approx(n * n * HALF_PI_SQ, rel=1e-14)

    @pytest.mark.parametrize("q2", [0.0, 1e-5])
    def test_overflowing_fourth_power_names_the_bound(self, q2):
        # n^4 = 10^320 does not convert to a double, whatever q2 multiplies it.
        with pytest.raises(ValueError, match=r"n\^4 <= 1\.79769e\+308 violated \(got n = 10\^80\)"):
            energy_level(10**80, SystemConfig(q2))
        last = math.isqrt(math.isqrt(int(sys.float_info.max)))  # the largest n with a finite n^4
        assert math.isfinite(energy_level(last, SystemConfig(q2)))


class TestEigenfunction:
    """The eigenmodes sqrt(2) sin(n pi x) that every density, carpet and moment form reads."""

    def test_ground_state_antinode(self):
        assert _mode_matrix([1], 0.5)[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_walls_are_nodes(self):
        modes = _mode_matrix([1, 2, 7, 31], [0.0, 1.0])
        assert np.all(modes[:, 0] == 0.0)
        assert np.max(np.abs(modes[:, 1])) < 1e-13

    def test_first_excited_node_at_center(self):
        assert abs(_mode_matrix([2], 0.5)[0]) < 1e-15

    def test_rejects_positions_outside_box(self):
        with pytest.raises(ValueError, match="outside the box"):
            _mode_matrix([1], 1.2)
        with pytest.raises(ValueError, match="outside the box"):
            _mode_matrix([1], np.array([0.2, -0.1]))

    def test_array_keeps_its_shape(self):
        x = np.array([[0.0, 0.13, 0.5], [0.77, 0.999, 1.0]])
        modes = _mode_matrix(np.array([1, 16, 199]), x)
        assert modes.shape == (3, 2, 3)
        for n, u in zip((1, 16, 199), modes):
            assert np.max(np.abs(u - math.sqrt(2.0) * np.sin(n * math.pi * x))) < 2e-13

    def test_orthonormal_on_grid(self):
        x = np.linspace(0.0, 1.0, 4097)
        u3, u5 = _mode_matrix([3, 5], x)
        assert np.trapezoid(u3 * u3, x) == pytest.approx(1.0, abs=1e-10)
        assert np.trapezoid(u3 * u5, x) == pytest.approx(0.0, abs=1e-12)


class TestTurnover:
    def test_moderate_strength(self):
        assert spectrum_turnover(SystemConfig(5e-4)) == pytest.approx(
            1.0 / math.sqrt(1e-3), rel=1e-14
        )

    def test_weak_strength(self):
        assert spectrum_turnover(SystemConfig(1e-5)) == pytest.approx(
            1.0 / math.sqrt(2e-5), rel=1e-14
        )

    def test_absent_for_quadratic_spectrum(self):
        assert spectrum_turnover(SystemConfig(0.0)) == math.inf

    @given(q2=st.floats(1e-8, 1e-3))
    def test_energy_increases_up_to_turnover(self, q2):
        cfg = SystemConfig(q2)
        n_star = spectrum_turnover(cfg)
        top = min(int(n_star), 200)
        for n in range(1, top):
            assert energy_level(n + 1, cfg) > energy_level(n, cfg)


class TestTimeScales:
    def test_super_revival_weak(self):
        ts = time_scales(16, SystemConfig(1e-5))
        assert ts.t_sr4 == pytest.approx(1e5, rel=1e-12)

    def test_super_revival_moderate(self):
        ts = time_scales(16, SystemConfig(5e-4))
        assert ts.t_sr3 == pytest.approx(31.25, rel=1e-12)
        assert ts.t_sr4 == pytest.approx(2000.0, rel=1e-12)

    def test_shifted_revival_time(self):
        ts = time_scales(16, SystemConfig(1e-5))
        assert ts.t_rev_bar == pytest.approx(1.0 / (1.0 - 0.01536), rel=1e-12)
        assert ts.t_rev_bar == pytest.approx(1.01560, abs=1e-5)

    def test_non_relativistic_limit(self):
        ts = time_scales(16, SystemConfig(0.0))
        assert ts.t_cl == pytest.approx(1.0 / 32.0, rel=1e-15)
        assert ts.t_cl_bar == ts.t_cl
        assert ts.t_rev == 1.0
        assert ts.t_rev_bar == 1.0
        assert ts.t_sr3 is None and ts.t_sr4 is None

    @pytest.mark.parametrize("n_bar", [0, 2.5])
    def test_rejects_n_bar_that_is_no_level(self, n_bar):
        with pytest.raises(ValueError, match="n_bar must be a positive integer"):
            time_scales(n_bar, SystemConfig(0.0))

    def test_rejects_n_bar_whose_cube_overflows(self):
        assert time_scales(10**102, SystemConfig(0.0)).t_cl == 1.0 / 2e102
        with pytest.raises(ValueError, match=r"n_bar\^3"):
            time_scales(10**103, SystemConfig(0.0))
        with pytest.raises(ValueError, match=r"n_bar\^3"):
            time_scales(10**400, SystemConfig(1e-5))

    def test_rejects_q2_whose_super_revival_time_overflows(self):
        # 1/q2 is finite down to the double just above 2^-1024 = 1/DBL_MAX rounded.
        smallest = math.nextafter(2.0**-1024, 1.0)
        assert math.isfinite(time_scales(16, SystemConfig(smallest)).t_sr4)
        for q2 in (2.0**-1024, 3e-309, 1e-310, 5e-324):
            with pytest.raises(ValueError, match="t_sr4 = 1/q_squared overflows"):
                time_scales(16, SystemConfig(q2))

    def test_rejects_nonperturbative_regime(self):
        with pytest.raises(PerturbativeRegimeError):
            time_scales(16, SystemConfig(1e-3))  # 6 q2 nbar^2 = 1.536

    @given(
        n_bar=st.integers(1, 64),
        q2=st.floats(1e-8, 1e-4),
    )
    def test_identities(self, n_bar, q2):
        cfg = SystemConfig(q2)
        if 6.0 * q2 * n_bar**2 >= 1.0:
            with pytest.raises(PerturbativeRegimeError):
                time_scales(n_bar, cfg)
            return
        ts = time_scales(n_bar, cfg)
        assert ts.t_sr4 * q2 == pytest.approx(1.0, rel=1e-12)
        assert ts.t_sr4 == pytest.approx(4.0 * n_bar * ts.t_sr3, rel=1e-12)
        assert ts.t_cl_bar * (1.0 - 2.0 * q2 * n_bar**2) == pytest.approx(ts.t_cl, rel=1e-12)
        if 0.0 < 2.0 * q2 * n_bar**2 < 1.0:
            assert ts.t_cl_bar > ts.t_cl
            assert ts.t_rev_bar > ts.t_rev


class TestTaylorConsistency:
    """Five-point central differences are exact on the quartic spectrum, so
    they reproduce the derivatives implied by the time-scale formulas up to
    the rounding of the energy values themselves. The stencils cancel the
    large quadratic part, so the attainable relative accuracy is bounded
    below by (sum of |stencil coefficients|) * ulp(E) / |derivative|."""

    @pytest.mark.parametrize("q2", [1e-6, 1e-5, 5e-4])
    @pytest.mark.parametrize("n_bar", [8, 16, 20])
    def test_stencils_match_time_scales(self, q2, n_bar):
        cfg = SystemConfig(q2)
        if 6.0 * q2 * n_bar**2 >= 1.0:
            pytest.skip("outside the perturbative regime")
        ts = time_scales(n_bar, cfg)
        e = [energy_level(n_bar + k, cfg) for k in (-2, -1, 0, 1, 2)]
        rounding = 2.0 * 60.0 * max(map(abs, e)) * 2.0**-53
        d1 = (e[0] - 8 * e[1] + 8 * e[3] - e[4]) / 12.0
        d2 = (-e[0] + 16 * e[1] - 30 * e[2] + 16 * e[3] - e[4]) / 12.0
        d3 = (e[4] - 2 * e[3] + 2 * e[1] - e[0]) / 2.0
        d4 = e[0] - 4 * e[1] + 6 * e[2] - 4 * e[3] + e[4]
        for got, want in (
            (abs(d1), math.pi**2 / (2.0 * ts.t_cl_bar)),
            (d2, math.pi**2 / ts.t_rev_bar),
            (abs(d3), 3.0 * math.pi**2 / ts.t_sr3),
            (abs(d4), 12.0 * math.pi**2 / ts.t_sr4),
        ):
            assert abs(got - want) <= max(1e-10 * want, rounding)

    def test_strict_tolerance_away_from_rounding_floor(self):
        # At q2 = 5e-4 even the quartic stencil clears 1e-10 relative.
        cfg = SystemConfig(5e-4)
        ts = time_scales(16, cfg)
        e = [energy_level(16 + k, cfg) for k in (-2, -1, 0, 1, 2)]
        d1 = (e[0] - 8 * e[1] + 8 * e[3] - e[4]) / 12.0
        d2 = (-e[0] + 16 * e[1] - 30 * e[2] + 16 * e[3] - e[4]) / 12.0
        assert abs(d1) == pytest.approx(math.pi**2 / (2.0 * ts.t_cl_bar), rel=1e-10)
        assert d2 == pytest.approx(math.pi**2 / ts.t_rev_bar, rel=1e-10)


class TestConfig:
    def test_mean_quantum_number(self):
        assert mean_quantum_number(50.0) == 16
        assert mean_quantum_number(0.0) == 0
        assert mean_quantum_number(math.pi * 7) == 7

    def test_mean_quantum_number_ignores_the_momentum_sign(self):
        # |a_n| is unchanged under p_bar -> -p_bar, so n_bar is too.
        assert mean_quantum_number(-50.0) == 16
        assert mean_quantum_number(-math.pi * 7) == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q_squared": -1e-6},
            {"truncation_epsilon": 0.0},
            {"truncation_epsilon": 1.0},
            {"n_max_cap": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)
