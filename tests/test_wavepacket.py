"""Eigenexpansion, exact evolution and observable contracts."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxrevive import (
    CoverageError,
    PacketSpec,
    SystemConfig,
    TruncationError,
    WallClearanceWarning,
    autocorrelation,
    default_momentum_grid,
    evolve,
    expand,
    momentum_amplitude,
    position_density,
)
from boxrevive import wavepacket
from boxrevive.wavepacket import (
    MAX_ABS_TIME,
    MAX_LEVEL,
    _gaussian,
    fourier_amplitude,
    phase_cycles,
)
from moments import trapezoid_mean_std
from states import two_level_range_states

# Packets drawn well clear of the walls, so the Gaussian ansatz captures the
# norm to within the default truncation tolerance.
safe_packets = st.builds(
    PacketSpec,
    x_bar=st.floats(0.4, 0.6),
    delta_x=st.floats(0.04, 0.08),
    p_bar=st.floats(-60.0, 60.0),
)


def fraction_phase_cycles(t: float, q2: float, n_values) -> np.ndarray:
    """Oracle: frac(t (n^2 - q2 n^4)) in exact rational arithmetic on the floats."""
    tf = Fraction(t)
    qf = Fraction(q2) if q2 else None
    out = np.empty(len(n_values), dtype=float)
    for i, n in enumerate(n_values):
        n = int(n)
        c = tf * (n * n)
        if qf is not None:
            c -= tf * qf * n**4
        frac = float(c - math.floor(c))
        out[i] = 0.0 if frac >= 1.0 else frac  # exact frac may round up to 1
    return out


def circular_error(a, b) -> float:
    d = np.abs(np.asarray(a) - np.asarray(b))
    return float(np.max(np.minimum(d, 1.0 - d)))


PHASE_Q2 = [0.0, 1e-6, 6e-6, 1e-5, 5e-4]
PHASE_TOL = 1e-15  # cycles


@st.composite
def phase_time(draw, q2):
    """Negative times, [0, 1e5], windows at k/(4 q2) and magnitudes up to the bound."""
    kind = draw(st.sampled_from(["negative", "range", "window", "large"]))
    if kind == "negative":
        return draw(st.floats(-1e5, 0.0))
    if kind == "range":
        return draw(st.floats(0.0, 1e5))
    if kind == "window" and q2:
        return draw(st.integers(1, 8)) / (4.0 * q2) + draw(st.floats(-1.0, 1.0))
    return draw(st.floats(-MAX_ABS_TIME, MAX_ABS_TIME) | st.floats(1e5, MAX_ABS_TIME))


def phase_cases(times):
    """(q2, times) pairs; `times` maps q2 to a strategy built on phase_time."""
    return st.sampled_from(PHASE_Q2).flatmap(lambda q2: st.tuples(st.just(q2), times(q2)))


class TestExpansion:
    def test_distribution_peaks_at_level_16(self, exp0):
        weights = np.abs(exp0.coefficients) ** 2
        assert exp0.n_values[np.argmax(weights)] == 16

    def test_bulk_levels_hold_99_percent(self, exp0):
        weights = np.abs(exp0.coefficients) ** 2
        sel = (exp0.n_values >= 10) & (exp0.n_values <= 22)
        assert weights[sel].sum() > 0.99

    def test_captured_norm_band(self, exp0):
        assert 1.0 - 1e-6 < exp0.captured_norm <= 1.0 + 1e-12

    def test_even_levels_vanish_for_centered_resting_packet(self):
        packet = PacketSpec(0.5, 0.1, 0.0)
        expansion = expand(packet, SystemConfig(0.0))
        weights = np.abs(expansion.coefficients) ** 2
        even = expansion.n_values % 2 == 0
        assert np.all(weights[even] < 1e-30)

    def test_captured_norm_equals_reconstruction_quadrature(self, exp0, cfg0):
        # Independent route: trapezoid integral of the reconstructed density.
        x = np.linspace(0.0, 1.0, 2048)
        rho = position_density(evolve(exp0, 0.0, cfg0), x)
        assert np.trapezoid(rho, x) == pytest.approx(exp0.captured_norm, abs=1e-9)

    def test_leading_negligible_levels_are_trimmed(self, exp0, cfg0):
        floor = cfg0.truncation_epsilon / 100.0
        weights = np.abs(exp0.coefficients) ** 2
        assert exp0.n_min > 1
        assert weights[0] > floor

    def test_cap_failure_carries_achieved_norm(self):
        with pytest.warns(WallClearanceWarning):
            fat = PacketSpec(0.5, 0.2, 0.0)
        with pytest.raises(TruncationError) as err:
            expand(fat, SystemConfig(0.0))
        assert 0.9 < err.value.achieved_norm < 1.0 - 1e-6

    def test_wall_clearance_warning(self):
        with pytest.warns(WallClearanceWarning):
            PacketSpec(0.9, 0.05, 10.0)

    @pytest.mark.parametrize("kwargs", [
        {"x_bar": 0.0, "delta_x": 0.1, "p_bar": 0.0},
        {"x_bar": 1.0, "delta_x": 0.1, "p_bar": 0.0},
        {"x_bar": 0.5, "delta_x": 0.0, "p_bar": 0.0},
        {"x_bar": 0.5, "delta_x": -0.1, "p_bar": 0.0},
        {"x_bar": 0.5, "delta_x": math.inf, "p_bar": 0.0},
    ])
    def test_invalid_packets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PacketSpec(**kwargs)

    @given(packet=safe_packets)
    @settings(max_examples=25, deadline=None)
    def test_n_max_follows_the_coefficients(self, packet):
        expansion = expand(packet, SystemConfig(0.0))
        assert expansion.n_max == expansion.n_min + len(expansion.coefficients) - 1
        assert expansion.n_values[-1] == expansion.n_max

    @given(dx=st.floats(1e-3, 1e3), k=st.floats(-1e5, 1e5))
    def test_gaussian_cutoff_keeps_the_formula_bits(self, dx, k):
        assert _gaussian(dx, k) == math.exp(-(dx**2) * k**2 / 2.0)

    def test_gaussian_of_an_overflowing_square_uses_the_product(self):
        # k^2 = 1e340 overflows a double, dx |k| = 1 does not.
        with pytest.raises(OverflowError):
            1e170**2
        assert _gaussian(1e-170, 1e170) == math.exp(-0.5)

    @pytest.mark.parametrize("packet", [
        (0.5, 10.0, -math.pi),  # one lobe's Gaussian factor is exactly 1: |a_1|^2 = 10 sqrt(pi)
        (0.5, 0.3, 50.0),
        (0.3, 1.0, 50.0),
    ])
    def test_captured_norm_past_one_is_rejected(self, packet):
        with pytest.warns(WallClearanceWarning):
            wide = PacketSpec(*packet)
        with pytest.raises(ValueError, match=r"captured norm <= 1 \+ epsilon = 1.000001"):
            expand(wide, SystemConfig(0.0))

    def test_nan_norm_is_a_breach(self, ref_packet, monkeypatch):
        monkeypatch.setattr(wavepacket, "_raw_coefficient", lambda n, packet: complex(math.nan))
        with pytest.raises(ValueError, match=r"captured norm <= 1 \+ epsilon"):
            expand(ref_packet, SystemConfig(0.0))

    def test_leading_trim_below_budget_keeps_every_level(self, ref_packet, monkeypatch):
        # Fifty leading weights of 0.9 floor (floor = eps/100 = 1e-8) are
        # each below the trim floor but hold 4.5e-7 together; without them
        # the captured norm, 1 - 1.1e-6, misses 1 - eps. So expand keeps
        # every level from 1, with the whole cumulative norm 1 - 6.5e-7.
        eps = 1e-6
        weights = [0.9e-8] * 50 + [1.0 - 1.1e-6] + [0.0] * 3
        amplitudes = [complex(math.sqrt(w)) for w in weights]
        monkeypatch.setattr(wavepacket, "_raw_coefficient", lambda n, packet: amplitudes[n - 1])
        expansion = expand(ref_packet, SystemConfig(0.0, truncation_epsilon=eps))
        cumulative = 0.0
        for a in amplitudes:
            cumulative += abs(a) ** 2
        assert sum(abs(a) ** 2 for a in amplitudes[50:]) <= 1.0 - eps < cumulative
        assert expansion.n_min == 1
        assert expansion.coefficients.tolist() == amplitudes
        assert expansion.captured_norm == cumulative

    def test_overflowing_prefactor_is_rejected(self):
        with pytest.warns(WallClearanceWarning):
            huge = PacketSpec(0.5, 1e308, 50.0)
        with pytest.raises(ValueError, match="4 pi delta_x must be finite"):
            expand(huge, SystemConfig(0.0))

    @given(packet=safe_packets)
    @settings(max_examples=25, deadline=None)
    def test_captured_norm_band_generic(self, packet):
        expansion = expand(packet, SystemConfig(0.0))
        assert 1.0 - 1e-6 < expansion.captured_norm <= 1.0 + 1e-12


class TestEvolution:
    def test_zero_time_is_identity(self, exp0, cfg0):
        state = evolve(exp0, 0.0, cfg0)
        assert np.array_equal(state.expansion.coefficients, exp0.coefficients)

    def test_exact_revival_after_one_period(self, exp0, cfg0):
        state = evolve(exp0, 1.0, cfg0)
        assert np.array_equal(state.expansion.coefficients, exp0.coefficients)

    def test_evolved_coefficients_are_read_only(self, exp0, cfg0):
        state = evolve(exp0, 0.3, cfg0)
        assert not state.expansion.coefficients.flags.writeable
        assert state.expansion.captured_norm == exp0.captured_norm

    def test_phase_integrality_at_super_revival(self, exp_moderate, cfg_moderate):
        # 1/q2 = 2000 is an integer, so every cycle count at t = 2000 is whole.
        state = evolve(exp_moderate, 2000.0, cfg_moderate)
        assert np.max(np.abs(state.expansion.coefficients - exp_moderate.coefficients)) < 1e-9

    def test_phase_cycles_reduce_exactly(self):
        # Independent oracle: integer arithmetic on a rational time.
        n = np.array([10, 16, 22])
        got = phase_cycles(0.25, 0.0, n)
        want = np.array([(nn * nn) % 4 for nn in n]) / 4.0
        assert np.array_equal(got, want)

    @given(t=st.floats(0.0, 1e5), q2=st.sampled_from([0.0, 1e-6, 1e-5, 5e-4]))
    @settings(max_examples=40, deadline=None)
    def test_unitarity(self, exp0, cfg0, t, q2):
        cfg = SystemConfig(q2)
        state = evolve(exp0, t, cfg)
        drift = abs(
            np.sum(np.abs(state.expansion.coefficients) ** 2) - exp0.captured_norm
        )
        assert drift < 1e-14

    def test_periodicity_of_reduced_phases(self, exp0, cfg0, x512):
        rho_a = position_density(evolve(exp0, 0.337, cfg0), x512)
        rho_b = position_density(evolve(exp0, 1.337, cfg0), x512)
        assert np.max(np.abs(rho_a - rho_b)) < 1e-12

    def test_rejects_nonfinite_time(self, exp0, cfg0):
        with pytest.raises(ValueError):
            evolve(exp0, math.inf, cfg0)


class TestPhaseReduction:
    """The error-free float reduction against the exact Fraction oracle."""

    @given(
        case=phase_cases(phase_time),
        n=st.lists(st.integers(1, 512), min_size=1, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_oracle(self, case, n):
        q2, t = case
        got = phase_cycles(t, q2, n)
        assert np.all((got >= 0.0) & (got < 1.0))
        assert circular_error(got, fraction_phase_cycles(t, q2, n)) <= PHASE_TOL

    @given(case=phase_cases(lambda q2: st.lists(phase_time(q2), min_size=1, max_size=6)))
    @settings(max_examples=60, deadline=None)
    def test_array_of_times_matches_oracle_and_scalar_calls(self, case):
        q2, times = case
        t = np.array(times)
        n = np.arange(1, 513, 37)
        got = phase_cycles(t, q2, n)
        assert got.shape == (len(t), len(n))
        for row, ti in zip(got, t):
            assert circular_error(row, fraction_phase_cycles(float(ti), q2, n)) <= PHASE_TOL
            assert circular_error(row, phase_cycles(float(ti), q2, n)) <= PHASE_TOL

    def test_time_array_shape_is_kept(self):
        t = np.linspace(0.0, 3.0, 12).reshape(3, 4)
        got = phase_cycles(t, 1e-5, [3, 5, 7])
        assert got.shape == (3, 4, 3)
        assert np.array_equal(got[2, 1], phase_cycles(float(t[2, 1]), 1e-5, [3, 5, 7]))

    def test_time_bound_is_inclusive(self):
        got = phase_cycles(MAX_ABS_TIME, 0.0, [1, 512])
        assert circular_error(got, fraction_phase_cycles(MAX_ABS_TIME, 0.0, [1, 512])) <= PHASE_TOL
        got = phase_cycles(-MAX_ABS_TIME, 0.0, [MAX_LEVEL])
        want = fraction_phase_cycles(-MAX_ABS_TIME, 0.0, [MAX_LEVEL])
        assert circular_error(got, want) <= PHASE_TOL

    @pytest.mark.parametrize("t", [np.nextafter(MAX_ABS_TIME, math.inf), -1e300])
    def test_time_past_bound_rejected(self, t):
        with pytest.raises(ValueError, match="1e\\+200"):
            phase_cycles(t, 0.0, [1, 2])
        with pytest.raises(ValueError, match="1e\\+200"):
            phase_cycles(np.array([0.0, t]), 0.0, [1, 2])

    def test_strength_enters_the_time_bound(self):
        with pytest.raises(ValueError, match="max\\(1, q2\\)"):
            phase_cycles(1e199, 20.0, [1])

    def test_level_bound(self):
        got = phase_cycles(0.5 + 2.0**-40, 1e-5, [MAX_LEVEL])
        want = fraction_phase_cycles(0.5 + 2.0**-40, 1e-5, [MAX_LEVEL])
        assert circular_error(got, want) <= PHASE_TOL
        with pytest.raises(ValueError, match=f"{MAX_LEVEL}"):
            phase_cycles(0.5, 1e-5, [3, MAX_LEVEL + 1])

    def test_nonfinite_time_in_array_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            phase_cycles(np.array([0.0, math.nan]), 0.0, [1])

    @pytest.mark.parametrize("n", [[3.5], [3, 4.5, 5]])
    def test_non_integer_levels_rejected(self, n):
        # t = 1.25 at n = 3.5 is 15.3125 cycles; reducing t first would give 0.0625.
        with pytest.raises(ValueError, match="levels must be integers"):
            phase_cycles(1.25, 0.0, n)
        assert np.array_equal(phase_cycles(1.25, 0.0, [3.0]), phase_cycles(1.25, 0.0, [3]))

    @pytest.mark.parametrize("q2", [0.0, 1e-5])
    @pytest.mark.parametrize("n, products", [(np.arange(3, 32), 6), (np.arange(3, 3000, 103), 10)])
    def test_tiled_array_matches_scalar_calls_and_oracle(self, monkeypatch, q2, n, products):
        # Levels <= 90 keep 6 exact products (the low halves of n^4 are zero), larger keep 10.
        assert len(wavepacket._level_factors(n.dtype.str, n.tobytes())[0]) == products
        tiles = []
        reduce = wavepacket._reduced_cycles
        monkeypatch.setattr(
            wavepacket, "_reduced_cycles", lambda t, *a: tiles.append(np.size(t)) or reduce(t, *a)
        )
        rng = np.random.default_rng(16)
        t = np.concatenate([rng.uniform(-1e5, 1e5, 1000), rng.integers(1, 9, 1001) / 4e-5])
        got = phase_cycles(t, q2, n)
        assert len(tiles) >= 4 and tiles[-1] < tiles[0] and sum(tiles) == len(t)
        for ti, row in zip(t, got):
            assert np.array_equal(row, phase_cycles(float(ti), q2, n))
        for ti, row in zip(t[::97], got[::97]):
            assert circular_error(row, fraction_phase_cycles(float(ti), q2, n)) <= PHASE_TOL


class TestPositionDensity:
    def test_initial_peak_height(self, exp0, cfg0):
        x = np.linspace(0.0, 1.0, 1025)
        rho = position_density(evolve(exp0, 0.0, cfg0), x)
        peak = 1.0 / (math.sqrt(math.pi) * 0.1)
        assert rho[512] == pytest.approx(peak, rel=1e-3)

    def test_shape_regained_at_half_revival(self, exp0, cfg0, x512):
        rho_0 = position_density(evolve(exp0, 0.0, cfg0), x512)
        rho_h = position_density(evolve(exp0, 0.5, cfg0), x512)
        l2 = math.sqrt(np.trapezoid((rho_h - rho_0) ** 2, x512))
        assert l2 < 1e-3

    def test_mirror_symmetry_at_half_revival(self, exp0, cfg0, x512):
        rho_0 = position_density(evolve(exp0, 0.0, cfg0), x512)
        rho_h = position_density(evolve(exp0, 0.5, cfg0), x512)
        assert np.max(np.abs(rho_h - rho_0[::-1])) < 1e-3

    def test_density_integrates_to_captured_norm(self, exp0, cfg0, x512):
        rho = position_density(evolve(exp0, 0.37, cfg0), x512)
        assert np.trapezoid(rho, x512) == pytest.approx(exp0.captured_norm, abs=1e-6)

    def test_truncation_robustness(self, ref_packet, exp0, cfg0, x512):
        cfg_tight = SystemConfig(0.0, truncation_epsilon=5e-7)
        exp_tight = expand(ref_packet, cfg_tight)
        rho_a = position_density(evolve(exp0, 0.37, cfg0), x512)
        rho_b = position_density(evolve(exp_tight, 0.37, cfg_tight), x512)
        assert np.max(np.abs(rho_a - rho_b)) < 1e-4

    def test_rejects_grid_outside_box(self, exp0, cfg0):
        with pytest.raises(ValueError):
            position_density(evolve(exp0, 0.0, cfg0), np.array([0.5, 1.5]))


def mode_transform_oracle(n: int, p: np.ndarray) -> np.ndarray:
    """Closed form of integral_0^1 sin(n pi x) e^{-ipx} dx."""
    a = n * math.pi
    out = np.empty(len(p), dtype=complex)
    for i, pv in enumerate(p):
        if abs(abs(pv) - a) < 1e-9:
            s = 1.0 if pv > 0 else -1.0
            out[i] = -1j * s / 2.0 * cmath.exp(-1j * (pv - s * a) / 2.0)
        else:
            out[i] = a * (1.0 - (-1.0) ** n * cmath.exp(-1j * pv)) / (a * a - pv * pv)
    return out


def mpmath_mode_amplitude(n: int, p: float) -> complex:
    """Oracle at 40 digits: (2 pi)^(-1/2) integral_0^1 sqrt(2) sin(n pi x) e^{-ipx} dx.

    sin(n pi x) is split into its two exponentials, each integrated exactly;
    the cancellation between them near p = +/- n pi is harmless at 40 digits.
    """
    with mpmath.workdps(40):
        k = mpmath.pi * n
        p = mpmath.mpf(p)
        up = mpmath.expj((k - p) / 2) * mpmath.sinc((k - p) / 2)
        down = mpmath.expj(-(k + p) / 2) * mpmath.sinc((k + p) / 2)
        return complex((up - down) / (2j * mpmath.sqrt(mpmath.pi)))


@st.composite
def mode_momenta(draw):
    """A level n <= 512 and momenta exactly at, near (1e-13 to 1e-2) or away from +/- n pi."""
    n = draw(st.integers(1, 512))
    sign = st.sampled_from([-1.0, 1.0])
    at = st.builds(lambda s: s * n * math.pi, sign)
    near = st.builds(lambda p, s, e: p + s * 10.0**e, at, sign, st.floats(-13.0, -2.0))
    p = draw(st.lists(at | near | st.floats(-400.0, 400.0), min_size=1, max_size=8))
    return n, np.array(p)


class TestFourierAmplitude:
    @settings(max_examples=200, deadline=None)
    @given(mode_momenta())
    def test_matches_mpmath_oracle(self, case):
        n, p = case
        got = fourier_amplitude(np.array([1.0]), np.array([n]), p)
        want = np.array([mpmath_mode_amplitude(n, pv) for pv in p])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def uncached_fourier_amplitude(coefficients, n_values, p_values):
    """The closed-form transform of `fourier_amplitude`, with its modes built here on every call."""
    p = np.asarray(p_values, dtype=float)
    k = math.pi * np.asarray(n_values, dtype=float)[:, None]
    s = np.where(p < 0.0, -1.0, 1.0)
    d = p - s * k
    modes = s * k * np.exp(-0.5j * d) * np.sinc(d / (2.0 * math.pi)) / (k + np.abs(p))
    return (-1j / math.sqrt(math.pi)) * (np.asarray(coefficients) @ modes)


class TestMomentumModeCache:
    """The (levels x momenta) modes of fourier_amplitude, cached per level range and p axis."""

    def test_entries_are_read_only(self, cat_state, ref_packet):
        e = cat_state.expansion
        p = default_momentum_grid(ref_packet)
        fourier_amplitude(e.coefficients, e.n_values, p)
        modes = wavepacket._momentum_modes(e.n_values.astype(float).tobytes(), p.tobytes())
        assert modes.shape == (len(e.coefficients), len(p))
        assert not modes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            modes[0, 0] = 0.0

    def test_cold_and_warm_calls_are_bitwise_equal(self, cat_state, ref_packet):
        p = default_momentum_grid(ref_packet)
        want = uncached_fourier_amplitude(
            cat_state.expansion.coefficients, cat_state.expansion.n_values, p)
        wavepacket._momentum_modes.cache_clear()
        cold = momentum_amplitude(cat_state, p)
        warm = momentum_amplitude(cat_state, p)
        info = wavepacket._momentum_modes.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        for got in (cold, warm):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [37.5, [37.5], np.linspace(-90.0, 90.0, 7)],
                             ids=["float", "one_point", "axis"])
    def test_float_and_1d_momenta_keep_their_shapes(self, cat_state, p):
        e = cat_state.expansion
        for coefficients in (e.coefficients, np.eye(len(e.coefficients))):
            want = uncached_fourier_amplitude(coefficients, e.n_values, p)
            for _ in range(2):  # cold, then warm
                got = fourier_amplitude(coefficients, e.n_values, p)
                assert got.shape == want.shape == coefficients.shape[:-1] + (np.size(p),)
                assert got.tobytes() == want.tobytes()

    def test_two_dimensional_momenta_are_rejected(self, cat_state):
        e = cat_state.expansion
        with pytest.raises(ValueError, match="float or a 1-d array"):
            fourier_amplitude(e.coefficients, e.n_values, np.zeros((2, 3)))

    def test_level_ranges_get_separate_entries(self):
        states = two_level_range_states()
        p = np.linspace(-150.0, 150.0, 256)
        wavepacket._momentum_modes.cache_clear()
        for s in states * 2:  # interleaved: miss, miss, hit, hit
            e = s.expansion
            want = uncached_fourier_amplitude(e.coefficients, e.n_values, p)
            assert fourier_amplitude(e.coefficients, e.n_values, p).tobytes() == want.tobytes()
        info = wavepacket._momentum_modes.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)


class TestMomentumAmplitude:
    def test_matches_closed_form_transform(self, exp0, cfg0):
        state = evolve(exp0, 0.25, cfg0)
        p = np.linspace(-110.0, 110.0, 301)
        got = momentum_amplitude(state, p)
        want = np.zeros(len(p), dtype=complex)
        for n, a_n in zip(exp0.n_values, state.expansion.coefficients):
            want += a_n * math.sqrt(2.0) * mode_transform_oracle(int(n), p)
        want /= math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(got - want)) < 2e-14  # measured 6.8e-15

    def test_initial_packet_peaks_at_mean_momentum(self, exp0, cfg0, ref_packet):
        p = default_momentum_grid(ref_packet)
        dens = np.abs(momentum_amplitude(evolve(exp0, 0.0, cfg0), p)) ** 2
        assert abs(p[np.argmax(dens)] - 50.0) < 0.5

    def test_initial_momentum_spread(self, exp0, cfg0, ref_packet):
        p = default_momentum_grid(ref_packet)
        dens = np.abs(momentum_amplitude(evolve(exp0, 0.0, cfg0), p)) ** 2
        _, spread = trapezoid_mean_std(p, dens)
        assert spread == pytest.approx(1.0 / (math.sqrt(2.0) * 0.1), rel=1e-3)

    def test_parseval_closure(self, exp0, cfg0, ref_packet):
        p = default_momentum_grid(ref_packet)
        for t in (0.0, 0.25):
            dens = np.abs(momentum_amplitude(evolve(exp0, t, cfg0), p)) ** 2
            assert np.trapezoid(dens, p) == pytest.approx(exp0.captured_norm, abs=1e-4)

    def test_cat_is_bimodal(self, cat_state, ref_packet):
        p = default_momentum_grid(ref_packet)
        dens = np.abs(momentum_amplitude(cat_state, p)) ** 2
        local_max = [
            i for i in range(1, len(p) - 1)
            if dens[i] > dens[i - 1] and dens[i] >= dens[i + 1]
        ]
        top = sorted(sorted(local_max, key=lambda i: -dens[i])[:2])
        assert abs(p[top[0]] + 50.0) < 2.0
        assert abs(p[top[1]] - 50.0) < 2.0

    def test_rejects_asymmetric_grid(self, cat_state):
        with pytest.raises(CoverageError):
            momentum_amplitude(cat_state, np.linspace(-80.0, 120.0, 64))

    def test_rejects_short_grid(self, cat_state):
        with pytest.raises(CoverageError):
            momentum_amplitude(cat_state, np.linspace(-80.0, 80.0, 64))


class TestAutocorrelation:
    def test_initial_value_is_captured_norm(self, exp0, cfg0):
        assert autocorrelation(exp0, 0.0, cfg0) == pytest.approx(exp0.captured_norm)

    def test_exact_revival(self, exp0, cfg0):
        assert abs(autocorrelation(exp0, 1.0, cfg0)) == pytest.approx(
            exp0.captured_norm, abs=1e-14
        )

    def test_magnitude_bounded_by_norm(self, exp0, cfg0):
        for t in (0.1, 0.33, 0.77, 123.456):
            assert abs(autocorrelation(exp0, t, cfg0)) <= exp0.captured_norm + 1e-12

    @given(
        t=st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=8),
        q2=st.sampled_from(PHASE_Q2),
    )
    @settings(max_examples=30, deadline=None)
    def test_array_of_times_matches_scalar_calls(self, exp0, t, q2):
        cfg = SystemConfig(q2)
        got = autocorrelation(exp0, np.array(t), cfg)
        assert got.shape == (len(t),)
        want = np.array([autocorrelation(exp0, ti, cfg) for ti in t])
        assert isinstance(autocorrelation(exp0, t[0], cfg), complex)
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("q2", [0.0, 1e-5])
    def test_tiled_time_grid_matches_scalar_calls(self, exp0, q2):
        cfg = SystemConfig(q2)
        t = np.linspace(0.0, 1e5, 87 * 23).reshape(87, 23)  # several tiles of 29 levels
        got = autocorrelation(exp0, t, cfg)
        assert got.shape == t.shape
        want = np.array([autocorrelation(exp0, ti, cfg) for ti in t.flat]).reshape(t.shape)
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize(
        "bad, message",
        [
            (math.nan, "time must be finite (got a non-finite sample)"),
            (-math.inf, "time must be finite (got a non-finite sample)"),
            (2e200, "|t| * max(1, q2) <= 1e+200 violated (got |t| = 2e+200, q2 = 1e-05); "
             "the error-free phase reduction overflows past it"),
        ],
    )
    def test_bad_sample_in_last_tile_rejected_before_any_tile(self, monkeypatch, exp0, bad, message):
        monkeypatch.setattr(wavepacket, "_reduced_cycles", pytest.fail)
        t = np.linspace(0.0, 1e5, 87 * 23).reshape(87, 23)
        t[-1, -1] = bad
        with pytest.raises(ValueError) as err:
            autocorrelation(exp0, t, SystemConfig(1e-5))
        assert str(err.value) == message

    def test_long_scan_reduces_tile_by_tile(self, exp_weak, cfg_weak):
        # The (times x levels) phases of 100 001 samples would take 23 MB; a tile takes 0.25 MB.
        t = np.linspace(0.0, 1e5, 100_001)
        tracemalloc.start()
        try:
            autocorrelation(exp_weak, t, cfg_weak)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_peak_sits_on_classical_comb(self, ref_packet, exp_weak, cfg_weak):
        """Near the shifted revival the best |A| peak is the classical
        alignment nearest it: teeth at integer multiples of 1/E'(n_bar)."""
        e_prime = 2 * 16 - 4 * cfg_weak.q_squared * 16**3
        teeth = np.array([m / e_prime for m in range(29, 36)])
        heights = [abs(autocorrelation(exp_weak, t, cfg_weak)) for t in teeth]
        best_tooth = teeth[int(np.argmax(heights))]

        ts = np.linspace(0.9, 1.1, 2001)
        vals = [abs(autocorrelation(exp_weak, t, cfg_weak)) for t in ts]
        assert abs(ts[int(np.argmax(vals))] - best_tooth) < 2e-4
        assert best_tooth == pytest.approx(32.0 / e_prime, rel=1e-12)
