"""Wigner transform contracts: marginals, normalization, cat-state structure."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxrevive import (
    CoverageError,
    PacketSpec,
    SystemConfig,
    evolve,
    expand,
    fringe_spacing,
    momentum_amplitude,
    negativity_volume,
    parity_mirror,
    position_density,
    wigner,
    wigner_column,
    wigner_overlap,
)
from boxrevive.fields import trapezoid_2d
from boxrevive.wavepacket import EvolvedState
from boxrevive.wigner import WignerField, default_p_max, fringe_column, marginal_errors
from moments import trapezoid_mean_std


class TestInitialGaussian:
    def test_peak_is_inverse_pi(self, initial_wigner):
        assert initial_wigner.values.max() == pytest.approx(1.0 / math.pi, rel=0.05)

    def test_integrates_to_captured_norm(self, initial_wigner):
        total = trapezoid_2d(
            initial_wigner.x_axis, initial_wigner.p_axis, initial_wigner.values
        )
        assert abs(total - initial_wigner.captured_norm) < 1e-3

    def test_essentially_nonnegative(self, initial_wigner):
        assert negativity_volume(initial_wigner) == pytest.approx(0.0, abs=1e-3)

    def test_marginals(self, initial_wigner, exp0, cfg0):
        x_err, p_err = marginal_errors(initial_wigner, evolve(exp0, 0.0, cfg0))
        assert x_err < 1e-3
        assert p_err < 1e-3

    def test_parity_for_resting_packet(self):
        packet = PacketSpec(0.5, 0.1, 0.0)
        cfg = SystemConfig(0.0)
        field = wigner(evolve(expand(packet, cfg), 0.0, cfg), nx=128, n_p=128)
        v = field.values
        assert np.max(np.abs(v - v[::-1, :])) < 1e-8   # x -> 1 - x
        assert np.max(np.abs(v - v[:, ::-1])) < 1e-8   # p -> -p


class TestCatState:
    def test_two_lobes_at_opposite_momenta(self, cat_wigner):
        v = cat_wigner.values
        p = cat_wigner.p_axis
        pos = v[:, p > 10.0]
        neg = v[:, p < -10.0]
        p_pos = p[p > 10.0][np.unravel_index(np.argmax(pos), pos.shape)[1]]
        p_neg = p[p < -10.0][np.unravel_index(np.argmax(neg), neg.shape)[1]]
        assert abs(p_pos - 50.0) < 3.0
        assert abs(p_neg + 50.0) < 3.0

    def test_midline_fringes_are_negative_somewhere(self, cat_wigner):
        p = cat_wigner.p_axis
        mid = cat_wigner.values[:, np.abs(p) < 5.0]
        assert mid.min() < -0.1 * cat_wigner.values.max()

    def test_negativity_volume(self, cat_wigner):
        assert negativity_volume(cat_wigner) > 0.1

    def test_marginals(self, cat_wigner, cat_state):
        x_err, p_err = marginal_errors(cat_wigner, cat_state)
        assert x_err < 1e-3
        assert p_err < 1e-3

    def test_fringe_spacing_matches_lobe_separation(self, cat_wigner, cat_state, ref_packet):
        """Self-consistency: the fringes along x at p = 0 have wavelength
        2 pi / (momentum separation of the two lobes)."""
        from boxrevive import default_momentum_grid

        spacing = fringe_spacing(cat_wigner, 0.5)
        assert spacing is not None
        p = default_momentum_grid(ref_packet)
        dens = np.abs(momentum_amplitude(cat_state, p)) ** 2
        upper = p > 0
        lower = p < 0
        p_up = p[upper][np.argmax(dens[upper])]
        p_dn = p[lower][np.argmax(dens[lower])]
        expected = 2.0 * math.pi / (p_up - p_dn)
        assert abs(spacing - expected) / expected < 0.10


class TestMarginalErrors:
    @pytest.fixture(scope="class")
    def revival_cases(self, initial_wigner, exp0, cfg0, cat_wigner, cat_state,
                      super_quarter_wigner, exp_moderate, cfg_moderate):
        return {
            "initial": (initial_wigner, evolve(exp0, 0.0, cfg0)),
            "cat": (cat_wigner, cat_state),
            "super_quarter": (super_quarter_wigner, evolve(exp_moderate, 500.0, cfg_moderate)),
        }

    @pytest.mark.parametrize("case", ["initial", "cat", "super_quarter"])
    def test_momentum_reference_is_independent_of_the_field(self, revival_cases, case):
        # Both the field and the reference are exact to rounding, so they
        # agree to ~1e-15. The reference reads the state, not the field:
        # scaling the largest coefficient of the state by 1 + 1e-10, with the
        # field left as it is, moves the p marginal error above 1e-12. (A
        # phase kick would not do for the initial packet: centred in the box,
        # its momentum density moves only at second order in the kick.)
        field, state = revival_cases[case]
        _, p_err = marginal_errors(field, state)
        assert p_err < 1e-13
        coeffs = state.expansion.coefficients.copy()
        coeffs[np.argmax(np.abs(coeffs))] *= 1.0 + 1e-10
        kicked = EvolvedState(replace(state.expansion, coefficients=coeffs), state.time)
        _, kicked_err = marginal_errors(field, kicked)
        assert kicked_err > 1e-12

    def test_field_of_another_state_is_caught(self, initial_wigner, cat_state):
        _, p_err = marginal_errors(initial_wigner, cat_state)
        assert p_err > 1e-3


class TestParityMirror:
    FIELD = WignerField(
        np.linspace(0.0, 1.0, 3), np.linspace(-2.0, 2.0, 4),
        np.arange(12.0).reshape(3, 4), time=0.5, captured_norm=0.99,
    )

    def test_maps_each_cell_to_its_opposite(self):
        values = parity_mirror(self.FIELD).values
        for i in range(3):
            for j in range(4):
                assert values[i, j] == self.FIELD.values[-1 - i, -1 - j]

    def test_is_an_involution(self):
        twice = parity_mirror(parity_mirror(self.FIELD))
        assert np.array_equal(twice.values, self.FIELD.values)
        assert np.array_equal(twice.x_axis, self.FIELD.x_axis)
        assert np.array_equal(twice.p_axis, self.FIELD.p_axis)
        assert (twice.time, twice.captured_norm) == (0.5, 0.99)


class TestOverlap:
    def test_self_overlap_is_one(self, cat_wigner):
        assert wigner_overlap(cat_wigner, cat_wigner) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self, cat_wigner, initial_wigner):
        ab = wigner_overlap(cat_wigner, initial_wigner)
        ba = wigner_overlap(initial_wigner, cat_wigner)
        assert ab == pytest.approx(ba, rel=1e-12)

    def test_exact_revival_reproduces_field(self, exp0, cfg0, initial_wigner):
        after = wigner(evolve(exp0, 1.0, cfg0))
        assert wigner_overlap(initial_wigner, after) == pytest.approx(1.0, abs=1e-6)

    def test_moderate_strength_destroys_cat(self, cat_wigner, dephased_wigner):
        assert wigner_overlap(cat_wigner, dephased_wigner) < 0.5

    def test_grid_mismatch_rejected(self, cat_wigner, cat_state):
        other = wigner(cat_state, nx=128, n_p=128)
        with pytest.raises(ValueError):
            wigner_overlap(cat_wigner, other)


class TestSuperRevivalQuarter:
    """The quartic correction enters the spectrum with a minus sign, so a
    quarter of the super-revival clock rebuilds the cat mirrored through the
    phase-space center: W(t_sr4/4)(x, p) = W_cat(1 - x, -p). Three quarters
    rebuild the original orientation."""

    def test_quarter_state_is_mirrored_cat(self, super_quarter_wigner, cat_wigner):
        assert wigner_overlap(parity_mirror(super_quarter_wigner), cat_wigner) > 0.999

    def test_quarter_state_is_orthogonal_to_cat(self, super_quarter_wigner, cat_wigner):
        # Balanced cats split their phase-space power evenly between lobes and
        # fringes; mirroring flips the fringe sign, so the raw inner product
        # cancels to zero.
        assert abs(wigner_overlap(super_quarter_wigner, cat_wigner)) < 0.05

    def test_three_quarter_state_matches_cat(self, exp_moderate, cfg_moderate, cat_wigner):
        w = wigner(evolve(exp_moderate, 1500.0, cfg_moderate))
        assert wigner_overlap(w, cat_wigner) > 0.999

    def test_same_structure_in_unperturbed_box(self, exp0, cfg0, cat_wigner):
        # The mirror twin also exists without relativistic corrections, at
        # three quarters of the plain revival time.
        w = wigner(evolve(exp0, 0.75, cfg0))
        assert abs(wigner_overlap(w, cat_wigner)) < 0.05

    def test_quarter_state_moments_match_cat(self, super_quarter_wigner, cat_wigner):
        # Mirroring cannot move the variances: the moment-based action of the
        # two fields agrees even though their raw overlap vanishes.
        def action(f):
            x_m = np.trapezoid(f.values, f.p_axis, axis=1)
            p_m = np.trapezoid(f.values, f.x_axis, axis=0)
            _, dx = trapezoid_mean_std(f.x_axis, x_m)
            _, dp = trapezoid_mean_std(f.p_axis, p_m)
            return dx * dp

        assert action(super_quarter_wigner) == pytest.approx(action(cat_wigner), rel=1e-3)


class TestQuadrature:
    def test_refinement_stability(self, dephased_state):
        a = wigner(dephased_state, nx=256)
        b = wigner(dephased_state, nx=512)
        sa = trapezoid_2d(a.x_axis, a.p_axis, a.values**2)
        sb = trapezoid_2d(b.x_axis, b.p_axis, b.values**2)
        assert abs(sb - sa) / sa < 1e-3

    def test_negativity_never_below_quadrature_floor(
        self, initial_wigner, cat_wigner, dephased_wigner
    ):
        for f in (initial_wigner, cat_wigner, dephased_wigner):
            assert negativity_volume(f) >= -1e-3

    def test_coverage_error_for_narrow_p_grid(self, cat_state):
        for p_max in (60.0, -200.0):  # |-200| would cover the packet
            with pytest.raises(CoverageError, match=r"\|p_bar\| \+ 6/delta_x"):
                wigner(cat_state, p_max=p_max)

    @pytest.mark.parametrize("p_max", [math.nan, math.inf, 1e308])  # 2 * 1e308 overflows
    def test_non_finite_p_max_rejected(self, cat_state, p_max):
        with pytest.raises(ValueError, match="p_max must be finite"):
            wigner(cat_state, nx=16, n_p=16, p_max=p_max)

    def test_x_marginal_tracks_density_pointwise(self, cat_wigner, cat_state):
        rho = position_density(cat_state, cat_wigner.x_axis)
        marg = np.trapezoid(cat_wigner.values, cat_wigner.p_axis, axis=1)
        assert np.max(np.abs(marg - rho)) < 1e-3


def per_pair_field(state, x_axis, p_axis):
    """(1/pi) sum over level pairs (n, m) of conj(a_n) a_m times

        e^{i pi d x} f(s pi) + e^{-i pi d x} f(-s pi) - e^{i pi s x} f(d pi) - e^{-i pi s x} f(-d pi)

    with s = n + m, d = n - m and f(k) = sin((k + 2p) L)/(k + 2p) = L sinc((k + 2p) L / pi),
    one level n at a time: the closed form with no grouping by key and no split of the sine.
    """
    a = state.expansion.coefficients
    n = state.expansion.n_values
    x = np.asarray(x_axis, float)[:, None, None]
    p = np.asarray(p_axis, float)[None, :, None]
    half = np.minimum(x, 1.0 - x)

    def f(k):
        return half * np.sinc((k + 2.0 * p) * half / math.pi)

    total = np.zeros((x.shape[0], p.shape[1]), dtype=complex)
    for a_n, level in zip(a, n):
        s = math.pi * (level + n)
        d = math.pi * (level - n)
        terms = (np.exp(1j * d * x) * f(s) + np.exp(-1j * d * x) * f(-s)
                 - np.exp(1j * s * x) * f(d) - np.exp(-1j * s * x) * f(-d))
        total += terms @ (np.conj(a_n) * a)
    return total.real / math.pi


def quadrature_cell(state, x, p):
    """(1/pi) integral over |u| <= min(x, 1 - x) of psi*(x - u) psi(x + u) e^{-2ipu}, in mpmath."""
    mpmath.mp.dps = 20
    a = [mpmath.mpc(complex(c)) for c in state.expansion.coefficients]
    n = [int(k) for k in state.expansion.n_values]
    x, p = mpmath.mpf(x), mpmath.mpf(p)

    def psi(y):
        return mpmath.sqrt(2) * mpmath.fsum(c * mpmath.sin(k * mpmath.pi * y) for c, k in zip(a, n))

    half = min(x, 1 - x)
    value = mpmath.quad(
        lambda u: mpmath.conj(psi(x - u)) * psi(x + u) * mpmath.expj(-2 * p * u),
        mpmath.linspace(-half, half, 9), method="gauss-legendre",
    )
    return float(mpmath.re(value) / mpmath.pi)


class TestClosedForm:
    """The field against the same integral written pair by pair, and against quadrature."""

    @pytest.fixture(scope="class")
    def states(self, exp0, cfg0, exp_weak, cfg_weak, exp_moderate, cfg_moderate):
        return {
            "initial": evolve(exp0, 0.0, cfg0),
            "cat": evolve(exp0, 0.25, cfg0),
            "revival": evolve(exp0, 1.0, cfg0),
            "third": evolve(exp0, 1.0 / 3.0, cfg0),
            "super_quarter": evolve(exp_moderate, 500.0, cfg_moderate),
            "super_q2_6e-6": evolve(exp0, 1.0 / (4.0 * 6e-6), SystemConfig(6e-6)),
            "mid_bounce": evolve(exp_weak, 1.0, cfg_weak),
            "dephased": evolve(exp_moderate, 0.25, cfg_moderate),
        }

    @settings(max_examples=50, deadline=None)
    @given(
        case=st.sampled_from(["initial", "cat", "revival", "third", "super_quarter",
                              "super_q2_6e-6", "mid_bounce", "dephased"]),
        # 2^k + 1 points hold x = 1/2 exactly; even sizes pair every row with
        # its mirror and have no middle row.
        nx=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 16, 17]),
        n_p=st.integers(2, 12),                # odd n_p holds p = 0, the d = 0 pole
        widen=st.floats(1.0, 3.0),
    )
    def test_grid_matches_per_pair_sum(self, states, case, nx, n_p, widen):
        state = states[case]
        field = wigner(state, nx=nx, n_p=n_p, p_max=widen * default_p_max(state.packet))
        reference = per_pair_field(state, field.x_axis, field.p_axis)
        assert np.max(np.abs(field.values - reference)) <= 1e-12
        assert not np.any(field.values[[0, -1]])  # L = 0 at both walls

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(["cat", "third", "super_quarter", "mid_bounce"]),
        key=st.integers(-64, 64),
        offset=st.floats(-1e-3, 1e-3),
    )
    def test_column_near_a_pole_matches_per_pair_sum(self, states, case, key, offset):
        # Every key kappa is an integer multiple of pi; p = -kappa/2 is its pole.
        p = -0.5 * math.pi * key + offset
        column = wigner_column(states[case], p, nx=33)
        reference = per_pair_field(states[case], column.x_axis, [p])
        assert np.max(np.abs(column.values - reference)) <= 1e-12

    @pytest.mark.parametrize("case, x, p", [
        ("cat", 0.5, 0.0),
        ("cat", 0.3, 50.0),
        ("third", 0.8, -40.0),
        ("initial", 0.45, -8.0 * math.pi + 3e-4),
    ])
    def test_cell_matches_mpmath_quadrature(self, states, case, x, p):
        column = wigner_column(states[case], p, nx=21)
        row = int(np.argmin(np.abs(column.x_axis - x)))
        assert column.x_axis[row] == pytest.approx(x, abs=1e-15)
        expected = quadrature_cell(states[case], column.x_axis[row], p)
        assert column.values[row, 0] == pytest.approx(expected, abs=1e-12)

    def test_column_equals_grid_column(self, states):
        for nx in (16, 17, 256):  # even sizes have no middle row
            field = wigner(states["cat"], nx=nx, n_p=33)
            column = wigner_column(states["cat"], field.p_axis[16], nx=nx)
            assert np.max(np.abs(column.values[:, 0] - field.values[:, 16])) <= 1e-12

    def test_fringe_column_is_the_default_grid_column_nearest_zero(self, states):
        field = wigner(states["cat"])
        j = int(np.argmin(np.abs(field.p_axis)))
        column = fringe_column(states["cat"])
        assert column.p_axis.tolist() == [field.p_axis[j]]
        assert np.max(np.abs(column.values[:, 0] - field.values[:, j])) <= 1e-12

    def test_column_preconditions(self, states):
        with pytest.raises(ValueError, match="nx >= 2"):
            wigner_column(states["cat"], 0.0, nx=1)
        with pytest.raises(ValueError, match="p must be finite"):
            wigner_column(states["cat"], math.nan)
        with pytest.raises(ValueError, match="2p must be finite"):
            wigner_column(states["cat"], 1e308)
