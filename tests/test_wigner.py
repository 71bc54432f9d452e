"""Wigner transform contracts: marginals, normalization, cat-state structure."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxrevive import (
    CoverageError,
    EigenExpansion,
    Field2D,
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
    wigner_overlap,
    write_field_pgm,
)
from boxrevive.cli import run
from boxrevive.fields import trapezoid_2d
from boxrevive.wavepacket import _TILE_BYTES
from boxrevive.wigner import (
    DEFAULT_GRID,
    WignerField,
    _field,
    _key_sums,
    _tables,
    default_p_max,
    marginal_errors,
)
from fringes import crossing_spacing, per_pair_field, per_pair_zero_column, zero_momentum
from moments import trapezoid_mean_std
from states import two_level_range_states


def zero_column(state):
    """The column of the default `wigner` grid nearest p = 0, built alone by `_field` on that one
    momentum, as `fringe_spacing` reads it."""
    return _field(state, DEFAULT_GRID, zero_momentum(state.packet))


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

    def test_fringe_spacing_matches_lobe_separation(self, cat_state, ref_packet):
        """Self-consistency: the fringes along x at p = 0 have wavelength
        2 pi / (momentum separation of the two lobes)."""
        from boxrevive import default_momentum_grid

        assert ref_packet.x_bar == 0.5  # the fringes are read around the centre
        spacing = fringe_spacing(cat_state)
        assert spacing is not None
        p = default_momentum_grid(ref_packet)
        dens = np.abs(momentum_amplitude(cat_state, p)) ** 2
        upper = p > 0
        lower = p < 0
        p_up = p[upper][np.argmax(dens[upper])]
        p_dn = p[lower][np.argmax(dens[lower])]
        expected = 2.0 * math.pi / (p_up - p_dn)
        assert abs(spacing - expected) / expected < 0.10

    def test_fringe_window_is_centred_on_the_box_midpoint(self):
        # Off the box centre the copies sit at x_bar and 1 - x_bar and their
        # fringes lie around 1/2, where the crossings are read: the same
        # column read around x_bar gives another spacing (0.0754 against 0.0786).
        packet = PacketSpec(0.4, 0.08, 40.0)
        cfg = SystemConfig(0.0)
        state = evolve(expand(packet, cfg), 0.25, cfg)
        x, column = per_pair_zero_column(state)
        expected = crossing_spacing(x, column, 0.5)
        assert fringe_spacing(state) == pytest.approx(expected, rel=1e-9)
        assert crossing_spacing(x, column, packet.x_bar) != pytest.approx(expected, rel=1e-2)


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
        coeffs = state.coefficients.copy()
        coeffs[np.argmax(np.abs(coeffs))] *= 1.0 + 1e-10
        kicked = replace(state, coefficients=coeffs)
        _, kicked_err = marginal_errors(field, kicked)
        assert kicked_err > 1e-12

    def test_field_of_another_state_is_caught(self, initial_wigner, cat_state):
        _, p_err = marginal_errors(initial_wigner, cat_state)
        assert p_err > 1e-3


class TestParityMirror:
    FIELD = WignerField(
        np.linspace(0.0, 1.0, 3), np.linspace(-2.0, 2.0, 4),
        np.arange(12.0).reshape(3, 4), {"captured_norm": 0.99},
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
        assert twice.captured_norm == 0.99


class TestExport:
    def test_fields_are_field2d_and_export_signed(self, cat_state, tmp_path):
        fields = {"grid": wigner(cat_state, nx=32, n_p=16), "column": zero_column(cat_state)}
        for name, field in fields.items():
            assert isinstance(field, Field2D)
            write_field_pgm(tmp_path / f"{name}.pgm", field, signed=True)
            rows, cols = field.values.shape
            header = (tmp_path / f"{name}.pgm").read_bytes().split(b"\n")[:3]
            assert header[1].startswith(b"# mapping=symmetric")
            assert header[2] == f"{cols} {rows}".encode()


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

    def test_two_row_grid_has_zero_norm(self, cat_state):
        # nx = 2 holds only the walls, where L = 0: every value is zero.
        walls = wigner(cat_state, nx=2)
        assert not np.any(walls.values)
        with pytest.raises(ValueError, match="zero norm"):
            wigner_overlap(walls, walls)


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


def mirrored(state):
    """The state psi(1 - x): level n picks up sin(n pi (1 - x)) = (-1)^(n+1) sin(n pi x)."""
    signs = np.where(state.n_values % 2 == 1, 1.0, -1.0)
    return replace(state, coefficients=signs * state.coefficients)


def coefficient_overlap(a, b):
    """|<a|b>|^2 / (||a||^2 ||b||^2) from the coefficients, levels aligned by n."""
    ca = dict(zip(a.n_values.tolist(), a.coefficients))
    inner = sum(np.conj(ca.get(n, 0.0)) * c for n, c in zip(b.n_values.tolist(), b.coefficients))
    return abs(inner) ** 2 / (np.vdot(a.coefficients, a.coefficients).real
                              * np.vdot(b.coefficients, b.coefficients).real)


class TestMoyalIdentity:
    """Moyal's identity, integral W_a W_b dx dp = |<a|b>|^2 / (2 pi), makes the
    normalised grid overlap a number of the coefficients alone. The grid sum
    on the default 256 x 256 field reads 0.137426 against the exact 0.137417
    for the dephased pair (6.3e-5 relative, the field's quadrature and momentum
    window), and 1.0 against 1.0 for the two rebuilt cats; hence 1e-4."""

    @pytest.mark.parametrize("t, mirror", [(0.25, False), (1500.0, False), (500.0, True)])
    def test_grid_overlap_matches_the_coefficients(
        self, exp_moderate, cfg_moderate, cat_state, cat_wigner, t, mirror
    ):
        state = evolve(exp_moderate, t, cfg_moderate)
        field = parity_mirror(wigner(state)) if mirror else wigner(state)
        expected = coefficient_overlap(mirrored(state) if mirror else state, cat_state)
        assert wigner_overlap(field, cat_wigner) == pytest.approx(expected, rel=1e-4)

    def test_mirrored_field_is_the_field_of_the_mirrored_coefficients(
        self, exp_moderate, cfg_moderate
    ):
        # Measured: 7.7e-15 against a field maximum of 0.31.
        state = evolve(exp_moderate, 500.0, cfg_moderate)
        field = parity_mirror(wigner(state))
        twin = wigner(mirrored(state))
        assert np.max(np.abs(field.values - twin.values)) <= 1e-12 * np.max(np.abs(twin.values))


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

    @pytest.mark.parametrize("h", [math.nan, math.inf, 1e308, 60.0])
    def test_one_window_rule_at_every_entry_point(self, cat_state, tmp_path, capsys, h):
        # The field, the momentum amplitude and the CLI reject a half-range h
        # alike: first 2h not finite, then h short of |p_bar| + 6/delta_x = 110.
        # The grid is built by hand: linspace warns when 2h overflows.
        expected = CoverageError if h == 60.0 else ValueError
        with pytest.raises(expected) as field_error:
            wigner(cat_state, nx=8, n_p=8, p_max=h)
        with pytest.raises(expected) as amplitude_error:
            momentum_amplitude(cat_state, np.array([-h, 0.0, h]))
        assert field_error.type is amplitude_error.type is expected
        message = str(field_error.value)
        assert str(amplitude_error.value) == message
        out = tmp_path / "out"
        assert run(["wigner", "--pmax", repr(h), "--nx", "8", "--np", "8", "--outdir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("nx, n_p", [(1, 16), (16, 1)])
    def test_grid_of_one_row_or_column_rejected(self, cat_state, nx, n_p):
        with pytest.raises(ValueError, match="grid must have nx, n_p >= 2"):
            wigner(cat_state, nx=nx, n_p=n_p)

    def test_x_marginal_tracks_density_pointwise(self, cat_wigner, cat_state):
        rho = position_density(cat_state, cat_wigner.x_axis)
        marg = np.trapezoid(cat_wigner.values, cat_wigner.p_axis, axis=1)
        assert np.max(np.abs(marg - rho)) < 1e-3


def loop_key_sums(coefficients, n_min):
    """`_key_sums` by its definition, one pair at a time: P[n, k] = sum_m conj(a_n) a_m
    ([n + m = k] - [n - m = k]) over the keys -2 n_max..2 n_max, then S = P[k] + P[-k] and
    D = P[k] - P[-k] on k >= 0, returned as [[Re S, Im S], [-Im D, Re D]]."""
    levels = len(coefficients)
    n_max = n_min + levels - 1
    p = np.zeros((levels, 4 * n_max + 1), complex)  # column 2 n_max + k holds key k
    for i, a_n in enumerate(coefficients):
        for j, a_m in enumerate(coefficients):
            n, m = n_min + i, n_min + j
            p[i, 2 * n_max + n + m] += np.conj(a_n) * a_m
            p[i, 2 * n_max + n - m] -= np.conj(a_n) * a_m
    pos, neg = p[:, 2 * n_max :], p[:, 2 * n_max :: -1]
    s, d = pos + neg, pos - neg
    return np.array([[s.real, s.imag], [-d.imag, d.real]])


def assert_key_sums_match_their_definition(coefficients, n_min):
    # The index table is the entry's fifth array; any grid and p axis serve.
    index = _tables(3, np.zeros(1).tobytes(), n_min, n_min + len(coefficients) - 1)[4]
    assert not index.flags.writeable
    expected = loop_key_sums(coefficients, n_min)
    tol = 4.0 * np.finfo(float).eps * np.max(np.abs(coefficients)) ** 2
    assert np.max(np.abs(_key_sums(coefficients, index) - expected)) <= tol


def quadrature_cell(state, x, p):
    """(1/pi) integral over |u| <= min(x, 1 - x) of psi*(x - u) psi(x + u) e^{-2ipu}, in mpmath."""
    mpmath.mp.dps = 20
    a = [mpmath.mpc(complex(c)) for c in state.coefficients]
    n = [int(k) for k in state.n_values]
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
        # Every key kappa is an integer multiple of pi; p = -kappa/2 is its
        # pole. Within POLE_GAP of it the reciprocals of that key are dropped
        # and their pair terms summed directly.
        p = -0.5 * math.pi * key + offset
        column = _field(states[case], 33, np.array([p]))
        reference = per_pair_field(states[case], column.x_axis, [p])
        assert np.max(np.abs(column.values - reference)) <= 1e-12

    @pytest.mark.parametrize("case", ["cat", "super_quarter", "mid_bounce"])
    def test_row_tile_edges_match_per_pair_sum(self, states, case):
        # 1025 x 257 has 127-row tiles: the near half holds 513 = 4 * 127 + 5
        # rows, its last the middle row x = 1/2, and the far half 512 = 4 * 127 + 4.
        # Odd n_p holds p = 0, so the d = 0 pole falls in every tile.
        nx, n_p = 1025, 257
        step = _TILE_BYTES // (8 * n_p)
        assert step == 127
        field = wigner(states[case], nx, n_p)
        assert 0.0 in field.p_axis
        # The first and last row of every tile of both halves (the far half
        # counts up from the bottom row), and their mirrors.
        edges = {
            r
            for size in ((nx + 1) // 2, nx // 2)
            for start in range(0, size, step)
            for i in (start, min(start + step, size) - 1)
            for r in (i, nx - 1 - i)
        }
        rows = sorted(edges)
        assert len(rows) == 21 and nx // 2 in rows
        reference = per_pair_field(states[case], field.x_axis[rows], field.p_axis)
        assert np.max(np.abs(field.values[rows] - reference)) <= 1e-12

    @pytest.fixture(scope="class")
    def large_angle(self):
        cfg = SystemConfig(0.0)
        expansion = expand(PacketSpec(0.5, 0.02, 400.0), cfg)
        assert (expansion.n_min, expansion.n_max) == (66, 192)
        return expansion, cfg

    # Fixed cases, not sampled: per_pair_field takes about a second per 500
    # cells at 127 levels. Near x = 1/2 the angles 2 pi n L reach 192 pi = 603,
    # and 2pL reaches p_max = 700 widen (2100 in the wide case). The trig
    # tables round each angle, so the error grows with it: measured 1.6e-13
    # on the middle row of 512^2 and 1.7e-15 on the wide rows.
    @pytest.mark.parametrize("t, nx, n_p, widen, rows", [
        (0.25, 512, 512, 1.0, [255]),
        (0.3, 33, 17, 3.0, [0, 8, 15, 16, 17, 24]),
    ], ids=["cat_512_middle", "wide_33x17"])
    def test_large_angles_match_per_pair_sum(self, large_angle, t, nx, n_p, widen, rows):
        expansion, cfg = large_angle
        state = evolve(expansion, t, cfg)
        field = wigner(state, nx, n_p, p_max=widen * default_p_max(state.packet))
        assert np.min(np.abs(field.x_axis[rows] - 0.5)) < 1.0 / (nx - 1)  # the largest L
        reference = per_pair_field(state, field.x_axis[rows], field.p_axis)
        assert np.max(np.abs(field.values[rows] - reference)) <= 1e-12

    @pytest.mark.parametrize("case, x, p", [
        ("cat", 0.5, 0.0),
        ("cat", 0.3, 50.0),
        ("third", 0.8, -40.0),
        ("initial", 0.45, -8.0 * math.pi + 3e-4),
    ])
    def test_cell_matches_mpmath_quadrature(self, states, case, x, p):
        column = _field(states[case], 21, np.array([p]))
        row = int(np.argmin(np.abs(column.x_axis - x)))
        assert column.x_axis[row] == pytest.approx(x, abs=1e-15)
        expected = quadrature_cell(states[case], column.x_axis[row], p)
        assert column.values[row, 0] == pytest.approx(expected, abs=1e-12)

    def test_column_equals_grid_column(self, states):
        # Every column of an odd-n_p grid, whose p = 0 holds the d = 0 pole:
        # the field on that one momentum matches the grid's column, so a
        # pole is summed alike on either p axis.
        for nx in (16, 17, 256):  # even sizes have no middle row
            field = wigner(states["cat"], nx=nx, n_p=33)
            assert field.p_axis[16] == 0.0
            for j in range(len(field.p_axis)):
                one = _field(states["cat"], nx, field.p_axis[[j]]).values[:, 0]
                assert np.max(np.abs(one - field.values[:, j])) <= 1e-12

    def test_fringe_spacing_takes_one_field_table_entry(self, states):
        # fringe_spacing reads the default grid's column nearest p = 0 through
        # _field on that one momentum: one entry of the field's table cache,
        # keyed by the one-point p axis.
        state = states["cat"]
        _tables.cache_clear()
        spacing = fringe_spacing(state)
        info = _tables.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
        p_axis = zero_momentum(state.packet)
        assert_read_only(_tables(DEFAULT_GRID, p_axis.tobytes(), state.n_min, state.n_max))
        info = _tables.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        x, column = per_pair_zero_column(state)
        expected = crossing_spacing(x, column, 0.5)
        assert expected is not None
        assert spacing == pytest.approx(expected, rel=1e-9)

    def test_phase_space_mix_fits_the_table_cache(self, states):
        # One packet's 256^2 and 512^2 fields and its fringe column take three
        # of the four entries, so a second pass makes no miss.
        state = states["cat"]
        _tables.cache_clear()
        for _ in range(2):
            wigner(state)
            wigner(state, 512, 512)
            fringe_spacing(state)
        info = _tables.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 3, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        n_min=st.integers(1, 40),
        coefficients=st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=32,
        ),
    )
    @example(n_min=1, coefficients=[1.0 + 0.0j])  # one level
    @example(n_min=1, coefficients=[0.6 + 0.0j, -0.0 - 0.8j, 0.0j, complex(-0.0, -0.0)])
    def test_key_sums_match_their_definition(self, n_min, coefficients):
        assert_key_sums_match_their_definition(np.array(coefficients), n_min)

    def test_key_sums_of_evolved_states_match_their_definition(self, states, large_angle):
        expansion, cfg = large_angle  # levels 66..192
        for e in (states["cat"], states["dephased"], evolve(expansion, 0.25, cfg)):
            assert_key_sums_match_their_definition(e.coefficients, e.n_min)

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(["cat", "third", "super_quarter", "mid_bounce"]),
        key=st.integers(-64, 64),
        offset=st.floats(-1e-3, 1e-3),
    )
    def test_closed_form_column_near_a_pole_matches_per_pair_sum(self, states, case, key, offset):
        # The one-momentum column on the default grid's rows, as fringe_spacing
        # reads it, within POLE_GAP of p = -kappa/2.
        p = -0.5 * math.pi * key + offset
        column = _field(states[case], DEFAULT_GRID, np.array([p]))
        assert column.x_axis.tobytes() == np.linspace(0.0, 1.0, DEFAULT_GRID).tobytes()
        reference = per_pair_field(states[case], column.x_axis, [p])
        assert np.max(np.abs(column.values[:, 0] - reference[:, 0])) <= 1e-12

    @pytest.mark.parametrize("nx", [2, 3, 256, 257])
    @pytest.mark.parametrize("case, p", [
        ("cat", 0.0),                        # the d = 0 pole
        ("third", 0.37),
        ("super_quarter", -0.5 * math.pi * 9 + 2e-3),
        ("dephased", 50.0),
    ])
    def test_closed_form_column_matches_per_pair_sum(self, states, case, p, nx):
        column = _field(states[case], nx, np.array([p])).values[:, 0]
        assert column.shape == (nx,)
        reference = per_pair_field(states[case], np.linspace(0.0, 1.0, nx), [p])
        assert np.max(np.abs(column - reference[:, 0])) <= 1e-12
        assert column[0] == 0.0 and column[-1] == 0.0  # L = 0 at both walls

    @pytest.mark.parametrize("nx, p", [(512, 0.0), (257, 1.3), (256, -50.0 * math.pi + 1e-12)])
    def test_closed_form_column_at_large_angles_matches_per_pair_sum(self, large_angle, nx, p):
        # The middle rows of the 127-level packet, where 2 pi n L reaches 603.
        expansion, cfg = large_angle
        state = evolve(expansion, 0.25, cfg)
        rows = [nx // 2 - 2, nx // 2 - 1, nx // 2, nx // 2 + 1]
        reference = per_pair_field(state, np.linspace(0.0, 1.0, nx)[rows], [p])
        assert np.max(np.abs(_field(state, nx, np.array([p])).values[rows] - reference)) <= 1e-12

    def test_fringe_spacing_on_a_pole(self):
        # p_max = 255 pi / 2 puts the default grid's momentum nearest 0 at
        # -pi/2, so kappa = pi sits within rounding of -2p.
        cfg = SystemConfig(0.0)
        packet = PacketSpec(0.5, 0.1, 255.0 * math.pi / 2.0 - 60.0)
        state = evolve(expand(packet, cfg), 0.25, cfg)
        assert (state.n_min, state.n_max) == (96, 124)
        p_axis = zero_momentum(packet)
        assert abs(2.0 * p_axis[0] + math.pi) < 1e-13
        column = _field(state, DEFAULT_GRID, p_axis).values[:, 0]
        x, reference = per_pair_zero_column(state)
        assert np.max(np.abs(column - reference)) <= 1e-12
        expected = crossing_spacing(x, reference, 0.5)
        assert expected == pytest.approx(0.0092036, abs=1e-7)
        assert fringe_spacing(state) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("packet", [
        PacketSpec(0.5, 1e-310, 0.0),       # P_COVER_FACTOR / delta_x overflows
        PacketSpec(0.5, 1e-300, 1.7e308),   # p_max is finite, 2 p_max is not
    ], ids=["inf_p_max", "inf_2p_max"])
    def test_fringe_column_checks_2p_max_before_building_its_axis(self, packet):
        state = EigenExpansion(1, np.array([1 + 0j]), 1.0, packet)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="2 p_max must be finite"):
                fringe_spacing(state)


def cold(build):
    """build().values with the Wigner table cache emptied first."""
    _tables.cache_clear()
    return build().values


def assert_read_only(entry):
    for arr in entry:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


class TestKernelTables:
    """The cached per-grid table set: one read-only entry per (nx, p axis, n_min, n_max)."""

    def test_key_reciprocals_are_cached_per_level_range(self):
        # One grid and p axis, two level ranges: the reciprocals span the keys
        # -2 n_max..2 n_max, so n_max = 31 and 32 take an entry each.
        cfg = SystemConfig(0.0, truncation_epsilon=1e-6)
        expansions = [expand(PacketSpec(0.5, 0.1, p_bar), cfg) for p_bar in (50.0, 52.0)]
        assert [(e.n_min, e.n_max) for e in expansions] == [(3, 31), (4, 32)]
        states = [evolve(expansion, 0.3, cfg) for expansion in expansions]
        reference = [cold(lambda: wigner(s, 256, 256, p_max=150.0)) for s in states]
        _tables.cache_clear()
        for i, s in enumerate(states * 2):  # interleaved: miss, miss, hit, hit
            assert wigner(s, 256, 256, p_max=150.0).values.tobytes() == reference[i % 2].tobytes()
        info = _tables.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
        p_bytes = np.linspace(-150.0, 150.0, 256).tobytes()
        for e in expansions:
            assert_read_only(_tables(256, p_bytes, e.n_min, e.n_max))

    def test_x_tables_are_cached_per_grid_and_level_range(self):
        # Both packets reach n_max = 31, so only n_min tells their tables apart.
        states = two_level_range_states()
        grids = (33, 256, 257, 512)
        p_axis = np.linspace(-150.0, 150.0, 256)

        def build(s, nx):
            # One p axis for every grid and state: only nx and the level range
            # tell these entries apart.
            return wigner(s, nx, 256, p_max=150.0)

        reference = {
            (nx, i): cold(lambda: build(s, nx)) for nx in grids for i, s in enumerate(states)
        }
        _tables.cache_clear()
        # The level ranges alternate within each grid: each (grid, level range)
        # misses once, then hits on the repeat.
        for nx in grids:
            for i, s in enumerate(states * 2):
                assert build(s, nx).values.tobytes() == reference[nx, i % 2].tobytes()
        info = _tables.cache_info()
        assert (info.hits, info.misses) == (8, 8)
        assert_read_only(_tables(256, p_axis.tobytes(), 3, 31))

    def test_p_tables_are_cached_per_grid_p_axis_and_level_range(self):
        states = two_level_range_states()
        builds = (
            lambda s: wigner(s, 256, 256),
            # Same nx and level range, another p axis; both states share this
            # p axis, so only the level range tells their entries apart.
            lambda s: wigner(s, 256, 256, p_max=150.0),
            zero_column,
            lambda s: wigner(s, 257, 257),  # p = 0 holds the d = 0 pole
        )
        reference = [[cold(lambda: build(s)) for build in builds] for s in states]
        _tables.cache_clear()
        # Each state's four p axes fill the four entries, then hit on the repeat.
        for s, want in zip(states, reference):
            for _ in range(2):
                for build, values in zip(builds, want):
                    assert build(s).values.tobytes() == values.tobytes()
        info = _tables.cache_info()
        assert (info.hits, info.misses) == (8, 8)
        p_axis = np.linspace(-default_p_max(states[1].packet), default_p_max(states[1].packet), 257)
        entry = _tables(257, p_axis.tobytes(), 12, 31)
        assert _tables.cache_info().hits == 9
        assert_read_only(entry)

    @pytest.mark.parametrize("grid", [256, 512])
    def test_cold_build_holds_the_entry_and_two_blocks(self, exp_moderate, cfg_moderate, grid):
        # Past the entry itself a cold build holds at most two (near x p)
        # float blocks: the sin of cos and sin(2pL) is taken in place over
        # its angles, and the reciprocals need the (key x p) denominators,
        # their pole mask and the unfolded reciprocals. Measured 1.13 blocks
        # at 256^2 and 0.56 at 512^2.
        e = evolve(exp_moderate, 500.0, cfg_moderate)
        p_axis = np.linspace(-150.0, 150.0, grid)
        _tables.cache_clear()
        tracemalloc.start()
        try:
            entry = _tables(grid, p_axis.tobytes(), e.n_min, e.n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entry_bytes = sum(a.nbytes for a in entry)
        block = 8 * ((grid + 1) // 2) * grid
        assert peak <= entry_bytes + 2 * block

    @pytest.mark.parametrize("grid", [512, 1024])
    def test_warm_field_holds_no_half_grid_temporary(self, exp_moderate, cfg_moderate, grid):
        # Past the field itself a warm call holds the (4 levels x p) products
        # of one half's pair sums with the reciprocals, one tile's product
        # buffer and the small per-state arrays. The bound, 3 _TILE_BYTES plus
        # those products (1,261,568 B at 512^2, 1,736,704 B at 1024^2 for
        # 29 levels), lies under the 1,298,432 B and 1,810,432 B that the key
        # form held to. Measured 0.89 MiB at 512^2 and 1.35 MiB at 1024^2,
        # against 2.86 MiB and 9.60 MiB when each half held two half-grid
        # temporaries (1 MiB and 4 MiB each).
        state = evolve(exp_moderate, 500.0, cfg_moderate)
        wigner(state, grid, grid)
        tracemalloc.start()
        try:
            field = wigner(state, grid, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rhs = 8 * 4 * len(state.coefficients) * grid
        assert peak - field.values.nbytes <= 3 * _TILE_BYTES + rhs
