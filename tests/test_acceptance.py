"""Acceptance suite: the headline numerical guarantees of the package.

Each criterion prints one PASS / FAIL line (run with -s to see them on
success; pytest shows them on failure regardless) and asserts its stated
tolerance. Criteria 4, 7 and 9 assert the exact form of the revival physics
they check, each against an oracle built here rather than taken from the
library:

* 4: the revival envelope (|A| with the classical translation maximized out)
  peaks at the shifted revival time t_rev_bar, while raw |A| peaks on the
  classical-period tooth nearest it;
* 7: a quarter of the quartic clock rebuilds the cat mirrored through the
  phase-space center, three quarters rebuild it unmirrored;
* 9: at the quarter super-revival instant the state is the unperturbed state
  at tau = frac(t) + 3/4 (mod 1), so the dashed ratio equals
  a(0, tau) / a(0, 1/4) and is flat where tau = 3/4.

An acceptance clause may change only to the exact statement of the same
physics, at the same data and tolerance, with its oracle inside the test.
"""

import math
import warnings
from fractions import Fraction

import numpy as np

from boxrevive import (
    SystemConfig,
    autocorrelation,
    carpet,
    centroid_trace,
    default_momentum_grid,
    energy_level,
    evolve,
    fidelity_scan,
    momentum_amplitude,
    negativity_volume,
    position_density,
    sensitivity_reports,
    subplanck_dimension,
    time_scales,
    wigner,
    wigner_overlap,
)
from boxrevive.carpet import count_maxima, dominant_period
from boxrevive.cli import run as cli_run
from boxrevive.fields import trapezoid_2d
from boxrevive.wigner import WignerField, marginal_errors

HALF_PI_SQ = math.pi**2 / 2.0
Q2_SET = (0.0, 1e-6, 1e-5, 5e-4)
Q2_CURVE = (0.0, 2e-6, 4e-6, 6e-6, 8e-6, 1e-5)
# Strengths in Q2_CURVE whose quarter super-revival time 1/(4 q2) is a whole
# number of revival periods (1e6/8, 1e6/16, 1e6/32, 1e5/4; 6e-6 gives 1e6/24).
Q2_COMMENSURATE = (2e-6, 4e-6, 8e-6, 1e-5)
ENVELOPE_PAD = 1024  # theta grid of the revival envelope before refinement
ENVELOPE_NEWTON_STEPS = 4


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def revival_envelope(a, b):
    """R = max_theta |sum_n conj(a_n) b_n e^{2 pi i n theta}| for each row of b.

    The factor e^{2 pi i n theta} translates the packet by theta classical
    periods, so R is |A| with the linear spectral term maximized out. The
    maximum is located on a zero-padded FFT grid over the level index and
    refined by Newton steps on |f(theta)|^2. The index is counted from the
    lowest level, which changes f only by a unimodular factor.
    """
    w = np.conj(a) * b
    k = 2.0 * math.pi * np.arange(w.shape[1])
    theta = np.argmax(np.abs(np.fft.ifft(w, ENVELOPE_PAD, axis=1)), axis=1) / ENVELOPE_PAD
    for _ in range(ENVELOPE_NEWTON_STEPS):
        terms = w * np.exp(1j * np.outer(theta, k))
        f, f1, f2 = terms.sum(axis=1), terms @ (1j * k), terms @ -(k**2)
        theta = theta - np.real(np.conj(f) * f1) / (np.abs(f1) ** 2 + np.real(np.conj(f) * f2))
    return np.abs(np.sum(w * np.exp(1j * np.outer(theta, k)), axis=1))


def test_criterion_01_spectrum_exactness():
    worst = 0.0
    for q2 in Q2_SET:
        cfg = SystemConfig(q2)
        for n in range(1, 65):
            want = (n * n - q2 * n**4) * HALF_PI_SQ
            worst = max(worst, abs(energy_level(n, cfg) - want) / abs(want))
    ident = 0.0
    for q2 in (1e-6, 1e-5, 5e-4):
        ts = time_scales(16, SystemConfig(q2))
        ident = max(ident, abs(ts.t_sr4 * q2 - 1.0))
        ident = max(ident, abs(ts.t_sr4 - 4 * 16 * ts.t_sr3) / ts.t_sr4)
    ok = worst < 1e-12 and ident < 1e-12
    assert report(1, "spectrum-exactness", ok, f"energy rel {worst:.2e}, identities {ident:.2e}")


def test_criterion_02_population_distribution(exp0):
    weights = np.abs(exp0.coefficients) ** 2
    peak_n = int(exp0.n_values[np.argmax(weights)])
    band = float(weights[(exp0.n_values >= 10) & (exp0.n_values <= 22)].sum())
    ok = peak_n == 16 and band > 0.99
    assert report(2, "population-distribution", ok, f"argmax n={peak_n}, band sum={band:.5f}")


def test_criterion_03_exact_revival(exp0, cfg0, x512):
    rho0 = position_density(evolve(exp0, 0.0, cfg0), x512)
    rho1 = position_density(evolve(exp0, 1.0, cfg0), x512)
    sup = float(np.max(np.abs(rho1 - rho0)))
    rho_h = position_density(evolve(exp0, 0.5, cfg0), x512)
    l2 = math.sqrt(np.trapezoid((rho_h - rho0) ** 2, x512))
    ok = sup < 1e-10 and l2 < 1e-3
    assert report(3, "exact-revival", ok, f"sup(t=1) {sup:.2e}, L2(t=0.5) {l2:.2e}")


def test_criterion_04_shifted_revival(ref_packet, cfg_weak, exp_weak):
    """The revival envelope R(t) = max_theta |sum conj(a_n) b_n(t)
    e^{2 pi i n theta}| peaks within 1e-3 of t_rev_bar = 1/(1 - 6 q2 nbar^2)
    = 1.0156 on the 2001-point scan of (0.9, 1.1). Raw |A| can only peak
    where the linear spectral term also aligns, on the classical comb
    t = m t_cl_bar, so its strongest scan peak lies within 1e-3 of the tooth
    round(t_rev_bar / t_cl_bar) t_cl_bar = 1.0051. Both periods are the
    Taylor coefficients of n^2 - q2 n^4 at nbar = 16, in exact arithmetic."""
    q2, n_bar = Fraction(cfg_weak.q_squared), 16
    t_rev_bar = 1 / (1 - 6 * q2 * n_bar**2)
    t_cl_bar = 1 / (2 * n_bar - 4 * q2 * n_bar**3)
    tooth = float(round(t_rev_bar / t_cl_bar) * t_cl_bar)
    want = float(t_rev_bar)

    times = np.linspace(0.9, 1.1, 2001)
    evolved = np.array(
        [evolve(exp_weak, float(t), cfg_weak).coefficients for t in times]
    )
    envelope = revival_envelope(exp_weak.coefficients, evolved)
    t_env = float(times[np.argmax(envelope)])
    env_peak = float(envelope.max()) / exp_weak.captured_norm

    scan = fidelity_scan(ref_packet, cfg_weak, (0.9, 1.1), 2001, expansion=exp_weak)
    t_peak = max(scan.peaks, key=lambda peak: peak[1])[0] if scan.peaks else float("nan")
    ok = abs(t_env - want) <= 1e-3 and abs(t_peak - tooth) <= 1e-3
    assert report(
        4, "shifted-revival", ok,
        f"envelope peak {env_peak:.4f} x norm at t={t_env:.5f}, expected {want:.5f}; "
        f"strongest |A| peak at t={t_peak:.5f}, expected tooth {tooth:.5f}",
    )


def test_criterion_05_cat_state(cat_state, cat_wigner, ref_packet):
    p = default_momentum_grid(ref_packet)
    dens = np.abs(momentum_amplitude(cat_state, p)) ** 2
    local_max = [
        i for i in range(1, len(p) - 1) if dens[i] > dens[i - 1] and dens[i] >= dens[i + 1]
    ]
    top = sorted(sorted(local_max, key=lambda i: -dens[i])[:2])
    bimodal = abs(p[top[0]] + 50.0) < 2.0 and abs(p[top[1]] - 50.0) < 2.0
    neg = negativity_volume(cat_wigner)
    ok = bimodal and neg > 0.1
    assert report(
        5, "quarter-revival-cat", ok,
        f"momentum peaks {p[top[0]]:.1f}/{p[top[1]]:.1f}, negativity {neg:.3f}",
    )


def test_criterion_06_moderate_strength_destroys_cat(cat_wigner, dephased_wigner):
    overlap = wigner_overlap(cat_wigner, dephased_wigner)
    ok = overlap < 0.5
    assert report(6, "cat-destruction", ok, f"overlap {overlap:.3f}")


def test_criterion_07_super_revival(
    cat_wigner, super_quarter_wigner, exp_moderate, cfg_moderate
):
    """The quartic correction carries a minus sign, so at t_sr4/4 = 500 every
    odd level gets the phase +i where the quarter-revival cat gets -i: the
    state is the cat mirrored through the phase-space center,
    W(x, p) = W_cat(1 - x, -p). Asserted: W(t_sr4/4) flipped on both axes
    overlaps W_cat by > 0.95, W(3 t_sr4/4) overlaps W_cat by > 0.95 unflipped,
    and |A(t_sr4)| > 0.999 of the captured norm. The flip is that mirror only
    because the grid maps onto itself under x -> 1 - x, p -> -p, which is
    asserted as well."""
    f = super_quarter_wigner
    grid_mirrors = np.allclose(f.x_axis[::-1], 1.0 - f.x_axis) and np.allclose(
        f.p_axis[::-1], -f.p_axis
    )
    flipped = WignerField(f.x_axis, f.p_axis, f.values[::-1, ::-1], f.meta)
    mirrored = wigner_overlap(flipped, cat_wigner)
    three_quarter = wigner_overlap(wigner(evolve(exp_moderate, 1500.0, cfg_moderate)), cat_wigner)
    fidelity = abs(autocorrelation(exp_moderate, 2000.0, cfg_moderate))
    fid_ok = fidelity > 0.999 * exp_moderate.captured_norm
    ok = grid_mirrors and mirrored > 0.95 and three_quarter > 0.95 and fid_ok
    assert report(
        7, "super-revival", ok,
        f"mirrored overlap at t_sr4/4 {mirrored:.6f}, overlap at 3 t_sr4/4 "
        f"{three_quarter:.6f}, |A(2000)|/norm {fidelity / exp_moderate.captured_norm:.6f}",
    )


def test_criterion_08_subplanck_absolutes(ref_packet, cfg0, cfg_weak):
    a0 = subplanck_dimension(ref_packet, cfg0, 0.25).dim_a
    aq = subplanck_dimension(ref_packet, cfg_weak, 0.25).dim_a
    ok = abs(a0 - 0.28) <= 0.15 * 0.28 and abs(aq - 0.17) <= 0.15 * 0.17
    assert report(8, "subplanck-dimensions", ok, f"a={a0:.4f} (0.28), a_q={aq:.4f} (0.17)")


def test_criterion_09_sensitivity_curves(ref_packet, cfg0):
    """Solid line: monotone fall with delta(1e-5) = 0.61 +/- 0.1. Dashed line,
    evaluated at t = t_sr4/4 = 1/(4 q2): since t q2 n^4 = n^4/4 = n^2/4
    (mod 1), the state there is the unperturbed state at
    tau = (frac(t) + 3/4) mod 1, so delta must equal a(0, tau) / a(0, 1/4) to
    1e-9 relative, with tau reduced in exact arithmetic from the float
    instant. Where 1/(4 q2) is a whole number of revival periods (tau = 3/4
    to within one unit in the last place of t: the mirrored cat) delta is
    1 +/- 0.05. At q2 = 6e-6, 1/(4 q2) = 125000/3, so tau = 5/12 and the cat
    is split further."""
    deltas = [d for _, d in sensitivity_reports(ref_packet, Q2_CURVE, "short_time")]
    monotone = all(a >= b for a, b in zip(deltas, deltas[1:]))
    endpoint = abs(deltas[-1] - 0.61) <= 0.1

    dashed = [(r.q_squared, d) for r, d in
              sensitivity_reports(ref_packet, [q for q in Q2_CURVE if q > 0], "super_revival")]
    reference = subplanck_dimension(ref_packet, cfg0, 0.25).dim_a
    worst = 0.0
    flat_q2, rows = [], []
    for q2, delta in dashed:
        t = 1.0 / (4.0 * q2)
        tau = (Fraction(t) + Fraction(3, 4)) % 1
        oracle = subplanck_dimension(ref_packet, cfg0, float(tau)).dim_a / reference
        worst = max(worst, abs(delta - oracle) / oracle)
        if abs(tau - Fraction(3, 4)) <= math.ulp(t):
            flat_q2.append(q2)
        rows.append(f"{q2:g}: tau={float(tau):.6f} delta={delta:.4f}")
    identity = worst <= 1e-9
    flat = tuple(flat_q2) == Q2_COMMENSURATE and all(
        abs(delta - 1.0) <= 0.05 for q2, delta in dashed if q2 in flat_q2
    )
    ok = monotone and endpoint and identity and flat
    assert report(
        9, "sensitivity-curves", ok,
        "solid " + ("PASS" if monotone and endpoint else "FAIL")
        + f" deltas={[round(d, 3) for d in deltas]}; dashed "
        + ("PASS" if identity and flat else "FAIL")
        + f" [{', '.join(rows)}], max rel error vs a(0, tau)/a(0, 1/4) {worst:.1e}, "
        + f"tau = 3/4 at q2={list(flat_q2)}",
    )


def test_criterion_10_classical_bounce(ref_packet, cfg_moderate):
    """Dominant centroid period equals the shifted classical period within
    2%. The count of 'almost n_bar = 16' maxima is read through that same
    period clause: the window holds 0.5 / t_cl_bar = n_bar (1 - 2 q2
    n_bar^2) = 11.9 bounces, so the count must track that value and stay
    within reach of n_bar."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = carpet(ref_packet, cfg_moderate, (0.0, 0.5), nt=512, nx=512)
    trace = centroid_trace(field)
    ts = time_scales(16, cfg_moderate)
    period = dominant_period(field.axis1, trace)
    period_ok = abs(period - ts.t_cl_bar) / ts.t_cl_bar < 0.02
    count = count_maxima(trace)
    count_ok = abs(count - 0.5 / ts.t_cl_bar) <= 1.0 and count >= 0.7 * 16
    ok = period_ok and count_ok
    assert report(
        10, "classical-bounce", ok,
        f"period {period:.5f} vs {ts.t_cl_bar:.5f}, maxima {count} "
        f"(window/t_cl_bar = {0.5 / ts.t_cl_bar:.1f}, n_bar = 16)",
    )


def test_criterion_11_property_suite(
    ref_packet, exp0, cfg0, cat_state, cat_wigner, initial_wigner,
    super_quarter_wigner, exp_moderate, cfg_moderate, tmp_path,
):
    # Unitarity under evolution, including super-revival horizons.
    drift = max(
        abs(np.sum(np.abs(evolve(exp0, t, cfg).coefficients) ** 2)
            - exp0.captured_norm)
        for t, cfg in ((0.25, cfg0), (12345.678, cfg0), (2000.0, cfg_moderate))
    )
    unitary_ok = drift < 1e-14

    # Wigner marginals and total integral on the evaluated revival-class states.
    marg = 0.0
    norm_err = 0.0
    for field, state in (
        (initial_wigner, evolve(exp0, 0.0, cfg0)),
        (cat_wigner, cat_state),
        (super_quarter_wigner, evolve(exp_moderate, 500.0, cfg_moderate)),
    ):
        xe, pe = marginal_errors(field, state)
        marg = max(marg, xe, pe)
        total = trapezoid_2d(field.x_axis, field.p_axis, field.values)
        norm_err = max(norm_err, abs(total - field.captured_norm))
    wigner_ok = marg < 1e-3 and norm_err < 1e-3

    # Heisenberg floor on evaluated states.
    actions = [
        subplanck_dimension(ref_packet, cfg, t).action_A
        for cfg, t in ((cfg0, 0.0), (cfg0, 0.25), (SystemConfig(1e-5), 0.25))
    ]
    heisenberg_ok = all(a >= 0.5 for a in actions)

    # Determinism across reruns, byte for byte.
    blobs = []
    for rerun in ("first", "second"):
        out = tmp_path / rerun
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli_run(
                ["carpet", "--nt", "16", "--nx", "64", "--outdir", str(out)]
            )
        assert rc == 0
        blobs.append((out / "carpet.csv").read_bytes())
    deterministic_ok = blobs[0] == blobs[1]

    ok = unitary_ok and wigner_ok and heisenberg_ok and deterministic_ok
    assert report(
        11, "property-suite", ok,
        f"unitarity drift {drift:.1e}, marginal sup {marg:.1e}, "
        f"int W err {norm_err:.1e}, min action {min(actions):.6f}, "
        f"deterministic {deterministic_ok}",
    )
