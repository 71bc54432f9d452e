"""Shared fixtures: the reference packet (mean position L/2, width L/10,
momentum 50 hbar/L) and the expensive objects built from it."""

import warnings

import numpy as np
import pytest

from boxrevive import (
    PacketSpec,
    SystemConfig,
    evolve,
    expand,
    wigner,
)

Q2_WEAK = 1e-5
Q2_MODERATE = 5e-4


@pytest.fixture(params=[
    (0.0, np.inf), (np.nan, 0.5), (0.0, np.nan), (-np.inf, 0.5), (0.5, 0.2), (-0.1, 0.2),
], ids=["t1_inf", "t0_nan", "t1_nan", "t0_minus_inf", "reversed", "negative"])
def bad_window(request):
    """A non-finite, reversed or negative time window, which every sampler rejects."""
    return request.param


@pytest.fixture(scope="session")
def ref_packet():
    return PacketSpec(x_bar=0.5, delta_x=0.1, p_bar=50.0)


@pytest.fixture(scope="session")
def cfg0():
    return SystemConfig(q_squared=0.0)


@pytest.fixture(scope="session")
def cfg_weak():
    return SystemConfig(q_squared=Q2_WEAK)


@pytest.fixture(scope="session")
def cfg_moderate():
    return SystemConfig(q_squared=Q2_MODERATE)


@pytest.fixture(scope="session")
def exp0(ref_packet, cfg0):
    return expand(ref_packet, cfg0)


@pytest.fixture(scope="session")
def exp_weak(ref_packet, cfg_weak):
    return expand(ref_packet, cfg_weak)


@pytest.fixture(scope="session")
def exp_moderate(ref_packet, cfg_moderate):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # basis passes 0.7 n* at q2 = 5e-4
        return expand(ref_packet, cfg_moderate)


@pytest.fixture(scope="session")
def cat_state(exp0, cfg0):
    """Quarter-revival two-way cat of the unperturbed box."""
    return evolve(exp0, 0.25, cfg0)


@pytest.fixture(scope="session")
def cat_wigner(cat_state):
    return wigner(cat_state)


@pytest.fixture(scope="session")
def initial_wigner(exp0, cfg0):
    return wigner(evolve(exp0, 0.0, cfg0))


@pytest.fixture(scope="session")
def dephased_state(exp_moderate, cfg_moderate):
    """Mid-bounce state at t = 0.25 with moderate relativistic strength."""
    return evolve(exp_moderate, 0.25, cfg_moderate)


@pytest.fixture(scope="session")
def dephased_wigner(dephased_state):
    return wigner(dephased_state)


@pytest.fixture(scope="session")
def super_quarter_wigner(exp_moderate, cfg_moderate):
    """Quarter of the quartic super-revival clock, t = 500 at q2 = 5e-4."""
    return wigner(evolve(exp_moderate, 500.0, cfg_moderate))


@pytest.fixture(scope="session")
def x512():
    return np.linspace(0.0, 1.0, 512)
