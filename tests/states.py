"""Evolved states shared by the kernel and cache tests."""

from boxrevive import PacketSpec, SystemConfig, evolve, expand


def two_level_range_states():
    """Two states at t = 0.3 whose expansions span levels 3..31 and 12..31."""
    cfg = SystemConfig(1e-5)
    states = [
        evolve(expand(packet, cfg), 0.3, cfg)
        for packet in (PacketSpec(0.5, 0.1, 50.0), PacketSpec(0.5, 0.15, 63.0))
    ]
    assert [(s.n_min, s.n_max) for s in states] == [(3, 31), (12, 31)]
    return states
