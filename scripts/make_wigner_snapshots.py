#!/usr/bin/env python3
"""Phase-space snapshots of the quarter-revival cat and its relativistic fate.

Four Wigner fields of the reference packet:
  (a) q2 = 0      at t = 0.25            the two-way cat
  (b) q2 = 1e-5   at t = 0.25            slightly distorted cat
  (c) q2 = 5e-4   at t = 0.25            cat destroyed, classical bounce
  (d) q2 = 5e-4   at t = t_sr4/4 = 500   cat rebuilt on the super-revival clock
                                         (parity-mirrored in phase space)

Each field is exported as CSV plus signed-grayscale PGM, and its overlap with
snapshot (a) is printed, together with the overlap of its parity mirror.
"""

import argparse
import warnings
from pathlib import Path

import numpy as np

from boxrevive import (
    PacketSpec,
    SystemConfig,
    evolve,
    expand,
    parity_mirror,
    wigner,
    wigner_overlap,
    write_field_csv,
    write_field_pgm,
)

CASES = [
    ("a_cat", 0.0, 0.25),
    ("b_weak", 1e-5, 0.25),
    ("c_moderate", 5e-4, 0.25),
    ("d_super", 5e-4, 500.0),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out/wigner"))
    parser.add_argument("--grid", type=int, default=256)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    packet = PacketSpec(x_bar=0.5, delta_x=0.1, p_bar=50.0)
    fields = {}
    for tag, q2, t in CASES:
        cfg = SystemConfig(q2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = evolve(expand(packet, cfg), t, cfg)
            field = wigner(state, nx=args.grid, n_p=args.grid)
        fields[tag] = field
        write_field_csv(args.outdir / f"wigner_{tag}.csv", field)
        write_field_pgm(args.outdir / f"wigner_{tag}.pgm", field, signed=True)
        print(f"{tag:12s} q2={q2:<8g} t={t:<6g} min W = {np.min(field.values):+.4f}")

    ref = fields["a_cat"]
    for tag in ("b_weak", "c_moderate", "d_super"):
        raw = wigner_overlap(fields[tag], ref)
        mir = wigner_overlap(parity_mirror(fields[tag]), ref)
        print(f"overlap({tag}, a_cat) = {raw:+.4f}   mirrored: {mir:+.4f}")
    print(f"wrote {2 * len(CASES)} files to {args.outdir}")


if __name__ == "__main__":
    main()
