#!/usr/bin/env python3
"""Reproduce the Neurosys overhead story (Figure 8, right chart).

The paper's most striking measurement: at 16×16 neurons the protocol layer
costs up to 160% — not from checkpointing, but from the *command* collective
the layer sends before each of Neurosys's 5 allgathers + 1 gather per
iteration — and the overhead fades to 2.7% at 128×128 as computation grows.

This script sweeps the Unmodified build (V0) and the protocol layer with no
checkpoints (V1) across scaled problem sizes and prints, per size, the
messages each build delivers (exact) and V1's wall-time overhead over V0
(host time, so indicative only).

Run:  python examples/neurosys_overhead_study.py
"""

from repro import RunConfig, Session, Variant
from repro.apps.neurosys import NeurosysParams

#: (paper size, scaled grid actually run)
SIZES = [("16x16", 4), ("32x32", 8), ("64x64", 16), ("128x128", 32)]


def main() -> None:
    config = RunConfig(
        nprocs=4, seed=11, checkpoint_interval=0.004, detector_timeout=0.05
    )
    sweep = Session().sweep(
        "neurosys", config,
        variants=(Variant.UNMODIFIED, Variant.PIGGYBACK),
        params=[NeurosysParams(grid=grid, iterations=30) for _, grid in SIZES],
        parallel=False,  # wall time per run is the measured quantity
    )
    rows = {(row.cell.variant, row.cell.params.grid): row.outcome for row in sweep}

    print(f"{'size (scaled)':<22} {'V0 msgs':>8} {'V1 msgs':>8} {'V1 overhead':>12}")
    for label, grid in SIZES:
        v0 = rows[(Variant.UNMODIFIED, grid)]
        v1 = rows[(Variant.PIGGYBACK, grid)]
        assert v1.results == v0.results, "the layer changed the answer"
        overhead = 100.0 * (v1.total_wall_seconds / v0.total_wall_seconds - 1.0)
        bar = "#" * max(1, int(overhead / 4))
        print(
            f"{label + f' ({grid}x{grid})':<22} {v0.network_messages:>8} "
            f"{v1.network_messages:>8} {overhead:>11.1f}%  {bar}"
        )
    print()
    print("paper series at full scale: 160% → 85% → 34% → 2.7%")


if __name__ == "__main__":
    main()
