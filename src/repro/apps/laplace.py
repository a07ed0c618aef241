"""Laplace solver (paper Section 6.1, second benchmark).

"A Laplace Solver, by Raghu Reddy from the Pittsburgh Supercomputing
Center.  This program uses a grid of numbers that is distributed by block
rows.  During each iteration every grid cell is updated to be the average
of the numbers contained by the neighboring cells (up, down, left, right)
in the previous iteration.  The communication comes from each processor
exchanging border rows with the processor 'above' it and the processor
'below' it."

Implementation: an ``n × n`` grid with fixed (Dirichlet) boundary values,
block-row distributed with one halo row on each interior edge.  Each
iteration sends the first/last owned rows to the neighbours (plain
point-to-point — this benchmark exercises the protocol's p2p path, where
dense CG and Neurosys exercise collectives), then performs the four-point
Jacobi average.  A ``potential_checkpoint()`` ends every iteration.

The paper notes this code's checkpointing overhead stays ≤ 2.1% because the
application state is small and the messages are large relative to the
piggyback word — the benchmark harness checks exactly that shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import AppSpec, register
from repro.precompiler.api import PrecompiledApp, Precompiler


@dataclass(frozen=True)
class LaplaceParams:
    """Paper sizes: 512², 1024², 2048² for 40000 iterations (scaled here)."""

    n: int = 64
    iterations: int = 40
    compute_charge: bool = True

    def state_bytes(self, nprocs: int) -> int:
        """Per-rank state (paper labels: 138 KB / 532 KB / 2.1 MB total)."""
        return (self.n // nprocs + 2) * self.n * 8


def _row_block(rank: int, size: int, n: int) -> tuple[int, int]:
    base = n // size
    extra = n % size
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


def make_initial_rows(n: int, lo: int, hi: int) -> np.ndarray:
    """Rows ``[lo, hi)`` of the deterministic initial condition: hot top
    edge, cold bottom edge, warm sides, zero elsewhere."""
    rows = np.zeros((hi - lo, n))
    if lo == 0 < hi:
        rows[0, :] = 100.0
    if lo < hi == n:
        rows[-1, :] = -25.0
    rows[:, 0] = 50.0
    rows[:, -1] = 50.0
    return rows


def make_initial_grid(n: int) -> np.ndarray:
    """The whole initial grid (the serial reference's starting point)."""
    return make_initial_rows(n, 0, n)


def laplace_reference(n: int, iterations: int) -> np.ndarray:
    """Serial Jacobi reference for correctness tests."""
    grid = make_initial_grid(n)
    for _ in range(iterations):
        interior = 0.25 * (
            grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
        )
        new = grid.copy()
        new[1:-1, 1:-1] = interior
        grid = new
    return grid


# --------------------------------------------------------------------- #
# The parallel application (precompiled unit).
# --------------------------------------------------------------------- #

TAG_DOWN = 11  # data flowing to the rank below (higher row indices)
TAG_UP = 12    # data flowing to the rank above


def halo_exchange(ctx, block):
    """Exchange border rows with the neighbours above and below.

    ``block`` has one halo row at each end; owned rows are block[1:-1].
    """
    above = ctx.rank - 1
    below = ctx.rank + 1
    if above >= 0:
        ctx.mpi.send(block[1].copy(), above, tag=TAG_UP)
    if below < ctx.size:
        ctx.mpi.send(block[-2].copy(), below, tag=TAG_DOWN)
    if above >= 0:
        block[0] = ctx.mpi.recv(source=above, tag=TAG_DOWN)
    if below < ctx.size:
        block[-1] = ctx.mpi.recv(source=below, tag=TAG_UP)
    ctx.potential_checkpoint()


def laplace_main(ctx):
    """Entry point: block-row Jacobi iteration with halo exchange."""
    n = ctx.params.n
    iterations = ctx.params.iterations
    lo, hi = _row_block(ctx.rank, ctx.size, n)
    # Owned rows plus one halo row on each side (left zero where the
    # grid ends); only these rows of the initial grid are ever built.
    first = max(lo - 1, 0)
    last = min(hi + 1, n)
    block = np.zeros((hi - lo + 2, n))
    block[first - lo + 1:last - lo + 1] = make_initial_rows(n, first, last)
    it = 0
    while it < iterations:
        halo_exchange(ctx, block)
        new_inner = 0.25 * (
            block[:-2, 1:-1] + block[2:, 1:-1] + block[1:-1, :-2] + block[1:-1, 2:]
        )
        if ctx.params.compute_charge:
            ctx.compute(flops=4.0 * (hi - lo) * n)
        # Fixed boundary: global first/last rows and the side columns keep
        # their values; interior cells take the Jacobi average.
        update = block[1:-1].copy()
        rlo = 1 if lo == 0 else 0
        rhi = (hi - lo) - 1 if hi == n else (hi - lo)
        update[rlo:rhi, 1:-1] = new_inner[rlo:rhi, :]
        block[1:-1] = update
        it += 1
    owned = block[1:-1]
    return {
        "checksum": float(owned.sum()),
        "max": float(owned.max()),
        "rows": (lo, hi),
    }


# --------------------------------------------------------------------- #
# Harness glue.
# --------------------------------------------------------------------- #

_UNIT = None


def unit():
    global _UNIT
    if _UNIT is None:
        _UNIT = Precompiler(
            [laplace_main, halo_exchange], unit_name="laplace"
        ).compile()
    return _UNIT


def build(params: LaplaceParams) -> PrecompiledApp:
    return PrecompiledApp(unit(), entry="laplace_main", params=params)


SPEC = register(
    AppSpec(
        name="laplace",
        factory=build,
        default_params=LaplaceParams(),
        description="Laplace Solver (Figure 8, middle chart)",
    )
)
