"""Seeded violations: collectives guarded by a clock reading.

Every rank reads its own clock, virtual (``ctx.now()``,
``ctx.mpi.wtime()``) or host (``time.time()``), so a guard on a clock
reading is provably rank-divergent: ranks leave the loop after different
counts, or take different arms, and a collective deadlocks."""

import time


def main(ctx):
    n = 0.0
    ctx.potential_checkpoint()
    while ctx.now() < 0.001:  # CHECK: RPR014
        n = ctx.allreduce(n + 1.0, op="sum")
    deadline = time.time() + 0.5  # CHECK: RPR021
    while time.time() < deadline:  # CHECK: RPR014  # CHECK: RPR021
        n = ctx.allreduce(n, op="sum")
    if ctx.mpi.wtime() > 1.0:  # CHECK: RPR014
        n = ctx.bcast(n)
    return n
