"""Seeded violations: nested scope, short-circuit, global binding."""

TOTAL = 0.0


def main(ctx):
    global TOTAL  # CHECK: RPR007
    ok = True
    vals = [step(ctx, i) for i in range(3)]  # CHECK: RPR003
    got = [ctx.mpi.recv(source=s) for s in range(3)]  # CHECK: RPR003
    flag = ok and step(ctx, 1) > 0  # CHECK: RPR004
    return vals, got, flag


def step(ctx, i):
    ctx.potential_checkpoint()
    return float(i)
