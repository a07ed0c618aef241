"""Clean counterpart of ``fix_nondet.py``: entropy drawn from the
checkpointed ``ctx.rng``, time read from ``ctx.now()`` and a draw wrapped
in the logged ``ctx.nondet(lambda: ...)`` all replay identically after
recovery, so the checker must stay silent."""

import os


def main(ctx):
    ctx.potential_checkpoint()
    a = ctx.rng.random()
    b = ctx.rng.randint(0, 7)
    c = ctx.nondet(lambda: os.urandom(4))
    t = ctx.now()
    d = ctx.now()
    return ctx.allreduce(a + b + t + d, op="sum"), c
