"""Seeded violation: mutable default argument."""


def helper(ctx, xs=[]):  # CHECK: RPR031
    ctx.potential_checkpoint()
    return xs


def main(ctx):
    total = 0.0
    ctx.potential_checkpoint()
    scale = lambda v: v * total
    return scale(1.0), helper(ctx)
