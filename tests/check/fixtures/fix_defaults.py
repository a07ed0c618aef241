"""Seeded violation: a mutable default argument.  Its hint names the
``None`` default plus in-body rebuild guard that
``vds_none_default_clean.py`` shows verifying clean."""


def accumulate(ctx, value, history=[]):  # CHECK: RPR031
    """Collect values into a per-call history."""
    history.append(value)
    return ctx.allreduce(value, op="sum")


def main(ctx):
    ctx.potential_checkpoint()
    return accumulate(ctx, float(ctx.rank))
