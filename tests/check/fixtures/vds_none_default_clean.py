"""Clean counterpart of ``fix_defaults.py``: a ``None`` default with an
in-body rebuild guard gives every call a fresh object, so the checker
must stay silent."""


def accumulate(ctx, value, history=None):
    """Collect values into a per-call history."""
    if history is None:
        history = []
    history.append(value)
    return ctx.allreduce(value, op="sum")


def main(ctx):
    ctx.potential_checkpoint()
    return accumulate(ctx, float(ctx.rank))
