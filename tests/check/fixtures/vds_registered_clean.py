"""Clean counterpart of ``fix_escape.py``: globals registered with
``checkpointable_state("...")`` are saved and restored with every
checkpoint, so stores, aliased mutations and escaping arguments that
reach them are not escapes and the checker must stay silent."""
from repro.statesave import checkpointable_state

CACHE = {}
checkpointable_state("CACHE")
HISTORY = []
checkpointable_state("HISTORY")
RESULTS = {"last": None}
checkpointable_state("RESULTS")


def record(ctx, value):
    RESULTS["last"] = value
    return value


def main(ctx):
    ctx.potential_checkpoint()
    x = ctx.allreduce(1.0, op="sum")
    CACHE["x"] = x
    log = HISTORY
    log.append(x)
    record(ctx, x)
    return x
