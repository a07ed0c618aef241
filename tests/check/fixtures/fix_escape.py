"""Seeded violations: module-state escapes (direct store, aliased
mutation, a helper's store of its argument).  Their hints lead with threading the value
through parameters and locals; ``vds_registered_clean.py`` shows that
``checkpointable_state("...")`` registration also verifies clean, though
it keeps one process-wide copy for all ranks."""

CACHE = {}
HISTORY = []
RESULTS = {"last": None}


def record(ctx, value):
    RESULTS["last"] = value  # CHECK: RPR030
    return value


def main(ctx):
    ctx.potential_checkpoint()
    x = ctx.allreduce(1.0, op="sum")
    CACHE["x"] = x  # CHECK: RPR030
    log = HISTORY
    log.append(x)  # CHECK: RPR033
    record(ctx, x)
    return x
