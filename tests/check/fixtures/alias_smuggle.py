"""Seeded violation: a checkpointed local smuggled into module state by
a helper.  The store inside the helper is the classic RPR030, which
covers the call site handing the local over as well."""

CACHE = {}


def remember(ctx, key, value):
    CACHE[key] = value  # CHECK: RPR030


def main(ctx):
    ctx.potential_checkpoint()
    field = [float(ctx.rank)] * 8
    remember(ctx, ctx.rank, field)
    return ctx.allreduce(field[0], op="sum")
