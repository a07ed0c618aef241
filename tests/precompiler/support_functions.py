"""A corpus of module-level functions for precompiler tests.

``inspect.getsource`` needs real files, so every function the transform
tests feed to :class:`Precompiler` lives here.  Each is written to exercise
a specific construct: loops, branches, break/continue, nesting, recursion,
atomic inner loops, expression-embedded calls.
"""

from __future__ import annotations


def leaf(ctx, x):
    y = x + 1
    ctx.potential_checkpoint()
    return y


def plain_math(a, b):
    """Not checkpoint-reaching: must be left untransformed."""
    return a * b + 1


def straight_line(ctx):
    a = 1
    b = a + 2
    c = leaf(ctx, b)
    d = c * 2
    return d


def branches(ctx, n):
    total = 0
    for i in range(n):
        if i % 3 == 0:
            total += leaf(ctx, i)
        elif i % 3 == 1:
            total -= i
        else:
            total *= 2
    return total


def nested_loops(ctx, n):
    total = 0
    i = 0
    while i < n:
        for j in range(i):
            total += leaf(ctx, j)
        i += 1
    return total


def break_continue(ctx, n):
    total = 0
    for i in range(n):
        if i == 7:
            break
        if i % 2 == 0:
            continue
        total += leaf(ctx, i)
    return total


def atomic_inner_loop(ctx, n):
    total = 0
    for i in range(n):
        total += leaf(ctx, i)
        # This inner loop has no checkpointable call: stays native, and its
        # break must NOT be rewritten to a dispatch jump.
        for j in range(10):
            if j > 3:
                break
            total += j
    return total


def expression_calls(ctx, n):
    total = 0
    for i in range(n):
        total += leaf(ctx, i) + leaf(ctx, i + 1)
        value = plain_math(leaf(ctx, total % 5), 2)
        total += value
    return total


def returns_call(ctx, x):
    return leaf(ctx, x) * 3


def recursive(ctx, n):
    if n <= 0:
        ctx.potential_checkpoint()
        return 0
    return n + recursive(ctx, n - 1)


def while_with_call_test(ctx, n):
    count = 0
    while leaf(ctx, count) < n:
        count += 1
    return count


def uses_docstring(ctx):
    """Docstring should survive."""
    x = leaf(ctx, 1)
    return x


def caller_of_caller(ctx, n):
    return branches(ctx, n) + straight_line(ctx)


def loop_over_list(ctx, values):
    total = 0
    for v in values:
        total += leaf(ctx, v)
    return total


def aug_assign_with_call(ctx, n):
    total = 100
    total -= leaf(ctx, n)
    total *= 2
    return total


def halo_step(ctx, x):
    """Blocks on its neighbours but never checkpoints."""
    ctx.mpi.send(x, (ctx.rank + 1) % ctx.size, tag=7)
    return ctx.mpi.recv(source=(ctx.rank - 1) % ctx.size, tag=7)


def exchange_loop(ctx):
    acc = ctx.rank
    for i in range(120):
        acc = (acc + halo_step(ctx, acc + i)) % 1000003
        ctx.potential_checkpoint()
    return acc


def yielding_loop(ctx):
    """Gives way to the other ranks at a voluntary scheduling point."""
    peer = (ctx.rank + 1) % ctx.size
    acc = ctx.rank
    for i in range(120):
        ctx.yield_point()
        acc = (acc + ctx.mpi.sendrecv(acc + i, peer, peer, send_tag=5)) % 1000003
        ctx.potential_checkpoint()
    return acc


# --- functions that must be REJECTED -------------------------------------


def bad_try(ctx):
    try:
        leaf(ctx, 1)
    except ValueError:
        pass


def bad_with(ctx):
    with open("/dev/null") as fh:
        leaf(ctx, 1)


def bad_nested_def(ctx):
    def inner():
        return leaf(ctx, 1)

    return inner()


def bad_boolop(ctx, flag):
    return flag and leaf(ctx, 1)


def bad_comprehension(ctx, n):
    return sum(leaf(ctx, i) for i in range(n))


def bad_recv_in_comprehension(ctx, n):
    return [ctx.mpi.recv(source=s) for s in range(n)]


def bad_helper_in_lambda(ctx):
    later = lambda x: halo_step(ctx, x)  # noqa: E731
    return later(1)


def bad_send_in_nested_def(ctx):
    def inner(x):
        ctx.mpi.send(x, 0)

    inner(1)


def bad_generator(ctx):
    yield leaf(ctx, 1)


def ok_try_without_call(ctx):
    """try is fine as long as no checkpointable call is inside."""
    total = 0
    try:
        total = int("3")
    except ValueError:
        total = -1
    total += leaf(ctx, total)
    return total
