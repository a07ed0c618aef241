"""Live-variable analysis: what a checkpoint keeps of each frame.

Each case is a small function and the locals expected to be saved at each
of its checkpointable blocks, keyed by the block's ``_pc`` (the table
``PrecompiledUnit.saved_locals`` publishes and ``capture`` reads).
"""

import pytest

from repro.precompiler import Precompiler


def leaf(ctx, x):
    y = x + 1
    ctx.potential_checkpoint()
    return y


def loop_carried(ctx, n):
    acc = 0
    prev = 0
    i = 0
    while i < n:
        cur = acc + prev
        ctx.potential_checkpoint()
        prev = cur * 2  # rebound before next iteration's read: dead above
        acc += prev
        i += 1
    return acc


def two_iterations_back(ctx, n):
    older = old = 0
    i = 0
    while i < n:
        ctx.potential_checkpoint()
        out = older  # written two iterations ago
        older = old
        old = i
        i += 1
    return out


def branch_merge(ctx, flag, a, b):
    if flag:
        ctx.potential_checkpoint()
        out = a
    else:
        ctx.potential_checkpoint()
        out = b
    ctx.potential_checkpoint()
    return out


def may_def_if(ctx, flag, x):
    y = 0
    ctx.potential_checkpoint()
    if flag:  # atomic: its assignment is a may-def, y stays live
        y = x
    return y


def may_def_try(ctx, x):
    y = 0
    ctx.potential_checkpoint()
    try:
        y = 1 // x
    except ZeroDivisionError:
        pass
    return y


def deletes(ctx, n):
    big = list(range(n))
    total = sum(big)
    ctx.potential_checkpoint()
    del big  # needs the binding: big is live above, dead below
    ctx.potential_checkpoint()
    return total


def tuple_targets(ctx, pair):
    a, b = pair
    ctx.potential_checkpoint()
    a, (b, *rest) = pair[0], pair[1:]
    return a, b, rest


def local_import(ctx, x):
    # Names bound by a function-local import are not part of the VDS
    # (``discover_locals`` does not list them): never saved, never restored.
    import math

    ctx.potential_checkpoint()
    y = math.floor(x)
    ctx.potential_checkpoint()
    return math.ceil(y)


def for_loop(ctx, items):
    total = 0
    for item in items:
        ctx.potential_checkpoint()
        total += item
    return total


def hidden_jump(ctx, n):
    keep = 5
    i = 0
    while True:
        ctx.potential_checkpoint()
        if i >= n:
            break  # a jump inside an atomic `if`, ahead of the kill below
        keep = 0
        i += 1
    return keep


def closure_cell(ctx, k):
    scale = k * 2
    bump = lambda v: v + scale  # noqa: E731
    out = bump(1)
    ctx.potential_checkpoint()
    return out


def frame_reader(ctx, a):
    b = a + 1  # noqa: F841 - read by name in the eval below
    unused = 0  # noqa: F841
    ctx.potential_checkpoint()
    return eval("a + b")


def frame_reader_locals(ctx, a):
    b = a + 1
    ctx.potential_checkpoint()
    return sorted(locals())


def call_arguments(ctx, a, b):
    c = a * b
    got = leaf(ctx, a)  # re-executed on restore: its argument is a use
    return got + c


def comm_named(comm, x):
    comm.potential_checkpoint()
    return x


def rebound_root(comm, other):
    comm = comm + 1  # not a context: the caller's value would be wrong
    leaf(other, 1)
    return comm


CASES = {
    leaf: {1: {"y"}},
    loop_carried: {4: {"acc", "cur", "i", "n"}},
    two_iterations_back: {2: {"older", "old", "i", "n"}},
    branch_merge: {1: {"a"}, 2: {"b"}, 3: {"out"}},
    may_def_if: {1: {"flag", "x", "y"}},
    may_def_try: {1: {"x", "y"}},
    deletes: {1: {"big", "total"}, 2: {"total"}},
    tuple_targets: {1: {"pair"}},
    local_import: {1: {"x"}, 2: {"y"}},
    for_loop: {4: {"_c3it_0", "item", "total"}},
    hidden_jump: {2: {"i", "keep", "n"}},
    closure_cell: {1: {"out", "scale"}},
    frame_reader: {1: {"a", "b", "unused"}},
    frame_reader_locals: {1: {"a", "b"}},
    call_arguments: {1: {"a", "c"}},
    comm_named: {0: {"x"}},
    rebound_root: {1: {"comm", "other"}},
}


@pytest.mark.parametrize("fn", CASES, ids=lambda fn: fn.__name__)
def test_saved_locals(fn):
    functions = [fn] if fn is leaf else [fn, leaf]
    unit = Precompiler(functions, unit_name="t").compile()
    assert unit.saved_locals[f"t.{fn.__name__}"] == CASES[fn]


def test_sources_name_what_each_block_saves():
    unit = Precompiler([call_arguments, leaf], unit_name="t").compile()
    for name in ("call_arguments", "_c3co_call_arguments"):
        assert "elif _pc == 1:  # saved: a, c\n" in unit.sources[name]
    assert unit.sources["leaf"].count("# saved:") == 1


def test_gallery_units_are_pinned():
    from repro.apps import dense_cg, laplace, neurosys

    saved = laplace.unit().saved_locals
    assert saved["laplace.laplace_main"] == {
        2: {"block", "hi", "lo", "n", "it", "iterations"}
    }
    assert saved["laplace.halo_exchange"] == {1: set()}
    assert dense_cg.unit().saved_locals["dense_cg.cg_iteration"] == {1: {"rs_new"}}
    assert neurosys.unit().saved_locals["neurosys.neurosys_iteration"] == {
        1: {"v_new"}
    }
