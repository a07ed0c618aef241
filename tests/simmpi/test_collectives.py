"""Collective algorithms: correctness across sizes, roots, and orderings."""

import numpy as np
import pytest

from repro.simmpi import MAX, MIN, SUM, run_simple

SIZES = [1, 2, 3, 4, 5, 7, 8, 16]
ORDERINGS = ["fifo", "per_tag_fifo", "random"]


def run(main, n, ordering="per_tag_fifo", seed=11):
    result = run_simple(main, nprocs=n, seed=seed, ordering=ordering)
    assert result.completed
    return result.results


@pytest.mark.parametrize("n", SIZES)
def test_allreduce_sum(n):
    results = run(lambda ctx: (yield from ctx.comm.co_allreduce(ctx.rank + 1, SUM)), n)
    assert results == [n * (n + 1) // 2] * n


@pytest.mark.parametrize("n", SIZES)
def test_allreduce_max_min(n):
    def main(ctx):
        high = yield from ctx.comm.co_allreduce(ctx.rank, MAX)
        low = yield from ctx.comm.co_allreduce(ctx.rank, MIN)
        return (high, low)

    assert run(main, n) == [(n - 1, 0)] * n


@pytest.mark.parametrize("n", [2, 4, 8])
def test_allreduce_arrays(n):
    def main(ctx):
        vec = np.full(16, float(ctx.rank + 1))
        return float((yield from ctx.comm.co_allreduce(vec, SUM)).sum())

    expected = 16.0 * n * (n + 1) / 2
    assert run(main, n) == [expected] * n


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast(n, root):
    r = n - 1 if root == "last" else 0

    def main(ctx):
        obj = {"data": 42} if ctx.rank == r else None
        return (yield from ctx.comm.co_bcast(obj, root=r))

    assert run(main, n) == [{"data": 42}] * n


@pytest.mark.parametrize("n", SIZES)
def test_reduce_at_root(n):
    def main(ctx):
        return (yield from ctx.comm.co_reduce(float(ctx.rank), SUM, root=0))

    results = run(main, n)
    assert results[0] == float(sum(range(n)))
    assert all(r is None for r in results[1:])


def test_reduce_rank_order_determinism():
    """Linear fold in rank order keeps float reductions bit-stable."""
    def main(ctx):
        value = 0.1 * (ctx.rank + 1) + 1e-14 * ctx.rank
        return (yield from ctx.comm.co_allreduce(value, SUM))

    a = run(main, 5, seed=1)
    b = run(main, 5, seed=99)  # different interleavings, same fold order
    assert a == b


@pytest.mark.parametrize("n", SIZES)
def test_gather(n):
    def main(ctx):
        return (yield from ctx.comm.co_gather(ctx.rank * 3, root=0))

    results = run(main, n)
    assert results[0] == [i * 3 for i in range(n)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_allgather(n, ordering):
    def main(ctx):
        return (yield from ctx.comm.co_allgather(chr(ord("a") + ctx.rank)))

    expected = [chr(ord("a") + i) for i in range(n)]
    assert run(main, n, ordering) == [expected] * n


@pytest.mark.parametrize("n", SIZES)
def test_scatter(n):
    def main(ctx):
        objs = [i * i for i in range(n)] if ctx.rank == 0 else None
        return (yield from ctx.comm.co_scatter(objs, root=0))

    assert run(main, n) == [i * i for i in range(n)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_alltoall(n, ordering):
    def main(ctx):
        return (yield from ctx.comm.co_alltoall([ctx.rank * 100 + d for d in range(n)]))

    results = run(main, n, ordering)
    for rank, got in enumerate(results):
        assert got == [s * 100 + rank for s in range(n)]


@pytest.mark.parametrize("n", SIZES)
def test_scan(n):
    def main(ctx):
        return (yield from ctx.comm.co_scan(ctx.rank + 1, SUM))

    assert run(main, n) == [sum(range(1, i + 2)) for i in range(n)]


@pytest.mark.parametrize("n", [2, 3, 8])
def test_barrier_synchronisation(n):
    """No rank may pass the barrier before every rank reached it: the
    pre-barrier flags must all be visible after it."""
    def main(ctx):
        flag = yield from ctx.comm.co_allgather(True)  # warm-up
        yield from ctx.comm.co_barrier()
        return all(flag)

    assert run(main, n) == [True] * n


def test_concurrent_collectives_on_split_comms():
    """Disjoint sub-communicators run independent collectives."""
    def main(ctx):
        sub = yield from ctx.comm.co_split(color=ctx.rank % 2, key=ctx.rank)
        total = yield from sub.co_allreduce(ctx.rank, SUM)
        return (ctx.rank % 2, total)

    results = run(main, 6)
    evens = sum(r for r in range(6) if r % 2 == 0)
    odds = sum(r for r in range(6) if r % 2 == 1)
    for rank, (color, total) in enumerate(results):
        assert total == (evens if color == 0 else odds)


def test_dup_isolates_tag_space():
    def main(ctx):
        dup = ctx.comm.dup()
        if ctx.rank == 0:
            yield from ctx.comm.co_send("on-world", 1, tag=5)
            yield from dup.co_send("on-dup", 1, tag=5)
            return None
        if ctx.rank == 1:
            got_dup = yield from dup.co_recv(source=0, tag=5)
            got_world = yield from ctx.comm.co_recv(source=0, tag=5)
            return (got_world, got_dup)
        return None

    results = run(main, 2)
    assert results[1] == ("on-world", "on-dup")


def test_split_undefined_color():
    def main(ctx):
        sub = yield from ctx.comm.co_split(color=None if ctx.rank == 0 else 1, key=ctx.rank)
        if sub is None:
            return "excluded"
        return sub.size

    results = run(main, 4)
    assert results[0] == "excluded"
    assert results[1:] == [3, 3, 3]
