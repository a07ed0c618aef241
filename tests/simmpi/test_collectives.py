"""Collective algorithms: correctness across sizes, roots, and orderings."""

import inspect
import math

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.protocol.stages.pipeline import LAYER_COLL_BASE
from repro.simmpi import MAX, MIN, SUM, run_simple
from repro.simmpi import collectives_impl as coll_impl
from repro.simmpi.comm import Comm
from repro.simmpi.datatypes import HEADER_BYTES, sizeof
from repro.simmpi.network import Network
from repro.simmpi.op import reduce_sequence

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


def _mixed_block(rank):
    kind = rank % 4
    if kind == 0:
        return None
    if kind == 1:
        return (rank, "x" * rank)
    if kind == 2:
        return np.full(2, rank * 1.5)
    return {"rank": rank, "halo": np.arange(rank), "tag": (rank, None)}


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_allgather_mixed_payloads_in_log_rounds(n, ordering):
    """None, tuples, arrays and dicts come back as one list in rank order,
    in ceil(log2(n)) rounds of one message per rank: recursive doubling at
    powers of two, Bruck's otherwise (a ring took n - 1)."""
    def main(ctx):
        return (yield from ctx.comm.co_allgather(_mixed_block(ctx.rank)))

    result = run_simple(main, nprocs=n, seed=11, ordering=ordering)
    assert result.completed
    assert result.network.posted == n * math.ceil(math.log2(n)) <= n * (n - 1)
    for got in result.results:
        assert type(got) is list and len(got) == n
        for rank, block in enumerate(got):
            np.testing.assert_equal(block, _mixed_block(rank))


def _record_posts(monkeypatch):
    """Record every envelope the network is handed; returns the list."""
    posted = []
    real_post = Network.post

    def recording_post(self, env, now):
        posted.append(env)
        return real_post(self, env, now)

    monkeypatch.setattr(Network, "post", recording_post)
    return posted


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_allgather_block_is_a_list_of_its_values(n, monkeypatch):
    """Each data-allgather message is the list of the k values it forwards,
    ``HEADER_BYTES + sizeof(list)`` = ``HEADER_BYTES + 8 + 4k + the values``
    on the wire: no rank keys travel."""
    posted = _record_posts(monkeypatch)

    def main(ctx):
        return (yield from ctx.comm.co_allgather(_mixed_block(ctx.rank)))

    run(main, n)
    assert len(posted) == n * math.ceil(math.log2(n))
    # Every rank receives the n - 1 values it lacks, each exactly once.
    assert sum(len(env.payload) for env in posted) == n * (n - 1)
    for env in posted:
        values = env.payload
        assert type(values) is list
        assert env.nbytes == HEADER_BYTES + 8 + 4 * len(values) + sum(map(sizeof, values))
        assert env.nbytes == HEADER_BYTES + sizeof(values)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("root", [0, "last"])
def test_reduce_is_gather_plus_a_fold(n, root, monkeypatch):
    """A reduce posts the gather's exact (source, dest, tag, bytes) sequence
    and folds the gathered values at root in rank order."""
    r = n - 1 if root == "last" else 0
    posted = _record_posts(monkeypatch)

    def value(rank):
        return 0.1 * (rank + 1) + 1e-14 * rank

    def reduce_main(ctx):
        return (yield from ctx.comm.co_reduce(value(ctx.rank), SUM, root=r))

    def gather_main(ctx):
        return (yield from ctx.comm.co_gather(value(ctx.rank), root=r))

    reduced = run(reduce_main, n)
    reduce_wire = [(e.source, e.dest, e.tag, e.nbytes) for e in posted]
    posted.clear()
    run(gather_main, n)
    gather_wire = [(e.source, e.dest, e.tag, e.nbytes) for e in posted]
    assert reduce_wire == gather_wire and len(reduce_wire) == n - 1
    assert reduced[r] == reduce_sequence(SUM, [value(i) for i in range(n)])
    assert all(got is None for i, got in enumerate(reduced) if i != r)


#: The tag base of these runs' direct ``co_allgather_words`` calls: the
#: protocol layer's region, which a raw communicator's collectives never
#: reach.
WORDS_BASE = LAYER_COLL_BASE


def _words_exchange(ctx):
    """The command exchange's words (``epoch << 1 | amLogging``-shaped),
    both ways."""
    word = (ctx.rank * 7919) << 1 | ctx.rank & 1
    words = yield from coll_impl.co_allgather_words(ctx.comm, WORDS_BASE, word)
    return words, (yield from ctx.comm.co_allgather(word))


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_allgather_words_matches_allgather(n, ordering):
    expected = [(r * 7919) << 1 | r & 1 for r in range(n)]
    assert run(_words_exchange, n, ordering) == [(expected, expected)] * n


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_allgather_words_ships_4_bytes_a_word(n, monkeypatch):
    """n * ceil(log2(n)) messages (the ring's n(n - 1) is 20 at n = 5 and 30
    at n = 6), each a block of k words of HEADER_BYTES + 4k bytes."""
    posted = _record_posts(monkeypatch)

    def main(ctx):
        return (yield from coll_impl.co_allgather_words(ctx.comm, WORDS_BASE, ctx.rank))

    assert run(main, n) == [list(range(n))] * n
    assert len(posted) == n * math.ceil(math.log2(n))
    for env in posted:
        assert type(env.payload) is bytes
        assert env.nbytes == HEADER_BYTES + len(env.payload)
        assert len(env.payload) % 4 == 0 and 4 <= len(env.payload) <= 4 * (n // 2)


@pytest.mark.parametrize("word", [-1, 1 << 32, 1.0])
def test_allgather_words_rejects_a_word_past_32_bits(word):
    def main(ctx):
        yield from coll_impl.co_allgather_words(ctx.comm, WORDS_BASE, word)

    with pytest.raises(ProtocolError, match="does not fit in 32 bits"):
        run_simple(main, nprocs=2, seed=0)


@pytest.mark.parametrize("n", SIZES)
def test_scatter(n):
    def main(ctx):
        objs = [i * i for i in range(n)] if ctx.rank == 0 else None
        return (yield from ctx.comm.co_scatter(objs, root=0))

    assert run(main, n) == [i * i for i in range(n)]


@pytest.mark.parametrize("collective", ["bcast", "scatter"])
def test_a_rooted_collective_finishes_at_its_root_in_one_slice(collective):
    """A collective suspends only where it waits: the root of an 8-rank
    broadcast or scatter receives nothing, so its sends end no slice."""
    def main(ctx):
        first = ctx.proc.slices
        if collective == "bcast":
            yield from ctx.comm.co_bcast(ctx.rank, root=0)
        else:
            yield from ctx.comm.co_scatter(list(range(8)) if ctx.rank == 0 else None, root=0)
        return ctx.proc.slices - first

    result = run_simple(main, nprocs=8, seed=11)
    assert result.completed and result.network.posted == 7
    assert result.results[0] == 0


def test_a_collective_send_is_not_a_scheduling_point():
    assert not inspect.isgeneratorfunction(Comm.coll_send)


def _alltoall_block(payload, src, dst):
    if payload == "int":
        return src * 100 + dst
    kind = (src + dst) % 3
    return None if kind == 0 else (src, dst) if kind == 1 else np.full(3, src * 100.0 + dst)


@pytest.mark.parametrize("n", SIZES + [64])
@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("payload", ["int", "mixed"])
def test_alltoall(n, ordering, payload):
    """Every block reaches its rank in ceil(log2(n)) rounds of one message
    per rank, and a rank's own block is handed back, not copied."""
    def main(ctx):
        mine = [_alltoall_block(payload, ctx.rank, d) for d in range(n)]
        return mine, (yield from ctx.comm.co_alltoall(mine))

    result = run_simple(main, nprocs=n, seed=11, ordering=ordering)
    assert result.completed
    assert result.network.posted == n * math.ceil(math.log2(n))
    for rank, (mine, got) in enumerate(result.results):
        assert got[rank] is mine[rank]
        assert len(got) == n
        for src, block in enumerate(got):
            expected = _alltoall_block(payload, src, rank)
            if isinstance(expected, np.ndarray):
                np.testing.assert_array_equal(block, expected)
            else:
                assert block == expected


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
