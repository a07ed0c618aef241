"""Every collective call instance keeps to its own tag block.

A caller reserves a block of ``_TAG_STRIDE`` tags, ``(base - _TAG_STRIDE,
base]``, for each collective call and the algorithm sends round ``r`` on
``base - r``.  These runs post every message of all nine collectives, on a
raw communicator and through the protocol pipeline (whose calls are a
command exchange and a data collective, one block each), and check that
each message's tag lies in the block of the call that posted it, that no
two call instances of a run share a tag, and that no ``(source, dest, tag,
context)`` key repeats within a run: the network keeps no FIFO floor for
a collective round's key on that ground.
"""

from collections import defaultdict

import pytest

from repro.protocol import C3Config, ProtocolPipeline
from repro.protocol.stages.pipeline import LAYER_COLL_BASE
from repro.simmpi import SUM, run_simple
from repro.simmpi.collectives_impl import _TAG_STRIDE
from repro.simmpi.constants import TAG_COLLECTIVE_BASE
from repro.simmpi.network import Network

SIZES = [*range(1, 10), 16, 17, 64]


def _calls(rank, size):
    """The nine collectives, each as ``(name, args)``; roots off rank 0."""
    root = size // 2
    return [
        ("bcast", ("x" if rank == root else None, root)),
        ("reduce", (rank, SUM, root)),
        ("allreduce", (rank, SUM)),
        ("gather", (rank, root)),
        ("allgather", (rank,)),
        ("scatter", (list(range(size)) if rank == root else None, root)),
        ("alltoall", (list(range(size)),)),
        ("barrier", ()),
        ("scan", (rank, SUM)),
    ]


def _posts_by_call(monkeypatch, n, through_pipeline):
    """Run the nine collectives on ``n`` ranks; returns, per call index,
    the ``(payload, tag)`` of every message any rank posted during it.

    Every message of the run is in a collective region, and no ordering
    key of one repeats."""
    posts = defaultdict(list)
    keys = []
    real_post = Network.post

    def recording_post(self, env, now):
        posts[env.source].append((env.payload, env.tag))
        keys.append((env.source, env.dest, env.tag, env.context))
        return real_post(self, env, now)

    monkeypatch.setattr(Network, "post", recording_post)
    marks = defaultdict(list)

    def main(ctx):
        target = ctx.comm
        if through_pipeline:
            target = ProtocolPipeline(ctx.comm, C3Config(checkpoint_interval=None))
        for name, args in _calls(ctx.rank, ctx.size):
            marks[ctx.rank].append(len(posts[ctx.rank]))
            yield from getattr(target, "co_" + name)(*args)
        marks[ctx.rank].append(len(posts[ctx.rank]))

    assert run_simple(main, nprocs=n, seed=5, ordering="random").completed
    by_call = defaultdict(list)
    for rank, bounds in marks.items():
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            by_call[k] += posts[rank][lo:hi]
    assert sum(map(len, by_call.values())) == sum(map(len, posts.values()))
    assert all(tag <= TAG_COLLECTIVE_BASE for _, _, tag, _ in keys)
    assert len(set(keys)) == len(keys), "an ordering key repeats"
    return by_call


def _check_blocks(blocks):
    """``blocks`` maps each instance's base to the tags it posted."""
    owner = {}
    for base, tags in blocks.items():
        for tag in tags:
            assert base - _TAG_STRIDE < tag <= base, (base, tag)
            assert owner.setdefault(tag, base) == base, f"tag {tag} shared"


@pytest.mark.parametrize("n", SIZES)
def test_raw_collectives_keep_to_their_blocks(n, monkeypatch):
    by_call = _posts_by_call(monkeypatch, n, through_pipeline=False)
    _check_blocks({
        TAG_COLLECTIVE_BASE - k * _TAG_STRIDE: [tag for _, tag in posted]
        for k, posted in by_call.items()
    })
    if n > 1:
        assert all(by_call[k] for k in range(9))


@pytest.mark.parametrize("n", SIZES)
def test_pipeline_command_and_data_keep_to_their_blocks(n, monkeypatch):
    """Call ``k``'s command exchange (its packed-word ``bytes`` blocks)
    owns ``LAYER_COLL_BASE - 2k * _TAG_STRIDE`` and its data collective or
    barrier the block below."""
    by_call = _posts_by_call(monkeypatch, n, through_pipeline=True)
    blocks = {}
    for k, posted in by_call.items():
        base = LAYER_COLL_BASE - 2 * k * _TAG_STRIDE
        blocks[base] = [tag for payload, tag in posted if type(payload) is bytes]
        blocks[base - _TAG_STRIDE] = [
            tag for payload, tag in posted if type(payload) is not bytes
        ]
    _check_blocks(blocks)
    if n > 1:
        assert all(blocks.values())
