"""Experiment A-PIG: ablation of the Section 4.2 piggyback designs.

The paper presents two encodings: the straightforward triple (12 bytes) and
the optimised single 32-bit word (color + amLogging + 30-bit messageID).
This ablation measures (1) raw encode/decode throughput of both codecs and
(2) end-to-end run cost of a message-heavy app under each codec, plus the
byte savings on the wire.
"""

import pytest

from repro.api import Session
from repro.protocol.piggyback import FullCodec, PackedCodec

from benchmarks.conftest import bench_config


@pytest.mark.parametrize("codec_cls", [FullCodec, PackedCodec], ids=["full", "packed"])
def test_codec_encode_decode_throughput(benchmark, codec_cls):
    codec = codec_cls()
    benchmark.group = "piggyback-codec"

    def run():
        total = 0
        for mid in range(2000):
            wire = codec.encode(7, True, mid)
            info = codec.decode(wire, receiver_epoch=7)
            total += info.message_id
        return total

    assert benchmark(run) == sum(range(2000))


def chatty_app(ctx):
    state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
    while state["i"] < 150:
        right = (ctx.rank + 1) % ctx.size
        yield from ctx.mpi.co_send(float(state["i"]), right, tag=1)
        state["acc"] += (yield from ctx.mpi.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1))
        state["i"] += 1
        yield from ctx.co_potential_checkpoint()
    return state["acc"]


@pytest.mark.parametrize("codec", ["full", "packed"])
def test_end_to_end_codec_cost(benchmark, codec):
    from dataclasses import replace

    benchmark.group = "piggyback-end-to-end"
    cfg = replace(bench_config(), codec=codec)
    session = Session()

    def run():
        return session.run(chatty_app, cfg)

    outcome = benchmark.pedantic(run, rounds=2, iterations=1)
    assert outcome.results[0] > 0


def test_packed_codec_saves_wire_bytes():
    """The packed word saves 8 bytes per message vs the full triple."""
    from dataclasses import replace

    results = {}
    session = Session()
    for codec in ("full", "packed"):
        cfg = replace(bench_config(), codec=codec)
        results[codec] = session.run(chatty_app, cfg).network_bytes
    saved = results["full"] - results["packed"]
    assert saved > 0
    # ~8 bytes per instrumented application message.
    assert saved >= 8 * 100


def test_codec_equivalence_on_results():
    from dataclasses import replace

    outcomes = {}
    session = Session()
    for codec in ("full", "packed"):
        cfg = replace(bench_config(), codec=codec)
        outcomes[codec] = session.run(chatty_app, cfg).results
    assert outcomes["full"] == outcomes["packed"]
