"""Stage pipeline: the variant → pipeline mapping, per-stage observability.

Pins the paper-faithful V0-V3 pipelines (the V1 regression: the protocol
layer is *active* under V1 — "Using Protocol Layer, No Checkpoints" — it
simply has no checkpoint stage and never initiates a wave) and the
per-stage overhead counters the flat layer could not provide.
"""

import pytest

from repro.api.session import Session
from repro.errors import ConfigError
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.simmpi import SUM

#: The five protocol stages every V1-V3 pipeline runs.
PROTOCOL_STAGES = ("piggyback", "classifier", "message-log", "result-log", "replay")

#: V2/V3: the protocol stages plus the checkpoint controller.
FULL_STACK = PROTOCOL_STAGES + ("checkpoint",)


class TestVariantPipelines:
    def test_active_stages_per_variant_in_a_live_run(self):
        """End-to-end pin: which stages actually dispatch under each
        variant — none for V0, the five protocol stages for V1 (a pipeline
        built without a storage), those five plus ``checkpoint`` for V2/V3."""

        def app(ctx):
            acc = 0
            for i in range(10):
                acc += (yield from ctx.mpi.co_allreduce(i, SUM))
                yield from ctx.co_potential_checkpoint()
            return acc

        expected = {
            Variant.UNMODIFIED: (),
            Variant.PIGGYBACK: PROTOCOL_STAGES,
            Variant.NO_APP_STATE: FULL_STACK,
            Variant.FULL: FULL_STACK,
        }
        for variant in Variant:
            cfg = RunConfig(nprocs=2, seed=2, variant=variant,
                            checkpoint_interval=0.002, detector_timeout=0.04)
            out = run_with_recovery(app, cfg)
            assert tuple(out.stage_totals()) == expected[variant], variant

    def test_v1_never_checkpoints_even_with_an_interval(self):
        def app(ctx):
            for i in range(30):
                yield from ctx.mpi.co_allreduce(i, SUM)
                yield from ctx.co_potential_checkpoint()
            return ctx.mpi.ckpt

        cfg = RunConfig(nprocs=2, seed=2, variant=Variant.PIGGYBACK,
                        checkpoint_interval=0.0005)
        assert not cfg.checkpointing_active
        out = run_with_recovery(app, cfg)
        assert out.results == [None, None]
        assert out.checkpoints_committed == 0
        assert out.storage_bytes_written == 0
        assert all(stats.checkpoints_taken == 0 for stats in out.layer_stats)


class TestVariantSpellings:
    @pytest.mark.parametrize("label, variant", [
        ("V0", Variant.UNMODIFIED), ("V1", Variant.PIGGYBACK),
        ("V2", Variant.NO_APP_STATE), ("V3", Variant.FULL),
    ])
    def test_paper_labels(self, label, variant):
        assert variant.label == label
        assert Variant.coerce(label) is variant
        assert Variant.coerce(label.lower()) is variant
        assert Variant.coerce(variant.value) is variant
        assert Variant.coerce(variant.name) is variant

    def test_unknown_spelling_rejected(self):
        with pytest.raises(ConfigError, match="unknown variant 'V4'.*V3/full"):
            Variant.coerce("V4")

    def test_sweep_accepts_paper_labels(self):
        def app(ctx):
            return (yield from ctx.mpi.co_allreduce(ctx.rank, SUM))

        rows = Session().sweep(
            app, RunConfig(nprocs=2), variants=("V0", "V1"), parallel=False,
        ).table()
        assert [row["variant"] for row in rows] == ["unmodified", "piggyback"]
        assert [row["results"] for row in rows] == [[1, 1], [1, 1]]


class TestPerStageObservability:
    def _run(self, variant=Variant.FULL, nprocs=3, iterations=20, interval=0.002):
        def app(ctx):
            state = ctx.checkpointable_state(lambda: {"i": 0})
            peer = (ctx.rank + 1) % ctx.size
            while state["i"] < iterations:
                yield from ctx.mpi.co_send(state["i"], peer, tag=1)
                yield from ctx.mpi.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from ctx.co_nondet(lambda: 1)
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return state["i"]

        cfg = RunConfig(nprocs=nprocs, seed=8, variant=variant,
                        checkpoint_interval=interval, detector_timeout=0.04)
        return run_with_recovery(app, cfg)

    def test_each_peer_is_told_its_count_in_one_word(self, monkeypatch):
        """On a ring each rank sends to one of its five peers: a local
        checkpoint sends five ``mySendCount`` words, each one 8-byte int
        naming the new epoch, and only the right-hand neighbour's count is
        nonzero.  The sender is the envelope's source, not a field."""
        from repro.protocol import control as ctl
        from repro.simmpi.constants import TAG_CONTROL
        from repro.simmpi.datatypes import HEADER_BYTES
        from repro.simmpi.network import Network

        posted = []
        real_post = Network.post

        def recording_post(self, env, now):
            if env.tag == TAG_CONTROL:
                kind, epoch, count = ctl.unpack_control(env.payload)
                if kind == ctl.MY_SEND_COUNT:
                    posted.append((env.source, env.dest, epoch, count, env.nbytes))
            return real_post(self, env, now)

        monkeypatch.setattr(Network, "post", recording_post)
        out = self._run(nprocs=6, iterations=80, interval=0.0005)
        checkpoints = sum(stats.checkpoints_taken for stats in out.layer_stats)
        assert out.restarts == 0 and checkpoints >= 6
        assert len(posted) == 5 * checkpoints
        for source, dest, epoch, count, nbytes in posted:
            assert nbytes == HEADER_BYTES + 8
            assert 1 <= epoch <= out.checkpoints_committed + 1
            # the ring's one nonzero count goes to the right-hand neighbour
            assert (count > 0) <= (dest == (source + 1) % 6)
        assert any(count > 0 for *_, count, _ in posted)

    def test_stage_counters_populated(self):
        out = self._run()
        totals = out.stage_totals()
        # Point-to-point traffic drives piggyback/classifier/message-log.
        assert totals["piggyback"]["calls"] > 0
        assert totals["classifier"]["calls"] > 0
        assert totals["message-log"]["calls"] > 0
        # The checkpoint stage progressed on every call.
        assert totals["checkpoint"]["calls"] > 0
        # No failure, so nothing was replayed.
        assert totals["replay"]["calls"] == 0
        # Counts only: dispatch reads no host clock.
        assert all(set(t) == {"calls"} for t in totals.values())
        assert totals == {
            name: {"calls": sum(s.stage_calls[name] for s in out.layer_stats)}
            for name in FULL_STACK
        }

    def test_per_rank_stats_carry_stage_counters(self):
        out = self._run()
        for stats in out.layer_stats:
            assert set(stats.stage_calls) == set(FULL_STACK)
            assert stats.stage_calls["piggyback"] > 0

    def test_v0_has_no_stage_dispatch(self):
        out = self._run(Variant.UNMODIFIED)
        assert out.stage_totals() == {}

    def test_sweep_table_surfaces_stage_columns(self):
        def app(ctx):
            return (yield from ctx.mpi.co_allreduce(1, SUM))

        rows = Session().sweep(
            app,
            RunConfig(nprocs=2, checkpoint_interval=0.002, detector_timeout=0.04),
            variants=(Variant.UNMODIFIED, Variant.FULL),
            parallel=False,
        ).table()
        v0_row, v3_row = rows
        assert v0_row["stage_calls"] == {}
        assert v3_row["stage_calls"]["checkpoint"] > 0
        assert set(v3_row["stage_calls"]) == set(FULL_STACK)
        assert "stage_seconds" not in v3_row
