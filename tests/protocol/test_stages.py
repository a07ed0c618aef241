"""Stage pipeline: variant stacks, registries, per-stage observability.

Pins the paper-faithful V0-V3 stage compositions (the V1 regression: the
protocol layer is *active* under V1 — "Using Protocol Layer, No
Checkpoints" — it simply has no checkpoint stage and never initiates a
wave), the open stage/stack registries, and the per-stage overhead
counters the flat layer could not provide.
"""

import pytest

from repro.api.session import Session
from repro.errors import ConfigError
from repro.protocol import (
    C3Config,
    ProtocolPipeline,
    register_stack,
    register_stage,
    variant_stack,
)
from repro.protocol.stages import (
    FULL_STACK,
    PROTOCOL_STAGES,
    ProtocolStage,
    build_stages,
    list_stacks,
    list_stages,
)
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.simmpi import SUM, run_simple
from repro.statesave import Storage


class TestVariantStacksPinned:
    """Regression for the V1 semantics mismatch (docstring vs c3_config)."""

    def test_v0_is_the_empty_stack(self):
        assert variant_stack("V0").stages == ()

    def test_v1_is_protocol_without_checkpoint(self):
        """Paper: V1 = "Using Protocol Layer, No Checkpoints" — the layer
        (piggyback, classification, logging machinery) is active, but no
        checkpoint stage exists and no wave can ever start."""
        spec = variant_stack("V1")
        assert spec.stages == (
            "piggyback", "classifier", "message-log", "result-log", "replay"
        )
        assert "checkpoint" not in spec.stages

    def test_v2_v3_differ_only_in_app_state(self):
        v2, v3 = variant_stack("V2"), variant_stack("V3")
        assert v2.stages == v3.stages == PROTOCOL_STAGES + ("checkpoint",)
        assert v2.save_app_state is False
        assert v3.save_app_state is True

    def test_variant_enum_values_resolve(self):
        for variant, name in [
            (Variant.UNMODIFIED, "V0"), (Variant.PIGGYBACK, "V1"),
            (Variant.NO_APP_STATE, "V2"), (Variant.FULL, "V3"),
        ]:
            assert variant_stack(variant.value).name == name
            assert RunConfig(nprocs=2, variant=variant).stack_spec().name == name

    def test_v1_c3_config_agrees_with_docstring(self):
        """Code and docs now agree: V1 has the protocol *enabled* and the
        checkpoint interval forced to None."""
        cfg = variant_stack("V1").c3_config(RunConfig(nprocs=2, checkpoint_interval=0.5))
        assert cfg.protocol_enabled
        assert cfg.piggyback_enabled
        assert cfg.checkpoint_interval is None
        assert not cfg.save_app_state
        assert "protocol layer is active" in C3Config.__doc__
        assert "``protocol_enabled=True``" in C3Config.__doc__

    def test_active_stages_per_variant_in_a_live_run(self):
        """End-to-end pin: which stages actually dispatch under each
        variant (stage_calls keys == the declared stack)."""

        def app(ctx):
            acc = 0
            for i in range(10):
                acc += (yield from ctx.mpi.co_allreduce(i, SUM))
                yield from ctx.co_potential_checkpoint()
            return acc

        for variant in Variant:
            cfg = RunConfig(nprocs=2, seed=2, variant=variant,
                            checkpoint_interval=0.002, detector_timeout=0.04)
            out = run_with_recovery(app, cfg)
            expected = set(cfg.stack_spec().stages)
            assert set(out.stage_totals()) == expected, variant


class TestRegistries:
    def test_builtin_stages_registered(self):
        assert set(FULL_STACK) <= set(list_stages())

    def test_builtin_stacks_registered(self):
        assert {"V0", "V1", "V2", "V3"} <= set(list_stacks())

    def test_unknown_stack_rejected(self):
        with pytest.raises(ConfigError, match="unknown variant stack"):
            variant_stack("V9")

    def test_duplicate_stack_requires_replace(self):
        register_stack("test-dup-stack", (), replace=True)
        with pytest.raises(ConfigError, match="already registered"):
            register_stack("test-dup-stack", ())
        register_stack("test-dup-stack", (), replace=True)

    def test_duplicate_stage_requires_replace(self):
        register_stage("test-dup-stage", ProtocolStage, replace=True)
        with pytest.raises(ConfigError, match="already registered"):
            register_stage("test-dup-stage", ProtocolStage)

    def test_unknown_stage_in_stack_rejected_at_build(self):
        with pytest.raises(ConfigError, match="unknown protocol stage"):
            build_stages(("no-such-stage",), C3Config())

    def test_stage_dependencies_validated(self):
        storage = Storage()

        def main(ctx):
            cfg = C3Config()
            for stack in (("classifier",), PROTOCOL_STAGES[:1] + ("checkpoint",)):
                with pytest.raises(ConfigError, match="requires stages"):
                    ProtocolPipeline(
                        ctx.comm, stages=build_stages(stack, cfg), config=cfg,
                        storage=storage,
                    )
            return True

        assert run_simple(main, nprocs=1, seed=0).results == [True]


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

    def test_peers_told_the_same_count_share_one_token(self, monkeypatch):
        """On a ring each rank sends to one of its five peers: a local
        checkpoint builds at most two ``MySendCount`` tokens (that peer's
        count and the 0 the other four are told) and still sends five."""
        from repro.protocol.control import MySendCount
        from repro.simmpi.network import Network

        built, posted = [], []
        real_init = MySendCount.__init__
        real_post = Network.post

        def counting_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self)

        def counting_post(self, env, now):
            if isinstance(env.payload, MySendCount):
                posted.append((env.dest, env.payload))
            return real_post(self, env, now)

        monkeypatch.setattr(MySendCount, "__init__", counting_init)
        monkeypatch.setattr(Network, "post", counting_post)
        out = self._run(nprocs=6, iterations=80, interval=0.0005)
        checkpoints = sum(stats.checkpoints_taken for stats in out.layer_stats)
        assert out.restarts == 0 and checkpoints >= 6
        assert len(set(built)) == len(built) <= 2 * checkpoints
        assert len(posted) == 5 * checkpoints
        for dest, token in posted:
            # the ring's one nonzero count goes to the right-hand neighbour
            assert (token.count > 0) <= (dest == (token.sender + 1) % 6)

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
