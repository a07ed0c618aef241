"""Behavioural edge cases of the individual analyses, driven through
``check_source`` so unit selection and span handling are exercised too."""

import textwrap

from repro.check import check_source


def check(source: str):
    return check_source(textwrap.dedent(source), file="<test>")


def codes(result) -> list[str]:
    return sorted(d.code for d in result.diagnostics)


class TestUnitSelection:
    def test_non_ctx_helpers_stay_out(self):
        # build() mutates a global and draws entropy — but it is not part
        # of the checked unit (no comm parameter, not called from one).
        result = check(
            """
            import random
            REGISTRY = {}

            def build(params):
                REGISTRY["x"] = random.random()
                return REGISTRY

            def main(ctx):
                ctx.potential_checkpoint()
                return ctx.allreduce(1.0, op="sum")
            """
        )
        assert result.functions == ("main",)
        assert codes(result) == []

    def test_plain_name_callees_join_the_unit(self):
        result = check(
            """
            def helper(c, x):
                c.potential_checkpoint()
                return x

            def main(ctx):
                return helper(ctx, 1)
            """
        )
        assert result.functions == ("helper", "main")

    def test_first_param_fallback_is_the_comm_root(self):
        # A helper spelling its context 'c' joins the unit through the
        # call graph, and its first parameter anchors its method calls.
        result = check(
            """
            def helper(c, x):
                c.potential_checkpoint()
                if c.rank == 0:
                    return c.allreduce(x, op="sum")
                return x

            def main(ctx):
                return helper(ctx, 1.0)
            """
        )
        assert codes(result) == ["RPR014"]


class TestCollectiveMatching:
    def test_matching_arms_are_silent(self):
        result = check(
            """
            def main(ctx):
                ctx.potential_checkpoint()
                if ctx.rank == 0:
                    x = ctx.allreduce(1.0, op="sum")
                else:
                    x = ctx.allreduce(0.0, op="sum")
                return x
            """
        )
        assert codes(result) == []

    def test_p2p_in_one_arm_is_not_a_collective(self):
        # laplace's halo exchange: conditional send/recv never enters the
        # *collective* matcher.  The one-sided send is the census's
        # business now (RPR013), not a branch mismatch.
        result = check(
            """
            def main(ctx):
                ctx.potential_checkpoint()
                if ctx.rank > 0:
                    ctx.send(1, dest=ctx.rank - 1)
                return 0
            """
        )
        assert codes(result) == ["RPR013"]

    def test_matched_p2p_pair_is_silent(self):
        # The full rank-parity protocol — a send and its matching recv
        # (same default tag) — verifies clean without any carve-out.
        result = check(
            """
            def main(ctx):
                ctx.potential_checkpoint()
                if ctx.rank > 0:
                    ctx.send(1, dest=ctx.rank - 1)
                if ctx.rank < ctx.size - 1:
                    x = ctx.recv()
                return 0
            """
        )
        assert codes(result) == []

    def test_collective_via_unit_call_counts(self):
        result = check(
            """
            def reduce_all(ctx, x):
                return ctx.allreduce(x, op="sum")

            def main(ctx):
                ctx.potential_checkpoint()
                if ctx.rank == 0:
                    return reduce_all(ctx, 1.0)
                return 0.0
            """
        )
        assert "RPR014" in codes(result)

    def test_unconditional_return_before_collective_is_silent(self):
        # An unconditional return is not an *early* exit — every rank
        # takes it.
        result = check(
            """
            def main(ctx):
                ctx.potential_checkpoint()
                x = ctx.allreduce(1.0, op="sum")
                return x
            """
        )
        assert codes(result) == []


class TestNondeterminism:
    def test_local_shadowing_suppresses(self):
        result = check(
            """
            def main(ctx):
                ctx.potential_checkpoint()
                random = ctx.rng
                return random.random()
            """
        )
        assert codes(result) == []

    def test_ctx_nondet_wrapper_is_clean(self):
        result = check(
            """
            def main(ctx):
                ctx.potential_checkpoint()
                return ctx.nondet(lambda: 42)
            """
        )
        assert codes(result) == []

    def test_numpy_random_flagged(self):
        result = check(
            """
            import numpy as np

            def main(ctx):
                ctx.potential_checkpoint()
                return np.random.normal()
            """
        )
        assert codes(result) == ["RPR020"]


class TestVdsEscape:
    def test_local_mutation_is_fine(self):
        result = check(
            """
            def main(ctx):
                ctx.potential_checkpoint()
                acc = []
                acc.append(1)
                table = {}
                table["k"] = 2
                return acc, table
            """
        )
        assert codes(result) == []

    def test_augassign_to_global_flagged(self):
        result = check(
            """
            STATS = {"calls": 0}

            def main(ctx):
                ctx.potential_checkpoint()
                STATS["calls"] += 1
                return 0
            """
        )
        assert codes(result) == ["RPR030"]

    def test_default_none_is_fine(self):
        result = check(
            """
            def main(ctx, xs=None):
                ctx.potential_checkpoint()
                return xs or []
            """
        )
        assert codes(result) == []

    def test_lambda_with_default_binding_is_clean(self):
        result = check(
            """
            def main(ctx):
                ctx.potential_checkpoint()
                total = 2.0
                scale = lambda v, t=total: v * t
                return scale(1.0)
            """
        )
        assert codes(result) == []

