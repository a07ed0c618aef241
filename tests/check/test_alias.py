"""Alias-aware VDS-escape analysis: mutations through aliases of
non-local state (RPR033)."""

import textwrap

from repro.check import check_source


def check(source: str):
    return check_source(textwrap.dedent(source), file="<test>")


def codes(result) -> list[str]:
    return sorted(d.code for d in result.diagnostics)


class TestAliasMutation:
    def test_store_through_direct_alias(self):
        result = check(
            """
            STATE = {}

            def main(ctx):
                ctx.potential_checkpoint()
                view = STATE
                view["x"] = ctx.allreduce(1.0, op="sum")
                return 0
            """
        )
        assert "RPR033" in codes(result)

    def test_mutator_call_through_alias(self):
        result = check(
            """
            LOG = []

            def main(ctx):
                ctx.potential_checkpoint()
                sink = LOG
                sink.append(ctx.rank)
                return ctx.allreduce(1.0, op="sum")
            """
        )
        assert "RPR033" in codes(result)

    def test_alias_laundered_through_container(self):
        result = check(
            """
            LOG = []

            def main(ctx):
                ctx.potential_checkpoint()
                box = (LOG, 0)
                sink = box[0]
                sink.extend([ctx.rank])
                return ctx.allreduce(1.0, op="sum")
            """
        )
        assert "RPR033" in codes(result)

    def test_helper_returning_global_taints_caller(self):
        result = check(
            """
            SETTINGS = {"tol": 1e-6}

            def shared(ctx):
                return SETTINGS

            def main(ctx):
                ctx.potential_checkpoint()
                cfg = shared(ctx)
                cfg["tol"] = 0.1
                return ctx.allreduce(1.0, op="sum")
            """
        )
        assert "RPR033" in codes(result)

    def test_fresh_local_container_is_clean(self):
        result = check(
            """
            def main(ctx):
                ctx.potential_checkpoint()
                log = []
                log.append(ctx.rank)
                copy = log
                copy.extend([1, 2])
                return ctx.allreduce(float(len(log)), op="sum")
            """
        )
        assert codes(result) == []

    def test_copy_of_global_is_clean(self):
        # list(...) builds a fresh object; mutating the copy does not
        # touch the module state it was built from.
        result = check(
            """
            DEFAULTS = [1, 2, 3]

            def main(ctx):
                ctx.potential_checkpoint()
                work = list(DEFAULTS)
                work.append(ctx.rank)
                return ctx.allreduce(float(len(work)), op="sum")
            """
        )
        assert codes(result) == []

