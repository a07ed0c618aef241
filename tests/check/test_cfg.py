"""The collective-sequence summary language."""

import ast
import textwrap

from repro.check.cfg import (
    EPS,
    Alt,
    CallRef,
    Seq,
    Star,
    Tok,
    collectives_in,
    equivalent,
    function_summary,
    has_unknown,
    normalize,
    resolve,
)

COLLECTIVES = frozenset({"allreduce", "barrier", "bcast", "reduce"})


def fn(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef))


def summary(source: str, unit=()):
    return function_summary(
        fn(source), COLLECTIVES, frozenset({"ctx"}), frozenset(unit)
    )


class TestNormalize:
    def test_seq_flattens_and_drops_eps(self):
        s = Seq((EPS, Seq((Tok("barrier"), EPS)), Tok("allreduce")))
        assert normalize(s).render() == "barrier allreduce"

    def test_alt_dedupes(self):
        s = Alt((Tok("barrier"), Tok("barrier")))
        assert normalize(s).render() == "barrier"

    def test_star_of_eps_is_eps(self):
        assert normalize(Star(EPS)) is EPS

    def test_nested_star_collapses(self):
        assert normalize(Star(Star(Tok("barrier")))).render() == "(barrier)*"

    def test_equivalence_is_on_normal_forms(self):
        a = Seq((EPS, Tok("barrier")))
        b = Tok("barrier")
        assert equivalent(a, b)


class TestResolve:
    def test_callref_substitutes_callee_summary(self):
        env = {"helper": Tok("allreduce")}
        assert resolve(CallRef("helper"), env).render() == "allreduce"

    def test_unknown_on_recursion(self):
        env = {"f": Seq((Tok("barrier"), CallRef("f")))}
        resolved = resolve(CallRef("f"), env)
        assert has_unknown(resolved)

    def test_external_calls_contribute_nothing(self):
        assert resolve(CallRef("print"), {}) is EPS


class TestFunctionSummary:
    def test_straight_line(self):
        s = summary(
            """
            def main(ctx):
                ctx.barrier()
                x = ctx.allreduce(1.0, op="sum")
                return x
            """
        )
        assert s.render() == "barrier allreduce"

    def test_branch_merges_to_alt(self):
        s = summary(
            """
            def main(ctx):
                if ctx.rank == 0:
                    ctx.barrier()
                else:
                    ctx.bcast(1, root=0)
                return 0
            """
        )
        assert s.render() == "(barrier | bcast)"

    def test_loop_merges_to_star(self):
        s = summary(
            """
            def main(ctx):
                for i in range(4):
                    ctx.allreduce(i, op="sum")
                return 0
            """
        )
        assert s.render() == "(allreduce)*"

    def test_unit_call_becomes_callref(self):
        s = summary(
            """
            def main(ctx):
                helper(ctx)
                return 0
            """,
            unit=("helper",),
        )
        assert s.render() == "call:helper"

    def test_non_comm_receiver_is_ignored(self):
        s = summary(
            """
            def main(ctx):
                lock.barrier()
                return 0
            """
        )
        assert s is EPS

    def test_collectives_in_collects_language_tokens(self):
        s = summary(
            """
            def main(ctx):
                ctx.barrier()
                if ctx.rank == 0:
                    ctx.reduce(1, root=0)
                return 0
            """
        )
        assert collectives_in(s) == ("barrier", "reduce")

