"""The collective-summary language of the unit analysis."""

import ast
import textwrap

from repro.precompiler.analysis import (
    EPS,
    Alt,
    CallRef,
    Cond,
    Seq,
    Star,
    Tok,
    UnitAnalysis,
    alt,
    collectives_in,
    seq,
    star,
)

BARRIER, ALLREDUCE, BCAST = Tok("barrier"), Tok("allreduce"), Tok("bcast")


def analysis(source: str) -> UnitAnalysis:
    module = ast.parse(textwrap.dedent(source))
    return UnitAnalysis({
        n.name: n for n in module.body if isinstance(n, ast.FunctionDef)
    })


def summary(source: str, name: str = "main"):
    return analysis(source).summaries[name]


class TestNormalForm:
    def test_seq_flattens_and_drops_eps(self):
        assert seq([EPS, seq([BARRIER, EPS]), ALLREDUCE]) == Seq((BARRIER, ALLREDUCE))

    def test_alt_dedupes_and_flattens(self):
        assert alt(BARRIER, BARRIER) == BARRIER
        assert alt(alt(BARRIER, BCAST), BARRIER) == Alt((BARRIER, BCAST))

    def test_star_of_eps_is_eps(self):
        assert star(EPS) == EPS

    def test_nested_star_collapses(self):
        assert star(star(BARRIER)) == Star(BARRIER)

    def test_equivalence_is_equality_of_normal_forms(self):
        assert seq([EPS, BARRIER]) == BARRIER
        assert seq([BARRIER, ALLREDUCE]) != seq([ALLREDUCE, BARRIER])

    def test_adjacent_conditions_on_one_key_merge_per_path(self):
        merged = seq([Cond("k", ALLREDUCE, EPS), Cond("k", BCAST, EPS)])
        assert merged == Cond("k", Seq((ALLREDUCE, BCAST)), EPS)


class TestResolve:
    def test_callref_substitutes_callee_summary(self):
        unit = analysis(
            """
            def main(ctx):
                helper(ctx)

            def helper(ctx):
                ctx.allreduce(1.0)
            """
        )
        assert unit.summaries["main"] == CallRef("helper")
        assert unit.resolve(unit.summaries["main"]) == ALLREDUCE

    def test_recursion_stays_a_callref(self):
        unit = analysis(
            """
            def f(ctx, n):
                ctx.barrier()
                if ctx.rank < n:
                    f(ctx, n - 1)
            """
        )
        assert unit.resolve(CallRef("f")) == Seq((BARRIER, Alt((CallRef("f"), EPS))))

    def test_calls_without_collectives_contribute_nothing(self):
        assert summary(
            """
            def main(ctx):
                log(ctx)
                print("done")

            def log(ctx):
                return 0
            """
        ) == EPS


class TestBlockSummary:
    def test_straight_line(self):
        assert summary(
            """
            def main(ctx):
                ctx.barrier()
                x = ctx.allreduce(1.0, op="sum")
                return x
            """
        ) == Seq((BARRIER, ALLREDUCE))

    def test_branch_on_rank_merges_to_alt(self):
        assert summary(
            """
            def main(ctx):
                if ctx.rank == 0:
                    ctx.barrier()
                else:
                    ctx.bcast(1, root=0)
                return 0
            """
        ) == Alt((BARRIER, BCAST))

    def test_branch_on_uniform_predicate_is_a_condition(self):
        s = summary(
            """
            def main(ctx, fast):
                if fast:
                    ctx.barrier()
            """
        )
        assert isinstance(s, Cond) and (s.then, s.orelse) == (BARRIER, EPS)

    def test_loop_merges_to_star(self):
        assert summary(
            """
            def main(ctx):
                for i in range(4):
                    ctx.allreduce(i, op="sum")
                return 0
            """
        ) == Star(ALLREDUCE)

    def test_non_comm_receiver_is_ignored(self):
        assert summary(
            """
            def main(ctx):
                lock.barrier()
                return 0
            """
        ) == EPS

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
