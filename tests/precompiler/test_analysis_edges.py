"""Edge cases of the precompiler's static analysis layer.

Covers the comm-root anchoring of checkpoint sites (a user's
``lock.barrier()`` must not be one), the checkpoint-reaching fixpoint
under mutual recursion, rejection of checkpointable calls in
comprehension/short-circuit positions, violation spans, and the
all-violations reporting mode of ``Precompiler.compile``.
"""

import ast
import textwrap

import pytest

from repro.errors import UnsupportedConstructError
from repro.precompiler.analysis import (
    UnitAnalysis,
    comm_roots,
    is_checkpoint_site,
)
from repro.precompiler.api import Precompiler


def _trees(source: str) -> dict[str, ast.FunctionDef]:
    module = ast.parse(textwrap.dedent(source))
    return {
        n.name: n for n in module.body if isinstance(n, ast.FunctionDef)
    }


class TestCommRoots:
    def test_named_comm_params_win(self):
        (tree,) = _trees("def f(a, ctx, b): pass").values()
        assert comm_roots(tree) == frozenset({"ctx"})

    def test_multiple_named_params(self):
        (tree,) = _trees("def f(ctx, comm): pass").values()
        assert comm_roots(tree) == frozenset({"ctx", "comm"})

    def test_first_param_fallback(self):
        (tree,) = _trees("def f(c, x): pass").values()
        assert comm_roots(tree) == frozenset({"c"})

    def test_no_params_no_roots(self):
        (tree,) = _trees("def f(): pass").values()
        assert comm_roots(tree) == frozenset()


class TestBarrierOverMatchRegression:
    """Regression: any ``X.barrier()`` used to count as a checkpoint site,
    so a threading ``lock.barrier()`` made its function checkpoint-reaching
    and forced a (broken) transform of innocent code."""

    SOURCE = """
        def uses_lock(ctx, lock):
            lock.barrier()
            return 1

        def uses_ctx(ctx, lock):
            ctx.barrier()
            return 2
    """

    def test_foreign_barrier_is_not_a_site(self):
        analysis = UnitAnalysis(_trees(self.SOURCE))
        assert not analysis.infos["uses_lock"].has_checkpoint_site
        assert analysis.infos["uses_ctx"].has_checkpoint_site
        assert analysis.reaching == {"uses_ctx"}

    def test_site_is_anchored_at_the_given_roots(self):
        call = ast.parse("lock.barrier()").body[0].value
        assert not is_checkpoint_site(call, frozenset({"ctx"}))
        assert is_checkpoint_site(call, frozenset({"lock"}))

    def test_compile_leaves_foreign_barrier_function_untransformed(self):
        class FakeLock:
            def barrier(self):
                return None

        def uses_lock(ctx, lock):
            lock.barrier()
            return 1

        unit = Precompiler([uses_lock]).compile()
        assert unit.transformed_names == set()
        # The untransformed original is served back verbatim.
        assert unit.functions["uses_lock"](None, FakeLock()) == 1

    def test_barrier_only_site_makes_unit_reaching(self):
        # Paper Section 4.5: barriers are potential-checkpoint locations,
        # so a unit whose only site is a ctx barrier still transforms.
        def barrier_only(ctx):
            total = 0
            for i in range(3):
                ctx.barrier()
                total += i
            return total

        unit = Precompiler([barrier_only]).compile()
        assert unit.transformed_names == {"barrier_only"}


class TestReachingFixpoint:
    def test_mutual_recursion_converges(self):
        analysis = UnitAnalysis(_trees(
            """
            def even(ctx, n):
                if n == 0:
                    ctx.potential_checkpoint()
                    return True
                return odd(ctx, n - 1)

            def odd(ctx, n):
                if n == 0:
                    return False
                return even(ctx, n - 1)
            """
        ))
        assert analysis.reaching == {"even", "odd"}

    def test_cycle_with_no_site_never_reaches(self):
        analysis = UnitAnalysis(_trees(
            """
            def ping(ctx, n):
                return pong(ctx, n - 1)

            def pong(ctx, n):
                return ping(ctx, n - 1)
            """
        ))
        assert analysis.reaching == set()


class TestUnsupportedPositions:
    def _violations(self, source: str):
        return UnitAnalysis(_trees(source)).violations

    def test_comprehension_rejected_with_span(self):
        (found,) = self._violations(
            """
            def main(ctx):
                return [step(ctx, i) for i in range(3)]

            def step(ctx, i):
                ctx.potential_checkpoint()
                return i
            """
        )
        assert "nested scope" in found.construct
        assert found.function == "main"
        assert found.lineno == 3
        assert found.col_offset is not None

    def test_boolean_short_circuit_rejected(self):
        (found,) = self._violations(
            """
            def main(ctx, ok):
                return ok and step(ctx)

            def step(ctx):
                ctx.potential_checkpoint()
                return True
            """
        )
        assert "short-circuit" in found.construct

    def test_collect_mode_gathers_every_violation(self):
        violations = self._violations(
            """
            def main(ctx):
                try:
                    step(ctx)
                except ValueError:
                    pass
                with open("/tmp/f"):
                    step(ctx)
                vals = [step(ctx) for i in range(2)]
                return vals

            def step(ctx):
                ctx.potential_checkpoint()
                return 1
            """
        )
        constructs = sorted(v.construct.split()[0] for v in violations)
        assert constructs == ["nested", "try", "with"]
        assert all(v.function == "main" for v in violations)
        assert all(v.lineno is not None for v in violations)


class TestCompileReportsAllViolations:
    def test_aggregated_error_lists_every_construct(self):
        def main(ctx):
            try:
                step(ctx)
            except ValueError:
                pass
            with open("/tmp/f"):
                step(ctx)
            return 0

        def step(ctx):
            ctx.potential_checkpoint()
            return 1

        with pytest.raises(UnsupportedConstructError) as info:
            Precompiler([main, step]).compile()
        exc = info.value
        assert len(exc.violations) == 2
        message = str(exc)
        assert "2 unsupported constructs" in message
        assert "try" in message and "with" in message
        # Spans are absolute file coordinates of this test module.
        assert exc.lineno is not None
        assert exc.lineno > main.__code__.co_firstlineno
        assert exc.function == "main"

    def test_single_violation_keeps_flat_message(self):
        def main(ctx):
            try:
                step(ctx)
            except ValueError:
                pass
            return 0

        def step(ctx):
            ctx.potential_checkpoint()
            return 1

        with pytest.raises(UnsupportedConstructError) as info:
            Precompiler([main, step]).compile()
        exc = info.value
        assert len(exc.violations) == 1
        assert "unsupported construct" in str(exc)
        assert exc.col_offset is not None
