"""Transform semantics: every transformed function must behave exactly like
its original under plain execution (no active runtime), and the analysis
must classify/reject constructs per the documented subset."""

import inspect

import pytest

from repro.errors import UnsupportedConstructError
from repro.precompiler import Precompiler
from repro.simmpi import coop

from tests.precompiler import support_functions as sf


class DummyCtx:
    def potential_checkpoint(self):
        pass

    def co_potential_checkpoint(self):
        yield from ()


FULL_UNIT = [
    sf.leaf,
    sf.plain_math,
    sf.straight_line,
    sf.branches,
    sf.nested_loops,
    sf.break_continue,
    sf.atomic_inner_loop,
    sf.expression_calls,
    sf.returns_call,
    sf.recursive,
    sf.while_with_call_test,
    sf.uses_docstring,
    sf.caller_of_caller,
    sf.loop_over_list,
    sf.aug_assign_with_call,
    sf.ok_try_without_call,
]


@pytest.fixture(scope="module")
def unit():
    return Precompiler(FULL_UNIT, unit_name="tcorpus").compile()


class TestReachingSet:
    def test_reaching_functions_transformed(self, unit):
        assert "leaf" in unit.transformed_names
        assert "branches" in unit.transformed_names
        assert "caller_of_caller" in unit.transformed_names

    def test_pure_function_untouched(self, unit):
        assert "plain_math" not in unit.transformed_names
        assert unit.functions["plain_math"] is sf.plain_math

    def test_suspending_helper_adds_no_restart_label(self):
        """A helper that blocks but never checkpoints becomes a generator
        its callers ``yield from``; it gets no labels and the callers'
        ``_pc`` numbering is what it is without the helper in the unit."""
        alone = Precompiler([sf.exchange_loop], unit_name="x").compile()
        both = Precompiler([sf.exchange_loop, sf.halo_step], unit_name="x").compile()
        assert both.transformed_names == {"exchange_loop", "halo_step"}
        assert both.saved_locals["x.halo_step"] == {}
        assert both.saved_locals["x.exchange_loop"] == alone.saved_locals["x.exchange_loop"]
        assert "yield from halo_step(ctx" in both.sources["exchange_loop"]


class TestOneForm:
    def test_each_transformed_function_is_one_generator(self, unit):
        assert len(unit.code_map) == len(unit.transformed_names)
        for name in unit.transformed_names:
            assert inspect.isgeneratorfunction(unit.entry(name)), name

    def test_gallery_units_have_one_code_object_per_function(self):
        from repro.apps import dense_cg, laplace, neurosys, stencil3d

        for app in (dense_cg, laplace, neurosys, stencil3d):
            gallery = app.unit()
            assert len(gallery.code_map) == len(gallery.transformed_names)


CASES = [
    ("straight_line", (), None),
    ("branches", (11,), None),
    ("nested_loops", (6,), None),
    ("break_continue", (20,), None),
    ("atomic_inner_loop", (5,), None),
    ("expression_calls", (6,), None),
    ("returns_call", (4,), None),
    ("recursive", (12,), None),
    ("while_with_call_test", (9,), None),
    ("uses_docstring", (), None),
    ("caller_of_caller", (9,), None),
    ("loop_over_list", ([5, 3, 8],), None),
    ("aug_assign_with_call", (4,), None),
    ("ok_try_without_call", (), None),
]


class TestSemanticEquivalence:
    @pytest.mark.parametrize("name,args,_", CASES)
    def test_plain_execution_matches_original(self, unit, name, args, _):
        original = getattr(sf, name)
        transformed = unit.entry(name)
        assert coop.drive(transformed(DummyCtx(), *args)) == original(DummyCtx(), *args)

    def test_docstring_preserved(self, unit):
        assert "survive" in unit.entry("uses_docstring").__doc__


class TestRejections:
    @pytest.mark.parametrize(
        "fn,construct",
        [
            (sf.bad_try, "try"),
            (sf.bad_with, "with"),
            (sf.bad_nested_def, "nested"),
            (sf.bad_boolop, "short-circuit"),
            (sf.bad_comprehension, "scope"),
            (sf.bad_recv_in_comprehension, "nested scope containing suspending"),
            (sf.bad_helper_in_lambda, "nested scope containing suspending"),
            (sf.bad_send_in_nested_def, "nested def containing suspending"),
        ],
    )
    def test_unsupported_constructs_rejected(self, fn, construct):
        with pytest.raises(UnsupportedConstructError, match=construct):
            Precompiler([fn, sf.leaf, sf.halo_step]).compile()

    def test_generator_rejected(self):
        with pytest.raises(UnsupportedConstructError, match="generator"):
            Precompiler([sf.bad_generator, sf.leaf]).compile()

    def test_empty_unit_rejected(self):
        from repro.errors import PrecompilerError

        with pytest.raises(PrecompilerError):
            Precompiler([]).compile()

    def test_non_reaching_entry_rejected(self):
        from repro.errors import PrecompilerError
        from repro.precompiler import PrecompiledApp

        unit = Precompiler([sf.plain_math, sf.leaf]).compile()
        with pytest.raises(PrecompilerError):
            PrecompiledApp(unit, entry="plain_math")


class TestGeneratedSources:
    def test_dispatch_loop_present(self, unit):
        src = unit.sources["branches"]
        assert "_pc" in src and "while True" in src
        assert "_c3_enter" in src

    def test_for_desugared_to_restartable_iter(self, unit):
        assert "_c3_iter" in unit.sources["branches"]

    def test_atomic_inner_loop_not_exploded(self, unit):
        """The checkpoint-free inner loop survives as a native loop."""
        src = unit.sources["atomic_inner_loop"]
        assert "for j in range(10)" in src

    def test_expression_calls_lifted(self, unit):
        src = unit.sources["expression_calls"]
        assert "_c3tmp_" in src
