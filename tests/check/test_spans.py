"""Span accuracy for live callables, including decorated/wrapped
functions — ``functools.wraps`` used to drift every diagnostic onto the
wrapper's line numbers."""

import importlib.util
import sys
import textwrap

import pytest

from repro.check import check_functions

WRAPPED_MODULE = '''\
"""Module whose unit function hides behind a wrapping decorator."""

import functools
import time


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


@traced
def main(ctx):
    ctx.potential_checkpoint()
    t = time.time()
    return ctx.allreduce(t, op="sum")
'''


@pytest.fixture
def wrapped_module(tmp_path):
    path = tmp_path / "wrapped_app.py"
    path.write_text(WRAPPED_MODULE)
    spec = importlib.util.spec_from_file_location("wrapped_app", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["wrapped_app"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("wrapped_app", None)


class TestDecoratedSpans:
    def test_wrapped_function_diagnostic_lands_on_real_line(
        self, wrapped_module
    ):
        # time.time() sits on line 18 of the module; before the unwrap
        # fix the span pointed into the decorator factory instead.
        result = check_functions([wrapped_module.main], target="wrapped")
        diag = next(d for d in result.diagnostics if d.code == "RPR021")
        assert diag.span.line == 18
        assert diag.span.file.endswith("wrapped_app.py")
        assert diag.function == "main"

    def test_wrapped_source_line_matches_span(self, wrapped_module, tmp_path):
        result = check_functions([wrapped_module.main], target="wrapped")
        diag = next(d for d in result.diagnostics if d.code == "RPR021")
        lines = (tmp_path / "wrapped_app.py").read_text().splitlines()
        assert "time.time()" in lines[diag.span.line - 1]


STACKED_MODULE = '''\
"""Unit function hidden behind a *chain* of wrapping decorators."""

import functools
import time


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


def retried(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


@traced
@retried
def main(ctx):
    ctx.potential_checkpoint()
    t = time.time()
    return ctx.allreduce(t, op="sum")
'''


@pytest.fixture
def stacked_module(tmp_path):
    path = tmp_path / "stacked_app.py"
    path.write_text(STACKED_MODULE)
    spec = importlib.util.spec_from_file_location("stacked_app", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["stacked_app"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("stacked_app", None)


class TestStackedDecoratorSpans:
    def test_unwrap_follows_the_whole_wrapper_chain(self, stacked_module):
        result = check_functions([stacked_module.main], target="stacked")
        diag = next(d for d in result.diagnostics if d.code == "RPR021")
        lines = STACKED_MODULE.splitlines()
        assert "time.time()" in lines[diag.span.line - 1]
        assert diag.span.file.endswith("stacked_app.py")
        assert diag.function == "main"

    def test_every_span_lands_inside_the_original_def(self, stacked_module):
        result = check_functions([stacked_module.main], target="stacked")
        lines = STACKED_MODULE.splitlines()
        def_line = next(
            i for i, text in enumerate(lines, 1)
            if text.startswith("def main")
        )
        for diag in result.diagnostics:
            assert diag.span.line >= def_line


class TestPrecompiledSpans:
    def test_gate_diagnostics_use_original_coordinates(
        self, stacked_module, tmp_path
    ):
        # The run gate checks the *original* defs a unit was compiled
        # from, not its generator form; the diagnostics must keep pointing
        # at the original file regardless.
        from repro.precompiler.api import Precompiler

        unit = Precompiler([stacked_module.main]).compile()
        assert unit.transformed_names == {"main"}
        result = check_functions(unit.originals)
        diag = next(d for d in result.diagnostics if d.code == "RPR021")
        lines = (tmp_path / "stacked_app.py").read_text().splitlines()
        assert "time.time()" in lines[diag.span.line - 1]
        assert diag.span.file.endswith("stacked_app.py")

    def test_one_code_object_per_function(self, stacked_module):
        from repro.precompiler.api import Precompiler

        unit = Precompiler([stacked_module.main]).compile()
        assert unit.code_map == {unit.entry("main").__code__: "unit.main"}


class TestUndecoratedSpans:
    def test_plain_function_spans_are_absolute(self, tmp_path):
        path = tmp_path / "plain_app.py"
        path.write_text(textwrap.dedent(
            '''
            import random


            def main(ctx):
                ctx.potential_checkpoint()
                x = random.random()
                return ctx.allreduce(x, op="sum")
            '''
        ))
        spec = importlib.util.spec_from_file_location("plain_app", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["plain_app"] = module
        try:
            spec.loader.exec_module(module)
            result = check_functions([module.main], target="plain")
        finally:
            sys.modules.pop("plain_app", None)
        diag = next(d for d in result.diagnostics if d.code == "RPR020")
        lines = path.read_text().splitlines()
        assert "random.random()" in lines[diag.span.line - 1]
