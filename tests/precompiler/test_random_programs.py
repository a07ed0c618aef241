"""Property test: the precompiler preserves semantics on randomly generated
structured programs — uninterrupted, and restored from any checkpoint.

Hypothesis builds small programs from the supported subset (assignments,
arithmetic, ``for`` over ranges, ``while`` with counters, ``if``/``else``,
``break``/``continue``, calls to a checkpointable leaf) plus the shapes the
liveness analysis reasons about (dead temporaries, rebinding after a
checkpoint, conditionally defined names, ``del``, an atomic ``try``, a
value read two iterations after it was written), writes them to a real
file (``inspect.getsource`` needs one), compiles them, and checks that the
transformed function computes exactly what the original does and that a
fresh run restored from *each* pickled capture finishes with that result.
"""

import importlib.util
import itertools
import pickle
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.precompiler import C3StackRuntime, Precompiler
from repro.simmpi import coop
from repro.simmpi.process import Proc

_counter = itertools.count()


def _load_module(tmp_dir, source: str):
    name = f"_c3_randprog_{next(_counter)}"
    path = tmp_dir / f"{name}.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# ------------------------------------------------------------------ #
# Program generator: a list of statements in a tiny language, rendered
# to Python source inside a fixed scaffold.
# ------------------------------------------------------------------ #

_expr = st.sampled_from([
    "acc + i", "acc - 2 * i", "acc + 1", "i * i - acc % 7", "acc ^ i",
])

_simple_stmt = st.sampled_from([
    "acc = {e}",
    "acc += i + 1",
    "acc -= 3",
    "acc = leaf(ctx, acc % 50)",
    "tmp = leaf(ctx, i) + leaf(ctx, acc % 11)",
    "acc += 1",
    "ctx.potential_checkpoint()",
    # Dead temporary; rebinding after the checkpoint, then a read.
    "scratch = [acc, i] * 3",
    "ctx.potential_checkpoint()\ntmp = acc + 1",
    "acc += tmp",
    # Conditionally defined name, read and deleted inside atomic trys.
    "if acc % 3 == 0:\n    maybe = acc + i",
    "try:\n    acc += maybe\nexcept NameError:\n    acc -= 1",
    "try:\n    del maybe\nexcept NameError:\n    pass",
    "spare = acc % 5\nctx.potential_checkpoint()\ndel spare",
    # A value read only on the iteration after next.
    "acc += older\nolder = old\nold = i * 3 + 1",
])


def _render_block(stmts, indent):
    pad = "    " * indent
    return "\n".join(pad + s for s in stmts) if stmts else "    " * indent + "pass"


_statement = st.recursive(
    st.builds(lambda template, e: template.format(e=e), _simple_stmt, _expr),
    lambda inner: st.one_of(
        # if / else
        st.builds(
            lambda cond, body, orelse: (
                f"if {cond}:\n"
                + textwrap.indent("\n".join(body) or "pass", "    ")
                + ("\nelse:\n" + textwrap.indent("\n".join(orelse) or "pass", "    ")
                   if orelse else "")
            ),
            st.sampled_from(["acc % 2 == 0", "i > 2", "acc > i"]),
            st.lists(inner, min_size=1, max_size=3),
            st.lists(inner, max_size=2),
        ),
        # for over a small range, possibly with break/continue
        st.builds(
            lambda n, body, tail: (
                f"for j in range({n}):\n"
                + textwrap.indent("\n".join(body + tail) or "pass", "    ")
            ),
            st.integers(1, 4),
            st.lists(inner, min_size=1, max_size=3),
            st.sampled_from([[], ["if j == 1:", "    continue"], ["if acc % 13 == 5:", "    break"]]),
        ),
    ),
    max_leaves=8,
)


@st.composite
def programs(draw):
    body_stmts = draw(st.lists(_statement, min_size=1, max_size=5))
    body = textwrap.indent("\n".join(body_stmts), "        ")
    return f"""\
def leaf(ctx, x):
    y = x % 23 + 1
    ctx.potential_checkpoint()
    return y


def prog(ctx, n):
    acc = 0
    tmp = 0
    old = older = 0
    for i in range(n):
{body}
    return acc
"""


class _Ctx:
    """Captures the live stack, through pickle, at every checkpoint."""

    def __init__(self, rt=None):
        self.rt = rt
        self.captures = []

    def potential_checkpoint(self):
        if self.rt is not None:
            self.captures.append(pickle.dumps(self.rt.capture()))


def _run_and_restore_everywhere(unit, n):
    """The uninterrupted result, then one fresh run per capture."""
    coop.set_current_proc(Proc(None, 0, None))  # the runtime lives on a rank
    rt = C3StackRuntime(unit).activate()
    try:
        ctx = _Ctx(rt)
        result = unit.entry("prog")(ctx, n)
        restored = []
        for blob in ctx.captures:
            rt.begin_restore(pickle.loads(blob))
            restored.append(unit.entry("prog")(_Ctx(rt), n))
    finally:
        rt.deactivate()
        coop.set_current_proc(None)
    return result, restored


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=programs(), n=st.integers(0, 6))
def test_transformed_equals_original(tmp_path_factory, source, n):
    tmp_dir = tmp_path_factory.mktemp("randprog")
    module = _load_module(tmp_dir, source)
    expected = module.prog(_Ctx(), n)
    unit = Precompiler([module.prog, module.leaf], unit_name="rand").compile()
    got, restored = _run_and_restore_everywhere(unit, n)
    assert got == expected, f"\n--- program ---\n{source}"
    assert restored == [expected] * len(restored), f"\n--- program ---\n{source}"


def test_dropping_a_live_name_fails_loudly(tmp_path):
    """A live set that is one name short must not restore a different
    answer: the missing local is unbound and its first read raises."""
    source = """\
def leaf(ctx, x):
    ctx.potential_checkpoint()
    return x


def prog(ctx, n):
    acc = 0
    for i in range(n):
        acc += leaf(ctx, i)
    return acc
"""
    module = _load_module(tmp_path, source)
    unit = Precompiler([module.prog, module.leaf], unit_name="rand").compile()
    assert _run_and_restore_everywhere(unit, 4) == (6, [6] * 4)
    saved = unit.saved_locals["rand.prog"]
    (pc,) = saved
    assert "acc" in saved[pc]
    saved[pc] = saved[pc] - {"acc"}
    with pytest.raises(UnboundLocalError, match="acc"):
        _run_and_restore_everywhere(unit, 4)


@pytest.fixture(scope="session")
def tmp_path_factory_fixture(tmp_path_factory):
    return tmp_path_factory
