"""Code generation: assemble the transformed function (paper Figure 6).

Given a function's basic blocks, emit::

    def f(<original args>):
        _c3fr = _c3_enter('<unit>.<name>')
        if _c3fr is None:
            _pc = 0
        else:
            _pc = _c3fr['_pc']
            if 'x' in _c3fr: x = _c3fr['x']      # one per local (the VDS)
            ...
        while True:
            if _pc == 0:
                ...
            elif _pc == 1:
                ...

The prologue is the restart jump: a restored frame's locals and ``_pc`` are
re-seeded and the dispatch loop lands in the middle of the function.  The
saved dict holds only the locals live on entry to the active block (see
:mod:`repro.precompiler.liveness`); the context parameter is never in it,
so its fresh argument value survives — re-supplied by the caller's
re-executed call expression, layer by layer, exactly like the paper's
rebuilt activation stack.
"""

from __future__ import annotations

import ast
import copy
from typing import cast

from repro.errors import PrecompilerError
from repro.precompiler.desugar import _const, _name
from repro.precompiler.flatten import Block

ENTER_HELPER = "_c3_enter"
ITER_HELPER = "_c3_iter"

#: Name prefix of the cooperative (generator) twin of each transformed
#: function.  Both forms share one namespace and one ``func_id`` in the
#: unit's ``code_map``, so stack capture and restore work identically
#: whichever form is executing.
CO_PREFIX = "_c3co_"

#: Context-surface methods with generator twins: the receiver is the comm
#: root itself (``ctx.potential_checkpoint()`` →
#: ``yield from ctx.co_potential_checkpoint()``).  Roots named ``comm`` or
#: ``mpi`` may carry the MPI surface directly, so the direct-receiver set
#: is the union of both.
CTX_SUSPENDING = frozenset(
    {"potential_checkpoint", "nondet", "random", "yield_point"}
)

#: MPI-surface methods that can suspend the calling rank (block on a
#: peer, reach a scheduling point, or take a checkpoint).  The receiver is
#: the comm root's ``.mpi`` attribute — or the root itself.  Methods *not*
#: listed (``comm_rank``, ``comm_dup``, ``op_create``, ``attach_buffer``,
#: ``wtime``, ``iprobe`` …) never suspend and keep their synchronous form.
MPI_SUSPENDING = frozenset(
    {
        "send", "recv", "sendrecv", "isend", "irecv", "wait", "test",
        "bcast", "reduce", "allreduce", "gather", "allgather", "scatter",
        "alltoall", "scan", "barrier", "probe",
        "potential_checkpoint", "nondet", "comm_split",
    }
)

_DIRECT_SUSPENDING = CTX_SUSPENDING | MPI_SUSPENDING


def _suspending_attr(func: ast.Attribute, comm_names: frozenset[str]) -> bool:
    """Is this attribute call a suspending method of the comm surface?

    Matches exactly ``<root>.m(...)`` and ``<root>.mpi.m(...)`` with the
    root a comm parameter — deeper chains (``ctx.rng.random()``) are
    ordinary application calls and stay synchronous.
    """
    recv = func.value
    if isinstance(recv, ast.Name):
        return recv.id in comm_names and func.attr in _DIRECT_SUSPENDING
    if (
        isinstance(recv, ast.Attribute)
        and recv.attr == "mpi"
        and isinstance(recv.value, ast.Name)
    ):
        return recv.value.id in comm_names and func.attr in MPI_SUSPENDING
    return False


class _CoopCallRewriter(ast.NodeTransformer):
    """Rewrite suspending calls into ``yield from`` of their generator twins.

    Applied to a *transformed* (flattened) function body to produce its
    cooperative form: calls to checkpoint-reaching unit functions become
    ``yield from _c3co_<name>(...)`` and suspending comm-surface method
    calls become ``yield from <recv>.co_<method>(...)``.  Nested scopes
    are left untouched — a ``yield`` inside them would turn *them* into
    generators (the analysis already rejects checkpointable calls there).
    """

    def __init__(self, reaching: set[str], comm_names: frozenset[str]) -> None:
        self.reaching = reaching
        self.comm_names = comm_names

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        return node  # nested def: separate scope

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> ast.AST:
        return node

    def visit_Lambda(self, node: ast.Lambda) -> ast.AST:
        return node

    def visit_ListComp(self, node: ast.ListComp) -> ast.AST:
        return node

    def visit_SetComp(self, node: ast.SetComp) -> ast.AST:
        return node

    def visit_DictComp(self, node: ast.DictComp) -> ast.AST:
        return node

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> ast.AST:
        return node

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.reaching:
            node.func = _name(CO_PREFIX + func.id)
            return ast.YieldFrom(value=node)
        if isinstance(func, ast.Attribute) and _suspending_attr(
            func, self.comm_names
        ):
            node.func = ast.Attribute(
                value=func.value, attr="co_" + func.attr, ctx=ast.Load()
            )
            return ast.YieldFrom(value=node)
        return node


def build_co_function(
    sync_fn: ast.FunctionDef,
    reaching: set[str],
    comm_names: frozenset[str],
) -> ast.FunctionDef:
    """The cooperative twin of a transformed function.

    Structurally identical to the synchronous form (same prologue, same
    ``_pc`` dispatch, same locals — it shares the func_id and restore
    records), but every suspending call yields through its generator
    twin, so a rank running this form suspends at that call.
    """
    co_fn = copy.deepcopy(sync_fn)
    co_fn.name = CO_PREFIX + sync_fn.name
    rewriter = _CoopCallRewriter(reaching, comm_names)
    co_fn.body = [cast(ast.stmt, rewriter.visit(stmt)) for stmt in co_fn.body]
    # A reaching function always contains at least one rewritten call, but
    # generator-ness must not depend on that invariant.
    if not any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(co_fn)
    ):
        co_fn.body.append(
            ast.If(
                test=_const(False),
                body=[ast.Expr(value=ast.Yield(value=None))],
                orelse=[],
            )
        )
    ast.fix_missing_locations(co_fn)
    return co_fn


def build_dispatch(blocks: list[Block]) -> ast.While:
    """The ``while True: if _pc == 0: ... elif ...`` dispatch loop."""
    if not blocks:
        raise PrecompilerError("no blocks to dispatch")
    branches: ast.stmt | None = None
    for block in reversed(blocks):
        body = block.stmts if block.stmts else [ast.Pass()]
        test = ast.Compare(
            left=_name("_pc"),
            ops=[ast.Eq()],
            comparators=[_const(block.index)],
        )
        node = ast.If(
            test=test,
            body=body,
            orelse=[branches] if branches is not None else [
                # Unknown _pc: corrupted restore data; fail loudly.
                ast.Raise(
                    exc=ast.Call(
                        func=_name("RuntimeError"),
                        args=[
                            ast.BinOp(
                                left=_const("invalid _pc "),
                                op=ast.Add(),
                                right=ast.Call(
                                    func=_name("str"), args=[_name("_pc")], keywords=[]
                                ),
                            )
                        ],
                        keywords=[],
                    ),
                    cause=None,
                )
            ],
        )
        branches = node
    assert branches is not None
    return ast.While(test=_const(True), body=[branches], orelse=[])


def build_prologue(func_id: str, local_names: list[str]) -> list[ast.stmt]:
    """``_c3fr = _c3_enter(id)`` plus the per-local restore (the VDS read)."""
    restore_body: list[ast.stmt] = [
        ast.Assign(
            targets=[ast.Name(id="_pc", ctx=ast.Store())],
            value=ast.Subscript(
                value=_name("_c3fr"), slice=_const("_pc"), ctx=ast.Load()
            ),
        )
    ]
    for name in local_names:
        restore_body.append(
            ast.If(
                test=ast.Compare(
                    left=_const(name),
                    ops=[ast.In()],
                    comparators=[_name("_c3fr")],
                ),
                body=[
                    ast.Assign(
                        targets=[ast.Name(id=name, ctx=ast.Store())],
                        value=ast.Subscript(
                            value=_name("_c3fr"),
                            slice=_const(name),
                            ctx=ast.Load(),
                        ),
                    )
                ],
                orelse=[],
            )
        )
    return [
        ast.Assign(
            targets=[ast.Name(id="_c3fr", ctx=ast.Store())],
            value=ast.Call(func=_name(ENTER_HELPER), args=[_const(func_id)], keywords=[]),
        ),
        ast.If(
            test=ast.Compare(
                left=_name("_c3fr"), ops=[ast.Is()], comparators=[_const(None)]
            ),
            body=[
                ast.Assign(
                    targets=[ast.Name(id="_pc", ctx=ast.Store())], value=_const(0)
                )
            ],
            orelse=restore_body,
        ),
    ]


def build_function(
    original: ast.FunctionDef,
    func_id: str,
    blocks: list[Block],
    local_names: list[str],
) -> ast.FunctionDef:
    """The full transformed FunctionDef (decorators stripped: the transform
    *is* the decoration)."""
    body: list[ast.stmt] = []
    if (
        original.body
        and isinstance(original.body[0], ast.Expr)
        and isinstance(original.body[0].value, ast.Constant)
        and isinstance(original.body[0].value.value, str)
    ):
        body.append(original.body[0])  # keep the docstring
    body.extend(build_prologue(func_id, local_names))
    body.append(build_dispatch(blocks))
    fn = ast.FunctionDef(
        name=original.name,
        args=original.args,
        body=body,
        decorator_list=[],
        returns=None,
        type_comment=None,
        type_params=[],
    )
    ast.fix_missing_locations(fn)
    return fn


def compile_module(
    functions: list[ast.FunctionDef], module_name: str
) -> "ast.Module":
    module = ast.Module(body=list(functions), type_ignores=[])
    ast.fix_missing_locations(module)
    return module
