"""Code generation: assemble the transformed function (paper Figure 6).

Given a function's basic blocks, emit one generator function::

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
                got = yield from ctx.mpi.co_recv(source=left)
                ...

Every call that can suspend the rank — a suspending comm-surface call, or
a call to another transformed function — becomes a ``yield from`` of its
generator form, so the precompiled program exists once, as generators the
scheduler resumes.

The prologue is the restart jump: a restored frame's locals and ``_pc``
are re-seeded and the dispatch loop lands in the middle of the function.
The saved dict holds only the locals live on entry to the active block (see
:mod:`repro.precompiler.liveness`); the context parameter is never in it,
so its fresh argument value survives — re-supplied by the caller's
re-executed call expression, layer by layer, exactly like the paper's
rebuilt activation stack.
"""

from __future__ import annotations

import ast
from typing import cast

from repro.errors import PrecompilerError
from repro.precompiler.analysis import is_suspending_call
from repro.precompiler.desugar import _const, _name
from repro.precompiler.flatten import Block

ENTER_HELPER = "_c3_enter"
ITER_HELPER = "_c3_iter"


class _YieldFromRewriter(ast.NodeTransformer):
    """Rewrite every suspending call into a ``yield from`` of its generator.

    Calls to suspending unit functions become ``yield from name(...)`` (the
    transformed function *is* the generator) and suspending comm-surface
    calls become ``yield from <receiver>.co_<method>(...)``.  Validation
    has rejected suspending calls in nested scopes, where a ``yield`` would
    turn the scope itself into a generator.
    """

    def __init__(self, suspending: set[str], comm_names: frozenset[str]) -> None:
        self.suspending = suspending
        self.comm_names = comm_names

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.suspending:
            return ast.YieldFrom(value=node)
        if isinstance(func, ast.Attribute) and is_suspending_call(node, self.comm_names):
            node.func = ast.Attribute(
                value=func.value, attr="co_" + func.attr, ctx=ast.Load()
            )
            return ast.YieldFrom(value=node)
        return node


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
    suspending: set[str],
    comm_names: frozenset[str],
) -> ast.FunctionDef:
    """The full transformed FunctionDef, a generator (decorators stripped:
    the transform *is* the decoration).

    Every suspending call yields through its generator form, so a rank
    running this function suspends at that call.
    """
    body: list[ast.stmt] = []
    if (
        original.body
        and isinstance(original.body[0], ast.Expr)
        and isinstance(original.body[0].value, ast.Constant)
        and isinstance(original.body[0].value.value, str)
    ):
        body.append(original.body[0])  # keep the docstring
    body.extend(build_prologue(func_id, local_names))
    rewriter = _YieldFromRewriter(suspending, comm_names)
    body.append(cast(ast.stmt, rewriter.visit(build_dispatch(blocks))))
    if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(body[-1])):
        # A checkpoint site the rewrite does not know (a plain-name
        # ``potential_checkpoint()``): the function is still a generator.
        body.append(
            ast.If(
                test=_const(False),
                body=[ast.Expr(value=ast.Yield(value=None))],
                orelse=[],
            )
        )
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
