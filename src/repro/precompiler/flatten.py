"""Basic-block flattening: the label/goto machinery (paper Figure 6).

C3 inserts C labels at checkpointable call sites and ``goto``s to them on
restart.  Python has no ``goto``, so the flattener compiles each
checkpoint-reaching function into *basic blocks* dispatched by an explicit
program counter::

    while True:
        if _pc == 0:   ...straight-line statements...; _pc = 3; continue
        elif _pc == 1:  ...
        ...

Jumping to any block — including into the middle of a loop — is just setting
``_pc``, which is exactly the goto the restart path needs.  The ``_pc``
value of each live frame, captured with its locals, is the paper's Position
Stack entry.

Only statements containing checkpointable calls force block boundaries:

* a checkpointable call starts a fresh block (so restoring to that block
  re-executes the call and nothing before it);
* ``if``/``while`` containing such calls are exploded into test/arm/join
  blocks with conditional jumps;
* everything else stays as uninterpreted straight-line statements.

``break``/``continue`` belonging to an exploded loop are rewritten into
jumps; those belonging to intact (atomic) inner loops are left alone.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.errors import PrecompilerError, UnsupportedConstructError
from repro.precompiler.analysis import contains_checkpointable
from repro.precompiler.desugar import _const


@dataclass
class Block:
    """One basic block: straight-line statements, then a terminator."""

    index: int
    stmts: list[ast.stmt] = field(default_factory=list)
    terminated: bool = False
    #: First statement is a checkpointable call: a frame can be captured
    #: (and restored) with this block active.
    checkpointable: bool = False


def _jump(target: int) -> list[ast.stmt]:
    """``_pc = target; continue``"""
    return [
        ast.Assign(targets=[ast.Name(id="_pc", ctx=ast.Store())], value=_const(target)),
        ast.Continue(),
    ]


def _cond_jump(test: ast.expr, then_target: int, else_target: int) -> ast.stmt:
    return ast.If(test=test, body=_jump(then_target), orelse=_jump(else_target))


class _LoopJumpRewriter(ast.NodeTransformer):
    """Rewrite break/continue of an exploded loop inside atomic statements.

    Does not descend into intact ``while``/``for`` loops (their break/
    continue bind tighter) nor into nested function scopes.
    """

    def __init__(self, head: int, exit: int) -> None:
        self.head = head
        self.exit = exit

    def visit_Break(self, node: ast.Break):
        return _jump(self.exit)

    def visit_Continue(self, node: ast.Continue):
        return _jump(self.head)

    def visit_While(self, node: ast.While):
        return node  # inner loop: do not rewrite its break/continue

    def visit_For(self, node: ast.For):
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef):
        return node

    def visit_Lambda(self, node: ast.Lambda):
        return node


@dataclass
class _LoopCtx:
    head: int
    exit: int


class Flattener:
    """Flatten one desugared function body into blocks."""

    def __init__(self, reaching: set[str], comm_names: frozenset[str]) -> None:
        self.reaching = reaching
        #: Checkpoint-site attribute calls must be rooted at these names
        #: (the function's ctx/comm parameter).
        self.comm_names = comm_names
        self.blocks: list[Block] = []
        self._loop_stack: list[_LoopCtx] = []

    # ------------------------------------------------------------------ #

    def new_block(self) -> Block:
        block = Block(index=len(self.blocks))
        self.blocks.append(block)
        return block

    def flatten_function_body(self, body: list[ast.stmt]) -> list[Block]:
        entry = self.new_block()
        last = self._flatten_body(body, entry)
        if not last.terminated:
            last.stmts.append(ast.Return(value=_const(None)))
            last.terminated = True
        return self.blocks

    # ------------------------------------------------------------------ #

    def _flatten_body(self, stmts: list[ast.stmt], cur: Block) -> Block:
        """Emit ``stmts`` starting in ``cur``; returns the block control
        flow falls out of."""
        for stmt in stmts:
            if cur.terminated:
                # Unreachable trailing code (after return/break): drop it,
                # matching CPython's own dead-code tolerance.
                break
            if not contains_checkpointable(stmt, self.reaching, self.comm_names):
                cur = self._emit_atomic(stmt, cur)
                continue
            if isinstance(stmt, (ast.Assign, ast.Expr)):
                cur = self._emit_call_stmt(stmt, cur)
            elif isinstance(stmt, ast.If):
                cur = self._emit_if(stmt, cur)
            elif isinstance(stmt, ast.While):
                cur = self._emit_while(stmt, cur)
            elif isinstance(stmt, ast.Return):
                raise PrecompilerError(
                    "desugar pass should have lifted calls out of return"
                )
            else:
                raise UnsupportedConstructError(
                    type(stmt).__name__, getattr(stmt, "lineno", None),
                    "cannot flatten this statement kind",
                )
        return cur

    def _emit_atomic(self, stmt: ast.stmt, cur: Block) -> Block:
        if self._loop_stack:
            ctx = self._loop_stack[-1]
            rewritten = _LoopJumpRewriter(ctx.head, ctx.exit).visit(stmt)
            stmts = rewritten if isinstance(rewritten, list) else [rewritten]
        else:
            stmts = [stmt]
        for s in stmts:
            ast.fix_missing_locations(s)
            cur.stmts.append(s)
            if isinstance(s, (ast.Return, ast.Continue)):
                cur.terminated = True
                break
        return cur

    def _emit_call_stmt(self, stmt: ast.stmt, cur: Block) -> Block:
        """A standalone checkpointable call: must begin its own block so a
        restored ``_pc`` re-executes exactly this call (the Figure-6 label)."""
        if cur.stmts:
            target = self.new_block()
            cur.stmts.extend(_jump(target.index))
            cur.terminated = True
            cur = target
        cur.stmts.append(stmt)
        cur.checkpointable = True
        return cur

    def _emit_if(self, stmt: ast.If, cur: Block) -> Block:
        then_block = self.new_block()
        else_block = self.new_block() if stmt.orelse else None
        join = self.new_block()
        cur.stmts.append(
            _cond_jump(
                stmt.test,
                then_block.index,
                else_block.index if else_block else join.index,
            )
        )
        cur.terminated = True
        end_then = self._flatten_body(stmt.body, then_block)
        if not end_then.terminated:
            end_then.stmts.extend(_jump(join.index))
            end_then.terminated = True
        if else_block is not None:
            end_else = self._flatten_body(stmt.orelse, else_block)
            if not end_else.terminated:
                end_else.stmts.extend(_jump(join.index))
                end_else.terminated = True
        return join

    def _emit_while(self, stmt: ast.While, cur: Block) -> Block:
        head = self.new_block()
        body = self.new_block()
        exit_block = self.new_block()
        cur.stmts.extend(_jump(head.index))
        cur.terminated = True
        if isinstance(stmt.test, ast.Constant) and stmt.test.value is True:
            head.stmts.extend(_jump(body.index))
        else:
            head.stmts.append(_cond_jump(stmt.test, body.index, exit_block.index))
        head.terminated = True
        self._loop_stack.append(_LoopCtx(head=head.index, exit=exit_block.index))
        try:
            end_body = self._flatten_body(stmt.body, body)
        finally:
            self._loop_stack.pop()
        if not end_body.terminated:
            end_body.stmts.extend(_jump(head.index))
            end_body.terminated = True
        return exit_block
