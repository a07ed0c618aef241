"""Statement decomposition and loop desugaring (paper Section 5.1.1).

"In order to insure that the PS correctly reflects which function call is
currently active, the precompiler needs to decompose certain complex
statements, such as a statement containing two calls to checkpointable
functions, or a return statement that makes a call to one."

Two rewrites run before flattening:

1. **Call lifting** — every checkpointable call embedded in a larger
   expression is lifted into its own ``_c3tmp_N = call(...)`` assignment,
   left-to-right, so the flattener can give each call its own basic block.
   (Assumption, as in the paper: sibling subexpressions are side-effect
   free; short-circuit positions were already rejected by validation.)

2. **For desugaring** — every ``for`` loop whose body or iterable contains a
   checkpointable call becomes::

       _c3it_N = _c3_iter(<iterable>)
       while _c3it_N.has_next():
           <target> = _c3it_N.next()
           <body>

   making loop progress an ordinary picklable local.  ``while`` tests
   containing checkpointable calls are rotated into ``while True`` with a
   lifted test and conditional ``break``.

Loops and branches containing no checkpointable call are left untouched —
they execute atomically inside one basic block at native speed.
"""

from __future__ import annotations

import ast
import itertools

from repro.errors import UnsupportedConstructError
from repro.precompiler.analysis import (
    contains_checkpointable,
    is_labelled_call,
)


class Desugarer:
    """Per-function desugaring pass."""

    def __init__(self, reaching: set[str], comm_names: frozenset[str]) -> None:
        self.reaching = reaching
        #: Attribute-call checkpoint sites must be rooted at one of these
        #: names (the unit function's ctx/comm parameter).
        self.comm_names = comm_names
        self._tmp_counter = itertools.count()
        self._iter_counter = itertools.count()
        #: Fresh names introduced (added to the function's VDS).
        self.new_locals: list[str] = []

    # ------------------------------------------------------------------ #

    def _fresh_tmp(self) -> str:
        name = f"_c3tmp_{next(self._tmp_counter)}"
        self.new_locals.append(name)
        return name

    def _fresh_iter(self) -> str:
        name = f"_c3it_{next(self._iter_counter)}"
        self.new_locals.append(name)
        return name

    # ------------------------------------------------------------------ #

    def desugar_body(self, body: list[ast.stmt]) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in body:
            out.extend(self.desugar_stmt(stmt))
        return out

    def desugar_stmt(self, stmt: ast.stmt) -> list[ast.stmt]:
        if not contains_checkpointable(stmt, self.reaching, self.comm_names):
            return [stmt]

        if isinstance(stmt, ast.For):
            return self._desugar_for(stmt)
        if isinstance(stmt, ast.While):
            return self._desugar_while(stmt)
        if isinstance(stmt, ast.If):
            return self._desugar_if(stmt)
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Return)):
            return self._lift_calls_in_simple_stmt(stmt)
        if isinstance(stmt, (ast.Assert,)):
            return self._lift_calls_in_simple_stmt(stmt)
        raise UnsupportedConstructError(
            type(stmt).__name__,
            getattr(stmt, "lineno", None),
            "statement kind cannot contain a checkpointable call",
        )

    # ------------------------------------------------------------------ #

    def _desugar_for(self, stmt: ast.For) -> list[ast.stmt]:
        if stmt.orelse:
            raise UnsupportedConstructError(
                "for-else containing checkpointable call", stmt.lineno
            )
        pre: list[ast.stmt] = []
        iterable = stmt.iter
        if contains_checkpointable(iterable, self.reaching, self.comm_names):
            iterable, lifted = self._lift_expr(iterable)
            pre.extend(lifted)
        it_name = self._fresh_iter()
        pre.append(
            _assign(it_name, _call(_name("_c3_iter"), [iterable]))
        )
        head_test = _call(_attr(_name(it_name), "has_next"), [])
        next_assign = ast.Assign(
            targets=[stmt.target],
            value=_call(_attr(_name(it_name), "next"), []),
        )
        new_body = [next_assign] + self.desugar_body(stmt.body)
        loop = ast.While(test=head_test, body=new_body, orelse=[])
        return [*pre, loop]

    def _desugar_while(self, stmt: ast.While) -> list[ast.stmt]:
        if stmt.orelse:
            raise UnsupportedConstructError(
                "while-else containing checkpointable call", stmt.lineno
            )
        body = self.desugar_body(stmt.body)
        if contains_checkpointable(stmt.test, self.reaching, self.comm_names):
            test_expr, lifted = self._lift_expr(stmt.test)
            guard = ast.If(
                test=ast.UnaryOp(op=ast.Not(), operand=test_expr),
                body=[ast.Break()],
                orelse=[],
            )
            return [
                ast.While(
                    test=ast.Constant(value=True),
                    body=[*lifted, guard, *body],
                    orelse=[],
                )
            ]
        return [ast.While(test=stmt.test, body=body, orelse=[])]

    def _desugar_if(self, stmt: ast.If) -> list[ast.stmt]:
        pre: list[ast.stmt] = []
        test = stmt.test
        if contains_checkpointable(test, self.reaching, self.comm_names):
            test, pre = self._lift_expr(test)
        return [
            *pre,
            ast.If(
                test=test,
                body=self.desugar_body(stmt.body),
                orelse=self.desugar_body(stmt.orelse),
            ),
        ]

    # ------------------------------------------------------------------ #

    def _lift_calls_in_simple_stmt(self, stmt: ast.stmt) -> list[ast.stmt]:
        """Make the statement's checkpointable call standalone.

        After lifting, the statement either *is* a standalone call form
        (``x = f(...)`` / ``f(...)``) or contains only lifted temps.
        """
        # Standalone forms need no lifting.
        if isinstance(stmt, ast.Expr) and is_labelled_call(
            stmt.value, self.reaching, self.comm_names
        ):
            return [stmt]
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and is_labelled_call(stmt.value, self.reaching, self.comm_names)
            and not any(
                is_labelled_call(n, self.reaching, self.comm_names)
                for n in ast.walk(stmt.value)
                if n is not stmt.value
            )
        ):
            return [stmt]

        lifted: list[ast.stmt] = []
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return [stmt]
            value, lifted = self._lift_expr(stmt.value)
            return [*lifted, ast.Return(value=value)]
        if isinstance(stmt, ast.Expr):
            value, lifted = self._lift_expr(stmt.value)
            return [*lifted, ast.Expr(value=value)]
        if isinstance(stmt, ast.Assign):
            value, lifted = self._lift_expr(stmt.value)
            return [*lifted, ast.Assign(targets=stmt.targets, value=value)]
        if isinstance(stmt, ast.AugAssign):
            value, lifted = self._lift_expr(stmt.value)
            return [*lifted, ast.AugAssign(target=stmt.target, op=stmt.op, value=value)]
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return [stmt]
            value, lifted = self._lift_expr(stmt.value)
            return [*lifted, ast.AnnAssign(
                target=stmt.target, annotation=stmt.annotation,
                value=value, simple=stmt.simple,
            )]
        if isinstance(stmt, ast.Assert):
            test, lifted = self._lift_expr(stmt.test)
            return [*lifted, ast.Assert(test=test, msg=stmt.msg)]
        raise UnsupportedConstructError(type(stmt).__name__, getattr(stmt, "lineno", None))

    def _lift_expr(self, expr: ast.expr) -> tuple[ast.expr, list[ast.stmt]]:
        """Replace each checkpointable call under ``expr`` with a fresh temp,
        returning the rewritten expression and the lifting assignments in
        evaluation order (innermost calls lifted first)."""
        lifted: list[ast.stmt] = []
        desugarer = self

        class Lifter(ast.NodeTransformer):
            def visit_Call(self, node: ast.Call) -> ast.expr:
                # Lift arguments first (inner calls evaluate earlier).
                node = ast.Call(
                    func=self.visit(node.func) if not isinstance(node.func, (ast.Name, ast.Attribute)) else node.func,
                    args=[self.visit(a) for a in node.args],
                    keywords=[
                        ast.keyword(arg=k.arg, value=self.visit(k.value))
                        for k in node.keywords
                    ],
                )
                if is_labelled_call(node, desugarer.reaching, desugarer.comm_names):
                    tmp = desugarer._fresh_tmp()
                    lifted.append(_assign(tmp, node))
                    return _name(tmp)
                return node

            # Do not descend into separate scopes (already validated clean).
            def visit_Lambda(self, node):
                return node

            def visit_ListComp(self, node):
                return node

            visit_SetComp = visit_DictComp = visit_GeneratorExp = visit_ListComp

        new_expr = Lifter().visit(expr)
        return new_expr, lifted


# ---------------------------------------------------------------------- #
# Small AST constructors (codegen helpers shared with flatten/codegen).
# ---------------------------------------------------------------------- #


def _name(ident: str, ctx: ast.expr_context | None = None) -> ast.Name:
    return ast.Name(id=ident, ctx=ctx or ast.Load())


def _attr(value: ast.expr, attr: str) -> ast.Attribute:
    return ast.Attribute(value=value, attr=attr, ctx=ast.Load())


def _call(fn: ast.expr, args: list[ast.expr]) -> ast.Call:
    return ast.Call(func=fn, args=args, keywords=[])


def _assign(target: str, value: ast.expr) -> ast.Assign:
    return ast.Assign(targets=[ast.Name(id=target, ctx=ast.Store())], value=value)


def _const(value) -> ast.Constant:
    return ast.Constant(value=value)
