"""Live-variable analysis over the flattener's basic blocks.

The paper's precompiler pushes every variable in scope on the VDS.  A
restored frame, however, re-executes its active block from the first
statement, so the only locals a checkpoint needs are those *live on entry*
to that block — read, on some path from there, before being rebound.  The
rest (initialisation inputs, last iteration's temporaries) are dead bytes;
this is compiler-assisted memory exclusion (Plank, Beck, Kingsley 1995)
applied to the block structure built for the restart jumps.

Python is dynamic, so every rule errs towards *live*:

* successors of a block are the ``_pc = k`` jumps the flattener emitted,
  wherever they sit (a rewritten ``break`` hides one inside an atomic
  ``if``); the target's live-in joins at the statement holding the jump;
* only ``Assign``/``AnnAssign`` kill, and only their plain name targets;
  ``AugAssign`` and ``del`` need the old binding and count as uses;
* every other statement — each compound statement left atomic inside a
  block, walrus targets, comprehension variables — contributes all the
  names it loads as uses and kills nothing (its bindings are may-defs);
* names a nested scope can read late (``co_cellvars``) are always live;
* a function that mentions ``locals``/``vars``/``eval``/``exec``/``dir``
  or ``_getframe`` may read any local by name and keeps all of them.

A name wrongly dropped is unbound after restore and fails as
``UnboundLocalError`` at its first read, never as a different answer.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.precompiler.flatten import Block

#: Mentioning one of these means the function may read its locals by name.
_FRAME_READERS = frozenset({"locals", "vars", "eval", "exec", "dir", "_getframe"})


def _reads_frame(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _FRAME_READERS
    return isinstance(node, ast.Attribute) and node.attr in _FRAME_READERS


def _bound_names(target: ast.expr) -> Iterator[str]:
    """Plain names an assignment target definitely binds."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _kills(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, ast.Assign):
        return {name for t in stmt.targets for name in _bound_names(t)}
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return set(_bound_names(stmt.target))
    return set()


def _uses(stmt: ast.stmt) -> set[str]:
    names = {
        node.id
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        names.add(stmt.target.id)
    return names


def _jump_targets(stmt: ast.stmt) -> list[int]:
    """Block indices of every ``_pc = k`` at or under ``stmt``."""
    return [
        node.value.value
        for node in ast.walk(stmt)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and any(isinstance(t, ast.Name) and t.id == "_pc" for t in node.targets)
    ]


def live_in(
    blocks: list[Block],
    local_names: Iterable[str],
    always_live: Iterable[str] = (),
) -> dict[int, frozenset[str]]:
    """Names live on entry to each block, keyed by block index (``_pc``).

    ``local_names`` is every name the function can bind (the full set a
    frame-reading function keeps); ``always_live`` its cell variables.
    """
    scope = frozenset(local_names)
    if any(
        _reads_frame(node)
        for block in blocks
        for stmt in block.stmts
        for node in ast.walk(stmt)
    ):
        return {block.index: scope for block in blocks}

    # Per block, last statement first: (jump targets, kills, uses).
    facts = {
        block.index: [
            (_jump_targets(stmt), _kills(stmt), _uses(stmt) & scope)
            for stmt in reversed(block.stmts)
        ]
        for block in blocks
    }
    pinned = frozenset(always_live)
    live: dict[int, frozenset[str]] = {index: pinned for index in facts}
    changed = True
    while changed:
        changed = False
        for index in reversed(facts):
            cur: set[str] = set()
            for targets, kills, uses in facts[index]:
                for target in targets:
                    cur |= live[target]
                cur -= kills
                cur |= uses
            cur |= pinned
            if cur != live[index]:
                live[index] = frozenset(cur)
                changed = True
    return live
