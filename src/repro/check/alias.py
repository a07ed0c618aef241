"""Alias regions: the substrate behind the aliased VDS-escape code (RPR033).

The name-rooted escape check flags ``GLOBAL.append(x)`` but misses the
same mutation smuggled through an alias (``g = GLOBAL; g.append(x)``), a
container element, or a helper's return value.  :func:`alias_locals`
computes a small points-to abstraction over the unit analysis: every
local is classified into a **region** — ``ALIAS`` (the value *is*
non-local state: a module global, an attribute/subscript chain rooted at
one, or a unit callee's returned global), ``HOLDS`` (a fresh container
whose elements include aliases), or clean (fresh values, call results,
comm-rooted managed state) — to fixpoint with each function's summary
"can return an alias", so its call sites inherit the region.
"""

from __future__ import annotations

import ast

from repro.precompiler.analysis import UnitAnalysis, attr_root

CLEAN = "clean"
ALIAS = "alias"
HOLDS = "holds"


def alias_locals(unit: UnitAnalysis) -> dict[str, set[str]]:
    """Per function, the locals that alias non-local state."""
    alias: dict[str, set[str]] = {n: set() for n in unit.infos}
    holds: dict[str, set[str]] = {n: set() for n in unit.infos}
    returns_nonlocal: set[str] = set()

    def nonlocal_name(fn: str, name: str) -> bool:
        """A name bound outside the checkpointed frame set: not a local,
        the comm root, a unit function, or a registered global."""
        info = unit.infos[fn]
        return (
            name not in info.local_names
            and name not in info.comm_names
            and name not in unit.infos
            and name not in info.registered
        )

    def region(fn: str, node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            if nonlocal_name(fn, node.id) or node.id in alias[fn]:
                return ALIAS
            return HOLDS if node.id in holds[fn] else CLEAN
        if isinstance(node, ast.Attribute):
            root = attr_root(node)
            if root is None or root in unit.infos[fn].comm_names:
                return CLEAN  # a fresh object, or managed state (ctx.rng)
            if nonlocal_name(fn, root) or root in alias[fn] or root in holds[fn]:
                return ALIAS
            return CLEAN
        if isinstance(node, ast.Subscript):
            # An element pulled out of an alias or an alias container.
            return CLEAN if region(fn, node.value) is CLEAN else ALIAS
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in returns_nonlocal:
                return ALIAS
            return CLEAN  # other call results are fresh objects
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            elts = node.values if isinstance(node, ast.Dict) else node.elts
            if any(region(fn, e) is not CLEAN for e in elts):
                return HOLDS
            return CLEAN
        if isinstance(node, ast.IfExp):
            found = {region(fn, node.body), region(fn, node.orelse)}
            return next((r for r in (ALIAS, HOLDS) if r in found), CLEAN)
        if isinstance(node, (ast.Starred, ast.NamedExpr)):
            return region(fn, node.value)
        return CLEAN

    def bind(fn: str, target: ast.expr, r: str) -> None:
        if isinstance(target, ast.Name):
            if r is ALIAS:
                alias[fn].add(target.id)
            elif r is HOLDS:
                holds[fn].add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Elements of an alias-holding value are aliases.
            for el in target.elts:
                bind(fn, el, CLEAN if r is CLEAN else ALIAS)

    def size() -> int:
        regions = (*alias.values(), *holds.values())
        return sum(map(len, regions)) + len(returns_nonlocal)

    def step() -> bool:
        before = size()
        for fn, info in unit.infos.items():
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Assign):
                    value = node.value
                    for target in node.targets:
                        if (
                            isinstance(target, (ast.Tuple, ast.List))
                            and isinstance(value, (ast.Tuple, ast.List))
                            and len(target.elts) == len(value.elts)
                        ):
                            for t, v in zip(target.elts, value.elts):
                                bind(fn, t, region(fn, v))
                        else:
                            bind(fn, target, region(fn, value))
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    bind(fn, node.target, region(fn, node.value))
                elif isinstance(node, ast.NamedExpr):
                    bind(fn, node.target, region(fn, node.value))
                elif isinstance(node, ast.For):
                    if region(fn, node.iter) is not CLEAN:
                        bind(fn, node.target, ALIAS)
                elif isinstance(node, ast.Return) and node.value is not None:
                    if region(fn, node.value) is not CLEAN:
                        returns_nonlocal.add(fn)
        return size() != before

    while step():
        pass
    return alias
