"""Alias-aware VDS-escape facts (the substrate behind RPR033).

The v1 escape analysis is name-rooted: it flags ``GLOBAL.append(x)`` but
misses the same mutation smuggled through an alias (``g = GLOBAL;
g.append(x)``), a container element, or a helper's return value.  This
module computes a small intra-unit points-to abstraction:

* every local is classified into a **region** — ``ALIAS`` (the value *is*
  non-local state: a module global, an attribute/subscript chain rooted
  at one, or a unit callee's returned global), ``HOLDS`` (a fresh
  container whose elements include aliases), or clean (fresh values,
  call results, comm-rooted managed state);

* a per-function **summary**, ``returns_nonlocal`` (the function can
  return an alias, so its call sites inherit the region);

both computed to fixpoint over the unit.  :class:`AliasFacts` then
enumerates the defect: a mutation whose receiver is a local *alias* of
non-local state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.precompiler.analysis import UnitAnalysis, attr_root

CLEAN = "clean"
ALIAS = "alias"
HOLDS = "holds"


@dataclass(frozen=True)
class AliasMutation:
    """A mutation whose receiver is a local alias of non-local state."""

    function: str
    local: str
    node: ast.AST
    via: str  # "store" or the mutator method name


class AliasFacts:
    """Region classification + return summaries over one checked unit."""

    def __init__(
        self,
        functions: dict[str, ast.FunctionDef],
        analysis: UnitAnalysis,
        mutator_names: frozenset[str],
        registered: Optional[dict[str, set[str]]] = None,
    ) -> None:
        self.functions = functions
        self.analysis = analysis
        self.mutator_names = mutator_names
        #: Per-function sets of module globals registered as managed state
        #: via ``checkpointable_state(...)`` — mutating those is fine.
        self.registered = dict(registered or {})
        self.alias_locals: dict[str, set[str]] = {n: set() for n in functions}
        self.holds_locals: dict[str, set[str]] = {n: set() for n in functions}
        self.returns_nonlocal: dict[str, bool] = {n: False for n in functions}
        self._run_fixpoint()

    # -- helpers -------------------------------------------------------- #

    def _locals_of(self, fn_name: str) -> set[str]:
        return set(self.analysis.infos[fn_name].local_names)

    def _comm_names(self, fn_name: str) -> frozenset[str]:
        return self.analysis.infos[fn_name].comm_names

    def _is_nonlocal_name(self, fn_name: str, name: str) -> bool:
        """A name whose binding lives outside the checkpointed frame set:
        not a local, not the comm root, not a unit function, and not a
        global registered as managed checkpointable state."""
        return (
            name not in self._locals_of(fn_name)
            and name not in self._comm_names(fn_name)
            and name not in self.functions
            and name not in self.registered.get(fn_name, ())
        )

    def region_of(self, fn_name: str, expr: Optional[ast.expr]) -> str:
        """Which region the expression's value lives in."""
        if expr is None:
            return CLEAN
        alias = self.alias_locals[fn_name]
        holds = self.holds_locals[fn_name]

        def visit(node: ast.expr) -> str:
            if isinstance(node, ast.Name):
                if self._is_nonlocal_name(fn_name, node.id):
                    return ALIAS
                if node.id in alias:
                    return ALIAS
                if node.id in holds:
                    return HOLDS
                return CLEAN
            if isinstance(node, ast.Attribute):
                root = attr_root(node)
                if root is not None and root in self._comm_names(fn_name):
                    return CLEAN  # ctx.rng etc. is managed state
                if root is not None:
                    if self._is_nonlocal_name(fn_name, root) or root in alias:
                        return ALIAS
                    if root in holds:
                        return ALIAS
                    return CLEAN
                return CLEAN  # rooted at a call/constant: fresh
            if isinstance(node, ast.Subscript):
                inner = visit(node.value)
                if inner is ALIAS:
                    return ALIAS
                if inner is HOLDS:
                    return ALIAS  # element pulled out of an alias container
                return CLEAN
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in self.functions
                    and self.returns_nonlocal[func.id]
                ):
                    return ALIAS
                return CLEAN  # other call results are fresh objects
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                if any(visit(el) is not CLEAN for el in node.elts):
                    return HOLDS
                return CLEAN
            if isinstance(node, ast.Dict):
                values = [v for v in node.values if v is not None]
                if any(visit(v) is not CLEAN for v in values):
                    return HOLDS
                return CLEAN
            if isinstance(node, ast.IfExp):
                regions = {visit(node.body), visit(node.orelse)}
                for r in (ALIAS, HOLDS):
                    if r in regions:
                        return r
                return CLEAN
            if isinstance(node, ast.Starred):
                return visit(node.value)
            if isinstance(node, ast.NamedExpr):
                return visit(node.value)
            return CLEAN

        return visit(expr)

    # -- fixpoint ------------------------------------------------------- #

    def _intra_regions(self, fn_name: str) -> bool:
        tree = self.functions[fn_name]
        alias = self.alias_locals[fn_name]
        holds = self.holds_locals[fn_name]
        changed = False

        def bind(name: str, region: str) -> None:
            nonlocal changed
            if region is ALIAS and name not in alias:
                alias.add(name)
                changed = True
            elif region is HOLDS and name not in holds:
                holds.add(name)
                changed = True

        def bind_target(target: ast.expr, region: str) -> None:
            if isinstance(target, ast.Name):
                bind(target.id, region)
            elif isinstance(target, (ast.Tuple, ast.List)):
                # Element-wise when the value is a matching display is
                # handled by the caller; here the whole value's region
                # flows to every element (elements of an alias-holding
                # value are aliases).
                elem = ALIAS if region in (ALIAS, HOLDS) else CLEAN
                for el in target.elts:
                    bind_target(el, elem)

        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                value = node.value
                for target in node.targets:
                    if (
                        isinstance(target, (ast.Tuple, ast.List))
                        and isinstance(value, (ast.Tuple, ast.List))
                        and len(target.elts) == len(value.elts)
                    ):
                        for t, v in zip(target.elts, value.elts):
                            bind_target(t, self.region_of(fn_name, v))
                    else:
                        bind_target(target, self.region_of(fn_name, value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                bind_target(node.target, self.region_of(fn_name, node.value))
            elif isinstance(node, ast.NamedExpr):
                bind(node.target.id, self.region_of(fn_name, node.value))
            elif isinstance(node, ast.For):
                region = self.region_of(fn_name, node.iter)
                if region is not CLEAN:
                    bind_target(node.target, ALIAS)
        return changed

    def _recompute_returns(self) -> bool:
        changed = False
        for name, tree in self.functions.items():
            flag = any(
                isinstance(n, ast.Return)
                and n.value is not None
                and self.region_of(name, n.value) is not CLEAN
                for n in ast.walk(tree)
            )
            if flag != self.returns_nonlocal[name]:
                self.returns_nonlocal[name] = flag
                changed = True
        return changed

    def _run_fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for name in self.functions:
                if self._intra_regions(name):
                    changed = True
            if self._recompute_returns():
                changed = True

    # -- defect enumeration --------------------------------------------- #

    def alias_mutations(self) -> list[AliasMutation]:
        """Mutations whose receiver is a *local* alias of non-local state
        (the name-rooted v1 analysis already covers non-local receivers)."""
        out: list[AliasMutation] = []
        for name, tree in self.functions.items():
            alias = self.alias_locals[name]
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if not isinstance(
                            target, (ast.Attribute, ast.Subscript)
                        ):
                            continue
                        root = attr_root(
                            target.value
                            if isinstance(target, ast.Subscript)
                            else target
                        )
                        if root in alias:
                            out.append(AliasMutation(
                                function=name, local=root,
                                node=target, via="store",
                            ))
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in self.mutator_names
                    ):
                        root = attr_root(func)
                        if root in alias:
                            out.append(AliasMutation(
                                function=name, local=root,
                                node=node, via=func.attr,
                            ))
        return out
