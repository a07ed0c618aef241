"""Whole-unit call-graph facts for the interprocedural analyses.

:class:`UnitCallGraph` packages three whole-unit computations on top of
the precompiler's :class:`~repro.precompiler.analysis.UnitAnalysis`:

* **collective summaries** — each function's collective-call sequence as a
  summary regular expression (see :mod:`repro.check.cfg`), plus
  :meth:`resolve_block`, which substitutes callee summaries across call
  boundaries (recursion resolves to ``?``);

* **rank-divergence taint** — a flow-insensitive, interprocedural
  fixpoint over "may this value differ across ranks?".  Seeds are
  ``ctx.rank`` reads, point-to-point receive results and unlogged entropy
  draws; collective results are *uniform* by the protocol's own guarantee
  and therefore clean.  Taint crosses call boundaries in both directions
  (tainted arguments taint callee parameters; tainted returns taint the
  call site);

* **p2p census** — a whole-unit tally of send/recv tags (module-level
  constants resolved) exposing one-sided protocols: a tag that is only
  ever sent, or only ever received, deadlocks its peer.

The class takes the relevant name alphabets as constructor arguments so
it stays import-cycle-free with :mod:`repro.check.analyses` (which owns
the canonical name sets).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.check.cfg import (
    Summary,
    block_summary,
    function_summary,
    resolve,
)
from repro.precompiler.analysis import UnitAnalysis, attr_root

#: Comm-rooted call names whose *results* may differ across ranks.
_DIVERGENT_COMM_RESULTS = frozenset({
    "recv", "irecv", "sendrecv", "wait", "test", "nondet", "random",
})

#: Comm-rooted attribute reads that differ across ranks (``ctx.rank``).
_DIVERGENT_COMM_ATTRS = frozenset({"rank"})

#: Tag sentinel for a dynamically computed tag expression.
DYNAMIC = "<dynamic>"
#: Tag sentinel for an absent recv tag (matches any send).
WILDCARD = "<any>"

#: Predicate verdicts, ordered by how much we know about the predicate's
#: cross-rank behaviour.  ``UNIFORM`` — every rank computes the same value
#: (collective results, parameters, loop indices); ``TAINTED`` — the value
#: *may* differ across ranks (flows from a divergence source); ``DIVERGENT``
#: — a divergence source (``ctx.rank``, a receive result, an entropy draw)
#: appears syntactically in the predicate itself, so divergence is provable
#: along a feasible path.  DIVERGENT implies TAINTED.
UNIFORM = "uniform"
TAINTED = "tainted"
DIVERGENT = "divergent"

#: AST node types a predicate may consist of and still be considered
#: *stable* (side-effect free, value determined by the names it reads) —
#: the precondition for keying a :class:`~repro.check.cfg.Cond` on it.
_STABLE_PREDICATE_NODES = (
    ast.BoolOp, ast.UnaryOp, ast.BinOp, ast.Compare, ast.Name,
    ast.Attribute, ast.Constant, ast.Tuple,
)


@dataclass(frozen=True)
class P2PSite:
    """One point-to-point call site in the census."""

    kind: str          # "send" or "recv"
    tag: object        # resolved int/str constant, DYNAMIC, or WILDCARD
    function: str
    node: ast.Call


@dataclass(frozen=True)
class UnmatchedP2P:
    """A tag with traffic in only one direction."""

    kind: str          # "send" (no matching recv) or "recv" (no send)
    tag: object
    site: P2PSite


class UnitCallGraph:
    """Interprocedural facts over one checked unit."""

    def __init__(
        self,
        functions: dict[str, ast.FunctionDef],
        analysis: UnitAnalysis,
        constants: dict[str, object],
        collective_names: frozenset[str],
        p2p_names: frozenset[str],
        nondet_prefixes: tuple[str, ...] = (),
        constants_by_function: Optional[dict[str, dict[str, object]]] = None,
    ) -> None:
        self.functions = functions
        self.analysis = analysis
        self.constants = dict(constants)
        #: Per-function constant environments (cross-module units resolve
        #: each function's names against its *own* module's constants).
        #: Falls back to the flat merged table when absent.
        self.constants_by_function = dict(constants_by_function or {})
        self.collective_names = collective_names
        self.p2p_names = p2p_names
        self.nondet_prefixes = tuple(nondet_prefixes)
        self._unit_names = frozenset(functions)
        self.tainted: dict[str, set[str]] = {}
        self.returns_tainted: dict[str, bool] = {}
        # Taint runs first: the summary builder's path-sensitivity hook
        # (pred_key) consults taint facts to decide which branch
        # predicates are rank-uniform.
        self._run_taint_fixpoint()
        #: Raw (unresolved) per-function collective summaries.
        self.summaries: dict[str, Summary] = {
            name: function_summary(
                tree,
                collective_names,
                analysis.infos[name].comm_names,
                self._unit_names,
                pred_key=self._pred_key_for(name),
            )
            for name, tree in functions.items()
        }

    # -- summaries ----------------------------------------------------- #

    def resolve_block(self, fn_name: str, stmts: list[ast.stmt]) -> Summary:
        """Resolved collective summary of a statement list in ``fn_name``."""
        raw = block_summary(
            stmts,
            self.collective_names,
            self.analysis.infos[fn_name].comm_names,
            self._unit_names,
            pred_key=self._pred_key_for(fn_name),
        )
        return resolve(raw, self.summaries)

    # -- path-sensitive predicate verdicts ----------------------------- #

    def _pred_key_for(self, fn_name: str):
        def pred_key(test: ast.expr) -> Optional[str]:
            return self._predicate_key(fn_name, test)
        return pred_key

    def _predicate_key(self, fn_name: str, test: ast.expr) -> Optional[str]:
        """Canonical key for a rank-uniform, side-effect-free predicate
        (or None when the branch must stay an opaque Alt)."""
        if not _is_stable_predicate(test):
            return None
        if self.expr_tainted(fn_name, test):
            return None
        return ast.dump(test, annotate_fields=False)

    def predicate_verdict(self, fn_name: str, expr: Optional[ast.AST]) -> str:
        """:data:`DIVERGENT` when a divergence source appears syntactically
        in the predicate, :data:`TAINTED` when divergence merely may flow
        into it, :data:`UNIFORM` otherwise."""
        if expr is None:
            return UNIFORM
        if self._has_divergence_source(fn_name, expr):
            return DIVERGENT
        if self.expr_tainted(fn_name, expr):
            return TAINTED
        return UNIFORM

    def _has_divergence_source(self, fn_name: str, expr: ast.AST) -> bool:
        """Does a direct divergence source (``ctx.rank``, a receive result,
        an entropy draw) appear syntactically inside ``expr``?"""
        comm = self._comm_names(fn_name)
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Attribute):
                if (
                    attr_root(sub) in comm
                    and sub.attr in _DIVERGENT_COMM_ATTRS
                ):
                    return True
            elif isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Attribute):
                    root = attr_root(func)
                    if root in comm:
                        if func.attr in _DIVERGENT_COMM_RESULTS:
                            return True
                        chain = _attr_chain(func)
                        if "rng" in chain[:-1]:
                            return True
                if self._matches_nondet(_dotted_name(func)):
                    return True
        return False

    # -- rank-divergence taint ----------------------------------------- #

    def _comm_names(self, fn_name: str) -> frozenset[str]:
        return self.analysis.infos[fn_name].comm_names

    def _params_of(self, fn_name: str) -> list[str]:
        args = self.functions[fn_name].args
        return [a.arg for a in (list(args.posonlyargs) + list(args.args))]

    def _matches_nondet(self, dotted: Optional[str]) -> bool:
        if dotted is None:
            return False
        return any(
            dotted == p or dotted.startswith(p + ".")
            for p in self.nondet_prefixes
        )

    def expr_tainted(self, fn_name: str, node: Optional[ast.AST]) -> bool:
        """May this expression's value differ across ranks?"""
        if node is None:
            return False
        tainted = self.tainted.get(fn_name, set())
        comm = self._comm_names(fn_name)

        def visit(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Name):
                return expr.id in tainted
            if isinstance(expr, ast.Attribute):
                root = attr_root(expr)
                if root in comm:
                    # ctx.rank differs per rank; ctx.size / ctx.params /
                    # ctx.rng-the-object are rank-uniform handles.
                    return expr.attr in _DIVERGENT_COMM_ATTRS
                if root is not None:
                    return root in tainted
                return visit(expr.value)
            if isinstance(expr, ast.Call):
                func = expr.func
                if isinstance(func, ast.Attribute):
                    root = attr_root(func)
                    if root in comm:
                        if func.attr in self.collective_names:
                            return False  # collective results are uniform
                        if func.attr in _DIVERGENT_COMM_RESULTS:
                            return True
                        chain = _attr_chain(func)
                        if "rng" in chain[:-1]:
                            return True  # ctx.rng draws are per rank
                        return any(visit(a) for a in expr.args) or any(
                            visit(k.value) for k in expr.keywords
                        )
                if isinstance(func, ast.Name) and func.id in self.functions:
                    if self.returns_tainted.get(func.id, False):
                        return True
                    return False  # callee's return is rank-uniform
                dotted = _dotted_name(func)
                if self._matches_nondet(dotted):
                    return True
                # Unknown call: deterministic function of its inputs.
                parts = [func] if not isinstance(func, ast.Name) else []
                parts += list(expr.args)
                parts += [k.value for k in expr.keywords]
                return any(visit(p) for p in parts)
            if isinstance(expr, ast.Subscript):
                return visit(expr.value) or visit(expr.slice)
            if isinstance(expr, (ast.Lambda, ast.FunctionDef)):
                return False  # separate scope
            return any(
                visit(child)
                for child in ast.iter_child_nodes(expr)
                if not isinstance(child, (ast.expr_context, ast.operator,
                                          ast.boolop, ast.cmpop,
                                          ast.unaryop))
            )

        return visit(node)

    def _intra_pass(self, fn_name: str) -> bool:
        """One flow-insensitive propagation pass; True when taint grew."""
        tree = self.functions[fn_name]
        tainted = self.tainted[fn_name]
        changed = False

        def mark(name: Optional[str]) -> None:
            nonlocal changed
            if name and name not in tainted:
                tainted.add(name)
                changed = True

        def target_root(target: ast.expr) -> Optional[str]:
            if isinstance(target, ast.Name):
                return target.id
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                return attr_root(
                    target.value if isinstance(target, ast.Subscript)
                    else target
                )
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if self.expr_tainted(fn_name, node.value):
                    for t in node.targets:
                        if isinstance(t, (ast.Tuple, ast.List)):
                            for el in t.elts:
                                mark(target_root(el))
                        else:
                            mark(target_root(t))
            elif isinstance(node, ast.AugAssign):
                if self.expr_tainted(fn_name, node.value):
                    mark(target_root(node.target))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if self.expr_tainted(fn_name, node.value):
                    mark(target_root(node.target))
            elif isinstance(node, ast.For):
                if self.expr_tainted(fn_name, node.iter):
                    for t in ast.walk(node.target):
                        if isinstance(t, ast.Name):
                            mark(t.id)
            elif isinstance(node, ast.NamedExpr):
                if self.expr_tainted(fn_name, node.value):
                    mark(node.target.id)
        return changed

    def _propagate_calls(self) -> bool:
        """Tainted arguments taint callee parameters (context-insensitive).

        Walks the call edges the precompiler's :class:`UnitAnalysis`
        already recorded (``FunctionInfo.call_sites``)."""
        changed = False
        for caller in self.functions:
            for callee, sites in \
                    self.analysis.infos[caller].call_sites.items():
                params = self._params_of(callee)
                callee_tainted = self.tainted[callee]
                for node in sites:
                    for i, arg in enumerate(node.args):
                        if i < len(params) and self.expr_tainted(caller, arg):
                            if params[i] not in callee_tainted:
                                callee_tainted.add(params[i])
                                changed = True
                    for kw in node.keywords:
                        if (
                            kw.arg
                            and kw.arg in params
                            and self.expr_tainted(caller, kw.value)
                            and kw.arg not in callee_tainted
                        ):
                            callee_tainted.add(kw.arg)
                            changed = True
        return changed

    def _recompute_returns(self) -> bool:
        changed = False
        for name, tree in self.functions.items():
            flag = any(
                isinstance(n, ast.Return)
                and n.value is not None
                and self.expr_tainted(name, n.value)
                for n in ast.walk(tree)
            )
            if flag != self.returns_tainted.get(name, False):
                self.returns_tainted[name] = flag
                changed = True
        return changed

    def _run_taint_fixpoint(self) -> None:
        for name in self.functions:
            self.tainted[name] = set()
            self.returns_tainted[name] = False
        changed = True
        while changed:
            changed = False
            for name in self.functions:
                if self._intra_pass(name):
                    changed = True
            if self._propagate_calls():
                changed = True
            if self._recompute_returns():
                changed = True

    # -- p2p census ----------------------------------------------------- #

    def _tag_of(
        self, fn_name: str, expr: Optional[ast.expr], default: object
    ) -> object:
        if expr is None:
            return default
        if isinstance(expr, ast.Constant) and isinstance(
            expr.value, (int, str)
        ):
            return expr.value
        if isinstance(expr, ast.Name):
            env = self.constants_by_function.get(fn_name, self.constants)
            if expr.id in env:
                value = env[expr.id]
                if isinstance(value, (int, str)):
                    return value
        return DYNAMIC

    def _p2p_sites(self) -> list[P2PSite]:
        sites: list[P2PSite] = []
        for name, tree in self.functions.items():
            comm = self._comm_names(name)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in self.p2p_names
                    and attr_root(func) in comm
                ):
                    continue
                kws = {k.arg: k.value for k in node.keywords if k.arg}

                def pos(i: int) -> Optional[ast.expr]:
                    return node.args[i] if len(node.args) > i else None

                if func.attr in ("send", "isend"):
                    # send(payload, dest, tag=0)
                    tag = self._tag_of(name, kws.get("tag") or pos(2), 0)
                    sites.append(P2PSite("send", tag, name, node))
                elif func.attr in ("recv", "irecv"):
                    # recv(source=ANY_SOURCE, tag=ANY_TAG)
                    tag = self._tag_of(
                        name, kws.get("tag") or pos(1), WILDCARD
                    )
                    sites.append(P2PSite("recv", tag, name, node))
                elif func.attr == "sendrecv":
                    # sendrecv(payload, dest, recv_source,
                    #          send_tag=0, recv_tag=None)
                    stag = self._tag_of(
                        name, kws.get("send_tag") or pos(3), 0
                    )
                    rtag = self._tag_of(
                        name, kws.get("recv_tag") or pos(4), WILDCARD
                    )
                    sites.append(P2PSite("send", stag, name, node))
                    sites.append(P2PSite("recv", rtag, name, node))
        return sites

    def unmatched_p2p(self) -> list[UnmatchedP2P]:
        """Tags with traffic in only one direction.

        A ``recv`` with no tag (or a dynamic tag) matches every send; a
        dynamic send tag matches every recv — both directions degrade
        soundly to "no report" rather than guessing.
        """
        sites = self._p2p_sites()
        sends = [s for s in sites if s.kind == "send"]
        recvs = [s for s in sites if s.kind == "recv"]
        recv_tags = {s.tag for s in recvs}
        send_tags = {s.tag for s in sends}
        recv_matches_all = bool(recv_tags & {WILDCARD, DYNAMIC})
        send_matches_all = DYNAMIC in send_tags

        out: list[UnmatchedP2P] = []
        reported: set[tuple[str, object]] = set()
        for site in sends:
            if site.tag is DYNAMIC or recv_matches_all:
                continue
            if site.tag in recv_tags:
                continue
            key = ("send", site.tag)
            if key not in reported:
                reported.add(key)
                out.append(UnmatchedP2P("send", site.tag, site))
        for site in recvs:
            if site.tag in (DYNAMIC, WILDCARD) or send_matches_all:
                continue
            if site.tag in send_tags:
                continue
            key = ("recv", site.tag)
            if key not in reported:
                reported.add(key)
                out.append(UnmatchedP2P("recv", site.tag, site))
        return out


def _is_stable_predicate(test: ast.expr) -> bool:
    """Side-effect free and value-determined-by-names-read: safe to use as
    a correlation key.  Calls and subscripts are excluded (a call may
    return different values on repeated evaluation)."""
    for sub in ast.walk(test):
        if isinstance(sub, (ast.expr_context, ast.operator, ast.boolop,
                            ast.cmpop, ast.unaryop)):
            continue
        if not isinstance(sub, _STABLE_PREDICATE_NODES):
            return False
    return True


def _attr_chain(node: ast.expr) -> list[str]:
    """``ctx.rng.random`` → ``["ctx", "rng", "random"]`` (empty when the
    chain is not rooted at a plain name)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    return list(reversed(parts))


def _dotted_name(func: ast.expr) -> Optional[str]:
    chain = _attr_chain(func)
    return ".".join(chain) if chain else None
