"""Static analysis for the precompiler (paper Section 5.1.1).

"The precompiler only needs to insert labels at function calls that can
eventually lead to a potentialCheckpoint location."  This module computes
that *checkpoint-reaching* set over a compilation unit:

* a call site is a **checkpoint site** if it invokes a callable named
  ``potential_checkpoint`` (plain or as a method, e.g.
  ``ctx.potential_checkpoint()``);
* a call site is a **checkpointable call** if it invokes, by plain name,
  another function of the unit that reaches a checkpoint;
* a function *reaches* if it contains a checkpoint site or a checkpointable
  call (computed to fixpoint over the unit's call graph, which handles
  mutual recursion).

A wider fixpoint gives the *suspending* set: functions that reach, make a
call that can suspend the rank (``ctx.mpi.recv(...)``, see
:func:`is_suspending_call`), or call a suspending unit function.  The
precompiler turns every suspending function into a generator; only the
reaching ones get restart labels.

Method-call matches are anchored to the function's *communication root* —
the ``ctx``/``comm`` parameter that carries the protocol layer — so a
user's ``lock.barrier()`` is an ordinary call, not a checkpoint site (see
:func:`comm_roots`).

The analysis also enumerates every local name a function can bind (the VDS
membership) and validates the supported subset, rejecting checkpointable
calls in positions the transformation cannot relabel (inside ``try``/
``with``/boolean short-circuits) and suspending calls inside nested
functions/lambdas/comprehensions, which a ``yield from`` cannot reach.

Two reporting modes exist for subset validation: the historical *raise*
mode (first violation aborts with :class:`UnsupportedConstructError`) and
*collect* mode, where every violation in the unit is appended to a caller
list as a :class:`Violation` carrying the offending node's full span —
this is what :mod:`repro.check` renders as ``RPR00x`` diagnostics and what
lets the precompiler report all violations at once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import UnsupportedConstructError

CHECKPOINT_NAME = "potential_checkpoint"

#: Call names that may take a local checkpoint inside the callee.  Barriers
#: are checkpoint sites because the paper's epoch-alignment rule (Section
#: 4.5) forces lagging processes to checkpoint just before executing one:
#: "This solution requires the precompiler to insert the all-to-all
#: communication and the potential checkpointing calls before each barrier."
#: Giving every barrier call its own labelled block realises exactly that.
CHECKPOINT_SITE_NAMES = frozenset({CHECKPOINT_NAME, "barrier"})

#: Parameter names conventionally carrying the protocol layer.  A method
#: call only counts as a checkpoint site (or, in :mod:`repro.check`, a
#: communication call) when its receiver chain is rooted at one of these.
COMM_PARAM_NAMES = ("ctx", "comm", "mpi")


def comm_roots(tree: ast.FunctionDef) -> frozenset[str]:
    """The function's communication-root parameter names.

    Parameters named ``ctx``/``comm``/``mpi`` qualify; when none is, the
    first positional parameter is assumed to be the context (the unit
    convention throughout this codebase), so units that spell the context
    differently still analyse correctly.  A function with no parameters
    has no comm roots — none of its method calls can be checkpoint sites.
    """
    args = tree.args
    params = [
        a.arg
        for a in (list(args.posonlyargs) + list(args.args))
    ]
    named = frozenset(p for p in params if p in COMM_PARAM_NAMES)
    if named:
        return named
    if params:
        return frozenset({params[0]})
    return frozenset()


def attr_root(node: ast.expr) -> Optional[str]:
    """The base ``Name`` of an attribute chain (``ctx.mpi.barrier`` → ``ctx``),
    or None when the chain is rooted in a call/subscript/constant."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_checkpoint_site(
    node: ast.AST, comm_names: Optional[frozenset[str]] = None
) -> bool:
    """True if ``node`` is a call that can take a local checkpoint.

    With ``comm_names`` given, attribute calls only match when rooted at
    one of those names (``ctx.barrier()`` yes, ``lock.barrier()`` no).
    Without it, any receiver matches — the historical permissive mode kept
    for callers that have no per-function context.
    """
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Name) and fn.id in CHECKPOINT_SITE_NAMES:
        return True
    if isinstance(fn, ast.Attribute) and fn.attr in CHECKPOINT_SITE_NAMES:
        if comm_names is None:
            return True
        return attr_root(fn) in comm_names
    return False


#: Context-surface methods that can suspend, called on the comm root
#: itself (``ctx.potential_checkpoint()``, ``ctx.yield_point()``).  Roots
#: named ``comm`` or ``mpi`` may carry the MPI surface directly, so the
#: direct-receiver set is the union with :data:`MPI_SUSPENDING`.
CTX_SUSPENDING = frozenset(
    {"potential_checkpoint", "nondet", "random", "yield_point"}
)

#: MPI-surface methods that can suspend the calling rank (block on a
#: peer, reach a scheduling point, or take a checkpoint), called on the
#: comm root's ``.mpi`` attribute — or the root itself.  Methods *not*
#: listed (``comm_rank``, ``comm_dup``, ``op_create``, ``attach_buffer``,
#: ``wtime``, ``iprobe`` …) never suspend and keep their plain form.
MPI_SUSPENDING = frozenset(
    {
        "send", "recv", "sendrecv", "isend", "irecv", "wait", "test",
        "bcast", "reduce", "allreduce", "gather", "allgather", "scatter",
        "alltoall", "scan", "barrier",
        "potential_checkpoint", "nondet", "comm_split",
    }
)

_DIRECT_SUSPENDING = CTX_SUSPENDING | MPI_SUSPENDING


def is_suspending_call(node: ast.AST, comm_names: frozenset[str]) -> bool:
    """Is ``node`` a call to a suspending method of the comm surface?

    Matches exactly ``<root>.m(...)`` and ``<root>.mpi.m(...)`` with the
    root a comm parameter — deeper chains (``ctx.rng.random()``) are
    ordinary application calls.  The precompiler rewrites each match into
    ``yield from <receiver>.co_m(...)``.
    """
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    func = node.func
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


#: Call names that declare module globals as managed checkpointable state
#: (see :func:`repro.statesave.checkpointable_state`).
REGISTRATION_NAMES = frozenset({"checkpointable_state"})


def module_registered_globals(tree: ast.Module) -> set[str]:
    """Module-global names registered via ``checkpointable_state("NAME")``.

    Scans top-level expression statements for calls whose callee is named
    ``checkpointable_state`` (bare or at the end of an attribute chain)
    and collects their string-constant arguments.  The static checker
    treats registered names as managed state: mutating them is no longer a
    virtual-data-segment escape (RPR030/033/034), because the globals
    registry snapshots and restores them with every checkpoint.
    """
    out: set[str] = set()
    for node in tree.body:
        if not (isinstance(node, ast.Expr) and isinstance(node.value,
                                                          ast.Call)):
            continue
        func = node.value.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        if name not in REGISTRATION_NAMES:
            continue
        for arg in node.value.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                out.add(arg.value)
    return out


def unit_call_sites(
    node: ast.AST, unit_names: set[str]
) -> dict[str, list[ast.Call]]:
    """Every plain-name call into the unit, callee → call nodes (document
    order).  The interprocedural checks in :mod:`repro.check` walk these
    edges instead of re-discovering them."""
    out: dict[str, list[ast.Call]] = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            if sub.func.id in unit_names:
                out.setdefault(sub.func.id, []).append(sub)
    return out


@dataclass(frozen=True)
class Violation:
    """One supported-subset violation, with its full source span.

    ``construct`` keeps the historical human-readable keyword (``"try
    containing checkpointable call"`` …) that exception messages and the
    ``RPR00x`` code mapping key off.
    """

    construct: str
    function: str
    lineno: Optional[int] = None
    col_offset: Optional[int] = None
    hint: str = ""

    def describe(self) -> str:
        where = ""
        if self.lineno is not None:
            where = f" at line {self.lineno}"
            if self.col_offset is not None:
                where += f":{self.col_offset + 1}"
        fn = f" in {self.function!r}" if self.function else ""
        extra = f" ({self.hint})" if self.hint else ""
        return f"{self.construct!r}{fn}{where}{extra}"


def _violation(
    construct: str, node: ast.AST, function: str, hint: str = ""
) -> Violation:
    return Violation(
        construct=construct,
        function=function,
        lineno=getattr(node, "lineno", None),
        col_offset=getattr(node, "col_offset", None),
        hint=hint,
    )


@dataclass
class FunctionInfo:
    """Analysis results for one unit function."""

    name: str
    tree: ast.FunctionDef
    has_checkpoint_site: bool = False
    callees: set[str] = field(default_factory=set)
    reaches: bool = False
    #: Reaches, or can suspend the rank: transformed into a generator.
    suspends: bool = False
    local_names: list[str] = field(default_factory=list)
    #: Names the function's checkpoint sites / comm calls must be rooted at.
    comm_names: frozenset[str] = frozenset()
    #: Plain-name calls into other unit functions, callee → call nodes.
    call_sites: dict[str, list[ast.Call]] = field(default_factory=dict)


class UnitAnalysis:
    """Whole-unit analysis over a set of function ASTs.

    ``collect`` switches subset violations found during local-name
    discovery (``global``/``nonlocal``) from raising to appending — the
    all-violations reporting path.
    """

    def __init__(
        self,
        functions: dict[str, ast.FunctionDef],
        collect: Optional[list[Violation]] = None,
    ) -> None:
        self.infos: dict[str, FunctionInfo] = {}
        unit_names = set(functions)
        for name, tree in functions.items():
            info = FunctionInfo(name=name, tree=tree)
            info.comm_names = comm_roots(tree)
            info.has_checkpoint_site = any(
                is_checkpoint_site(n, info.comm_names) for n in ast.walk(tree)
            )
            info.suspends = any(
                is_suspending_call(n, info.comm_names) for n in ast.walk(tree)
            )
            info.call_sites = unit_call_sites(tree, unit_names)
            info.callees = set(info.call_sites)
            info.local_names = discover_locals(
                tree,
                on_violation=(
                    None if collect is None
                    else lambda c, n, h, _fn=name: collect.append(
                        _violation(c, n, _fn, h)
                    )
                ),
            )
            self.infos[name] = info
        for info in self.infos.values():
            info.reaches = info.has_checkpoint_site
        self._close("reaches")
        for info in self.infos.values():
            info.suspends |= info.reaches
        self._close("suspends")

    def _close(self, flag: str) -> None:
        """Fixpoint: ``flag`` holds for every caller of a function it holds
        for (mutual recursion included)."""
        changed = True
        while changed:
            changed = False
            for info in self.infos.values():
                if getattr(info, flag):
                    continue
                if any(getattr(self.infos[c], flag) for c in info.callees):
                    setattr(info, flag, True)
                    changed = True

    @property
    def reaching(self) -> set[str]:
        return {n for n, i in self.infos.items() if i.reaches}

    @property
    def suspending(self) -> set[str]:
        """Every function the precompiler transforms (a superset of
        :attr:`reaching`)."""
        return {n for n, i in self.infos.items() if i.suspends}

    def validate(self, collect: list[Violation]) -> None:
        """Subset-validate every function the transform rewrites."""
        reaching, suspending = self.reaching, self.suspending
        for name in sorted(suspending):
            info = self.infos[name]
            validate_supported(
                info.tree, reaching, info.comm_names,
                collect=collect, suspending=suspending,
            )


def stmt_contains_checkpointable(
    stmt: ast.stmt,
    reaching: set[str],
    comm_names: Optional[frozenset[str]] = None,
) -> bool:
    """Does this statement (recursively) contain a labelled call?"""
    for node in ast.walk(stmt):
        if is_checkpoint_site(node, comm_names):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in reaching
        ):
            return True
    return False


def expr_contains_checkpointable(
    expr: ast.expr,
    reaching: set[str],
    comm_names: Optional[frozenset[str]] = None,
) -> bool:
    for node in ast.walk(expr):
        if is_checkpoint_site(node, comm_names):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in reaching
        ):
            return True
    return False


def discover_locals(
    tree: ast.FunctionDef,
    on_violation: Optional[Callable[[str, ast.AST, str], None]] = None,
) -> list[str]:
    """Every name the function can bind: args, assignment targets, for
    targets, withitems, walrus targets.  Nested function scopes excluded.

    ``global``/``nonlocal`` are outside the supported subset: the default
    raises :class:`UnsupportedConstructError` on the first one;
    ``on_violation(construct, node, hint)`` collects them instead.
    """
    names: list[str] = []
    seen: set[str] = set()

    def add(name: str) -> None:
        if name not in seen:
            seen.add(name)
            names.append(name)

    def reject(construct: str, node: ast.AST, hint: str = "") -> None:
        if on_violation is not None:
            on_violation(construct, node, hint)
            return
        raise UnsupportedConstructError(
            construct,
            getattr(node, "lineno", None),
            hint,
            col_offset=getattr(node, "col_offset", None),
            function=tree.name,
        )

    args = tree.args
    for a in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        add(a.arg)
    if args.vararg:
        add(args.vararg.arg)
    if args.kwarg:
        add(args.kwarg.arg)

    class Collector(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            add(node.name)  # the def binds its name; don't descend

        def visit_AsyncFunctionDef(self, node) -> None:
            add(node.name)

        def visit_Lambda(self, node: ast.Lambda) -> None:
            pass  # separate scope

        def visit_ListComp(self, node) -> None:
            pass  # comprehension scopes are separate in py3

        visit_SetComp = visit_DictComp = visit_GeneratorExp = visit_ListComp

        def visit_Name(self, node: ast.Name) -> None:
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                add(node.id)

        def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
            add(node.target.id)
            self.visit(node.value)

        def visit_Global(self, node: ast.Global) -> None:
            reject(
                "global", node,
                "use the globals registry (repro.statesave.globals_registry)",
            )

        def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
            reject("nonlocal", node)

    collector = Collector()
    for stmt in tree.body:
        collector.visit(stmt)
    return names


def validate_supported(
    tree: ast.FunctionDef,
    reaching: set[str],
    comm_names: Optional[frozenset[str]] = None,
    collect: Optional[list[Violation]] = None,
    suspending: frozenset[str] | set[str] = frozenset(),
) -> None:
    """Reject checkpointable calls in untransformable positions, and
    suspending calls (``suspending`` names the unit's suspending
    functions) inside nested scopes.

    Raise mode (``collect=None``) aborts on the first violation, as the
    precompiler historically did; collect mode appends every violation in
    the function so callers can report them all at once.
    """
    found: list[Violation] = []

    def reject(construct: str, node: ast.AST, hint: str = "") -> None:
        found.append(_violation(construct, node, tree.name, hint))
        if collect is None:
            raise UnsupportedConstructError(
                construct,
                getattr(node, "lineno", None),
                hint,
                col_offset=getattr(node, "col_offset", None),
                function=tree.name,
            )

    def unit_call(sub: ast.AST, names) -> bool:
        return (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id in names
        )

    def labelled(sub: ast.AST) -> bool:
        return is_checkpoint_site(sub, comm_names) or unit_call(sub, reaching)

    def suspends(sub: ast.AST) -> bool:
        return (
            labelled(sub)
            or unit_call(sub, suspending)
            or is_suspending_call(sub, comm_names or frozenset())
        )

    def check_no_reach(node: ast.AST, construct: str) -> None:
        if any(labelled(sub) for sub in ast.walk(node)):
            reject(construct, node, "checkpointable calls cannot be labelled here")

    def check_no_suspend(node: ast.AST, construct: str) -> None:
        if any(suspends(sub) for sub in ast.walk(node)):
            reject(construct, node, "a yield from cannot suspend through a nested scope")

    for node in ast.walk(tree):
        if isinstance(node, (ast.Try,)):
            check_no_reach(node, "try containing checkpointable call")
        elif isinstance(node, ast.With):
            check_no_reach(node, "with containing checkpointable call")
        elif isinstance(node, (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            check_no_suspend(node, "nested scope containing suspending call")
        elif isinstance(node, ast.FunctionDef) and node is not tree:
            check_no_suspend(node, "nested def containing suspending call")
        elif isinstance(node, (ast.BoolOp, ast.IfExp)):
            check_no_reach(node, "short-circuit expression containing checkpointable call")
        elif isinstance(node, (ast.For, ast.While)) and node.orelse:
            # The desugarer cannot rewrite a loop that needs restartable
            # iteration but carries an else arm; catch it here so the
            # violation has a span instead of failing mid-transform.
            kind = "while" if isinstance(node, ast.While) else "for"
            if stmt_contains_checkpointable(node, reaching, comm_names):
                reject(f"{kind}-else containing checkpointable call", node)
        elif isinstance(node, (ast.AsyncFunctionDef, ast.AsyncFor, ast.AsyncWith, ast.Await)):
            reject("async construct", node)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            reject("generator function", node)
    if collect is not None:
        collect.extend(found)
