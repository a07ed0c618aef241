"""The program analysis the precompiler and the checker share (paper
Section 5.1.1).

"The precompiler only needs to insert labels at function calls that can
eventually lead to a potentialCheckpoint location."  :class:`UnitAnalysis`
analyses a compilation unit (a set of function ASTs) once, and both the
precompiler and every :mod:`repro.check` code read it:

* **communication roots** — the ``ctx``/``comm`` parameter that carries
  the protocol layer (:func:`comm_roots`).  Method calls count only when
  rooted there, so a user's ``lock.barrier()`` is an ordinary call;
* **call graph** — each function's plain-name calls into the unit, and
  one closure over it (:meth:`UnitAnalysis.callers_of`) that gives the
  *reaching* set (functions that contain a checkpoint site or call one
  that reaches: they get restart labels), the *suspending* set (reaching,
  or making a call that can suspend the rank: they become generators) and
  the *collective callers*;
* **locals** — every name a function can bind (the VDS membership), and
  the supported-subset violations found on the way (:class:`Violation`,
  with the offending node's span);
* **collective summaries** — each statement list's collective calls as a
  small regular expression (:data:`Summary`: :class:`Tok`,
  :class:`CallRef`, :class:`Seq`, :class:`Alt`, :class:`Star`,
  :class:`Cond`), and :meth:`UnitAnalysis.resolve`, which substitutes
  callee summaries across calls (a recursive call stays a
  :class:`CallRef`);
* **rank-divergence taint** — a flow-insensitive, interprocedural fixpoint
  over "may this value differ across ranks?", seeded by the sources in
  one table: ``ctx.rank``, receive results, per-rank draws, entropy and
  clock reads.  Collective results are uniform by the protocol's own
  guarantee.  :meth:`UnitAnalysis.predicate_verdict` grades a predicate
  :data:`UNIFORM`, :data:`TAINTED` or :data:`DIVERGENT`.

Summaries and taint are computed on the checker's first query; the
precompiler never asks for them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

CHECKPOINT_NAME = "potential_checkpoint"

#: Call names that may take a local checkpoint inside the callee.  Barriers
#: are checkpoint sites because the paper's epoch-alignment rule (Section
#: 4.5) forces lagging processes to checkpoint just before executing one:
#: "This solution requires the precompiler to insert the all-to-all
#: communication and the potential checkpointing calls before each barrier."
#: Giving every barrier call its own labelled block realises exactly that.
CHECKPOINT_SITE_NAMES = frozenset({CHECKPOINT_NAME, "barrier"})

#: Parameter names conventionally carrying the protocol layer.  A method
#: call only counts as a checkpoint site (or a communication call) when its
#: receiver chain is rooted at one of these.
COMM_PARAM_NAMES = ("ctx", "comm", "mpi")

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

#: MPI collective operations (every process of the communicator must call
#: them in the same order — paper Section 4.5 handles their log/replay).
COLLECTIVE_NAMES = frozenset({
    "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "scan", "barrier",
})

# -- the rank-divergence sources ------------------------------------------ #

#: Dotted-prefix table of nondeterministic stdlib/numpy entropy sources.  A
#: call matches when its dotted name equals an entry or extends one past a
#: dot.
NONDET_PREFIXES = (
    "random",
    "np.random",
    "numpy.random",
    "os.urandom",
    "uuid",
    "secrets",
)

#: Host wall-clock reads: each rank, and each replay, reads another value.
CLOCK_NAMES = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Comm-rooted calls whose *results* may differ across ranks: receives, the
#: logged draws, and the rank's virtual clock.
DIVERGENT_COMM_RESULTS = frozenset({
    "recv", "irecv", "sendrecv", "wait", "test", "nondet", "random",
    "now", "wtime",
})

#: Comm-rooted attribute reads that differ across ranks (``ctx.rank``).
DIVERGENT_COMM_ATTRS = frozenset({"rank"})

#: Predicate verdicts, ordered by how much is known about the predicate's
#: cross-rank behaviour.  ``UNIFORM`` — every rank computes the same value
#: (collective results, parameters, loop indices); ``TAINTED`` — the value
#: *may* differ across ranks (flows from a divergence source); ``DIVERGENT``
#: — a divergence source appears syntactically in the predicate itself, so
#: divergence is provable along a feasible path.  DIVERGENT implies TAINTED.
UNIFORM = "uniform"
TAINTED = "tainted"
DIVERGENT = "divergent"

#: Call names that declare module globals as managed checkpointable state
#: (see :func:`repro.statesave.checkpointable_state`).
REGISTRATION_NAMES = frozenset({"checkpointable_state"})


# --------------------------------------------------------------------- #
# Names and call shapes.
# --------------------------------------------------------------------- #

def _params(tree: ast.FunctionDef) -> list[str]:
    return [a.arg for a in tree.args.posonlyargs + tree.args.args]


def comm_roots(tree: ast.FunctionDef) -> frozenset[str]:
    """The function's communication-root parameter names.

    Parameters named ``ctx``/``comm``/``mpi`` qualify; when none is, the
    first positional parameter is assumed to be the context (the unit
    convention throughout this codebase), so units that spell the context
    differently still analyse correctly.  A function with no parameters
    has no comm roots — none of its method calls can be checkpoint sites.
    """
    params = _params(tree)
    named = frozenset(p for p in params if p in COMM_PARAM_NAMES)
    return named or frozenset(params[:1])


def attr_root(node: ast.expr) -> Optional[str]:
    """The base ``Name`` of an attribute chain (``ctx.mpi.barrier`` → ``ctx``),
    or None when the chain is rooted in a call/subscript/constant."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def store_root(target: ast.expr) -> Optional[str]:
    """The name a store to ``target`` binds or mutates: ``x`` for ``x``,
    ``x.a`` and ``x[i]``."""
    if isinstance(target, ast.Subscript):
        target = target.value
    return attr_root(target)


def dotted(func: ast.expr) -> Optional[str]:
    """``np.random.seed`` for an attribute-chain callee, ``foo`` for a
    plain name; None for computed callees (``xs[0]()``)."""
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    return ".".join([func.id, *reversed(parts)])


def matches_nondet(name: Optional[str]) -> bool:
    """Is the dotted callee an entropy source of :data:`NONDET_PREFIXES`?"""
    return name is not None and any(
        name == p or name.startswith(p + ".") for p in NONDET_PREFIXES
    )


def divergent_call(func: ast.expr, comm_names: frozenset[str]) -> bool:
    """Does calling ``func`` return a value that may differ across ranks: a
    comm-rooted receive, draw or clock read (:data:`DIVERGENT_COMM_RESULTS`,
    ``ctx.rng.*``), an entropy source, or a host clock?"""
    name = dotted(func)
    if name is None:
        return False
    root, *rest = name.split(".")
    if root in comm_names and rest:
        return rest[-1] in DIVERGENT_COMM_RESULTS or "rng" in rest[:-1]
    return matches_nondet(name) or name in CLOCK_NAMES


def is_checkpoint_site(node: ast.AST, comm_names: frozenset[str]) -> bool:
    """True if ``node`` is a call that can take a local checkpoint.

    Attribute calls only match when rooted at one of ``comm_names``
    (``ctx.barrier()`` yes, ``lock.barrier()`` no).
    """
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id in CHECKPOINT_SITE_NAMES
    return (
        isinstance(fn, ast.Attribute)
        and fn.attr in CHECKPOINT_SITE_NAMES
        and attr_root(fn) in comm_names
    )


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


def callee(node: ast.AST) -> str:
    """The callee of a plain-name call (``f`` for ``f(x)``), else ``""``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return ""


def is_labelled_call(
    node: ast.AST, reaching: Iterable[str], comm_names: frozenset[str]
) -> bool:
    """A call that gets its own restart label: a checkpoint site, or a
    plain-name call to a reaching unit function."""
    return is_checkpoint_site(node, comm_names) or callee(node) in reaching


def contains_checkpointable(
    node: ast.AST, reaching: Iterable[str], comm_names: frozenset[str]
) -> bool:
    """Does this statement or expression (recursively) contain a labelled
    call?"""
    return any(is_labelled_call(n, reaching, comm_names) for n in ast.walk(node))


def unit_call_sites(
    node: ast.AST, unit_names: Iterable[str]
) -> dict[str, list[ast.Call]]:
    """Every plain-name call into the unit, callee → call nodes (document
    order)."""
    out: dict[str, list[ast.Call]] = {}
    for sub in ast.walk(node):
        name = callee(sub)
        if isinstance(sub, ast.Call) and name in unit_names:
            out.setdefault(name, []).append(sub)
    return out


def module_registered_globals(tree: ast.Module) -> set[str]:
    """Module-global names registered via ``checkpointable_state("NAME")``.

    Scans top-level expression statements for calls whose callee is named
    ``checkpointable_state`` (bare or at the end of an attribute chain)
    and collects their string-constant arguments.  The checker treats
    registered names as managed state: mutating them is no virtual-data-
    segment escape, because the globals registry snapshots and restores
    them with every checkpoint.
    """
    out: set[str] = set()
    for node in tree.body:
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name not in REGISTRATION_NAMES:
            continue
        out.update(
            arg.value for arg in node.value.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        )
    return out


# --------------------------------------------------------------------- #
# Supported-subset violations and locals.
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Violation:
    """One supported-subset violation, with its full source span.

    ``construct`` keeps the human-readable keyword (``"try containing
    checkpointable call"`` …) that exception messages and the ``RPR00x``
    code mapping key off.
    """

    construct: str
    function: str
    lineno: Optional[int] = None
    col_offset: Optional[int] = None
    hint: str = ""

    @classmethod
    def at(cls, construct: str, node: ast.AST, function: str,
           hint: str = "") -> "Violation":
        return cls(construct, function, getattr(node, "lineno", None),
                   getattr(node, "col_offset", None), hint)

    def describe(self) -> str:
        where = ""
        if self.lineno is not None:
            where = f" at line {self.lineno}"
            if self.col_offset is not None:
                where += f":{self.col_offset + 1}"
        fn = f" in {self.function!r}" if self.function else ""
        extra = f" ({self.hint})" if self.hint else ""
        return f"{self.construct!r}{fn}{where}{extra}"


def discover_locals(
    tree: ast.FunctionDef, violations: list[Violation]
) -> list[str]:
    """Every name the function can bind: args, assignment targets, for
    targets, withitems, walrus targets.  Nested function scopes excluded.

    ``global``/``nonlocal`` are outside the supported subset: they are
    appended to ``violations``.
    """
    names: list[str] = []

    def add(name: str) -> None:
        if name not in names:
            names.append(name)

    def reject(construct: str, node: ast.AST, hint: str = "") -> None:
        violations.append(Violation.at(construct, node, tree.name, hint))

    args = tree.args
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        add(a.arg)
    for a in (args.vararg, args.kwarg):
        if a is not None:
            add(a.arg)

    class Collector(ast.NodeVisitor):
        def visit_FunctionDef(self, node) -> None:
            add(node.name)  # the def binds its name; don't descend

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Lambda(self, node) -> None:
            pass  # separate scope (comprehension scopes too, in py3)

        visit_ListComp = visit_SetComp = visit_DictComp = visit_Lambda
        visit_GeneratorExp = visit_Lambda

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


_NESTED_SCOPES = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                  ast.GeneratorExp)


def validate_supported(
    tree: ast.FunctionDef,
    reaching: Iterable[str],
    comm_names: frozenset[str],
    suspending: Iterable[str],
) -> list[Violation]:
    """Every checkpointable call in an untransformable position, and every
    suspending call (``suspending`` names the unit's suspending functions)
    inside a nested scope."""
    found: list[Violation] = []

    def labelled(sub: ast.AST) -> bool:
        return is_labelled_call(sub, reaching, comm_names)

    def suspends(sub: ast.AST) -> bool:
        return (
            labelled(sub)
            or callee(sub) in suspending
            or is_suspending_call(sub, comm_names)
        )

    def check(node: ast.AST, construct: str, test, hint: str) -> None:
        if any(test(sub) for sub in ast.walk(node)):
            found.append(Violation.at(construct, node, tree.name, hint))

    no_label = "checkpointable calls cannot be labelled here"
    no_suspend = "a yield from cannot suspend through a nested scope"
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            check(node, "try containing checkpointable call", labelled, no_label)
        elif isinstance(node, ast.With):
            check(node, "with containing checkpointable call", labelled, no_label)
        elif isinstance(node, _NESTED_SCOPES):
            check(node, "nested scope containing suspending call", suspends,
                  no_suspend)
        elif isinstance(node, ast.FunctionDef) and node is not tree:
            check(node, "nested def containing suspending call", suspends,
                  no_suspend)
        elif isinstance(node, (ast.BoolOp, ast.IfExp)):
            check(node, "short-circuit expression containing checkpointable "
                  "call", labelled, no_label)
        elif isinstance(node, (ast.For, ast.While)) and node.orelse:
            # The desugarer cannot rewrite a loop that needs restartable
            # iteration but carries an else arm; catch it here so the
            # violation has a span instead of failing mid-transform.
            kind = "while" if isinstance(node, ast.While) else "for"
            check(node, f"{kind}-else containing checkpointable call",
                  labelled, "")
        elif isinstance(node, (ast.AsyncFunctionDef, ast.AsyncFor,
                               ast.AsyncWith, ast.Await)):
            found.append(Violation.at("async construct", node, tree.name))
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            found.append(Violation.at("generator function", node, tree.name))
    return found


# --------------------------------------------------------------------- #
# The collective-summary language.
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Tok:
    """One direct collective call (``barrier``, ``allreduce``, …)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class CallRef:
    """A call into a unit function that executes collectives; resolved
    against that function's summary, or left standing on recursion."""

    callee: str

    def __str__(self) -> str:
        return f"call:{self.callee}"


@dataclass(frozen=True)
class Seq:
    """Concatenation; ``Seq(())`` is the empty sequence :data:`EPS`."""

    parts: tuple["Summary", ...]


@dataclass(frozen=True)
class Alt:
    """Branch merge: one of the options executes, maybe another per rank."""

    options: tuple["Summary", ...]


@dataclass(frozen=True)
class Star:
    """Loop merge: the body executes zero or more times."""

    inner: "Summary"


@dataclass(frozen=True)
class Cond:
    """Branch on a *rank-uniform* predicate, keyed by its canonical text.

    Unlike :class:`Alt`, every rank takes the same arm — so two adjacent
    ``Cond`` nodes with the same key are correlated and merge *per path*::

        [k ? A : B] · [k ? C : D]  ≡  [k ? A·C : B·D]

    which proves ``if k: a(); if k: b()`` equivalent to ``if k: a(); b()``.
    """

    key: str
    then: "Summary"
    orelse: "Summary"


Summary = Union[Tok, CallRef, Seq, Alt, Star, Cond]
EPS = Seq(())

# The constructors below keep every summary in normal form (flat
# sequences without ε, deduplicated alternatives, no trivial stars or
# conditions), so two summaries are equivalent exactly when they are
# equal — a sound, conservative check that never equates different
# languages.


def seq(parts: Iterable[Summary]) -> Summary:
    out: list[Summary] = []

    def push(part: Summary) -> None:
        prev = out[-1] if out else None
        if isinstance(part, Seq):
            for p in part.parts:
                push(p)
        elif (isinstance(part, Cond) and isinstance(prev, Cond)
              and prev.key == part.key):
            out.pop()
            push(cond(part.key, seq((prev.then, part.then)),
                      seq((prev.orelse, part.orelse))))
        else:
            out.append(part)

    for part in parts:
        push(part)
    return out[0] if len(out) == 1 else Seq(tuple(out))


def alt(*options: Summary) -> Summary:
    out: list[Summary] = []
    for option in options:
        for o in option.options if isinstance(option, Alt) else (option,):
            if o not in out:
                out.append(o)
    return out[0] if len(out) == 1 else Alt(tuple(out))


def star(inner: Summary) -> Summary:
    return inner if inner == EPS or isinstance(inner, Star) else Star(inner)


def cond(key: str, then: Summary, orelse: Summary) -> Summary:
    return then if then == orelse else Cond(key, then, orelse)


def leaves(s: Summary) -> Iterator[Union[Tok, CallRef]]:
    """Every :class:`Tok` and :class:`CallRef` of the summary, in order."""
    if isinstance(s, (Tok, CallRef)):
        yield s
    elif isinstance(s, Star):
        yield from leaves(s.inner)
    else:
        children = (s.parts if isinstance(s, Seq) else s.options
                    if isinstance(s, Alt) else (s.then, s.orelse))
        for child in children:
            yield from leaves(child)


def collectives_in(s: Summary) -> tuple[str, ...]:
    """Every collective that can occur in the summary's language (document
    order, deduplicated)."""
    return tuple(dict.fromkeys(t.name for t in leaves(s) if isinstance(t, Tok)))


#: AST node types a predicate may consist of and still key a :class:`Cond`
#: (side-effect free, value determined by the names it reads).  Calls and
#: subscripts are excluded: a call may return another value when repeated.
_STABLE_PREDICATE_NODES = (
    ast.BoolOp, ast.UnaryOp, ast.BinOp, ast.Compare, ast.Name,
    ast.Attribute, ast.Constant, ast.Tuple,
    ast.expr_context, ast.operator, ast.boolop, ast.cmpop, ast.unaryop,
)


# --------------------------------------------------------------------- #
# The unit analysis.
# --------------------------------------------------------------------- #

@dataclass
class FunctionInfo:
    """What the analysis knows about one unit function."""

    name: str
    tree: ast.FunctionDef
    #: Source file the tree's (absolute) line numbers point into.
    file: str = "<unknown>"
    #: Names the function's checkpoint sites / comm calls must be rooted at.
    comm_names: frozenset[str] = frozenset()
    has_checkpoint_site: bool = False
    #: Plain-name calls into other unit functions, callee → call nodes.
    call_sites: dict[str, list[ast.Call]] = field(default_factory=dict)
    local_names: list[str] = field(default_factory=list)
    #: The checker's module facts: the constants the function's names
    #: resolve against (p2p tags) and the globals its module registers as
    #: checkpointable state.
    constants: dict[str, object] = field(default_factory=dict)
    registered: set[str] = field(default_factory=set)


class UnitAnalysis:
    """The whole-unit analysis over a set of function ASTs.

    ``violations`` holds every supported-subset violation of the unit: in
    locals discovery (``global``/``nonlocal``) and in each function the
    transform rewrites.
    """

    def __init__(
        self,
        functions: dict[str, ast.FunctionDef],
        files: Optional[dict[str, str]] = None,
    ) -> None:
        self.infos: dict[str, FunctionInfo] = {}
        self.violations: list[Violation] = []
        for name, tree in functions.items():
            comm = comm_roots(tree)
            self.infos[name] = FunctionInfo(
                name=name,
                tree=tree,
                file=(files or {}).get(name, "<unknown>"),
                comm_names=comm,
                has_checkpoint_site=any(
                    is_checkpoint_site(n, comm) for n in ast.walk(tree)
                ),
                call_sites=unit_call_sites(tree, functions),
                local_names=discover_locals(tree, self.violations),
            )
        self.reaching = self.callers_of(
            n for n, i in self.infos.items() if i.has_checkpoint_site
        )
        self.suspending = self.callers_of(self.reaching | {
            n for n, i in self.infos.items()
            if any(is_suspending_call(s, i.comm_names) for s in ast.walk(i.tree))
        })
        for name in sorted(self.suspending):
            info = self.infos[name]
            self.violations += validate_supported(
                info.tree, self.reaching, info.comm_names, self.suspending
            )
        #: Rank-divergence taint, filled by the first query: per function,
        #: the names whose value may differ across ranks, and the functions
        #: whose return value may.
        self.tainted: dict[str, set[str]] = {}
        self.returns_tainted: set[str] = set()

    def callers_of(self, seed: Iterable[str]) -> set[str]:
        """``seed`` and every function that (transitively) calls into it —
        the one fixpoint over the call graph (mutual recursion included)."""
        out = set(seed)
        grown = True
        while grown:
            new = {n for n, i in self.infos.items()
                   if n not in out and not out.isdisjoint(i.call_sites)}
            out |= new
            grown = bool(new)
        return out

    def comm_op(self, name: str, node: ast.AST) -> str:
        """The method of a call rooted at ``name``'s comm root
        (``allreduce`` for ``ctx.mpi.allreduce(...)``), else ``""``."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and attr_root(node.func) in self.infos[name].comm_names
        ):
            return node.func.attr
        return ""

    # -- collective summaries --------------------------------------------- #

    @cached_property
    def collective_callers(self) -> set[str]:
        """Functions that (transitively) execute a collective."""
        return self.callers_of(
            n for n, i in self.infos.items()
            if any(self.comm_op(n, s) in COLLECTIVE_NAMES for s in ast.walk(i.tree))
        )

    @cached_property
    def summaries(self) -> dict[str, Summary]:
        """Each function's raw (unresolved) collective summary."""
        return {n: self.block_summary(n, i.tree.body)
                for n, i in self.infos.items()}

    def _calls(self, name: str, node: ast.AST) -> list[Summary]:
        """Collective tokens and collective-caller refs inside one
        expression or atomic statement, in :func:`ast.walk` order."""
        out: list[Summary] = []
        for sub in ast.walk(node):
            op = self.comm_op(name, sub)
            if op in COLLECTIVE_NAMES:
                out.append(Tok(op))
            elif callee(sub) in self.collective_callers:
                out.append(CallRef(callee(sub)))
        return out

    def block_summary(self, name: str, stmts: list[ast.stmt]) -> Summary:
        """The raw collective summary of a statement list of ``name``,
        joined at branches (:class:`Alt`, or :class:`Cond` on a stable
        rank-uniform predicate) and loops (:class:`Star`)."""
        parts: list[Summary] = []
        for s in stmts:
            if isinstance(s, ast.If):
                parts += self._calls(name, s.test)
                then = self.block_summary(name, s.body)
                orelse = self.block_summary(name, s.orelse)
                key = self._predicate_key(name, s.test)
                parts.append(alt(then, orelse) if key is None
                             else cond(key, then, orelse))
            elif isinstance(s, ast.While):
                test = self._calls(name, s.test)
                parts += test
                parts.append(star(seq([self.block_summary(name, s.body), *test])))
                parts.append(self.block_summary(name, s.orelse))
            elif isinstance(s, ast.For):
                parts += self._calls(name, s.iter)
                parts.append(star(self.block_summary(name, s.body)))
                parts.append(self.block_summary(name, s.orelse))
            elif isinstance(s, ast.Try):
                parts += [self.block_summary(name, b)
                          for b in (s.body, s.orelse, s.finalbody)]
            elif not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):  # nested scopes: skip
                parts += self._calls(name, s)
        return seq(parts)

    def resolve(self, s: Summary, stack: frozenset[str] = frozenset()) -> Summary:
        """Substitute callee summaries across call boundaries; a recursive
        call stays a :class:`CallRef`, equal only to itself."""
        if isinstance(s, CallRef):
            if s.callee in stack:
                return s
            return self.resolve(self.summaries[s.callee], stack | {s.callee})
        if isinstance(s, Seq):
            return seq(self.resolve(p, stack) for p in s.parts)
        if isinstance(s, Alt):
            return alt(*(self.resolve(o, stack) for o in s.options))
        if isinstance(s, Star):
            return star(self.resolve(s.inner, stack))
        if isinstance(s, Cond):
            return cond(s.key, self.resolve(s.then, stack),
                        self.resolve(s.orelse, stack))
        return s

    def _predicate_key(self, name: str, test: ast.expr) -> Optional[str]:
        """Canonical key for a stable, rank-uniform predicate (None when
        the branch must stay an :class:`Alt`)."""
        if (
            all(isinstance(n, _STABLE_PREDICATE_NODES) for n in ast.walk(test))
            and not self.expr_tainted(name, test)
        ):
            return ast.dump(test, annotate_fields=False)
        return None

    # -- rank-divergence taint -------------------------------------------- #

    def predicate_verdict(self, name: str, expr: ast.expr) -> str:
        """:data:`DIVERGENT` when a divergence source appears syntactically
        in the predicate, :data:`TAINTED` when divergence merely may flow
        into it, :data:`UNIFORM` otherwise."""
        comm = self.infos[name].comm_names
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Attribute):
                if sub.attr in DIVERGENT_COMM_ATTRS and attr_root(sub) in comm:
                    return DIVERGENT
            elif isinstance(sub, ast.Call) and divergent_call(sub.func, comm):
                return DIVERGENT
        return TAINTED if self.expr_tainted(name, expr) else UNIFORM

    def expr_tainted(self, name: str, node: ast.expr) -> bool:
        """May this expression's value differ across ranks?"""
        if not self.tainted:
            self.tainted = {n: set() for n in self.infos}
            while self._taint_step():
                pass
        return self._tainted(name, node)

    def _tainted(self, name: str, node: ast.AST) -> bool:
        tainted = self.tainted[name]
        comm = self.infos[name].comm_names

        def visit(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Name):
                return expr.id in tainted
            if isinstance(expr, ast.Attribute):
                root = attr_root(expr)
                if root in comm:
                    # ctx.rank differs per rank; ctx.size / ctx.params /
                    # ctx.rng-the-object are rank-uniform handles.
                    return expr.attr in DIVERGENT_COMM_ATTRS
                return root in tainted if root is not None else visit(expr.value)
            if isinstance(expr, ast.Call):
                func = expr.func
                args = [*expr.args, *(k.value for k in expr.keywords)]
                if isinstance(func, ast.Attribute) and attr_root(func) in comm:
                    if func.attr in COLLECTIVE_NAMES:
                        return False  # collective results are uniform
                    return divergent_call(func, comm) or any(map(visit, args))
                if isinstance(func, ast.Name) and func.id in self.infos:
                    return func.id in self.returns_tainted
                if divergent_call(func, comm):
                    return True
                # Unknown call: a deterministic function of its inputs.
                return any(map(visit, args)) or (
                    not isinstance(func, ast.Name) and visit(func)
                )
            if isinstance(expr, ast.Subscript):
                return visit(expr.value) or visit(expr.slice)
            if isinstance(expr, (ast.Lambda, ast.FunctionDef)):
                return False  # separate scope
            return any(map(visit, ast.iter_child_nodes(expr)))

        return visit(node)

    def _taint_step(self) -> bool:
        """One propagation round over the unit; True when taint grew.

        Tainted values taint their assignment targets (flow-insensitive),
        tainted arguments the callee's parameters (context-insensitive),
        and a tainted return value every call of the function."""
        before = self._taint_size()
        for name, info in self.infos.items():
            tainted = self.tainted[name]
            for node in ast.walk(info.tree):
                value = getattr(node, "value", None)
                if isinstance(node, ast.Assign) and self._tainted(name, value):
                    for t in node.targets:
                        elts = t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t]
                        tainted.update(filter(None, map(store_root, elts)))
                elif (isinstance(node, (ast.AugAssign, ast.AnnAssign))
                      and value is not None and self._tainted(name, value)):
                    tainted.update(filter(None, [store_root(node.target)]))
                elif isinstance(node, ast.For) and self._tainted(name, node.iter):
                    tainted.update(n.id for n in ast.walk(node.target)
                                   if isinstance(n, ast.Name))
                elif isinstance(node, ast.NamedExpr) and self._tainted(name, value):
                    tainted.add(node.target.id)
                elif (isinstance(node, ast.Return) and value is not None
                      and self._tainted(name, value)):
                    self.returns_tainted.add(name)
            for called, calls in info.call_sites.items():
                params = _params(self.infos[called].tree)
                for call in calls:
                    bound = [*zip(params, call.args),
                             *((k.arg or "", k.value) for k in call.keywords)]
                    self.tainted[called].update(
                        p for p, arg in bound
                        if p in params and self._tainted(name, arg)
                    )
        return self._taint_size() != before

    def _taint_size(self) -> int:
        return sum(map(len, self.tainted.values())) + len(self.returns_tainted)
