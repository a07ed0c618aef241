"""The analysis battery behind ``repro-check``.

Each analysis is a function ``(unit: CheckedUnit) -> list[Diagnostic]``;
:data:`ANALYSES` is the battery the driver runs.  All of them operate on
the same substrate as the precompiler — :class:`UnitAnalysis` over the
unit's function ASTs, with method calls anchored at each function's
communication root (its ``ctx``/``comm`` parameter) — so what the checker
flags is exactly what the transformation and the protocol will see.

The analyses are deliberately conservative in the direction of the
protocol's correctness argument: collective matching compares the
*syntactic* collective sequence of branch arms (the paper's requirement is
that all processes execute the same sequence of collectives); VDS escape
flags state the checkpointed variable-descriptor set cannot contain; and
nondeterminism flags calls whose results the message/result log will not
replay.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.check.alias import AliasFacts
from repro.check.callgraph import DIVERGENT, UNIFORM, UnitCallGraph
from repro.check.cfg import collectives_in, equivalent, has_unknown
from repro.check.diagnostics import Diagnostic, Span
from repro.precompiler.analysis import (
    UnitAnalysis,
    Violation,
    attr_root,
)

#: MPI collective operations (every process of the communicator must call
#: them in the same order — paper Section 4.5 handles their log/replay).
COLLECTIVE_NAMES = frozenset({
    "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "scan", "barrier",
})

#: Point-to-point and completion calls (the p2p census reads the sends
#: and receives among them).
P2P_NAMES = frozenset({
    "send", "isend", "recv", "irecv", "wait", "test", "sendrecv",
})

#: Dotted-prefix table for nondeterministic stdlib/numpy entropy sources
#: (``RPR020``).  A call matches when its dotted name equals an entry or
#: extends one past a dot.
NONDET_PREFIXES = (
    "random",
    "np.random",
    "numpy.random",
    "os.urandom",
    "uuid",
    "secrets",
)

#: Host wall-clock reads (``RPR021``): replay produces a different value.
CLOCK_NAMES = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Method names that mutate their receiver in place (``RPR030`` when the
#: receiver is not a local).
MUTATOR_NAMES = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
    "write", "writelines", "__setitem__",
})

#: ``construct`` keyword prefix (from :class:`Violation`) → diagnostic code.
_SUBSET_CODE_BY_PREFIX = (
    ("try", "RPR001"),
    ("with", "RPR002"),
    ("nested", "RPR003"),
    ("short-circuit", "RPR004"),
    ("async", "RPR005"),
    ("generator", "RPR006"),
    ("global", "RPR007"),
    ("nonlocal", "RPR007"),
    ("for-else", "RPR008"),
    ("while-else", "RPR008"),
)

_SUBSET_HINTS = {
    "RPR001": "hoist the checkpointable call out of the try block",
    "RPR002": "replace the with-statement by explicit acquire/release around the call",
    "RPR003": "move the call out of the lambda/comprehension/inner def",
    "RPR004": "assign the call result to a local first, then test it",
    "RPR005": "the checkpointable subset is synchronous; remove async/await",
    "RPR006": "rewrite the generator as a loop accumulating into a list",
    "RPR007": ("pass state explicitly or register the global with "
               "checkpointable_state(...)"),
    "RPR008": "move the else-arm after the loop (guarded by a flag)",
}


@dataclass
class CheckedUnit:
    """What the driver hands each analysis: the unit's ASTs (line numbers
    already absolute), one source file per function, the precompiler-grade
    :class:`UnitAnalysis`, and every subset violation collected on the way.
    """

    functions: dict[str, ast.FunctionDef]
    files: dict[str, str]
    analysis: UnitAnalysis
    violations: list[Violation] = field(default_factory=list)
    #: Module-level integer/string constants visible to the unit (tag
    #: names like ``TAG_UP = 12``), resolved by the driver from source.
    constants: dict[str, object] = field(default_factory=dict)
    #: Per-file constant tables for cross-module units: each function's
    #: names resolve against its *own* module's constants.  Empty when the
    #: unit is single-module (the flat ``constants`` table then applies).
    file_constants: dict[str, dict[str, object]] = field(default_factory=dict)
    #: Per-file sets of globals registered via ``checkpointable_state``.
    registered_globals: dict[str, set[str]] = field(default_factory=dict)

    def file_of(self, name: str) -> str:
        return self.files.get(name, "<unknown>")

    def registered_of(self, name: str) -> set[str]:
        """Globals registered as managed state in ``name``'s module."""
        return self.registered_globals.get(self.file_of(name), set())

    def span(self, name: str, node: ast.AST) -> Span:
        return Span.of(node, self.file_of(name))

    def comm_names(self, name: str):
        return self.analysis.infos[name].comm_names

    def locals_of(self, name: str) -> set[str]:
        return set(self.analysis.infos[name].local_names)

    # -- communication fixpoints ------------------------------------------ #

    def _direct(self, predicate: Callable[[str, ast.AST], bool]) -> set[str]:
        return {
            name
            for name, tree in self.functions.items()
            if any(predicate(name, n) for n in ast.walk(tree))
        }

    def _transitive(self, seed: set[str]) -> set[str]:
        out = set(seed)
        changed = True
        while changed:
            changed = False
            for name, info in self.analysis.infos.items():
                if name not in out and info.callees & out:
                    out.add(name)
                    changed = True
        return out

    def _comm_call(self, fn_name: str, node: ast.AST, names) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr in names
            and attr_root(func) in self.comm_names(fn_name)
        )

    @property
    def collective_callers(self) -> set[str]:
        """Functions that (transitively) execute a collective."""
        if not hasattr(self, "_collective_callers"):
            seed = self._direct(
                lambda f, n: self._comm_call(f, n, COLLECTIVE_NAMES)
            )
            self._collective_callers = self._transitive(seed)
        return self._collective_callers

    # -- interprocedural substrates (built lazily, shared by analyses) ---- #

    @property
    def callgraph(self) -> UnitCallGraph:
        """Summaries + rank-divergence taint + p2p census for the unit."""
        if not hasattr(self, "_callgraph"):
            by_function: Optional[dict[str, dict[str, object]]] = None
            if self.file_constants:
                by_function = {
                    name: self.file_constants.get(
                        self.file_of(name), self.constants
                    )
                    for name in self.functions
                }
            self._callgraph = UnitCallGraph(
                self.functions,
                self.analysis,
                self.constants,
                COLLECTIVE_NAMES,
                P2P_NAMES,
                NONDET_PREFIXES,
                constants_by_function=by_function,
            )
        return self._callgraph

    @property
    def aliasfacts(self) -> AliasFacts:
        """Points-to regions and escape summaries for the unit."""
        if not hasattr(self, "_aliasfacts"):
            registered = {
                name: self.registered_of(name) for name in self.functions
            }
            self._aliasfacts = AliasFacts(
                self.functions, self.analysis, MUTATOR_NAMES,
                registered=registered,
            )
        return self._aliasfacts


def _dotted(func: ast.expr) -> Optional[str]:
    """``np.random.seed`` for an attribute-chain callee, ``foo`` for a
    plain name; None for computed callees (``xs[0]()``)."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------- #
# supported-subset (RPR001..RPR008)
# ---------------------------------------------------------------------- #

def supported_subset(unit: CheckedUnit) -> list[Diagnostic]:
    """Render the precompiler's collected subset violations as diagnostics."""
    out: list[Diagnostic] = []
    for v in unit.violations:
        code = next(
            (c for prefix, c in _SUBSET_CODE_BY_PREFIX
             if v.construct.startswith(prefix)),
            "RPR003",  # unknown construct kinds are still subset errors
        )
        span = Span(
            file=unit.file_of(v.function),
            line=v.lineno or 0,
            col=v.col_offset or 0,
        )
        out.append(Diagnostic(
            code=code,
            message=f"unsupported construct: {v.construct}",
            span=span,
            function=v.function,
            hint=v.hint or _SUBSET_HINTS.get(code, ""),
        ))
    return out


# ---------------------------------------------------------------------- #
# collective-matching (RPR010, RPR011)
# ---------------------------------------------------------------------- #

def collective_matching(unit: CheckedUnit) -> list[Diagnostic]:
    """All processes must execute the same sequence of collectives.

    Per function, the analysis extracts the *collective sequence* of every
    straight-line region (direct ``ctx.<collective>()`` calls plus calls to
    unit functions that transitively perform collectives) and requires the
    two arms of every ``if`` to produce equal sequences.  Path-sensitive
    refinement (v3) consults the branch predicate's rank-divergence
    verdict first: a *uniform* predicate means every rank takes the same
    arm, so differing arms are fine; a *divergent* predicate (``ctx.rank``
    or received data syntactically in the test) upgrades the mismatch to
    ``RPR014`` (the divergence is provable); anything in between stays
    ``RPR010``.  A conditional ``return``/``break`` under a non-uniform
    predicate with collectives still ahead in the enclosing region earns a
    ``RPR011`` warning: the exiting process would skip them while its
    peers block.
    """
    out: list[Diagnostic] = []

    def tokens_of(node: ast.AST, fn_name: str) -> list[str]:
        """Collective tokens in an expression/atomic statement (canonical
        walk order — both arms of a branch are canonicalised identically)."""
        toks = []
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in COLLECTIVE_NAMES
                and attr_root(func) in unit.comm_names(fn_name)
            ):
                toks.append(func.attr)
            elif (
                isinstance(func, ast.Name)
                and func.id in unit.collective_callers
            ):
                toks.append(f"call:{func.id}")
        return toks

    def has_exit(stmts: list[ast.stmt]) -> bool:
        for s in stmts:
            for sub in ast.walk(s):
                if isinstance(sub, (ast.Return, ast.Break)):
                    return True
        return False

    def seq_of(stmts: list[ast.stmt], fn_name: str) -> list[str]:
        toks: list[str] = []
        exits: list[tuple[ast.stmt, int]] = []  # (conditional exit, pos)
        for s in stmts:
            if isinstance(s, ast.If):
                toks += tokens_of(s.test, fn_name)
                then_seq = seq_of(s.body, fn_name)
                else_seq = seq_of(s.orelse, fn_name)
                verdict = unit.callgraph.predicate_verdict(fn_name, s.test)
                mismatch = then_seq != else_seq
                if mismatch and verdict == UNIFORM:
                    # Every rank evaluates the same predicate value, so
                    # all of them take the same arm: asymmetric arms are
                    # not a protocol divergence (the v2 RPR010
                    # false-positive family).
                    mismatch = False
                if mismatch:
                    # The token view differs, but resolving unit calls to
                    # their own collective summaries may prove both arms
                    # execute the same protocol (e.g. each arm calls a
                    # different helper wrapping the same allreduce, or
                    # correlated uniform sub-branches merge per path).
                    then_res = unit.callgraph.resolve_block(fn_name, s.body)
                    else_res = unit.callgraph.resolve_block(fn_name, s.orelse)
                    if equivalent(then_res, else_res) \
                            and not has_unknown(then_res):
                        mismatch = False
                if mismatch:
                    divergent = verdict == DIVERGENT
                    out.append(Diagnostic(
                        code="RPR014" if divergent else "RPR010",
                        message=(
                            (
                                "branch predicate is provably rank-"
                                "divergent and the arms execute different "
                                if divergent else
                                "branch arms execute different "
                            )
                            + "collective sequences: "
                            f"{then_seq or ['<none>']} vs "
                            f"{else_seq or ['<none>']}"
                        ),
                        span=unit.span(fn_name, s),
                        function=fn_name,
                        hint=(
                            (
                                "the predicate reads ctx.rank/received "
                                "data, so ranks take different arms; "
                                "broadcast the decision or hoist the "
                                "collective out of the branch"
                            ) if divergent else (
                                "all ranks must execute the same "
                                "collectives; hoist the collective out of "
                                "the branch"
                            )
                        ),
                    ))
                elif (
                    verdict != UNIFORM
                    and (has_exit(s.body) or has_exit(s.orelse))
                ):
                    # A uniform predicate exits on every rank together —
                    # only rank-divergent exits can strand peers.
                    exits.append((s, len(toks)))
                toks += then_seq
            elif isinstance(s, (ast.For, ast.While)):
                if isinstance(s, ast.While):
                    toks += tokens_of(s.test, fn_name)
                else:
                    toks += tokens_of(s.iter, fn_name)
                toks += seq_of(s.body, fn_name)
                toks += seq_of(s.orelse, fn_name)
            elif isinstance(s, ast.Try):
                toks += seq_of(s.body, fn_name)
                for handler in s.handlers:
                    seq_of(handler.body, fn_name)
                toks += seq_of(s.orelse, fn_name)
                toks += seq_of(s.finalbody, fn_name)
            elif isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                continue  # separate scope/unit
            else:
                toks += tokens_of(s, fn_name)
        for stmt, pos in exits:
            if len(toks) > pos:  # collectives still ahead of the exit
                out.append(Diagnostic(
                    code="RPR011",
                    message=(
                        "conditional early exit may skip "
                        f"{len(toks) - pos} later collective call(s)"
                    ),
                    span=unit.span(fn_name, stmt),
                    function=fn_name,
                    hint=(
                        "a rank leaving early deadlocks peers blocked in "
                        "the collective; make the exit collective too "
                        "(e.g. allreduce the stop flag)"
                    ),
                ))
        return toks

    for name, tree in unit.functions.items():
        seq_of(tree.body, name)
    return out


# ---------------------------------------------------------------------- #
# collective-sequencing (RPR012, RPR013)
# ---------------------------------------------------------------------- #

def collective_sequencing(unit: CheckedUnit) -> list[Diagnostic]:
    """Interprocedural sequencing hazards the syntactic matcher misses.

    ``RPR012``: a loop whose guard (``while`` test / ``for`` iterable) may
    differ across ranks — it depends on ``ctx.rank``, a received message,
    or an unlogged draw, tracked through assignments *and* unit-function
    calls — while the loop body (interprocedurally resolved) executes
    collectives.  Ranks iterate different counts, so some rank eventually
    blocks in a collective its peers never enter: the classic
    ``while local_err > tol: allreduce(...)`` convergence deadlock.
    When the divergence source appears *syntactically in the guard itself*
    (``while ctx.recv(...)``, ``for i in range(ctx.rank)``), divergence is
    provable rather than merely possible and the finding upgrades to
    ``RPR014``.

    ``RPR013``: a point-to-point tag with traffic in only one direction
    anywhere in the unit (sends nobody receives, or receives nobody
    sends), with module-level tag constants resolved.  This replaces the
    v1 carve-out that ignored p2p calls entirely.
    """
    cg = unit.callgraph
    out: list[Diagnostic] = []
    for name, tree in unit.functions.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.While):
                guard: ast.expr = node.test
                kind = "while condition"
            elif isinstance(node, ast.For):
                guard = node.iter
                kind = "for iterable"
            else:
                continue
            verdict = cg.predicate_verdict(name, guard)
            if verdict == UNIFORM:
                continue
            body = cg.resolve_block(name, node.body)
            colls = collectives_in(body)
            if colls:
                divergent = verdict == DIVERGENT
                out.append(Diagnostic(
                    code="RPR014" if divergent else "RPR012",
                    message=(
                        (
                            f"loop {kind} is provably rank-divergent "
                            if divergent else
                            f"loop {kind} may differ across ranks "
                        )
                        + "but the body executes collective(s) "
                        f"{', '.join(colls)}; ranks iterate different "
                        "counts and deadlock"
                    ),
                    span=unit.span(name, node),
                    function=name,
                    hint=(
                        "make the guard rank-uniform first, e.g. "
                        "allreduce the continue/error value every "
                        "iteration so all ranks decide together"
                    ),
                ))
    for um in cg.unmatched_p2p():
        if um.kind == "send":
            message = (
                f"send with tag {um.tag!r} has no matching recv "
                "anywhere in the unit"
            )
            hint = (
                "the send completes, but the destination never receives "
                "it, so no later checkpoint wave commits and a failure "
                "rolls back to the last wave before it; add the peer recv "
                "or fix the tag"
            )
        else:
            message = (
                f"recv with tag {um.tag!r} has no matching send "
                "anywhere in the unit"
            )
            hint = (
                "this rank blocks forever waiting for a message nobody "
                "sends; add the peer send or fix the tag"
            )
        out.append(Diagnostic(
            code="RPR013",
            message=message,
            span=unit.span(um.site.function, um.site.node),
            function=um.site.function,
            hint=hint,
        ))
    return out


# ---------------------------------------------------------------------- #
# unlogged-nondeterminism (RPR020, RPR021)
# ---------------------------------------------------------------------- #

def _matches_nondet(dotted: str) -> bool:
    return any(
        dotted == p or dotted.startswith(p + ".") for p in NONDET_PREFIXES
    )


def unlogged_nondeterminism(unit: CheckedUnit) -> list[Diagnostic]:
    """Entropy and wall-clock reads the result log cannot replay.

    The protocol replays received messages and ``ctx.nondet(...)`` results
    from its logs; ``random.random()``/``os.urandom``/``uuid4`` draws and
    ``time.time()`` reads happen *outside* the log, so a restarted rank
    recomputes different values and diverges from the failure-free run.
    Chains rooted at a local name or at the communication root
    (``ctx.rng.random()``) are exempt — those are managed state.
    """
    out: list[Diagnostic] = []
    for name, tree in unit.functions.items():
        local = unit.locals_of(name) | set(unit.comm_names(name))
        # Calls inside the arguments of a comm-rooted ``ctx.nondet(...)``
        # are the logged-replay idiom itself, not a finding (the repair
        # the RPR020 hint names).
        logged: set[int] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "nondet"
                and attr_root(node.func) in unit.comm_names(name)
            ):
                for arg in list(node.args) + [
                    k.value for k in node.keywords
                ]:
                    for sub in ast.walk(arg):
                        logged.add(id(sub))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if id(node) in logged:
                continue
            dotted = _dotted(node.func)
            if dotted is None or "." not in dotted:
                continue
            root = dotted.split(".", 1)[0]
            if root in local:
                continue
            if _matches_nondet(dotted):
                out.append(Diagnostic(
                    code="RPR020",
                    message=(
                        f"call to {dotted}() is nondeterministic and not "
                        "logged; replay after recovery diverges"
                    ),
                    span=unit.span(name, node),
                    function=name,
                    hint=(
                        "draw from ctx.rng (checkpointed per rank) or wrap "
                        "the call in ctx.nondet(lambda: ...)"
                    ),
                ))
            elif dotted in CLOCK_NAMES:
                out.append(Diagnostic(
                    code="RPR021",
                    message=(
                        f"call to {dotted}() reads the host wall clock, "
                        "which differs across recovery replays"
                    ),
                    span=unit.span(name, node),
                    function=name,
                    hint=(
                        "wrap the read in ctx.nondet(lambda: ...) so replay "
                        "serves the logged value; ctx.now() (virtual time) "
                        "suits timing only, as a restarted rank reads "
                        "another value"
                    ),
                ))
    return out


# ---------------------------------------------------------------------- #
# VDS-escape (RPR030, RPR031)
# ---------------------------------------------------------------------- #

def _thread_or_register(registration: str) -> str:
    """The escape repair: threading first, registration with its caveat
    (the registry keeps one process-wide value, saved for every rank)."""
    return (
        "thread the object through parameters/locals; "
        f"{registration} suits rank-uniform state only, as it keeps one "
        "process-wide copy for all ranks"
    )


def _store_targets(node: ast.stmt) -> Iterator[ast.expr]:
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield node.target
    elif isinstance(node, ast.Delete):
        yield from node.targets


def vds_escape(unit: CheckedUnit) -> list[Diagnostic]:
    """State outside the checkpointed variable descriptor set.

    The VDS covers the unit functions' locals (captured frame-by-frame at a
    checkpoint).  Mutating anything else — a module global or a shared
    default-argument object — survives into the restarted process *or* is
    silently reset by it, either way breaking the paper's assumption that
    a checkpoint captures all application state.
    """
    out: list[Diagnostic] = []
    for name, tree in unit.functions.items():
        local = unit.locals_of(name)
        # Globals registered via checkpointable_state(...) are managed by
        # the globals registry (snapshotted/restored with every
        # checkpoint), so mutating them is not an escape.
        exempt = local | set(unit.comm_names(name)) | unit.registered_of(name)

        # RPR031: mutable default arguments (shared across calls; their
        # mutation is invisible to frame capture).
        args = tree.args
        pos = list(args.posonlyargs) + list(args.args)
        for arg, default in zip(pos[len(pos) - len(args.defaults):],
                                args.defaults):
            if _is_mutable_literal(default):
                out.append(_mutable_default(unit, name, arg, default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and _is_mutable_literal(default):
                out.append(_mutable_default(unit, name, arg, default))

        for node in ast.walk(tree):
            # RPR030 (stores): x.attr = ... / x[i] = ... where x is not a
            # local — the object lives outside every frame in the VDS.
            if isinstance(node, ast.stmt):
                for target in _store_targets(node):
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = attr_root(
                            target.value if isinstance(target, ast.Subscript)
                            else target
                        )
                        if root is not None and root not in exempt:
                            out.append(Diagnostic(
                                code="RPR030",
                                message=(
                                    f"store to {root}.{{...}} mutates state "
                                    "outside the checkpointed VDS"
                                ),
                                span=unit.span(name, target),
                                function=name,
                                hint=_thread_or_register(
                                    f'checkpointable_state("{root}")'
                                ),
                            ))
            # RPR030 (calls): GLOBAL.append(x) and friends.
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_NAMES
                ):
                    root = attr_root(func)
                    if root is not None and root not in exempt:
                        out.append(Diagnostic(
                            code="RPR030",
                            message=(
                                f"{root}.{func.attr}() mutates state "
                                "outside the checkpointed VDS"
                            ),
                            span=unit.span(name, node),
                            function=name,
                            hint=_thread_or_register(
                                f'checkpointable_state("{root}")'
                            ),
                        ))
    return out


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"list", "dict", "set", "bytearray"}
    )


def _mutable_default(unit: CheckedUnit, fn_name: str, arg: ast.arg,
                     default: ast.expr) -> Diagnostic:
    return Diagnostic(
        code="RPR031",
        message=(
            f"parameter {arg.arg!r} has a mutable default, shared across "
            "calls and invisible to frame capture"
        ),
        span=unit.span(fn_name, default),
        function=fn_name,
        hint=f"use {arg.arg}=None and create the object inside the body",
    )


# ---------------------------------------------------------------------- #
# aliased VDS-escape (RPR033)
# ---------------------------------------------------------------------- #

def aliased_escape(unit: CheckedUnit) -> list[Diagnostic]:
    """The escape route the name-rooted analysis cannot see.

    ``RPR033``: a mutation whose receiver is a *local alias* of non-local
    state — the global was first bound to a local (directly, through a
    container element, or via a helper's return value) and then mutated
    through the local name.  The mutation reaches exactly the same
    uncheckpointed object ``RPR030`` guards against.
    """
    out: list[Diagnostic] = []
    for m in unit.aliasfacts.alias_mutations():
        what = (
            "store through" if m.via == "store" else f"{m.local}.{m.via}()"
        )
        out.append(Diagnostic(
            code="RPR033",
            message=(
                f"{what} alias {m.local!r} mutates state outside the "
                "checkpointed VDS"
            ),
            span=unit.span(m.function, m.node),
            function=m.function,
            hint=(
                f"{m.local!r} points at module-level state; "
                + _thread_or_register("checkpointable_state(...)")
            ),
        ))
    return out


#: The battery the driver runs, in rendering order.
ANALYSES: tuple[Callable[[CheckedUnit], list[Diagnostic]], ...] = (
    supported_subset,
    collective_matching,
    collective_sequencing,
    unlogged_nondeterminism,
    vds_escape,
    aliased_escape,
)
