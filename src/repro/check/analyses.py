"""The code battery behind ``repro-check``.

Each analysis is a function ``(unit: UnitAnalysis) -> list[Diagnostic]``
over the program analysis the precompiler computes
(:class:`~repro.precompiler.analysis.UnitAnalysis`: call graph, comm
roots, locals, collective summaries, rank-divergence taint), so what the
checker flags is exactly what the transformation and the protocol will
see.  :data:`ANALYSES` is the battery the driver runs.

The analyses are deliberately conservative in the direction of the
protocol's correctness argument: collective matching compares the
resolved collective summaries of branch arms (the paper's requirement is
that all processes execute the same sequence of collectives); VDS escape
flags state the checkpointed variable-descriptor set cannot contain; and
nondeterminism flags calls whose results the message/result log will not
replay.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, Optional

from repro.check.alias import alias_locals
from repro.check.diagnostics import Diagnostic, Span
from repro.precompiler.analysis import (
    CLOCK_NAMES,
    DIVERGENT,
    UNIFORM,
    FunctionInfo,
    Summary,
    UnitAnalysis,
    attr_root,
    collectives_in,
    dotted,
    leaves,
    matches_nondet,
    store_root,
)

#: Point-to-point calls the p2p census reads.
P2P_NAMES = frozenset({"send", "isend", "recv", "irecv", "sendrecv"})

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


def _diag(unit: UnitAnalysis, code: str, fn: str, node: ast.AST,
          message: str, hint: str) -> Diagnostic:
    return Diagnostic(code=code, message=message,
                      span=Span.of(node, unit.infos[fn].file),
                      function=fn, hint=hint)


# ---------------------------------------------------------------------- #
# supported-subset (RPR001..RPR008)
# ---------------------------------------------------------------------- #

def supported_subset(unit: UnitAnalysis) -> list[Diagnostic]:
    """Render the precompiler's collected subset violations as diagnostics."""
    out: list[Diagnostic] = []
    for v in unit.violations:
        code = next(
            (c for prefix, c in _SUBSET_CODE_BY_PREFIX
             if v.construct.startswith(prefix)),
            "RPR003",  # unknown construct kinds are still subset errors
        )
        out.append(Diagnostic(
            code=code,
            message=f"unsupported construct: {v.construct}",
            span=Span(file=unit.infos[v.function].file,
                      line=v.lineno or 0, col=v.col_offset or 0),
            function=v.function,
            hint=v.hint or _SUBSET_HINTS.get(code, ""),
        ))
    return out


# ---------------------------------------------------------------------- #
# collective-matching (RPR010, RPR011)
# ---------------------------------------------------------------------- #

def _branches(
    stmts: list[ast.stmt],
) -> Iterator[tuple[ast.If, list[ast.stmt]]]:
    """Every ``if`` of a body (nested scopes excluded), with the
    statements that follow it in its own statement list."""
    for i, s in enumerate(stmts):
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(s, ast.If):
            yield s, stmts[i + 1:]
        blocks = [getattr(s, f, []) for f in ("body", "orelse", "finalbody")]
        for block in blocks + [h.body for h in getattr(s, "handlers", [])]:
            yield from _branches(block)


def _tokens(s: Summary) -> list[str]:
    return [str(t) for t in leaves(s)] or ["<none>"]


def collective_matching(unit: UnitAnalysis) -> list[Diagnostic]:
    """All processes must execute the same sequence of collectives.

    The two arms of every ``if`` must have equal *resolved* collective
    summaries (direct ``ctx.<collective>()`` calls, with unit calls
    replaced by their callees' summaries) — unless the predicate is
    rank-uniform: then every rank takes the same arm.  A mismatch under a
    *divergent* predicate (``ctx.rank``, received data, a draw or a clock
    read syntactically in the test) is provable and reads ``RPR014``;
    under a merely tainted one, ``RPR010``.  A conditional
    ``return``/``break`` under a non-uniform predicate with collectives
    still ahead in the enclosing statement list earns a ``RPR011``
    warning: the exiting process would skip them while its peers block.
    """
    out: list[Diagnostic] = []
    for fn, info in unit.infos.items():
        for s, rest in _branches(info.tree.body):
            verdict = unit.predicate_verdict(fn, s.test)
            if verdict == UNIFORM:
                continue  # every rank takes the same arm, and exits together
            then = unit.block_summary(fn, s.body)
            orelse = unit.block_summary(fn, s.orelse)
            if unit.resolve(then) != unit.resolve(orelse):
                divergent = verdict == DIVERGENT
                out.append(_diag(
                    unit, "RPR014" if divergent else "RPR010", fn, s,
                    (
                        "branch predicate is provably rank-divergent and "
                        "the arms execute different "
                        if divergent else "branch arms execute different "
                    ) + "collective sequences: "
                    f"{_tokens(then)} vs {_tokens(orelse)}",
                    (
                        "the predicate reads ctx.rank, received data, a "
                        "draw or a clock, so ranks take different arms; "
                        "broadcast the decision "
                        "or hoist the collective out of the branch"
                    ) if divergent else (
                        "all ranks must execute the same collectives; "
                        "hoist the collective out of the branch"
                    ),
                ))
            elif any(isinstance(n, (ast.Return, ast.Break)) for n in ast.walk(s)):
                later = list(leaves(unit.block_summary(fn, rest)))
                if later:
                    out.append(_diag(
                        unit, "RPR011", fn, s,
                        "conditional early exit may skip "
                        f"{len(later)} later collective call(s)",
                        "a rank leaving early deadlocks peers blocked in "
                        "the collective; make the exit collective too "
                        "(e.g. allreduce the stop flag)",
                    ))
    return out


# ---------------------------------------------------------------------- #
# collective-sequencing (RPR012, RPR013)
# ---------------------------------------------------------------------- #

#: Tag sentinels: a dynamically computed tag, and an absent recv tag
#: (which matches any send).
DYNAMIC = "<dynamic>"
WILDCARD = "<any>"


def _tag(info: FunctionInfo, expr: Optional[ast.expr], default: object) -> object:
    if expr is None:
        return default
    if isinstance(expr, ast.Constant) and isinstance(expr.value, (int, str)):
        return expr.value
    value = info.constants.get(expr.id) if isinstance(expr, ast.Name) else None
    if isinstance(value, (int, str)):
        return value
    return DYNAMIC


def _p2p_sites(unit: UnitAnalysis) -> Iterator[tuple[str, object, str, ast.Call]]:
    """``(kind, tag, function, call)`` of every send and receive in the
    unit, module-level tag constants resolved."""
    for fn, info in unit.infos.items():
        for call in ast.walk(info.tree):
            op = unit.comm_op(fn, call)
            if op not in P2P_NAMES or not isinstance(call, ast.Call):
                continue
            kws = {k.arg: k.value for k in call.keywords if k.arg}

            def arg(i: int, key: str) -> Optional[ast.expr]:
                return kws.get(key) or (call.args[i] if len(call.args) > i else None)

            # send(payload, dest, tag=0); recv(source=ANY_SOURCE, tag=ANY_TAG);
            # sendrecv(payload, dest, recv_source, send_tag=0, recv_tag=None)
            if op in ("send", "isend", "sendrecv"):
                tag = arg(3, "send_tag") if op == "sendrecv" else arg(2, "tag")
                yield "send", _tag(info, tag, 0), fn, call
            if op in ("recv", "irecv", "sendrecv"):
                tag = arg(4, "recv_tag") if op == "sendrecv" else arg(1, "tag")
                yield "recv", _tag(info, tag, WILDCARD), fn, call


def collective_sequencing(unit: UnitAnalysis) -> list[Diagnostic]:
    """Interprocedural sequencing hazards the branch matcher misses.

    ``RPR012``: a loop whose guard (``while`` test / ``for`` iterable) may
    differ across ranks while the loop body (interprocedurally resolved)
    executes collectives.  Ranks iterate different counts, so some rank
    eventually blocks in a collective its peers never enter: the classic
    ``while local_err > tol: allreduce(...)`` convergence deadlock.  When
    a divergence source appears *syntactically in the guard itself*
    (``while ctx.recv(...)``, ``for i in range(ctx.rank)``,
    ``while ctx.now() < t``), divergence is provable and the finding
    upgrades to ``RPR014``.

    ``RPR013``: a point-to-point tag with traffic in only one direction
    anywhere in the unit (sends nobody receives, or receives nobody
    sends).  A ``recv`` with no tag (or a dynamic tag) matches every send,
    and a dynamic send tag every recv: both degrade to "no report".
    """
    out: list[Diagnostic] = []
    for fn, info in unit.infos.items():
        for node in ast.walk(info.tree):
            if isinstance(node, ast.While):
                guard, kind = node.test, "while condition"
            elif isinstance(node, ast.For):
                guard, kind = node.iter, "for iterable"
            else:
                continue
            verdict = unit.predicate_verdict(fn, guard)
            if verdict == UNIFORM:
                continue
            colls = collectives_in(unit.resolve(unit.block_summary(fn, node.body)))
            if not colls:
                continue
            divergent = verdict == DIVERGENT
            out.append(_diag(
                unit, "RPR014" if divergent else "RPR012", fn, node,
                (
                    f"loop {kind} is provably rank-divergent "
                    if divergent else f"loop {kind} may differ across ranks "
                ) + "but the body executes collective(s) "
                f"{', '.join(colls)}; ranks iterate different counts and "
                "deadlock",
                "make the guard rank-uniform first, e.g. allreduce the "
                "continue/error value every iteration so all ranks decide "
                "together",
            ))
    sites = list(_p2p_sites(unit))
    tags = {kind: {t for k, t, *_ in sites if k == kind} for kind in ("send", "recv")}
    recv_matches_all = bool(tags["recv"] & {WILDCARD, DYNAMIC})
    send_matches_all = DYNAMIC in tags["send"]
    reported: set[tuple[str, object]] = set()
    for kind, tag, fn, node in sites:
        if kind == "send":
            matched = tag == DYNAMIC or recv_matches_all or tag in tags["recv"]
            message = f"send with tag {tag!r} has no matching recv"
            hint = (
                "the send completes, but the destination never receives "
                "it, so no later checkpoint wave commits and a failure "
                "rolls back to the last wave before it; add the peer recv "
                "or fix the tag"
            )
        else:
            matched = (tag in (DYNAMIC, WILDCARD) or send_matches_all
                       or tag in tags["send"])
            message = f"recv with tag {tag!r} has no matching send"
            hint = (
                "this rank blocks forever waiting for a message nobody "
                "sends; add the peer send or fix the tag"
            )
        if not matched and (kind, tag) not in reported:
            reported.add((kind, tag))
            out.append(_diag(unit, "RPR013", fn, node,
                             message + " anywhere in the unit", hint))
    return out


# ---------------------------------------------------------------------- #
# unlogged-nondeterminism (RPR020, RPR021)
# ---------------------------------------------------------------------- #

def unlogged_nondeterminism(unit: UnitAnalysis) -> list[Diagnostic]:
    """Entropy and wall-clock reads the result log cannot replay.

    The protocol replays received messages and ``ctx.nondet(...)`` results
    from its logs; ``random.random()``/``os.urandom``/``uuid4`` draws and
    ``time.time()`` reads happen *outside* the log, so a restarted rank
    recomputes different values and diverges from the failure-free run.
    Chains rooted at a local name or at the communication root
    (``ctx.rng.random()``) are exempt — those are managed state.
    """
    out: list[Diagnostic] = []
    for fn, info in unit.infos.items():
        exempt = set(info.local_names) | info.comm_names
        # Calls inside the arguments of a comm-rooted ``ctx.nondet(...)``
        # are the logged-replay idiom itself, not a finding (the repair
        # the RPR020 hint names).
        logged = {
            id(sub)
            for node in ast.walk(info.tree)
            if isinstance(node, ast.Call) and unit.comm_op(fn, node) == "nondet"
            for arg in [*node.args, *(k.value for k in node.keywords)]
            for sub in ast.walk(arg)
        }
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or id(node) in logged:
                continue
            name = dotted(node.func)
            if name is None or "." not in name or name.split(".", 1)[0] in exempt:
                continue
            if matches_nondet(name):
                out.append(_diag(
                    unit, "RPR020", fn, node,
                    f"call to {name}() is nondeterministic and not logged; "
                    "replay after recovery diverges",
                    "draw from ctx.rng (checkpointed per rank) or wrap the "
                    "call in ctx.nondet(lambda: ...)",
                ))
            elif name in CLOCK_NAMES:
                out.append(_diag(
                    unit, "RPR021", fn, node,
                    f"call to {name}() reads the host wall clock, which "
                    "differs across recovery replays",
                    "wrap the read in ctx.nondet(lambda: ...) so replay "
                    "serves the logged value; ctx.now() (virtual time) "
                    "suits timing only, as a restarted rank reads another "
                    "value",
                ))
    return out


# ---------------------------------------------------------------------- #
# VDS-escape (RPR030, RPR031, RPR033)
# ---------------------------------------------------------------------- #

def _thread_or_register(registration: str) -> str:
    """The escape repair: threading first, registration with its caveat
    (the registry keeps one process-wide value, saved for every rank)."""
    return (
        "thread the object through parameters/locals; "
        f"{registration} suits rank-uniform state only, as it keeps one "
        "process-wide copy for all ranks"
    )


def _mutations(tree: ast.FunctionDef) -> Iterator[tuple[str, ast.AST, str]]:
    """``(root, node, how)`` for every store through an attribute or
    subscript (``how`` = ``"store"``) and every mutator-method call."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            root = store_root(target)
            if root is not None and isinstance(target, (ast.Attribute, ast.Subscript)):
                yield root, target, "store"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_NAMES
        ):
            root = attr_root(node.func)
            if root is not None:
                yield root, node, node.func.attr


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"list", "dict", "set", "bytearray"}
    )


def vds_escape(unit: UnitAnalysis) -> list[Diagnostic]:
    """State outside the checkpointed variable descriptor set.

    The VDS covers the unit functions' locals (captured frame-by-frame at a
    checkpoint).  Mutating anything else — a module global (``RPR030``), a
    shared default-argument object (``RPR031``), or module state reached
    through a local alias of it (``RPR033``, see :mod:`repro.check.alias`)
    — survives into the restarted process *or* is silently reset by it,
    either way breaking the paper's assumption that a checkpoint captures
    all application state.  Globals registered via
    ``checkpointable_state(...)`` are managed state, not escapes.
    """
    out: list[Diagnostic] = []
    alias = alias_locals(unit)
    for fn, info in unit.infos.items():
        exempt = set(info.local_names) | info.comm_names | info.registered
        args = info.tree.args
        pos = args.posonlyargs + args.args
        defaults = [*zip(pos[len(pos) - len(args.defaults):], args.defaults),
                    *zip(args.kwonlyargs, args.kw_defaults)]
        for arg, default in defaults:
            if default is not None and _is_mutable_literal(default):
                out.append(_diag(
                    unit, "RPR031", fn, default,
                    f"parameter {arg.arg!r} has a mutable default, shared "
                    "across calls and invisible to frame capture",
                    f"use {arg.arg}=None and create the object inside the body",
                ))
        for root, node, how in _mutations(info.tree):
            if root in alias[fn]:
                what = "store through" if how == "store" else f"{root}.{how}()"
                out.append(_diag(
                    unit, "RPR033", fn, node,
                    f"{what} alias {root!r} mutates state outside the "
                    "checkpointed VDS",
                    f"{root!r} points at module-level state; "
                    + _thread_or_register("checkpointable_state(...)"),
                ))
            elif root not in exempt:
                what = (f"store to {root}.{{...}}" if how == "store"
                        else f"{root}.{how}()")
                out.append(_diag(
                    unit, "RPR030", fn, node,
                    f"{what} mutates state outside the checkpointed VDS",
                    _thread_or_register(f'checkpointable_state("{root}")'),
                ))
    return out


#: The battery the driver runs, in rendering order.
ANALYSES: tuple[Callable[[UnitAnalysis], list[Diagnostic]], ...] = (
    supported_subset,
    collective_matching,
    collective_sequencing,
    unlogged_nondeterminism,
    vds_escape,
)
