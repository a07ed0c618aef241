"""Collective-sequence summaries of unit functions.

Each function's collective-call behaviour is summarised as a small
regular expression over the collective alphabet: :class:`Tok` (a direct
``ctx.<collective>()``), :class:`CallRef` (a call into another unit
function, resolved later against that function's summary), :class:`Seq`,
:class:`Alt` (branch merge), :class:`Star` (loop merge), :class:`Cond`
(a branch on a rank-uniform predicate) and :data:`UNKNOWN` (recursion
cutoff).  :func:`block_summary` builds it by walking the statement AST,
joining at branches and loops, and :func:`resolve` substitutes callee
summaries across call boundaries — the interprocedural half of the
paper's "same sequence of collectives on every process" obligation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

#: Path-sensitivity hook: maps a branch predicate expression to a canonical
#: key when the predicate is rank-uniform (same value on every rank), or
#: None when the branch must stay an opaque :class:`Alt`.
PredKey = Callable[[ast.expr], Optional[str]]


# --------------------------------------------------------------------- #
# The summary regular language.
# --------------------------------------------------------------------- #

class Summary:
    """Base class for collective-sequence summaries (a tiny regex AST)."""

    def render(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.render()}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Summary) and self.render() == other.render()

    def __hash__(self) -> int:
        return hash(self.render())


class _Eps(Summary):
    def render(self) -> str:
        return "ε"


class _Unknown(Summary):
    """Unresolvable content (recursion, external call with effects)."""

    def render(self) -> str:
        return "?"


#: The empty sequence and the unresolvable sentinel (singletons).
EPS = _Eps()
UNKNOWN = _Unknown()


@dataclass(frozen=True, eq=False)
class Tok(Summary):
    """One direct collective call (``barrier``, ``allreduce``, …)."""

    name: str

    def render(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class CallRef(Summary):
    """A call into another unit function, by name (resolved later)."""

    callee: str

    def render(self) -> str:
        return f"call:{self.callee}"


@dataclass(frozen=True, eq=False)
class Seq(Summary):
    parts: tuple[Summary, ...]

    def render(self) -> str:
        inner = " ".join(p.render() for p in self.parts)
        return inner or "ε"


@dataclass(frozen=True, eq=False)
class Alt(Summary):
    """Branch merge: one of the options executes."""

    options: tuple[Summary, ...]

    def render(self) -> str:
        return "(" + " | ".join(o.render() for o in self.options) + ")"


@dataclass(frozen=True, eq=False)
class Star(Summary):
    """Loop merge: the body executes zero or more times."""

    inner: Summary

    def render(self) -> str:
        return f"({self.inner.render()})*"


@dataclass(frozen=True, eq=False)
class Cond(Summary):
    """Branch on a *rank-uniform* predicate, keyed by its canonical text.

    Unlike :class:`Alt` (either option may execute, per rank), a ``Cond``
    records that every rank takes the same arm — so two adjacent ``Cond``
    nodes with the same key are correlated and merge *per path*::

        [k ? A : B] · [k ? C : D]  ≡  [k ? A·C : B·D]

    which is what proves ``if k: a(); if k: b()`` equivalent to
    ``if k: a(); b()`` and kills the v2 RPR010 false-positive family.
    """

    key: str
    then: Summary
    orelse: Summary

    def render(self) -> str:
        return f"[{self.key} ? {self.then.render()} : {self.orelse.render()}]"


def seq(parts: Iterable[Summary]) -> Summary:
    return normalize(Seq(tuple(parts)))


def normalize(s: Summary) -> Summary:
    """Canonical form: flatten sequences, drop ε, dedupe alternatives,
    collapse trivial stars.  Two summaries are treated as equivalent when
    their normal forms render identically (a sound, conservative check —
    it never equates genuinely different languages)."""
    if isinstance(s, Seq):
        flat: list[Summary] = []
        for part in (normalize(p) for p in s.parts):
            if part is EPS:
                continue
            if isinstance(part, Seq):
                flat.extend(part.parts)
            else:
                flat.append(part)
        # Correlated-branch merge: adjacent Conds on the same uniform
        # predicate fuse per path (see Cond's docstring).
        merged: list[Summary] = []
        for part in flat:
            prev = merged[-1] if merged else None
            if (isinstance(part, Cond) and isinstance(prev, Cond)
                    and prev.key == part.key):
                fused = normalize(Cond(
                    part.key,
                    Seq((prev.then, part.then)),
                    Seq((prev.orelse, part.orelse)),
                ))
                if fused is EPS:
                    merged.pop()
                else:
                    merged[-1] = fused
            else:
                merged.append(part)
        flat = merged
        if not flat:
            return EPS
        if len(flat) == 1:
            return flat[0]
        return Seq(tuple(flat))
    if isinstance(s, Alt):
        seen: dict[str, Summary] = {}
        for option in (normalize(o) for o in s.options):
            if isinstance(option, Alt):
                for sub in option.options:
                    seen.setdefault(sub.render(), sub)
            else:
                seen.setdefault(option.render(), option)
        options = tuple(seen.values())
        if len(options) == 1:
            return options[0]
        return Alt(options)
    if isinstance(s, Star):
        inner = normalize(s.inner)
        if inner is EPS:
            return EPS
        if isinstance(inner, Star):
            return inner
        return Star(inner)
    if isinstance(s, Cond):
        then = normalize(s.then)
        orelse = normalize(s.orelse)
        if then.render() == orelse.render():
            return then  # both arms agree: the branch is irrelevant
        return Cond(s.key, then, orelse)
    return s


def equivalent(a: Summary, b: Summary) -> bool:
    return normalize(a).render() == normalize(b).render()


def collectives_in(s: Summary) -> tuple[str, ...]:
    """Every collective token that can occur in the summary's language
    (document order, deduplicated)."""
    out: list[str] = []

    def walk(node: Summary) -> None:
        if isinstance(node, Tok) and node.name not in out:
            out.append(node.name)
        elif isinstance(node, (Seq, Alt)):
            parts = node.parts if isinstance(node, Seq) else node.options
            for part in parts:
                walk(part)
        elif isinstance(node, Star):
            walk(node.inner)
        elif isinstance(node, Cond):
            walk(node.then)
            walk(node.orelse)

    walk(normalize(s))
    return tuple(out)


def has_unknown(s: Summary) -> bool:
    if s is UNKNOWN:
        return True
    if isinstance(s, (Seq, Alt)):
        parts = s.parts if isinstance(s, Seq) else s.options
        return any(has_unknown(p) for p in parts)
    if isinstance(s, Star):
        return has_unknown(s.inner)
    if isinstance(s, Cond):
        return has_unknown(s.then) or has_unknown(s.orelse)
    return False


def resolve(
    s: Summary,
    env: dict[str, Summary],
    _stack: frozenset[str] = frozenset(),
) -> Summary:
    """Substitute callee summaries across call boundaries.

    ``env`` maps unit-function name → raw summary.  Recursive cycles
    resolve to :data:`UNKNOWN` (the analyses treat unknown content as
    "anything", so no diagnostic is built on top of it); calls to names
    outside the env (library calls) contribute nothing.
    """
    if isinstance(s, CallRef):
        if s.callee in _stack:
            return UNKNOWN
        target = env.get(s.callee)
        if target is None:
            return EPS
        return resolve(target, env, _stack | {s.callee})
    if isinstance(s, Seq):
        return normalize(Seq(tuple(resolve(p, env, _stack) for p in s.parts)))
    if isinstance(s, Alt):
        return normalize(Alt(tuple(resolve(o, env, _stack) for o in s.options)))
    if isinstance(s, Star):
        return normalize(Star(resolve(s.inner, env, _stack)))
    if isinstance(s, Cond):
        return normalize(Cond(
            s.key,
            resolve(s.then, env, _stack),
            resolve(s.orelse, env, _stack),
        ))
    return s


# --------------------------------------------------------------------- #
# Summary extraction.
# --------------------------------------------------------------------- #

def expression_summary(
    node: ast.AST,
    collective_names: frozenset[str],
    comm_names: frozenset[str],
    unit_names: frozenset[str],
) -> list[Summary]:
    """Collective tokens / unit-call refs inside one expression or atomic
    statement, in :func:`ast.walk` order (the same canonical order the v1
    analysis used, so both arms of a branch canonicalise identically)."""
    from repro.precompiler.analysis import attr_root

    out: list[Summary] = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in collective_names
            and attr_root(func) in comm_names
        ):
            out.append(Tok(func.attr))
        elif isinstance(func, ast.Name) and func.id in unit_names:
            out.append(CallRef(func.id))
    return out


def block_summary(
    stmts: list[ast.stmt],
    collective_names: frozenset[str],
    comm_names: frozenset[str],
    unit_names: frozenset[str],
    pred_key: Optional[PredKey] = None,
) -> Summary:
    """The collective-sequence summary of a statement list, joined at
    branch/loop merge points (If → :class:`Alt`, loops → :class:`Star`).

    ``pred_key`` is the path-sensitivity hook: when it maps a branch
    predicate to a canonical key (meaning the predicate is rank-uniform
    and side-effect free), the If becomes a keyed :class:`Cond` instead of
    an :class:`Alt`, enabling correlated-branch merging.
    """

    def expr(node: ast.AST) -> list[Summary]:
        return expression_summary(
            node, collective_names, comm_names, unit_names
        )

    def of_block(stmts: list[ast.stmt]) -> Summary:
        parts: list[Summary] = []
        for s in stmts:
            if isinstance(s, ast.If):
                parts.extend(expr(s.test))
                key = pred_key(s.test) if pred_key is not None else None
                if key is not None:
                    parts.append(
                        Cond(key, of_block(s.body), of_block(s.orelse))
                    )
                else:
                    parts.append(
                        Alt((of_block(s.body), of_block(s.orelse)))
                    )
            elif isinstance(s, ast.While):
                parts.extend(expr(s.test))
                parts.append(Star(seq([of_block(s.body)] + expr(s.test))))
                parts.append(of_block(s.orelse))
            elif isinstance(s, ast.For):
                parts.extend(expr(s.iter))
                parts.append(Star(of_block(s.body)))
                parts.append(of_block(s.orelse))
            elif isinstance(s, ast.Try):
                parts.append(of_block(s.body))
                parts.append(of_block(s.orelse))
                parts.append(of_block(s.finalbody))
            elif isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                continue  # separate scope/unit
            else:
                parts.extend(expr(s))
        return seq(parts)

    return of_block(stmts)


def function_summary(
    tree: ast.FunctionDef,
    collective_names: frozenset[str],
    comm_names: frozenset[str],
    unit_names: frozenset[str],
    pred_key: Optional[PredKey] = None,
) -> Summary:
    """The function's collective-sequence summary."""
    return block_summary(
        tree.body, collective_names, comm_names, unit_names, pred_key
    )
