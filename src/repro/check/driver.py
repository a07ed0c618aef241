"""Check drivers: build a checked unit from whatever the caller has.

Four front doors, all funnelling into :func:`run_unit_checks`:

* :func:`check_functions` — live callables (a generator rank main, or the
  functions a precompiled unit was compiled from, ``unit.originals``);
* :func:`check_module` — an imported module or dotted module name;
* :func:`check_path` — a source file on disk (no import executed);
* :func:`check_app` — a registered app name (checks its defining module).

For modules and files the *checked unit* is selected statically: every
top-level function with a ``ctx``/``comm``/``mpi`` parameter seeds the
unit, plus everything those functions call by plain name, transitively —
the same closure the precompiler would compile.  Helpers like ``build()``
factories and ``@repro.app`` registration shims stay out.

v3 adds the **import-graph slicer**: when the checked file imports from a
*sibling* module (a ``.py`` file in the same directory, the common
``app.py`` + ``halo.py`` project layout), the imported helpers — and
their transitive in-module callees — join the unit with their own
source/suppression/constant scoping, so a multi-file app verifies exactly
like its single-file merge.  A helper the slicer cannot join (renamed on
import, colliding with a local def, missing, star-imported, or in a
sibling that fails to parse) stays an opaque library call.

These functions only report.  What a finding stops is decided in one
place, the ``RunConfig.check`` gate of a ``Session`` run or sweep (chaos
campaigns go through it too, at their base config's level): it calls
:func:`check_app` for names and specs and :func:`check_functions` for
everything else, and raises :class:`~repro.errors.CheckError` on error
findings at ``"error"``.
"""

from __future__ import annotations

import ast
import importlib
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.check.analyses import ANALYSES
from repro.check.diagnostics import CheckResult, Diagnostic, Span
from repro.check.suppress import SuppressionFilter, find_suppressions
from repro.errors import PrecompilerError
from repro.precompiler.analysis import (
    COMM_PARAM_NAMES,
    FunctionInfo,
    UnitAnalysis,
    comm_roots,
    module_registered_globals,
    unit_call_sites,
)
from repro.precompiler.api import parse_function


def run_unit_checks(
    analysis: UnitAnalysis,
    target: str,
    sources: Optional[dict[str, str]] = None,
    extra_constants: Optional[dict[str, dict[str, object]]] = None,
) -> CheckResult:
    """Run the whole battery over a unit analysis.

    The analysed trees' line numbers must already be absolute coordinates
    of their functions' files.  ``sources`` maps file path → full module
    source text — it feeds module-constant resolution (p2p tag names),
    ``checkpointable_state`` registration scanning, and ``# repro:
    ignore[...]`` suppressions; when not given, the driver reads the files
    from disk.  ``extra_constants`` maps file → constants imported *into*
    that file from elsewhere (``from halo import TAG_UP``), layered over
    the file's own constants.
    """
    infos = analysis.infos
    if sources is None:
        sources = _read_sources(info.file for info in infos.values())
    constants: dict[str, object] = {}
    file_constants: dict[str, dict[str, object]] = {}
    registered: dict[str, set[str]] = {}
    for path, source in sources.items():
        tree = _parse_module(source)
        file_constants[path] = _tree_constants(tree)
        registered[path] = module_registered_globals(tree)
        constants.update(file_constants[path])
    for path, extra in (extra_constants or {}).items():
        file_constants.setdefault(path, {}).update(extra)
        constants.update(extra)
    for info in infos.values():
        info.constants = file_constants.get(info.file, constants)
        info.registered = registered.get(info.file, set())
    diagnostics = [d for run in ANALYSES for d in run(analysis)]
    # One finding per (code, place): analyses overlap at the edges.
    seen: set[tuple] = set()
    unique: list[Diagnostic] = []
    for d in sorted(diagnostics, key=Diagnostic.sort_key):
        key = (d.code, d.span.file, d.span.line, d.span.col)
        if key not in seen:
            seen.add(key)
            unique.append(d)
    kept, suppressed = _apply_suppressions(unique, sources, infos)
    return CheckResult(
        target=target,
        diagnostics=tuple(sorted(kept, key=Diagnostic.sort_key)),
        functions=tuple(sorted(infos)),
        suppressed=tuple(suppressed),
    )


def _read_sources(paths: Iterable[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for path in dict.fromkeys(paths):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                out[path] = fh.read()
        except OSError:
            continue  # synthetic file names ("<string>") have no disk copy
    return out


def _parse_module(source: str) -> ast.Module:
    try:
        return ast.parse(source)
    except SyntaxError:
        return ast.Module(body=[], type_ignores=[])


def _tree_constants(tree: ast.Module) -> dict[str, object]:
    """Top-level ``NAME = <int/str literal>`` bindings (p2p tag names)."""
    out: dict[str, object] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, (int, str))
        ):
            out[node.targets[0].id] = node.value.value
    return out


def _apply_suppressions(
    diagnostics: list[Diagnostic],
    sources: dict[str, str],
    infos: dict[str, FunctionInfo],
) -> tuple[list[Diagnostic], list[Diagnostic]]:
    """Honour ``# repro: ignore[...]`` comments; lint stale ones (RPR090)."""
    suppressions = []
    for file, source in sources.items():
        suppressions.extend(find_suppressions(source, file))
    if not suppressions:
        return diagnostics, []
    filt = SuppressionFilter(suppressions)
    kept, suppressed = filt.split(diagnostics)
    for s, code in filt.unused():
        kept.append(Diagnostic(
            code="RPR090",
            message=(
                f"suppression of {code} matches no finding "
                f"({s.describe()})"
            ),
            span=Span(file=s.file, line=s.line, col=s.col),
            function=_enclosing_function(infos, s.file, s.line),
            hint=(
                "remove the stale suppression so future regressions "
                "are not silently waved through"
            ),
        ))
    return kept, suppressed


def _enclosing_function(
    infos: dict[str, FunctionInfo], file: str, line: int
) -> str:
    return next(
        (name for name, info in infos.items() if info.file == file
         and info.tree.lineno <= line <= (info.tree.end_lineno or info.tree.lineno)),
        "<module>",
    )


# --------------------------------------------------------------------- #
# loaders
# --------------------------------------------------------------------- #

class _PlainCalls(ast.NodeTransformer):
    """``yield from X.co_op(...)`` reads as the plain call ``X.op(...)``.

    A generator rank main spells each MPI call in its suspending form;
    the analyses know the plain names, so they see the same program.
    """

    def visit_YieldFrom(self, node: ast.YieldFrom) -> ast.AST:
        call = self.generic_visit(node).value
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr.startswith("co_")
        ):
            call.func.attr = call.func.attr[3:]
            return call
        return node


def check_functions(
    functions: Iterable[Callable],
    target: str = "unit",
) -> CheckResult:
    """Check a compilation unit given as live callables."""
    trees: dict[str, ast.FunctionDef] = {}
    files: dict[str, str] = {}
    for fn in functions:
        tree, file = parse_function(fn)
        trees[tree.name] = _PlainCalls().visit(tree)
        files[tree.name] = file
    if not trees:
        raise PrecompilerError("empty compilation unit")
    return run_unit_checks(UnitAnalysis(trees, files), target)


def _select_names(space: dict[str, ast.FunctionDef]) -> list[str]:
    """Unit selection over a function space: functions with a
    ``ctx``/``comm``/``mpi`` parameter seed the unit, plus their transitive
    plain-name callees."""
    selected = {
        name for name, tree in space.items()
        if not comm_roots(tree).isdisjoint(COMM_PARAM_NAMES)
    }
    queue = list(selected)
    while queue:
        for callee in unit_call_sites(space[queue.pop()], space):
            if callee not in selected:
                selected.add(callee)
                queue.append(callee)
    return sorted(selected)


# --------------------------------------------------------------------- #
# import-graph slicer (cross-module units)
# --------------------------------------------------------------------- #

@dataclass
class UnitSlice:
    """What the slicer hands :func:`run_unit_checks`: the selected unit
    (possibly spanning several files), per-function origin files, the
    sources of every contributing file, and constants imported into the
    target's namespace."""

    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)
    sources: dict[str, str] = field(default_factory=dict)
    imported_constants: dict[str, object] = field(default_factory=dict)


def _sibling_file(directory: str, module: Optional[str]) -> Optional[str]:
    """Resolve a module name to ``<directory>/<last-component>.py`` when
    that file exists — the pragmatic project-layout heuristic: sibling
    modules live next to the file importing them.  Dotted names resolve by
    their final component (``repro.apps.stencil3d_halo`` → sibling
    ``stencil3d_halo.py`` when checking a file in ``repro/apps``)."""
    if not directory or not module:
        return None
    last = module.rsplit(".", 1)[-1]
    path = os.path.join(directory, last + ".py")
    return path if os.path.isfile(path) else None


def _slice_directory(file: str) -> str:
    """The directory sibling imports resolve against ('' for synthetic
    sources like ``<string>`` or bare filenames — slicing is then
    disabled; only real on-disk paths have siblings)."""
    if not file or file.startswith("<"):
        return ""
    directory = os.path.dirname(file)
    return directory if directory and os.path.isdir(directory) else ""


def slice_module(
    module_tree: ast.Module, file: str, source: str
) -> UnitSlice:
    """Select the checked unit of a module, joining helpers imported from
    sibling files (same directory) into the unit.

    Join rules: ``from sibling import helper`` joins ``helper`` directly;
    ``import sibling`` / ``import pkg.sibling as H`` joins helpers at
    ``H.helper(...)`` call sites, rewriting the call to a plain name so
    the interprocedural analyses see one call graph.  Joined helpers pull
    their own in-module plain-name callees transitively.  Non-sibling
    imports (stdlib, installed packages) are out of scope and stay opaque
    library calls, as do the sibling references the slicer cannot join:
    missing names, helpers renamed on import or colliding with a local
    def, star imports, and siblings that fail to parse.
    """
    top: dict[str, ast.FunctionDef] = {
        n.name: n for n in module_tree.body
        if isinstance(n, ast.FunctionDef)
    }
    out = UnitSlice(sources={file: source})
    directory = _slice_directory(file)
    abs_file = os.path.abspath(file) if directory else file

    combined: dict[str, ast.FunctionDef] = dict(top)
    origin: dict[str, str] = {name: file for name in top}

    # path -> (tree, defs, source) for parsed siblings; None on failure.
    cache: dict[str, Optional[tuple]] = {}

    def load(path: str) -> Optional[tuple]:
        if path not in cache:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    sib_source = fh.read()
                sib_tree = _PlainCalls().visit(ast.parse(sib_source, filename=path))
            except (OSError, SyntaxError):
                cache[path] = None
            else:
                sib_defs = {
                    n.name: n for n in sib_tree.body
                    if isinstance(n, ast.FunctionDef)
                }
                cache[path] = (sib_tree, sib_defs, sib_source)
        return cache[path]

    def join(name: str, path: str) -> None:
        """Join a sibling def and its transitive in-module callees."""
        loaded = cache[path]
        assert loaded is not None
        sib_tree, sib_defs, sib_source = loaded
        queue = [name]
        while queue:
            n = queue.pop()
            if n in combined:
                continue
            combined[n] = sib_defs[n]
            origin[n] = path
            out.sources.setdefault(path, sib_source)
            queue.extend(unit_call_sites(sib_defs[n], sib_defs))

    module_aliases: dict[str, str] = {}
    if directory:
        for node in module_tree.body:
            if isinstance(node, ast.ImportFrom):
                if node.module is None:
                    # ``from . import sibling`` binds module objects.
                    for alias in node.names:
                        path = _sibling_file(directory, alias.name)
                        if path and os.path.abspath(path) != abs_file:
                            module_aliases[alias.asname or alias.name] = path
                    continue
                path = _sibling_file(directory, node.module)
                if path is None or os.path.abspath(path) == abs_file:
                    continue
                loaded = load(path)
                if loaded is None:
                    continue
                sib_tree, sib_defs, _ = loaded
                sib_consts = _tree_constants(sib_tree)
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name in sib_defs:
                        # A renamed or locally shadowed helper stays opaque.
                        if bound == alias.name and bound not in top:
                            join(alias.name, path)
                    elif alias.name in sib_consts:
                        out.imported_constants[bound] = \
                            sib_consts[alias.name]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    path = _sibling_file(directory, alias.name)
                    if path is None or os.path.abspath(path) == abs_file:
                        continue
                    if alias.asname:
                        module_aliases[alias.asname] = path
                    elif "." not in alias.name:
                        module_aliases[alias.name] = path

    # ``H.helper(...)`` call sites against module aliases: join the helper
    # and rewrite the call to a plain name so the call graph sees it.
    for ftree in top.values():
        for node in ast.walk(ftree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in module_aliases
            ):
                continue
            path = module_aliases[func.value.id]
            loaded = load(path)
            if loaded is None:
                continue
            sib_defs = loaded[1]
            # A helper whose name the unit already binds stays opaque.
            if func.attr in sib_defs and (
                func.attr not in combined or origin.get(func.attr) == path
            ):
                join(func.attr, path)
                node.func = ast.copy_location(
                    ast.Name(id=func.attr, ctx=ast.Load()), func
                )

    selected = _select_names(combined)
    out.functions = {name: combined[name] for name in selected}
    out.files = {name: origin[name] for name in selected}
    # Only files that contribute functions keep their sources (a sibling's
    # suppressions are irrelevant when none of its code joined the unit).
    keep = {file} | set(out.files.values())
    out.sources = {p: s for p, s in out.sources.items() if p in keep}
    return out


def check_source(
    source: str, file: str = "<string>", target: Optional[str] = None
) -> CheckResult:
    """Check source text (module coordinates are already absolute)."""
    module_tree = _PlainCalls().visit(ast.parse(source, filename=file))
    sliced = slice_module(module_tree, file, source)
    return run_unit_checks(
        UnitAnalysis(sliced.functions, sliced.files),
        target or file,
        sources=sliced.sources,
        extra_constants={file: sliced.imported_constants},
    )


def check_path(path: str, target: Optional[str] = None) -> CheckResult:
    """Check one source file without importing it."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return check_source(source, file=path, target=target or path)


def check_module(
    module: Any, target: Optional[str] = None
) -> CheckResult:
    """Check an imported module (or dotted module name)."""
    if isinstance(module, str):
        module = importlib.import_module(module)
    file = getattr(module, "__file__", None)
    if not file:
        raise PrecompilerError(
            f"module {module.__name__!r} has no source file"
        )
    return check_path(file, target=target or module.__name__)


def check_app(name: str) -> CheckResult:
    """Check a registered application by name (its defining module)."""
    from repro.api.registry import get_app

    spec = get_app(name)
    if not spec.module:
        raise PrecompilerError(f"app {name!r} has no source module")
    return check_module(spec.module, target=f"app:{name}")
