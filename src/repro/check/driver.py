"""Check drivers: build a checked unit from whatever the caller has.

Four front doors, all funnelling into :func:`run_unit_checks`:

* :func:`check_functions` — live callables (what ``Precompiler.compile``
  uses);
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
like its single-file merge.  What the slicer cannot resolve surfaces as
the ``RPR05x`` family instead of silently dropping out of the analysis.

:func:`preflight` is the embedded entry point ``Session.run(check=...)``
and chaos campaigns use: check a batch of app names and raise
:class:`~repro.errors.CheckError` on error findings.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.check.analyses import ANALYSES, CheckedUnit
from repro.check.diagnostics import CheckResult, Diagnostic, Span, render_text
from repro.check.suppress import SuppressionFilter, find_suppressions
from repro.errors import CheckError, PrecompilerError
from repro.precompiler.analysis import (
    COMM_PARAM_NAMES,
    UnitAnalysis,
    Violation,
    module_registered_globals,
    validate_supported,
)


def run_unit_checks(
    functions: dict[str, ast.FunctionDef],
    files: dict[str, str],
    target: str,
    extra_violations: Iterable[Violation] = (),
    sources: Optional[dict[str, str]] = None,
    extra_diagnostics: Iterable[Diagnostic] = (),
    extra_constants: Optional[dict[str, dict[str, object]]] = None,
) -> CheckResult:
    """Run the whole battery over already-parsed function ASTs.

    ``files`` maps function name → source path; line numbers in the trees
    must already be absolute file coordinates.  ``extra_violations`` lets
    the precompiler feed violations it found itself (so strict compiles
    and the CLI render identical diagnostics).  ``sources`` maps file
    path → full module source text — it feeds module-constant resolution
    (p2p tag names), ``checkpointable_state`` registration scanning, and
    ``# repro: ignore[...]`` suppressions; when not given, the driver
    reads the files from disk.  ``extra_diagnostics`` carries the
    slicer's RPR050/051 findings; ``extra_constants`` maps file →
    constants imported *into* that file from elsewhere (``from halo
    import TAG_UP``), layered over the file's own constants.
    """
    if sources is None:
        sources = _read_sources(files.values())
    violations: list[Violation] = list(extra_violations)
    analysis = UnitAnalysis(functions, collect=violations)
    reaching = analysis.reaching
    for name in sorted(reaching):
        validate_supported(
            functions[name],
            reaching,
            analysis.infos[name].comm_names,
            collect=violations,
        )
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
    unit = CheckedUnit(
        functions=functions,
        files=files,
        analysis=analysis,
        violations=violations,
        constants=constants,
        file_constants=file_constants,
        registered_globals=registered,
        import_diagnostics=list(extra_diagnostics),
    )
    diagnostics: list[Diagnostic] = []
    for run in ANALYSES:
        diagnostics.extend(run(unit))
    # One finding per (code, place): analyses overlap at the edges.
    seen: set[tuple] = set()
    unique: list[Diagnostic] = []
    for d in sorted(diagnostics, key=Diagnostic.sort_key):
        key = (d.code, d.span.file, d.span.line, d.span.col)
        if key not in seen:
            seen.add(key)
            unique.append(d)
    kept, suppressed = _apply_suppressions(unique, sources, functions, files)
    return CheckResult(
        target=target,
        diagnostics=tuple(sorted(kept, key=Diagnostic.sort_key)),
        functions=tuple(sorted(functions)),
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


def _module_constants(source: str) -> dict[str, object]:
    return _tree_constants(_parse_module(source))


def _apply_suppressions(
    diagnostics: list[Diagnostic],
    sources: dict[str, str],
    functions: dict[str, ast.FunctionDef],
    files: dict[str, str],
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
            function=_enclosing_function(functions, files, s.file, s.line),
            hint=(
                "remove the stale suppression so future regressions "
                "are not silently waved through"
            ),
        ))
    return kept, suppressed


def _enclosing_function(
    functions: dict[str, ast.FunctionDef],
    files: dict[str, str],
    file: str,
    line: int,
) -> str:
    for name, tree in functions.items():
        if files.get(name) != file:
            continue
        if tree.lineno <= line <= (tree.end_lineno or tree.lineno):
            return name
    return "<module>"


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


def _parse_callable(fn: Callable) -> tuple[ast.FunctionDef, str]:
    # ``inspect.getsource`` follows ``__wrapped__`` to the original def,
    # but ``co_firstlineno`` on the wrapper belongs to the *wrapper's*
    # source — mixing them drifts every span.  Unwrap first so source and
    # line numbers describe the same function.
    fn = inspect.unwrap(fn)
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        file = inspect.getsourcefile(fn) or "<unknown>"
        first_line = fn.__code__.co_firstlineno
    except (OSError, TypeError) as exc:
        raise PrecompilerError(f"cannot read source of {fn!r}: {exc}") from exc
    module = _PlainCalls().visit(ast.parse(source))
    defs = [n for n in module.body if isinstance(n, ast.FunctionDef)]
    if len(defs) != 1:
        raise PrecompilerError(
            f"expected exactly one function def in source of {fn!r}"
        )
    tree = defs[0]
    # Shift spans from source-snippet to absolute file coordinates so
    # diagnostics point into the real file.  ``co_firstlineno`` anchors at
    # the first decorator when the function has any.
    anchor = (
        tree.decorator_list[0].lineno if tree.decorator_list else tree.lineno
    )
    ast.increment_lineno(tree, first_line - anchor)
    return tree, file


def check_functions(
    functions: Iterable[Callable],
    target: str = "unit",
) -> CheckResult:
    """Check a compilation unit given as live callables."""
    trees: dict[str, ast.FunctionDef] = {}
    files: dict[str, str] = {}
    for fn in functions:
        tree, file = _parse_callable(fn)
        trees[tree.name] = tree
        files[tree.name] = file
    if not trees:
        raise PrecompilerError("empty compilation unit")
    return run_unit_checks(trees, files, target)


def _has_comm_param(tree: ast.FunctionDef) -> bool:
    params = [
        a.arg
        for a in (list(tree.args.posonlyargs) + list(tree.args.args))
    ]
    return any(p in COMM_PARAM_NAMES for p in params)


def _select_names(space: dict[str, ast.FunctionDef]) -> list[str]:
    """Unit selection over a function space: ctx-parameter functions seed
    the unit, plus their transitive plain-name callees."""
    selected = {name for name, tree in space.items() if _has_comm_param(tree)}
    changed = True
    while changed:
        changed = False
        for name in list(selected):
            for node in ast.walk(space[name]):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in space
                    and node.func.id not in selected
                ):
                    selected.add(node.func.id)
                    changed = True
    return sorted(selected)


def _select_unit(module_tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """The checked unit of a module: ctx-parameter functions plus their
    transitive plain-name callees among the top-level functions."""
    top: dict[str, ast.FunctionDef] = {
        n.name: n
        for n in module_tree.body
        if isinstance(n, ast.FunctionDef)
    }
    return {name: top[name] for name in _select_names(top)}


# --------------------------------------------------------------------- #
# import-graph slicer (cross-module units)
# --------------------------------------------------------------------- #

@dataclass
class UnitSlice:
    """What the slicer hands :func:`run_unit_checks`: the selected unit
    (possibly spanning several files), per-function origin files, the
    sources of every contributing file, constants imported into the
    target's namespace, and the RPR050/051 findings."""

    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)
    sources: dict[str, str] = field(default_factory=dict)
    imported_constants: dict[str, object] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)


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


def _top_level_names(tree: ast.Module) -> set[str]:
    """Every name a module binds at top level (defs, classes, assigns,
    imports) — used to distinguish "imported something that is not a
    function" (fine) from "imported something that does not exist"."""
    out: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        out.add(sub.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    out.add(alias.asname or alias.name.split(".")[0])
    return out


def _xdiag(code: str, node: ast.AST, file: str, message: str, hint: str,
           function: str = "<module>") -> Diagnostic:
    return Diagnostic(
        code=code,
        message=message,
        span=Span.of(node, file),
        function=function,
        hint=hint,
    )


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
    library calls, exactly as before.  Unresolvable sibling references
    (missing names, aliased helper imports, name collisions, star
    imports) surface as RPR050/051.
    """
    top: dict[str, ast.FunctionDef] = {
        n.name: n for n in module_tree.body
        if isinstance(n, ast.FunctionDef)
    }
    out = UnitSlice(sources={file: source})
    diags = out.diagnostics
    directory = _slice_directory(file)
    abs_file = os.path.abspath(file) if directory else file

    #: Names called by plain name anywhere in the target's functions —
    #: unresolvable imports only warn when something actually calls them.
    called: set[str] = set()
    for tree in top.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)

    combined: dict[str, ast.FunctionDef] = dict(top)
    origin: dict[str, str] = {name: file for name in top}

    # path -> (tree, defs, source) for parsed siblings; None on failure.
    cache: dict[str, Optional[tuple]] = {}
    parse_warned: set[str] = set()

    def load(path: str, node: ast.AST) -> Optional[tuple]:
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
        if cache[path] is None and path not in parse_warned:
            parse_warned.add(path)
            diags.append(_xdiag(
                "RPR050", node, file,
                f"sibling module {os.path.basename(path)!r} failed to "
                "load; its helpers stay opaque to the unit",
                "fix the sibling module so its helpers can join the "
                "checked unit",
            ))
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
            for sub in ast.walk(sib_defs[n]):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id in sib_defs
                    and sub.func.id not in combined
                ):
                    queue.append(sub.func.id)

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
                loaded = load(path, node)
                if loaded is None:
                    continue
                sib_tree, sib_defs, sib_source = loaded
                sib_consts = _tree_constants(sib_tree)
                sib_names = _top_level_names(sib_tree)
                for alias in node.names:
                    if alias.name == "*":
                        diags.append(_xdiag(
                            "RPR051", node, file,
                            f"'from {node.module} import *' hides which "
                            "sibling helpers the unit uses; they stay "
                            "opaque to the analyses",
                            "import the helpers you call by name so they "
                            "join the checked unit",
                        ))
                        continue
                    bound = alias.asname or alias.name
                    if alias.name in sib_defs:
                        if alias.asname and alias.asname != alias.name:
                            if bound in called:
                                diags.append(_xdiag(
                                    "RPR050", alias, file,
                                    f"helper {alias.name!r} imported as "
                                    f"{alias.asname!r} cannot join the "
                                    "unit; its calls stay opaque",
                                    "import the helper under its own name "
                                    "so the slicer can join it",
                                ))
                        elif bound in top:
                            if bound in called:
                                diags.append(_xdiag(
                                    "RPR050", alias, file,
                                    f"imported helper {alias.name!r} "
                                    "collides with a local definition of "
                                    "the same name; calls bind "
                                    "ambiguously",
                                    "rename the local function or drop "
                                    "the import",
                                ))
                        else:
                            join(alias.name, path)
                    elif alias.name in sib_consts:
                        out.imported_constants[bound] = \
                            sib_consts[alias.name]
                    elif alias.name not in sib_names and bound in called:
                        diags.append(_xdiag(
                            "RPR050", alias, file,
                            f"sibling module {node.module!r} defines no "
                            f"{alias.name!r}; the call stays opaque",
                            "define the helper in the sibling module or "
                            "fix the import",
                        ))
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
    for fname, ftree in top.items():
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
            loaded = load(path, node)
            if loaded is None:
                continue
            sib_tree, sib_defs, sib_source = loaded
            if func.attr in sib_defs:
                if func.attr in combined and origin.get(func.attr) != path:
                    diags.append(_xdiag(
                        "RPR050", node, file,
                        f"cannot join {func.value.id}.{func.attr}(): the "
                        f"unit already defines {func.attr!r}; the call "
                        "stays opaque",
                        "rename one of the functions so the helper can "
                        "join the unit",
                        function=fname,
                    ))
                else:
                    join(func.attr, path)
                    node.func = ast.copy_location(
                        ast.Name(id=func.attr, ctx=ast.Load()), func
                    )
            elif func.attr not in _top_level_names(sib_tree):
                diags.append(_xdiag(
                    "RPR050", node, file,
                    f"sibling module bound to {func.value.id!r} defines "
                    f"no {func.attr!r}; the call stays opaque",
                    "define the helper in the sibling module or fix the "
                    "call",
                    function=fname,
                ))

    selected = _select_names(combined)
    out.functions = {name: combined[name] for name in selected}
    out.files = {name: origin[name] for name in selected}
    # Only files that contribute functions keep their sources (a sibling's
    # suppressions are irrelevant when none of its code joined the unit).
    keep = {file} | set(out.files.values())
    out.sources = {p: s for p, s in out.sources.items() if p in keep}
    return out


def import_closure(path: str) -> list[str]:
    """The file plus every sibling file its top-level imports resolve to
    (the slicer's one-level reach) — the incremental cache hashes exactly
    this set, so editing a helper invalidates the apps importing it."""
    out = [path]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
    except (OSError, SyntaxError):
        return out
    directory = _slice_directory(path)
    if not directory:
        return out
    abs_path = os.path.abspath(path)
    for node in tree.body:
        candidates: list[Optional[str]] = []
        if isinstance(node, ast.ImportFrom):
            if node.module is not None:
                candidates.append(_sibling_file(directory, node.module))
            else:
                candidates.extend(
                    _sibling_file(directory, a.name) for a in node.names
                )
        elif isinstance(node, ast.Import):
            candidates.extend(
                _sibling_file(directory, a.name) for a in node.names
            )
        for cand in candidates:
            if (
                cand
                and os.path.abspath(cand) != abs_path
                and cand not in out
            ):
                out.append(cand)
    return out


def check_source(
    source: str, file: str = "<string>", target: Optional[str] = None
) -> CheckResult:
    """Check source text (module coordinates are already absolute)."""
    module_tree = _PlainCalls().visit(ast.parse(source, filename=file))
    sliced = slice_module(module_tree, file, source)
    extra_constants = (
        {file: sliced.imported_constants}
        if sliced.imported_constants else None
    )
    return run_unit_checks(
        sliced.functions,
        sliced.files,
        target or file,
        sources=sliced.sources,
        extra_diagnostics=sliced.diagnostics,
        extra_constants=extra_constants,
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


# --------------------------------------------------------------------- #
# embedded entry point
# --------------------------------------------------------------------- #

def preflight(
    apps: Iterable[str],
    level: str = "error",
) -> list[CheckResult]:
    """Check a batch of registered apps before running them.

    ``level="error"`` raises :class:`CheckError` when any app has
    error-severity findings; ``level="warn"`` never raises (callers print
    the results).  Returns every result either way (on raise, they ride on
    the exception's ``results`` attribute).
    """
    if level not in ("warn", "error"):
        raise ValueError(f"preflight level must be 'warn' or 'error', got {level!r}")
    results = [check_app(name) for name in dict.fromkeys(apps)]
    failing = [r for r in results if not r.ok]
    if failing and level == "error":
        bad = ", ".join(r.target for r in failing)
        body = "\n".join(
            render_text(r.errors) for r in failing
        )
        exc = CheckError(
            f"static check failed for {bad}:\n{body}",
            diagnostics=tuple(
                d for r in failing for d in r.errors
            ),
        )
        exc.results = results  # type: ignore[attr-defined]
        raise exc
    return results
