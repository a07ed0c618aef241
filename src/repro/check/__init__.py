"""``repro.check`` — whole-program static verification for checkpointable apps.

The paper's precompiler (Section 5.1) already performs a static analysis —
checkpoint reachability, VDS membership, supported-subset validation — but
its only output channel used to be a hard ``UnsupportedConstructError``.
This package turns static verification into a first-class subsystem:
structured :class:`Diagnostic` records with stable ``RPR0xx`` codes,
``file:line:col`` spans, severities and fix hints, produced by a battery
of analyses over any program that enters the system (a registered app, a
precompiler unit, a module, a file).  The protocol recovers correctly
only when every rank runs the same collectives, nondeterminism goes
through the logs, and all state lives in the saved frames; each code
from ``RPR010`` to ``RPR033`` guards one of those conditions, and
``tests/check/test_witnesses.py`` shows the failure it predicts under a
kill, then the hint's repair recovering the failure-free answer.

Module map.  The checker computes no program facts of its own: it reads
the one unit analysis the precompiler runs,
:class:`repro.precompiler.analysis.UnitAnalysis` (call graph, comm
roots, reaching and suspending sets, locals and subset violations,
collective summaries, rank-divergence taint), so what it flags is what
the transformation and the protocol will see.

* :mod:`repro.check.analyses` — the code battery over that analysis:
  supported subset (``RPR001``–``RPR008``, the analysis's violations with
  spans); collective matching (``RPR010``/``RPR011``: branch arms whose
  resolved collective summaries differ under a predicate that is not
  rank-uniform, and early exits with collectives still ahead); collective
  sequencing (``RPR012``/``RPR013``: rank-divergent loops over
  collectives, one-sided point-to-point tags); ``RPR014`` where the
  predicate is *provably* divergent (it reads ``ctx.rank``, received
  data, a draw or a clock); unlogged nondeterminism
  (``RPR020``/``RPR021``); VDS escape (``RPR030``/``RPR031``/``RPR033``);
* :mod:`repro.check.alias` — the alias regions behind ``RPR033``;
* :mod:`repro.check.suppress` — ``# repro: ignore[RPR0xx]`` comments, and
  ``RPR090`` for those that silence nothing;
* :mod:`repro.check.driver` — the entry points :func:`check_functions`,
  :func:`check_module`, :func:`check_path` and :func:`check_app`, all
  funnelling into :func:`run_unit_checks`.  Its import-graph slicer joins
  helpers imported from sibling modules into the unit, so ``app.py`` +
  ``halo.py`` verifies exactly like its single-file merge; a helper it
  cannot join stays an opaque call;
* :mod:`repro.check.diagnostics` — the code registry, spans, renderers;
* :mod:`repro.check.cli` — the ``repro-check`` console script /
  ``python -m repro.check``, text or versioned JSON.  Repairs are manual:
  every diagnostic carries a hint naming its fix.

The checker only reports; the precompiler does not call it.  One gate
decides what a finding stops: ``RunConfig.check`` of a ``Session`` run or
sweep, which chaos campaigns also pass through (``"off"``, ``"warn"``:
print and run, ``"error"``: refuse with :class:`~repro.errors.CheckError`
before any rank runs).
"""

from repro.check.diagnostics import (
    CODES,
    SCHEMA,
    CheckResult,
    CodeInfo,
    Diagnostic,
    Severity,
    Span,
    render_json,
    render_text,
)
from repro.check.driver import (
    check_app,
    check_functions,
    check_module,
    check_path,
    check_source,
    run_unit_checks,
)
from repro.check.suppress import Suppression, find_suppressions

__all__ = [
    "CODES",
    "SCHEMA",
    "CheckResult",
    "CodeInfo",
    "Diagnostic",
    "Severity",
    "Span",
    "Suppression",
    "check_app",
    "check_functions",
    "check_module",
    "check_path",
    "check_source",
    "find_suppressions",
    "render_json",
    "render_text",
    "run_unit_checks",
]
