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

Analyses (see :mod:`repro.check.analyses`):

* **supported-subset** (``RPR001``–``RPR008``) — the precompiler's
  transformable-subset rules, reported exhaustively with spans;
* **collective-matching** (``RPR010``/``RPR011``) — per-function
  collective-call-sequence check (the paper requires all processes to
  execute the same sequence of collectives), refined interprocedurally
  and *path-sensitively*: branch arms whose resolved summaries match do
  not fire, rank-uniform predicates are exempt, and repeated branches on
  the same uniform predicate correlate (their summaries merge per path);
* **collective-sequencing** (``RPR012``–``RPR014``) — interprocedural
  sequencing hazards: rank-divergent loops executing collectives, and
  point-to-point tags with traffic in only one direction (this replaced
  the v1 p2p carve-out); ``RPR014`` upgrades the finding when the
  guarding predicate is *provably* rank-divergent (it reads ``ctx.rank``
  or received data directly);
* **unlogged-nondeterminism** (``RPR020``/``RPR021``) — nondeterministic
  stdlib calls the protocol's result log cannot replay;
* **VDS-escape** (``RPR030``, ``RPR031``, ``RPR033``) — state that
  escapes the checkpointed variable-descriptor set: module-global
  mutation, mutable default arguments, and mutation through a local
  alias of module state;
* **suppressions** (``RPR090``) — ``# repro: ignore[RPR0xx]`` comments
  that silence nothing.

The import-graph slicer (:mod:`repro.check.driver`) joins helpers
imported from sibling modules into the unit, so ``app.py`` +
``halo.py`` verifies exactly like its single-file merge; a helper it
cannot join stays an opaque call.

Entry points (:mod:`repro.check.driver`): :func:`check_functions`,
:func:`check_module`, :func:`check_path`, :func:`check_app`, and
:func:`preflight` (what chaos campaigns call; a ``Session`` run with
``RunConfig.check`` set calls :func:`check_app`/:func:`check_functions`).
The ``repro-check`` console script / ``python -m repro.check`` lints from
the command line and renders results as text or versioned
JSON (:mod:`repro.check.cli`).  Repairs are manual: every diagnostic
carries a hint naming its fix.
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
    preflight,
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
    "preflight",
    "render_json",
    "render_text",
    "run_unit_checks",
]
