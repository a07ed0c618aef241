"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch library failures without masking programming errors.  The stopping
fault model of the paper is represented by :class:`ProcessKilled`, which is
raised *inside* a simulated rank when fault injection stops it.  Detection
is not an exception: the simulator ends the attempt and reports the dead
ranks in its result, which the recovery driver turns into a restart.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Invalid configuration value or combination."""


class SimMPIError(ReproError):
    """Base class for errors raised by the MPI simulator substrate."""


class ProcessKilled(SimMPIError):
    """Injected stopping fault: the raising rank must cease all activity.

    This exception is raised at the faulty rank's next scheduling point and
    must never be caught by application code; the simulator uses it to tear
    the rank down silently (the rank neither sends nor receives afterwards),
    matching the paper's stopping failure model.
    """

    def __init__(self, rank: int, at_time: float) -> None:
        super().__init__(f"rank {rank} killed at t={at_time:.6f}")
        self.rank = rank
        self.at_time = at_time


class DeadlockError(SimMPIError):
    """All live ranks are blocked and no message can unblock any of them."""


class MatchError(SimMPIError):
    """A receive or wait was posted with arguments that can never match."""


class ProtocolError(ReproError):
    """The C3 coordination protocol reached an inconsistent state."""


class PiggybackError(ProtocolError):
    """Piggyback encoding/decoding failure (e.g. messageID overflow)."""


class RecoveryError(ReproError):
    """Restart from a checkpoint could not be completed."""


class CheckpointError(ReproError):
    """A local checkpoint could not be written or read."""


class StorageError(CheckpointError):
    """Stable storage failure (corrupt frame, missing commit record...)."""


class ManifestCorruptError(StorageError):
    """A generation manifest failed its checksum — the generation is torn
    or bit-rotted and must not be used for recovery."""


class PrecompilerError(ReproError):
    """The source-to-source precompiler rejected or mis-handled input."""


class UnsupportedConstructError(PrecompilerError):
    """Source uses a construct outside the checkpointable subset.

    Carries the offending node's span (``lineno``/``col_offset``) and the
    containing function's name when the caller knows them, and — when the
    precompiler validated a whole unit — the complete ``violations`` list,
    so one failure reports every offending construct, not just the first.
    """

    def __init__(
        self,
        construct: str,
        lineno: int | None = None,
        hint: str = "",
        *,
        col_offset: int | None = None,
        function: str | None = None,
        violations: tuple | None = None,
    ) -> None:
        where = ""
        if lineno is not None:
            where = f" at line {lineno}"
            if col_offset is not None:
                where += f":{col_offset + 1}"
        if function:
            where += f" in {function!r}"
        extra = f" ({hint})" if hint else ""
        message = f"unsupported construct {construct!r}{where}{extra}"
        if violations and len(violations) > 1:
            lines = [f"{len(violations)} unsupported constructs:"]
            lines += [f"  {v.describe()}" for v in violations]
            message = "\n".join(lines)
        super().__init__(message)
        self.construct = construct
        self.lineno = lineno
        self.col_offset = col_offset
        self.function = function
        #: Every subset violation found in the unit (``Violation`` records
        #: from :mod:`repro.precompiler.analysis`); at least one entry.
        self.violations = tuple(violations) if violations else ()


class CheckError(ReproError):
    """Static verification (:mod:`repro.check`) found error diagnostics.

    ``diagnostics`` holds the :class:`repro.check.Diagnostic` records —
    the same ones the ``repro-check`` CLI renders."""

    def __init__(self, rendered: str, diagnostics: tuple = ()) -> None:
        super().__init__(rendered)
        self.diagnostics = tuple(diagnostics)


class FarmError(ReproError):
    """Campaign-execution failure (result cache or cell)."""


class FarmJobError(FarmError):
    """One or more farm cells failed (failed cells are never cached)."""

    def __init__(self, failures: list[tuple[str, str]]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} farm cell(s) failed:"]
        for key, error in self.failures[:5]:
            lines.append(f"  {key[:12]}…: {error}")
        if len(self.failures) > 5:
            lines.append(f"  … and {len(self.failures) - 5} more")
        super().__init__("\n".join(lines))
