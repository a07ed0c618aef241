"""Non-determinism and collective-result log stage (Sections 3.2, 4.5).

While a process is logging, results of non-deterministic decisions and
of collective calls are recorded so recovery replay can return them
without re-computation (nondet) or re-communication (collectives — some
participants will not re-execute the call).
"""

from __future__ import annotations

import copy
from typing import Any

from repro.protocol.logs import CollectiveRecord
from repro.protocol.stages.base import ProtocolStage


class ResultLogStage(ProtocolStage):
    """Append nondet/collective results to the current epoch's logs."""

    name = "result-log"

    # Logged values are deep copies: the application may mutate its own.

    def record_nondet(self, value: Any) -> None:
        core = self.core
        core.logs.nondet.append(copy.deepcopy(value))
        core.stats.nondet_logged += 1

    def record_collective(self, kind: str, result: Any) -> None:
        core = self.core
        core.logs.collectives.append(
            CollectiveRecord(kind=kind, result=copy.deepcopy(result))
        )
        core.stats.collective_results_logged += 1
