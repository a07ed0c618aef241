"""simmpi: a deterministic MPI simulator substrate.

This package stands in for the paper's cluster + vendor MPI: it provides
ranks as generators deterministically interleaved on one thread (each
``yield`` is a scheduling point), an MPI-style communicator API, a reliable
but reorderable network, stopping-fault injection, and heartbeat failure
detection.

Quick use::

    from repro.simmpi import run_simple

    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.co_send("hello", dest=1)
        elif ctx.rank == 1:
            return (yield from ctx.comm.co_recv(source=0))

    result = run_simple(main, nprocs=2)
    assert result.results[1] == "hello"
"""

from repro.simmpi.clock import CostModel, VirtualClock
from repro.simmpi.comm import Comm
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, TAG_CONTROL
from repro.simmpi.failure_detector import HeartbeatFailureDetector
from repro.simmpi.failures import CheckpointCrash, FailureSchedule, KillEvent
from repro.simmpi.group import Group
from repro.simmpi.message import Envelope
from repro.simmpi.op import BAND, BOR, LAND, LOR, MAX, MAXLOC, MIN, MINLOC, PROD, SUM, Op
from repro.simmpi.request import Request, co_waitall, co_waitany
from repro.simmpi.simulator import RankContext, SimConfig, SimResult, Simulator, run_simple
from repro.simmpi.status import Status

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "TAG_CONTROL",
    "BAND",
    "BOR",
    "LAND",
    "LOR",
    "MAX",
    "MAXLOC",
    "MIN",
    "MINLOC",
    "PROD",
    "SUM",
    "CheckpointCrash",
    "Comm",
    "CostModel",
    "Envelope",
    "FailureSchedule",
    "Group",
    "HeartbeatFailureDetector",
    "KillEvent",
    "Op",
    "RankContext",
    "Request",
    "SimConfig",
    "SimResult",
    "Simulator",
    "Status",
    "VirtualClock",
    "run_simple",
    "co_waitall",
    "co_waitany",
]
