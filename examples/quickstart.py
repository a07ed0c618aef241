#!/usr/bin/env python3
"""Quickstart: make a small MPI program fault-tolerant in ~20 lines.

Precompiles a 4-rank ring/allreduce computation written with plain MPI
calls, runs it under the C3 protocol with a checkpoint wave every 3
simulated milliseconds, kills a rank mid-run, and shows the system
recovering from the last committed global checkpoint with a bit-identical
final answer.

Run:  python examples/quickstart.py
"""

from repro import RunConfig, Session
from repro.precompiler import PrecompiledApp, Precompiler
from repro.simmpi import SUM, FailureSchedule


def app(ctx):
    """The application: iterate, communicate, and offer checkpoint points.

    The only fault-tolerance-specific line is ``potential_checkpoint()``
    (where saving may happen) — the paper's sole source-code requirement.
    The precompiler makes the function save and restore its own locals.
    """
    state = {"i": 0, "acc": 0.0}
    while state["i"] < 300:
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        ctx.mpi.send(float(state["i"]) + ctx.rng.random(), right, tag=1)
        incoming = ctx.mpi.recv(source=left, tag=1)
        state["acc"] += ctx.mpi.allreduce(incoming, SUM)
        state["i"] += 1
        ctx.potential_checkpoint()
    return round(state["acc"], 6)


def main() -> None:
    program = PrecompiledApp(
        Precompiler([app], unit_name="quickstart").compile(), entry="app"
    )
    session = Session()
    config = RunConfig(
        nprocs=4,
        seed=2026,
        checkpoint_interval=0.003,   # the paper used 30 s of wall time
        detector_timeout=0.05,
    )

    print("=== failure-free run ===")
    gold = session.run(program, config)
    print(f"results: {gold.results}")
    print(f"checkpoint waves committed: {gold.checkpoints_committed}")

    print()
    print("=== same run, rank 2 killed at t=10ms ===")
    outcome = session.run(
        program, config, failures=FailureSchedule.single(0.010, 2)
    )
    for attempt in outcome.attempts:
        if attempt.failed:
            print(
                f"attempt {attempt.index}: FAILED — rank(s) {attempt.dead_ranks} "
                f"died; detector fired; rolling back"
            )
        else:
            origin = (
                f"epoch {attempt.started_from_epoch} checkpoint"
                if attempt.started_from_epoch
                else "the beginning"
            )
            print(f"attempt {attempt.index}: completed (restarted from {origin})")
    print(f"results: {outcome.results}")

    assert outcome.results == gold.results
    print()
    print("recovered result is bit-identical to the failure-free run ✓")


if __name__ == "__main__":
    main()
