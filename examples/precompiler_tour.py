#!/usr/bin/env python3
"""A tour of the precompiler: what the source-to-source transform produces.

Shows the Figure-6 machinery on a small function: basic blocks with an
explicit program counter (the goto-label analogue), the restartable loop
iterator, the restore prologue (the VDS read), and a live capture/restore
round trip — no simulator involved.

Run:  python examples/precompiler_tour.py
"""

import pickle

from repro import RunConfig, Session
from repro.precompiler import C3StackRuntime, Precompiler
from repro.precompiler.api import PrecompiledApp
from repro.simmpi import FailureSchedule, coop
from repro.simmpi.process import Proc


def work(ctx, x):
    y = x * x
    ctx.potential_checkpoint()
    return y + 1


def main_loop(ctx, n):
    total = 0
    for i in range(n):
        if i % 2 == 0:
            total += work(ctx, i)
        else:
            total -= 1
    return total


def driver_main(ctx):
    """Driver entry for the same unit: ``ctx.params`` carries the loop
    bound; each iteration charges virtual compute time and folds a value
    across ranks, so checkpoint waves and failures have room to fire."""
    from repro.simmpi.op import SUM

    total = 0
    for i in range(ctx.params):
        ctx.compute(seconds=0.001)
        total += ctx.mpi.allreduce(i, SUM)
        total += work(ctx, i)
    return total


class CheckpointingCtx:
    """Stands in for the protocol layer: captures the stack at each
    potential checkpoint, exactly like the checkpoint writer does."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.snapshots = []

    def potential_checkpoint(self):
        self.snapshots.append(pickle.dumps(self.runtime.capture()))


def static_check_tour() -> None:
    """A deliberately broken variant of the tour's unit, run through the
    ``repro.check`` verifier.  The function is nested here on purpose:
    module-level unit selection must never pick it up, so the file itself
    stays clean under ``repro-check examples/precompiler_tour.py``."""
    from repro.check import check_functions
    from repro.errors import CheckError

    def broken_loop(ctx, n):
        import random

        from repro.simmpi.op import SUM

        total = 0.0
        if ctx.rank == 0:
            # Only rank 0 runs this collective: textbook deadlock.
            total = ctx.mpi.allreduce(1.0, SUM)
        for i in range(n):
            # Entropy outside the logged channel, and a communicating
            # loop with no reachable checkpoint site.
            total += ctx.mpi.allreduce(random.random(), SUM)
        return total

    print("=== repro.check on a deliberately broken variant ===")
    result = check_functions([broken_loop], target="broken_loop")
    print(result.render())
    print()

    try:
        Precompiler([broken_loop], unit_name="broken").compile(strict=True)
    except CheckError as exc:
        print(f"strict compile refused the unit "
              f"({len(exc.diagnostics)} error(s)) ✓")


def main() -> None:
    unit = Precompiler([main_loop, work], unit_name="tour").compile()

    print("=== generated code for main_loop ===")
    print(unit.sources["main_loop"])
    print()
    print("'# saved:' lists what a checkpoint taken inside that block keeps:")
    print("the locals live on entry to it (unit.saved_locals); the rest is dead.")
    print()

    # The active runtime lives on the executing rank; with no simulator
    # running, install a stand-in rank for the round trip.
    coop.set_current_proc(Proc(None, 0, None))
    runtime = C3StackRuntime(unit).activate()
    try:
        ctx = CheckpointingCtx(runtime)
        answer = unit.entry("main_loop")(ctx, 10)
        print(f"plain run: answer={answer}, "
              f"checkpoints captured={len(ctx.snapshots)}")

        # Pretend the process died; rebuild from the third checkpoint.
        frames = pickle.loads(ctx.snapshots[2])
        print()
        print("restoring from checkpoint #2; saved stack:")
        for func_id, frame in frames:
            interesting = {
                k: v for k, v in frame.items() if not k.startswith("_c3")
            }
            print(f"  {func_id}: _pc={frame['_pc']} locals={interesting}")

        runtime.begin_restore(frames)
        resumed = unit.entry("main_loop")(CheckpointingCtx(runtime), 10)
        print()
        print(f"resumed run completes with answer={resumed}")
        assert resumed == answer
        print("identical to the uninterrupted run ✓")
    finally:
        runtime.deactivate()
        coop.set_current_proc(None)

    # The same machinery under the real recovery driver: a Session runs
    # the precompiled unit on 2 ranks, a rank dies mid-run, and the saved
    # stack is rebuilt from the last committed wave.
    print()
    print("=== the unit under Session (rank 1 killed at t=8ms) ===")
    session = Session()
    driver_unit = Precompiler(
        [driver_main, work], unit_name="tour_driver"
    ).compile()
    app = PrecompiledApp(driver_unit, entry="driver_main", params=12)
    config = RunConfig(
        nprocs=2, seed=3, checkpoint_interval=0.003, detector_timeout=0.05
    )
    gold = session.run(app, config)
    outcome = session.run(app, config, failures=FailureSchedule.single(0.008, 1))
    print(f"failure-free: results={gold.results}, "
          f"waves committed={gold.checkpoints_committed}")
    print(f"with failure: results={outcome.results}, "
          f"attempts={len(outcome.attempts)}")
    assert outcome.results == gold.results
    print("recovered result identical ✓")

    print()
    static_check_tour()


if __name__ == "__main__":
    main()
