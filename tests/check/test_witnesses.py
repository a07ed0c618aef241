"""Runtime witnesses: every code from RPR010 to RPR033 guards a failure
that a recovered run shows.

Each row of :data:`WITNESSES` is (code, program, expected failure,
repaired program).  The program fires exactly its code.  Run under V3 on
3 ranks (seed 4) with rank 1 killed at 4 ms (:data:`KILL_AT_OF` names the
exceptions), after a checkpoint wave has committed, it fails the way the
code predicts:

* :data:`DIFFERS` — failure-free runs agree with each other, but the
  killed run, restarted from a committed epoch, returns something else;
* :class:`~repro.errors.DeadlockError` — the run deadlocks after the kill
  has fired;
* :data:`STALLS` — the run completes, but no checkpoint wave commits after
  the faulty step, so a kill at 8 ms rolls back to epoch 1, further than
  the repaired program's does.

The repaired program, written as the code's hint says, checks clean, and
its killed run recovers its failure-free results.  Every run loads its
program as a fresh module, so module state and default arguments start
over as in a new process, and runs with the same seed of the host's
``random`` module, so a failure-free run of a program that draws from it
reproduces.
"""

import importlib.util
import itertools
import random
import sys
import textwrap
from dataclasses import replace

import pytest

from repro import RunConfig
from repro.check import CODES, check_path
from repro.errors import DeadlockError
from repro.precompiler import PrecompiledApp, Precompiler
from repro.runtime import run_with_recovery
from repro.simmpi import FailureSchedule
from repro.trace import TraceRecorder

KILL_AT = 0.004
#: A stall shows once the repaired program has committed a later wave.
STALL_KILL_AT = 0.008
#: Codes whose witness needs its own kill time.  RPR021's stamps differ
#: only when a message sent after the restored line was received before
#: it (the re-sent stamp is new, the counted one old), and at seed 4 the
#: epoch-2 line has no such message: kills at 3.0-4.3 ms, which restore
#: epoch 2, recover the failure-free result.  Kills at 1.5-2.9 ms restore
#: epoch 1 and differ (as do 4.5-5.0 ms, epoch 3, close to the run's
#: end), so the pin sits mid-window at 2.2 ms.
KILL_AT_OF = {"RPR021": 0.0022}
KILL_RANK = 1
CONFIG = RunConfig(
    nprocs=3, seed=4, checkpoint_interval=0.001, detector_timeout=0.05
)

DIFFERS = "differs"
STALLS = "stalls"

_modules = itertools.count()


def _fresh_module(path):
    name = f"{path.stem}_{next(_modules)}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def run(path, failures=None, tracer=None, config=CONFIG):
    """Precompile the checked unit of ``path`` from a fresh module and run
    it under V3 (``tracer`` records its events, even if the run raises)."""
    module = _fresh_module(path)
    functions = [getattr(module, name) for name in check_path(str(path)).functions]
    app = PrecompiledApp(Precompiler(functions).compile(), entry="main")
    host_random = random.getstate()
    random.seed(2026)
    try:
        return run_with_recovery(app, config, failures=failures, tracer=tracer)
    finally:
        random.setstate(host_random)


def kill(at=KILL_AT):
    return FailureSchedule.single(at, KILL_RANK)


def restart_epoch(outcome):
    """The committed epoch the killed run restarted from."""
    assert outcome.restarts == 1
    epoch = outcome.attempts[-1].started_from_epoch
    assert epoch is not None and epoch >= 1
    return epoch


def show_failure(failure, program, repaired, at=KILL_AT):
    if failure is DIFFERS:
        gold = run(program)
        assert run(program).results == gold.results
        killed = run(program, kill(at))
        restart_epoch(killed)
        assert killed.results != gold.results
    elif failure is STALLS:
        assert run(program).checkpoints_committed == 1
        assert run(repaired).checkpoints_committed > 1
        late = kill(STALL_KILL_AT)
        assert restart_epoch(run(program, late)) == 1
        assert restart_epoch(run(repaired, kill(STALL_KILL_AT))) > 1
    else:
        recorder = TraceRecorder(capacity=None)
        with pytest.raises(failure):
            run(program, kill(at), recorder)
        assert [ev.name for ev in recorder if ev.category == "fail"] == ["kill"]


# --------------------------------------------------------------------- #
# the table
# --------------------------------------------------------------------- #

#: A step of every program: a reduction over all ranks, then a chance to
#: checkpoint.
LOOP = """
from repro.simmpi import MAX, SUM

HISTORY = []


def main(ctx):
    acc = 0.0
    {setup}
    for i in range({rounds}):
        {body}
        acc += ctx.mpi.allreduce(float(i), SUM)
        ctx.potential_checkpoint()
    return acc
"""


def loop(body, setup="pass", rounds="40", header=""):
    return header + LOOP.format(
        setup=textwrap.indent(textwrap.dedent(setup), " " * 4).strip(),
        rounds=rounds,
        body=textwrap.indent(textwrap.dedent(body), " " * 8).strip(),
    )


#: A ring exchange on tag 1 every step; ``{extra}`` runs at step ``i``.
RING = """
from repro.simmpi import SUM


def main(ctx):
    acc = 0.0
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    for i in range(40):
        ctx.mpi.send(float(i), right, tag=1)
        acc += ctx.mpi.recv(source=left, tag=1)
        if i == {step}:
            {extra}
        acc += ctx.mpi.allreduce(acc, SUM) * 1e-3
        ctx.potential_checkpoint()
    return acc
"""


def ring(step, *extra):
    return RING.format(step=step, extra="\n            ".join(extra))


#: Every rank sends a stamp to its right neighbour each step.  Whatever
#: the stamps are, a consistent run has sent what it received, so every
#: failure-free run returns 0.
STAMPS = """
import time


def main(ctx):
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    sent = 0
    got = 0
    for i in range(100):
        stamp = {stamp}
        ctx.mpi.send(stamp, right, tag=1)
        got += ctx.mpi.recv(source=left, tag=1)
        sent += stamp
        ctx.potential_checkpoint()
    return ctx.mpi.allreduce(sent - got, SUM)
"""


def stamps(stamp):
    return "from repro.simmpi import SUM\n" + STAMPS.format(stamp=stamp)


WITNESSES = [
    pytest.param(
        "RPR010",
        loop("""
            lead = (ctx.rank + i) % ctx.size
            if lead == 0 and i == 35:
                acc += ctx.mpi.allreduce(1.0, SUM)
        """),
        DeadlockError,
        loop("""
            lead = (ctx.rank + i) % ctx.size
            extra = 1.0 if lead == 0 and i == 35 else 0.0
            acc += ctx.mpi.allreduce(extra, SUM)
        """),
        id="rpr010-collective-in-one-arm",
    ),
    pytest.param(
        "RPR011",
        loop("""
            stop = ctx.rank + i
            if stop > 35:
                break
        """),
        DeadlockError,
        loop("""
            stop = ctx.mpi.allreduce(ctx.rank + i, MAX)
            if stop > 35:
                break
        """),
        id="rpr011-rank-dependent-break",
    ),
    pytest.param(
        "RPR012",
        loop("pass", setup="rounds = 36 + ctx.rank", rounds="rounds"),
        DeadlockError,
        loop(
            "pass",
            setup="rounds = ctx.mpi.allreduce(36 + ctx.rank, MAX)",
            rounds="rounds",
        ),
        id="rpr012-rank-dependent-trip-count",
    ),
    pytest.param(
        "RPR013",
        ring(30, "acc += ctx.mpi.recv(source=left, tag=2)"),
        DeadlockError,
        ring(
            30,
            "ctx.mpi.send(acc, right, tag=2)",
            "acc += ctx.mpi.recv(source=left, tag=2)",
        ),
        id="rpr013-receive-nobody-sends",
    ),
    pytest.param(
        "RPR013",
        ring(5, "ctx.mpi.send(acc, right, tag=2)"),
        STALLS,
        ring(
            5,
            "ctx.mpi.send(acc, right, tag=2)",
            "acc += ctx.mpi.recv(source=left, tag=2)",
        ),
        id="rpr013-send-nobody-receives",
    ),
    pytest.param(
        "RPR014",
        loop("""
            if ctx.rank == 0 and i == 35:
                acc += ctx.mpi.allreduce(1.0, SUM)
        """),
        DeadlockError,
        loop("""
            extra = 1.0 if ctx.rank == 0 and i == 35 else 0.0
            acc += ctx.mpi.allreduce(extra, SUM)
        """),
        id="rpr014-collective-under-rank-test",
    ),
    pytest.param(
        "RPR020",
        loop("acc += random.random()", header="import random\n"),
        DIFFERS,
        loop("acc += ctx.rng.random()"),
        id="rpr020-host-random",
    ),
    pytest.param(
        "RPR021",
        stamps("time.time_ns()"),
        DIFFERS,
        stamps("ctx.nondet(lambda: time.time_ns())"),
        id="rpr021-wall-clock-stamps",
    ),
    pytest.param(
        "RPR030",
        loop("""
            HISTORY.append(i)
            acc += len(HISTORY)
        """),
        DIFFERS,
        loop("""
            history.append(i)
            acc += len(history)
        """, setup="history = []"),
        id="rpr030-module-list",
    ),
    pytest.param(
        "RPR031",
        loop("acc += count(i)", header="""
def count(value, seen=[]):
    seen.append(value)
    return len(seen)

"""),
        DIFFERS,
        loop("acc += count(i, seen)", setup="seen = []", header="""
def count(value, seen=None):
    if seen is None:
        seen = []
    seen.append(value)
    return len(seen)

"""),
        id="rpr031-list-default",
    ),
    pytest.param(
        "RPR033",
        loop("""
            log = HISTORY
            log.append(i)
            acc += len(log)
        """),
        DIFFERS,
        loop("""
            log = history
            log.append(i)
            acc += len(log)
        """, setup="history = []"),
        id="rpr033-alias-of-module-list",
    ),
]


@pytest.fixture
def write(tmp_path):
    def write(name, source):
        path = tmp_path / f"{name}.py"
        path.write_text(source)
        return path

    return write


@pytest.mark.parametrize("code, program, failure, repaired", WITNESSES)
def test_program_fires_its_code_and_fails_under_a_kill(
    code, program, failure, repaired, write
):
    program, repaired = write("program", program), write("repaired", repaired)
    assert {d.code for d in check_path(str(program)).diagnostics} == {code}
    show_failure(failure, program, repaired, KILL_AT_OF.get(code, KILL_AT))


@pytest.mark.parametrize("code, program, failure, repaired", WITNESSES)
def test_repair_checks_clean_and_recovers(
    code, program, failure, repaired, write
):
    repaired = write("repaired", repaired)
    result = check_path(str(repaired))
    assert [d.render() for d in result.diagnostics] == []
    assert result.suppressed == ()
    gold = run(repaired)
    killed = run(repaired, kill(KILL_AT_OF.get(code, KILL_AT)))
    restart_epoch(killed)
    assert killed.results == gold.results


def test_every_surviving_code_has_a_witness():
    witnessed = {param.values[0] for param in WITNESSES}
    assert witnessed == {c for c in CODES if "RPR010" <= c <= "RPR033"}


#: A loop guarded by the rank's own virtual clock: each rank leaves it
#: after its own count of allreduces.  The repair allreduces the stop
#: decision, so every rank leaves after the same step.
CLOCK_GUARD = """
from repro.simmpi import SUM


def main(ctx):
    n = 0.0
    while ctx.now() < 0.001:
        n += ctx.mpi.allreduce(1.0, SUM)
        ctx.potential_checkpoint()
    return n
"""
CLOCK_GUARD_REPAIRED = """
from repro.simmpi import MAX, SUM


def main(ctx):
    n = 0.0
    stop = ctx.mpi.allreduce(float(ctx.now() >= 0.001), MAX)
    while stop == 0.0:
        n += ctx.mpi.allreduce(1.0, SUM)
        ctx.potential_checkpoint()
        stop = ctx.mpi.allreduce(float(ctx.now() >= 0.001), MAX)
    return n
"""


def test_clock_guarded_collective_loop_deadlocks_without_a_kill(write):
    """RPR014 on a clock guard: at 4 ranks and seed 17 the program
    deadlocks with no failure injected; with the stop decision allreduced
    it completes, every rank with the same count."""
    program = write("program", CLOCK_GUARD)
    repaired = write("repaired", CLOCK_GUARD_REPAIRED)
    assert {d.code for d in check_path(str(program)).diagnostics} == {"RPR014"}
    assert check_path(str(repaired)).diagnostics == ()
    config = replace(CONFIG, nprocs=4, seed=17)
    with pytest.raises(DeadlockError):
        run(program, config=config)
    outcome = run(repaired, config=config)
    assert outcome.completed and outcome.restarts == 0
    assert len(set(outcome.results)) == 1
