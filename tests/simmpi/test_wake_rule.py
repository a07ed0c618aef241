"""The wake rule: a blocked rank resumes only when the receive it is
blocked on completes, or when it is killed.

Every run here is round-robin with zero jitter, so its schedule is exact.
Rank 0 is the sender.  Rank 1 blocks on one receive, and rank 0 gives it
other deliveries first: another tag, a control word, or a message that
completes a posted ``irecv``.
"""

import pytest

from repro.errors import ProcessKilled, SimMPIError
from repro.simmpi import FailureSchedule, SimConfig, Simulator
from repro.simmpi.constants import TAG_COLLECTIVE_BASE, TAG_CONTROL
from repro.simmpi.process import ProcState
from repro.trace import TraceRecorder

NO_RNG = {"sched_policy": "round_robin", "jitter": 0.0}
#: The three ways a rank waits on an unmatched receive, each on tag 1 (or
#: a collective round's tag) from rank 0.
RECEIVES = {
    "co_recv": lambda comm: comm.co_recv(source=0, tag=1),
    "co_coll_recv": lambda comm: comm.co_coll_recv(0, TAG_COLLECTIVE_BASE),
    "irecv_wait": lambda comm: comm.irecv(source=0, tag=1).co_wait(),
}
#: Virtual seconds rank 0 computes before its last send, so every earlier
#: message is delivered while rank 1 is blocked.
GAP = 0.01


def _run(mains, failures=None):
    """Run ``mains`` on two ranks; returns ``(simulator, result, tracer)``."""
    tracer = TraceRecorder(capacity=None)
    sim = Simulator(SimConfig(nprocs=2, **NO_RNG), mains, failures=failures, tracer=tracer)
    return sim, sim.run(), tracer


def _count(tracer, name, rank):
    return sum(
        1 for e in tracer.events
        if e.category == "sched" and e.name == name and e.rank == rank
    )


def test_other_tag_and_control_word_do_not_wake_a_blocked_rank():
    def sender(ctx):
        yield from ctx.comm.co_send("other", dest=1, tag=2)
        ctx.comm.isend(0x1234, dest=1, tag=TAG_CONTROL)
        yield from ctx.co_yield_point()
        ctx.compute(seconds=GAP)
        yield from ctx.comm.co_send("wanted", dest=1, tag=1)

    def receiver(ctx):
        got = yield from ctx.comm.co_recv(source=0, tag=1)
        mailbox = ctx.proc.mailbox
        return got, len(mailbox.unexpected), len(mailbox.control)

    sim, result, tracer = _run([sender, receiver])
    assert result.completed
    assert result.results[1] == ("wanted", 1, 1)
    # One slice to block, one to return once tag 1 is matched.
    assert sim.procs[1].slices == 2
    assert _count(tracer, "block", 1) == 1
    assert _count(tracer, "wake", 1) == 1


def test_completing_a_posted_irecv_does_not_wake_a_rank_blocked_elsewhere():
    def sender(ctx):
        yield from ctx.comm.co_send("early", dest=1, tag=2)
        yield from ctx.co_yield_point()
        ctx.compute(seconds=GAP)
        yield from ctx.comm.co_send("late", dest=1, tag=1)

    def receiver(ctx):
        req = ctx.comm.irecv(source=0, tag=2)
        late = yield from ctx.comm.co_recv(source=0, tag=1)
        assert req.test()
        early = yield from req.co_wait()
        return early, late

    sim, result, tracer = _run([sender, receiver])
    assert result.completed
    assert result.results[1] == ("early", "late")
    # Block once; resume when tag 1 matches; the completed wait returns
    # without suspending.
    assert _count(tracer, "block", 1) == 1
    assert _count(tracer, "wake", 1) == 1
    assert sim.procs[1].slices == 2


def test_a_killed_blocked_rank_unwinds_with_process_killed():
    unwound = []

    def sender(ctx):
        ctx.comm.isend("other", dest=1, tag=2)
        yield from ctx.co_yield_point()

    def receiver(ctx):
        try:
            yield from ctx.comm.co_recv(source=0, tag=1)
        except ProcessKilled:
            unwound.append(ctx.rank)
            raise

    sim, result, _ = _run([sender, receiver], FailureSchedule.single(time=GAP, rank=1))
    assert result.failed and result.dead_ranks == (1,)
    assert unwound == [1]
    assert sim.procs[1].state is ProcState.DEAD


def test_a_forced_resume_of_an_unmatched_receive_raises():
    def meddler(ctx):
        yield from ctx.co_yield_point()
        victim = ctx.sim.procs[1]
        assert victim.state is ProcState.BLOCKED
        # Runnable with its receive unmatched and no kill requested.
        victim.state = ProcState.RUNNABLE
        yield from ctx.co_yield_point()

    def receiver(ctx):
        yield from ctx.comm.co_recv(source=0, tag=1)

    with pytest.raises(SimMPIError, match="rank 1 resumed while its receive"):
        _run([meddler, receiver])


@pytest.mark.parametrize("receive", sorted(RECEIVES))
def test_a_kill_ends_a_blocked_receive_at_its_one_resume(receive):
    """Whatever the receive, a kill makes its blocked rank runnable once,
    and that resume unwinds it DEAD: one slice to block, one to die."""
    def sender(ctx):
        ctx.comm.isend("other", dest=1, tag=2)
        yield from ctx.co_yield_point()

    def receiver(ctx):
        yield from RECEIVES[receive](ctx.comm)

    sim, result, tracer = _run([sender, receiver], FailureSchedule.single(time=GAP, rank=1))
    assert result.failed and result.dead_ranks == (1,)
    assert sim.procs[1].state is ProcState.DEAD
    assert sim.procs[1].slices == 2
    assert _count(tracer, "block", 1) == 1


@pytest.mark.parametrize("receive", sorted(RECEIVES))
def test_any_blocked_receive_resumed_unmatched_raises(receive):
    def meddler(ctx):
        yield from ctx.co_yield_point()
        victim = ctx.sim.procs[1]
        assert victim.state is ProcState.BLOCKED
        victim.state = ProcState.RUNNABLE
        yield from ctx.co_yield_point()

    def receiver(ctx):
        yield from RECEIVES[receive](ctx.comm)

    with pytest.raises(SimMPIError, match="rank 1 resumed while its receive"):
        _run([meddler, receiver])
