"""Communicators: the application-facing MPI interface of the simulator.

A :class:`Comm` binds a rank's :class:`~repro.simmpi.process.Proc` to a
:class:`~repro.simmpi.group.Group` and a context id.  The API follows
mpi4py's lowercase object interface, with ranks expressed group-locally:
every operation that can suspend is a ``co_*`` generator
(``co_send``/``co_recv``/``co_allreduce``...), and the suspension-free
calls (``isend``/``irecv``/``iprobe``/``dup``) are plain methods.

Context ids isolate communicators: a message sent on one communicator can
never match a receive on another.  ``dup``/``split`` derive child contexts
through a simulator-global registry keyed by ``(parent context, child
sequence)`` so every member allocates the *same* child id without any
message exchange, regardless of when each rank reaches the call (MPI
requires communicator construction to be called collectively and in the
same order, which keeps the per-parent sequence numbers aligned).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import MatchError, SimMPIError
from repro.simmpi import collectives_impl as coll
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, MAX_USER_TAG, TAG_COLLECTIVE_BASE
from repro.simmpi.group import Group
from repro.simmpi.mailbox import RecvDescriptor
from repro.simmpi.message import Envelope
from repro.simmpi.op import Op
from repro.simmpi.process import Proc
from repro.simmpi.request import RecvRequest, Request, SendRequest
from repro.simmpi.status import Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.simulator import Simulator


class Comm:
    """A communicator bound to one rank of the simulation."""

    def __init__(self, sim: "Simulator", proc: Proc, group: Group, context: int) -> None:
        self.sim = sim
        self.proc = proc
        self.group = group
        self.context = context
        #: The simulation clock, cached: every send/recv charges it.
        self._clock = sim.clock
        self._network = sim.network
        self._scheduler = sim.scheduler
        #: Tag base of each collective call on this communicator, in call
        #: order: one block of ``_TAG_STRIDE`` tags per call.
        self._coll_bases = itertools.count(TAG_COLLECTIVE_BASE, -coll._TAG_STRIDE)
        self._child_seq = 0
        #: The envelope the latest ``co_recv_envelope`` matched; read by
        #: ``last_status`` only when someone asks.
        self._last_env: Optional[Envelope] = None
        self._members = group.members
        #: This process's rank within the communicator, and the number of
        #: processes in it: both fixed for the communicator's life.
        self.rank = group.rank_of(proc.rank)
        self.size = len(group.members)

    # ------------------------------------------------------------------ #
    # Identity.
    # ------------------------------------------------------------------ #

    def wtime(self) -> float:
        """Current virtual time (the MPI_Wtime analogue)."""
        return self.sim.clock.now

    @property
    def last_status(self) -> Optional[Status]:
        """Status of the latest blocking receive on this communicator
        (``None`` before the first one): the group-local source, the tag
        and the wire size of the message it matched.

        Described on demand from the matched envelope, so a receive that
        nobody asks about builds no ``Status`` and does no member lookup.
        """
        env = self._last_env
        if env is None:
            return None
        return Status(source=self._local(env.source), tag=env.tag, nbytes=env.nbytes)

    # ------------------------------------------------------------------ #
    # Internal plumbing.
    # ------------------------------------------------------------------ #

    def _world(self, local_rank: int) -> int:
        # The receives map an in-range rank inline and call this otherwise.
        if local_rank == ANY_SOURCE:
            return ANY_SOURCE
        members = self._members
        if not 0 <= local_rank < len(members):
            raise SimMPIError(f"group rank {local_rank} out of range for {members}")
        return members[local_rank]

    def _local(self, world_rank: int) -> int:
        return self.group.rank_of(world_rank)

    def co_yield_point(self):
        yield from self._scheduler.co_yield_point(self.proc)

    def _cancel_recv(self, desc: RecvDescriptor) -> bool:
        return self.proc.mailbox.cancel(desc)

    def _post(self, dest: int, payload: Any, tag: int, piggyback: Any = None) -> None:
        """Post one message to group rank ``dest``: map and check the
        target, build the envelope (it sizes the payload), charge the
        clock and hand it to the network.  Every send is this one call."""
        members = self._members
        if not 0 <= dest < len(members):
            raise MatchError(f"send dest {dest} out of range for size {len(members)}")
        if tag > MAX_USER_TAG:
            raise MatchError(f"tag {tag} exceeds MAX_USER_TAG")
        env = Envelope(self.proc.rank, members[dest], tag, self.context, payload, piggyback)
        # ``CostModel.message_cost``, added directly: the model's fields
        # were checked when it was built.
        clock = self._clock
        cost = clock.cost
        clock._now += cost.alpha + cost.beta * env.nbytes
        self._network.post(env, clock._now)

    # ------------------------------------------------------------------ #
    # Point-to-point.
    # ------------------------------------------------------------------ #

    # Each operation is written once, as a ``co_*`` generator whose yields
    # are its scheduling points; the suspension-free calls (``isend``,
    # ``irecv``, ``iprobe``, ``dup``) have no generator form.  To run one
    # outside a rank, ``coop.drive`` completes it where it cannot suspend.
    # A scheduling point is a bare ``yield`` between two kill checks, and
    # a receive that waits calls ``Scheduler.block`` before it and
    # ``Scheduler.fail_resume`` after it only when the rank comes back
    # killed or unmatched: no generator beyond the operation's own.

    def co_send(self, payload: Any, dest: int, tag: int = 0, piggyback: Any = None):
        """Eager-buffered blocking send (returns once the message is posted).

        ``piggyback`` is reserved for the C3 protocol layer; application code
        should never pass it.
        """
        self._post(dest, payload, tag, piggyback)
        proc = self.proc
        if proc.kill_flag:
            self._scheduler._raise_kill(proc)
        yield
        if proc.kill_flag:
            self._scheduler._raise_kill(proc)

    def co_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the payload.

        The matched message's metadata is available as ``last_status``.
        """
        desc = self.recv_begin(source, tag)
        yield
        return self.recv_end(desc).payload

    def co_recv_envelope(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        predicate: Optional[Callable[[Envelope], bool]] = None,
    ):
        """Blocking receive returning the full envelope (piggyback included).

        The C3 protocol layer uses this to read piggybacked words and, during
        recovery replay, to wait for the message with a specific
        ``messageID`` via ``predicate``.
        """
        desc = self.recv_begin(source, tag, predicate)
        yield
        return self.recv_end(desc)

    def recv_begin(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, predicate: Optional[Callable] = None
    ) -> RecvDescriptor:
        """A blocking receive up to its scheduling point, a bare ``yield``
        the caller makes next (so a layer above runs the receive in its own
        generator): post it, and block the rank unless a queued message
        matched it.  A matched receive still yields, or tight recv loops
        would starve other ranks.  :meth:`recv_end` completes it."""
        members = self._members
        world = members[source] if 0 <= source < len(members) else self._world(source)
        desc = RecvDescriptor(world, tag, self.context, predicate)
        proc = self.proc
        proc.mailbox.post(desc)
        if desc.matched is None:
            self._scheduler.block(proc, desc)
        elif proc.kill_flag:
            self._scheduler._raise_kill(proc)
        return desc

    def recv_end(self, desc: RecvDescriptor) -> Envelope:
        """Complete a receive :meth:`recv_begin` started, once its rank is
        resumed; returns the matched envelope."""
        proc = self.proc
        proc.block_info = None
        env = desc.matched
        if env is None or proc.kill_flag:
            self._scheduler.fail_resume(proc, desc)
        clock = self._clock
        clock._now += clock.cost.step
        self._last_env = env
        return env

    def co_sendrecv(
        self,
        payload: Any,
        dest: int,
        recv_source: int,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ):
        """Combined send+receive (deadlock-free under eager sends)."""
        if recv_tag is None:
            recv_tag = send_tag
        self._post(dest, payload, send_tag)
        return (yield from self.co_recv(recv_source, recv_tag))

    def isend(self, payload: Any, dest: int, tag: int = 0, piggyback: Any = None) -> Request:
        """Nonblocking send; the returned request is already complete."""
        self._post(dest, payload, tag, piggyback)
        return SendRequest(self)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Nonblocking receive; complete it with ``req.co_wait()``/``req.test()``."""
        desc = RecvDescriptor(self._world(source), tag, self.context)
        self.proc.mailbox.post(desc)
        return RecvRequest(self, desc)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe; None if no matching message is queued."""
        env = self.proc.mailbox.probe(self._world(source), tag, self.context)
        if env is None:
            return None
        return Status(source=self._local(env.source), tag=env.tag, nbytes=env.nbytes)

    # ------------------------------------------------------------------ #
    # Collectives (the algorithms are collectives_impl's).
    # ------------------------------------------------------------------ #

    # A collective suspends only where it waits: ``coll_send`` is ``_post``,
    # and ``co_coll_recv`` takes a queued message without a descriptor and
    # blocks only while its message has not arrived.  Point-to-point sends
    # and receives stay scheduling points.

    coll_send = _post

    def co_coll_recv(self, source: int, tag: int):
        members = self._members
        world = members[source] if 0 <= source < len(members) else self._world(source)
        proc = self.proc
        mailbox = proc.mailbox
        env = mailbox.take(world, tag, self.context)
        if env is None:
            # Nothing queued matches (``take`` just looked), so the
            # descriptor skips ``Mailbox.post``'s scan.
            desc = RecvDescriptor(world, tag, self.context)
            mailbox.posted.append(desc)
            scheduler = self._scheduler
            scheduler.block(proc, desc)
            yield
            proc.block_info = None
            env = desc.matched
            if env is None or proc.kill_flag:
                scheduler.fail_resume(proc, desc)
        clock = self._clock
        clock._now += clock.cost.step
        return env.payload

    # Each collective draws its call's tag block from ``_coll_bases`` and
    # hands back the algorithm's generator itself.

    def co_bcast(self, obj: Any, root: int = 0):
        return coll.co_bcast(self, next(self._coll_bases), obj, root)

    def co_reduce(self, obj: Any, op: Op, root: int = 0):
        return coll.co_reduce(self, next(self._coll_bases), obj, op, root)

    def co_allreduce(self, obj: Any, op: Op):
        return coll.co_allreduce(self, next(self._coll_bases), obj, op)

    def co_gather(self, obj: Any, root: int = 0):
        return coll.co_gather(self, next(self._coll_bases), obj, root)

    def co_allgather(self, obj: Any):
        return coll.co_allgather(self, next(self._coll_bases), obj)

    def co_scatter(self, objs: list[Any] | None, root: int = 0):
        return coll.co_scatter(self, next(self._coll_bases), objs, root)

    def co_alltoall(self, objs: list[Any]):
        return coll.co_alltoall(self, next(self._coll_bases), objs)

    def co_barrier(self):
        return coll.co_barrier(self, next(self._coll_bases))

    def co_scan(self, obj: Any, op: Op):
        return coll.co_scan(self, next(self._coll_bases), obj, op)

    # ------------------------------------------------------------------ #
    # Communicator construction.
    # ------------------------------------------------------------------ #

    def dup(self) -> "Comm":
        """Duplicate this communicator (same group, fresh context)."""
        ctx = self.sim.allocate_context(self.context, self._child_seq)
        self._child_seq += 1
        return Comm(self.sim, self.proc, self.group, ctx)

    def co_split(self, color: int, key: int | None = None):
        """Split by color/key (collective: every member must call it).

        Returns None for ``color is None`` (the MPI_UNDEFINED analogue).
        Uses an allgather to agree on membership.
        """
        if key is None:
            key = self.rank
        triples = yield from self.co_allgather((color, key, self.rank))
        return self._split_from_triples(triples, color)

    def _split_from_triples(self, triples: list[Any], color: int) -> Optional["Comm"]:
        child_seq = self._child_seq
        self._child_seq += 1
        if color is None:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        group = Group(tuple(self.group.world_rank(r) for _, r in members))
        ctx = self.sim.allocate_context(self.context, (child_seq, color))
        return Comm(self.sim, self.proc, group, ctx)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Comm(rank={self.rank}/{self.size}, ctx={self.context})"
