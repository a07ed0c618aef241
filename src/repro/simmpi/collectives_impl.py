"""Collective algorithms over a communicator's point-to-point messages.

The paper's protocol layer sits *between* the application and MPI and
implements its collective handling above point-to-point messages (Section
4.5 notes the elegance of this placement).  To let both the raw simulator
communicator and the C3 protocol layer share one set of algorithms, every
collective here is a function ``co_<kind>(comm, base, *args)`` of the
:class:`~repro.simmpi.comm.Comm` that carries its messages and the tag
base its caller reserved for this one call.

Algorithms (standard HPC implementations):

* ``bcast``      — binomial tree.
* ``reduce``     — ``gather`` plus a fold at root, in rank order (so
                   floating-point results are deterministic).
* ``allreduce``  — recursive doubling (butterfly), with the usual fold/expand
                   pre/post phases for non-power-of-two sizes.  The paper's
                   dense CG uses exactly a butterfly allreduce/allgather.
* ``gather``     — linear to root.
* ``allgather``  — recursive doubling (butterfly) for powers of two, Bruck
                   otherwise: ceil(log2(n)) rounds, n * ceil(log2(n))
                   messages at every n.  One round loop serves two block
                   forms: a block is the run of slots a rank forwards,
                   positional and with no rank keys — a ``list`` of
                   values for ``allgather``, packed 32-bit words for
                   ``allgather_words`` (the protocol's command exchange).
* ``scatter``    — linear from root.
* ``alltoall``   — Bruck: ceil(log2(n)) rounds, n * ceil(log2(n)) messages.
* ``barrier``    — dissemination barrier.
* ``scan``       — linear prefix.

The caller hands every call instance its own tag block, ``(base -
_TAG_STRIDE, base]``, and round ``r`` sends on tag ``base - r``, so rounds
of different collectives can never be confused even under the network's
``random`` ordering mode.  No algorithm runs more than ceil(log2(n)) + 2
rounds, far inside the block.  The communicator draws its bases from its
own collective counter; the protocol pipeline derives them from its
checkpointed per-communicator sequence (``repro.simmpi.constants`` lists
the regions).

Each algorithm exists once, as a ``co_*`` generator.  Its sends are plain
calls to ``Comm.coll_send``, which only posts the message; its receives
are ``yield from`` calls on ``Comm.co_coll_recv``, and the simulator
suspends the whole rank only where a receive's message has not arrived yet.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any

from repro.errors import SimMPIError
from repro.simmpi.op import Op, reduce_sequence
from repro.util.intpack import WORD_BYTES, pack_words, unpack_words

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Comm

#: Rounds per collective instance reserved in the tag space.
_TAG_STRIDE = 64


def co_bcast(comm: Comm, base: int, obj: Any, root: int = 0):
    """Binomial-tree broadcast; returns the broadcast object on every rank."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    # Work in a rotated rank space where root is 0.  Each rank receives at
    # most one message and every (parent, child) pair is unique, so a single
    # tag disambiguates; matching is by source.
    tag = base
    vrank = (rank - root) % size
    mask = 1
    received = obj if vrank == 0 else None
    # Receive phase: find the bit that brings data to us.
    while mask < size:
        if vrank & mask:
            src = (vrank - mask + root) % size
            received = yield from comm.co_coll_recv(src, tag)
            break
        mask <<= 1
    # Send phase: forward to children in decreasing-mask order.
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            dst = (vrank + mask + root) % size
            comm.coll_send(dst, received, tag)
        mask >>= 1
    return received


def co_allreduce(comm: Comm, base: int, obj: Any, op: Op):
    """Recursive-doubling allreduce (butterfly) with non-power-of-two fold."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    # Largest power of two <= size.
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    rnd = 0
    value = obj
    # Pairs fold with the op's function itself (``reduce_sequence`` of two).
    fold = op.fn
    # Fold phase: ranks [0, 2*rem) pair up so that odd ones drop out.
    if rank < 2 * rem:
        if rank % 2 == 0:
            comm.coll_send(rank + 1, value, base - rnd)
            newrank = -1
        else:
            other = yield from comm.co_coll_recv(rank - 1, base - rnd)
            # Fold in rank order: lower rank's value on the left.
            value = fold(other, value)
            newrank = rank // 2
    else:
        newrank = rank - rem
    rnd += 1
    # Butterfly over the pof2 survivors.
    if newrank != -1:
        mask = 1
        while mask < pof2:
            partner_new = newrank ^ mask
            partner = partner_new * 2 + 1 if partner_new < rem else partner_new + rem
            comm.coll_send(partner, value, base - rnd)
            other = yield from comm.co_coll_recv(partner, base - rnd)
            if partner_new < newrank:
                value = fold(other, value)
            else:
                value = fold(value, other)
            mask <<= 1
            rnd += 1
    else:
        rnd += pof2.bit_length() - 1
    # Expand phase: survivors hand the result back to folded-out ranks.
    if rank < 2 * rem:
        if rank % 2 == 1:
            comm.coll_send(rank - 1, value, base - rnd)
        else:
            value = yield from comm.co_coll_recv(rank + 1, base - rnd)
    return value


def co_gather(comm: Comm, base: int, obj: Any, root: int = 0):
    """Linear gather; returns the list of contributions at root, else None."""
    size, rank = comm.size, comm.rank
    if rank == root:
        out: list[Any] = [None] * size
        out[root] = obj
        for src in range(size):
            if src != root:
                out[src] = yield from comm.co_coll_recv(src, base)
        return out
    comm.coll_send(root, obj, base)
    return None


def co_reduce(comm: Comm, base: int, obj: Any, op: Op, root: int = 0):
    """:func:`co_gather`, then a fold at root in rank order; result only at root.

    A linear gather keeps the fold order identical to rank order, which makes
    floating-point reductions bit-deterministic across runs — essential for
    the recover-equals-failure-free integration tests.
    """
    parts = yield from co_gather(comm, base, obj, root)
    return None if parts is None else reduce_sequence(op, parts)


@functools.lru_cache(maxsize=4096)
def _allgather_schedule(size: int, rank: int):
    """Allgather rounds at ``size`` as ``rank`` runs them.

    Returns ``(rotation, rounds)``.  Slot ``p`` of the rank's buffer holds
    rank ``(p + rotation) % size``'s contribution; each round is ``(dst,
    src, send, recv)``: send slots ``send`` to ``dst``, then receive slots
    ``recv`` from ``src`` (``range`` objects).  ceil(log2(size)) rounds of
    one message per rank at every size:

    * a power of two — recursive doubling (butterfly), rotation 0: round k
      swaps the aligned 2^k-block holding ``rank`` with its partner's,
      ``rank ^ 2^k``;
    * any other size — Bruck, rotation ``rank`` (slot 0 is the rank's
      own): round k sends the first min(2^k, size - 2^k) slots to
      ``rank - 2^k`` and receives as many from ``rank + 2^k`` into slots
      2^k onwards.
    """
    rounds = []
    mask = 1
    if size & (size - 1) == 0:
        while mask < size:
            partner = rank ^ mask
            mine, theirs = rank & -mask, partner & -mask
            rounds.append(
                (partner, partner, range(mine, mine + mask), range(theirs, theirs + mask))
            )
            mask <<= 1
        return 0, tuple(rounds)
    while mask < size:
        count = min(mask, size - mask)
        rounds.append(
            ((rank - mask) % size, (rank + mask) % size, range(count), range(mask, mask + count))
        )
        mask <<= 1
    return rank, tuple(rounds)


def _co_allgather_run(comm: Comm, base: int, held, width: int):
    """The allgather's rounds over one rank's contribution ``held``.

    ``held`` is a run of slots, ``width`` items per slot: a one-item
    ``list`` of a value (width 1) or one packed word (``WORD_BYTES``).  The
    rank holds a contiguous run of slots from ``first``; each round of
    :func:`_allgather_schedule` sends a prefix of it and adds the run
    received to its front or back.  Returns every slot, in rank order, in
    ``held``'s type.
    """
    size, rank = comm.size, comm.rank
    rotation, rounds = _allgather_schedule(size, rank)
    first = (rank - rotation) % size
    for rnd, (dst, src, send, recv) in enumerate(rounds):
        tag = base - rnd
        comm.coll_send(dst, held[:len(send) * width], tag)
        incoming = yield from comm.co_coll_recv(src, tag)
        if recv.start < first:
            held, first = incoming + held, recv.start
        else:
            held += incoming
    cut = (size - rotation) * width
    return held[cut:] + held[:cut]


def co_allgather(comm: Comm, base: int, obj: Any):
    """Allgather; returns the list of all contributions on every rank.

    Recursive doubling (butterfly) when the size is a power of two —
    matching the paper's description of the CG code — and Bruck otherwise
    (:func:`_allgather_schedule`).  Each round's block travels as the list
    of the values it forwards, in slot order: no rank keys.
    """
    return (yield from _co_allgather_run(comm, base, [obj], 1))


def co_allgather_words(comm: Comm, base: int, word: int):
    """Allgather of one 32-bit word per rank, in :func:`co_allgather`'s rounds.

    The paper's command MPI_Allgather: each round's block of words travels
    as one ``bytes`` of little-endian uint32s
    (:func:`repro.util.intpack.pack_words`), 4 B a word.  Returns the words
    in rank order; a word outside 32 bits raises ``ProtocolError``.
    """
    held = yield from _co_allgather_run(comm, base, pack_words((word,)), WORD_BYTES)
    return list(unpack_words(held))


def co_scatter(comm: Comm, base: int, objs: list[Any] | None, root: int = 0):
    """Linear scatter from root; returns this rank's element."""
    size, rank = comm.size, comm.rank
    if rank == root:
        if objs is None or len(objs) != size:
            raise SimMPIError(
                f"scatter at root needs a list of exactly {size} elements"
            )
        for dst in range(size):
            if dst != root:
                comm.coll_send(dst, objs[dst], base)
        return objs[root]
    return (yield from comm.co_coll_recv(root, base))


def co_alltoall(comm: Comm, base: int, objs: list[Any]):
    """Bruck all-to-all; ``objs[d]`` goes to rank ``d``.

    ceil(log2(n)) rounds and n * ceil(log2(n)) messages for any n, where a
    pairwise exchange takes n(n - 1).  Round k sends the slots with bit k set
    to rank + 2^k, so each rank sends about ½ * n * ceil(log2(n)) blocks
    instead of n - 1: cheaper for small blocks.  The only in-repo caller is
    the restart's suppression exchange, whose blocks are short tuples of
    message IDs.  A rank's own block is handed back, not copied.
    """
    size, rank = comm.size, comm.rank
    if len(objs) != size:
        raise SimMPIError(f"alltoall needs exactly {size} elements, got {len(objs)}")
    # Slot i holds the block bound for rank + i; after the rounds, the one from rank - i.
    slots = [*objs[rank:], *objs[:rank]]
    for rnd in range((size - 1).bit_length()):
        mask, tag = 1 << rnd, base - rnd
        moving = [i for i in range(mask, size) if i & mask]
        comm.coll_send((rank + mask) % size, [slots[i] for i in moving], tag)
        incoming = yield from comm.co_coll_recv((rank - mask) % size, tag)
        for i, block in zip(moving, incoming):
            slots[i] = block
    return [slots[(rank - src) % size] for src in range(size)]


def co_barrier(comm: Comm, base: int):
    """Dissemination barrier: ceil(log2(size)) rounds of token exchange."""
    size, rank = comm.size, comm.rank
    for rnd in range((size - 1).bit_length()):
        mask, tag = 1 << rnd, base - rnd
        comm.coll_send((rank + mask) % size, None, tag)
        yield from comm.co_coll_recv((rank - mask) % size, tag)


def co_scan(comm: Comm, base: int, obj: Any, op: Op):
    """Inclusive prefix scan (linear chain)."""
    size, rank = comm.size, comm.rank
    value = obj
    if rank > 0:
        prefix = yield from comm.co_coll_recv(rank - 1, base)
        value = op.fn(prefix, value)
    if rank + 1 < size:
        comm.coll_send(rank + 1, value, base)
    return value
