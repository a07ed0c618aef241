"""Collective algorithms over abstract point-to-point endpoints.

The paper's protocol layer sits *between* the application and MPI and
implements its collective handling above point-to-point messages (Section
4.5 notes the elegance of this placement).  To let both the raw simulator
communicator and the C3 protocol layer share one set of algorithms, every
collective here is written against a minimal :class:`P2PEndpoint` interface.

Algorithms (standard HPC implementations):

* ``bcast``      — binomial tree.
* ``reduce``     — binomial tree (rank order preserved for determinism).
* ``allreduce``  — recursive doubling (butterfly), with the usual fold/expand
                   pre/post phases for non-power-of-two sizes.  The paper's
                   dense CG uses exactly a butterfly allreduce/allgather.
* ``gather``     — linear to root.
* ``allgather``  — recursive doubling (butterfly) for powers of two, ring
                   otherwise.
* ``scatter``    — linear from root.
* ``alltoall``   — pairwise exchange.
* ``barrier``    — dissemination barrier.
* ``scan``       — linear prefix.

Every collective call instance draws a fresh tag block from the endpoint so
that rounds of different collectives can never be confused even under the
network's ``random`` ordering mode.

Each algorithm exists once, as a ``co_*`` generator whose sends/receives
are ``yield from`` calls on the endpoint's ``co_coll_send``/``co_coll_recv``
— the simulator suspends the whole rank there.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.errors import SimMPIError
from repro.simmpi.op import Op, reduce_sequence

#: Rounds per collective instance reserved in the tag space.
_TAG_STRIDE = 64


class P2PEndpoint(Protocol):
    """What a collective algorithm needs from its transport."""

    @property
    def coll_rank(self) -> int:
        """This process's rank within the collective's group."""
        ...

    @property
    def coll_size(self) -> int:
        """Number of participants."""
        ...

    def coll_next_tag_block(self) -> int:
        """Reserve and return the base tag for one collective instance."""
        ...

    def co_coll_send(self, dest: int, payload: Any, tag: int):
        """Group-local-rank addressed send (a generator)."""
        ...

    def co_coll_recv(self, source: int, tag: int):
        """Group-local-rank addressed blocking receive (a generator)."""
        ...


def _round_tag(base: int, rnd: int) -> int:
    if rnd >= _TAG_STRIDE:
        raise SimMPIError(f"collective exceeded {_TAG_STRIDE} rounds")
    return base - rnd


def co_bcast(ep, obj: Any, root: int = 0):
    """Binomial-tree broadcast; returns the broadcast object on every rank."""
    size, rank = ep.coll_size, ep.coll_rank
    base = ep.coll_next_tag_block()
    if size == 1:
        return obj
    # Work in a rotated rank space where root is 0.  Each rank receives at
    # most one message and every (parent, child) pair is unique, so a single
    # tag disambiguates; matching is by source.
    tag = _round_tag(base, 0)
    vrank = (rank - root) % size
    mask = 1
    received = obj if vrank == 0 else None
    # Receive phase: find the bit that brings data to us.
    while mask < size:
        if vrank & mask:
            src = (vrank - mask + root) % size
            received = yield from ep.co_coll_recv(src, tag)
            break
        mask <<= 1
    # Send phase: forward to children in decreasing-mask order.
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            dst = (vrank + mask + root) % size
            yield from ep.co_coll_send(dst, received, tag)
        mask >>= 1
    return received


def co_reduce(ep, obj: Any, op: Op, root: int = 0):
    """Gather-then-fold reduce preserving rank order; result only at root.

    A linear gather keeps the fold order identical to rank order, which makes
    floating-point reductions bit-deterministic across runs — essential for
    the recover-equals-failure-free integration tests.
    """
    size, rank = ep.coll_size, ep.coll_rank
    base = ep.coll_next_tag_block()
    if size == 1:
        return obj
    if rank == root:
        parts: list[Any] = [None] * size
        parts[root] = obj
        for src in range(size):
            if src != root:
                parts[src] = yield from ep.co_coll_recv(src, _round_tag(base, 0))
        return reduce_sequence(op, parts)
    yield from ep.co_coll_send(root, obj, _round_tag(base, 0))
    return None


def co_allreduce(ep, obj: Any, op: Op):
    """Recursive-doubling allreduce (butterfly) with non-power-of-two fold."""
    size, rank = ep.coll_size, ep.coll_rank
    base = ep.coll_next_tag_block()
    if size == 1:
        return obj
    # Largest power of two <= size.
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    rnd = 0
    value = obj
    # Fold phase: ranks [0, 2*rem) pair up so that odd ones drop out.
    if rank < 2 * rem:
        if rank % 2 == 0:
            yield from ep.co_coll_send(rank + 1, value, _round_tag(base, rnd))
            newrank = -1
        else:
            other = yield from ep.co_coll_recv(rank - 1, _round_tag(base, rnd))
            # Fold in rank order: lower rank's value on the left.
            value = reduce_sequence(op, [other, value])
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
            yield from ep.co_coll_send(partner, value, _round_tag(base, rnd))
            other = yield from ep.co_coll_recv(partner, _round_tag(base, rnd))
            if partner_new < newrank:
                value = reduce_sequence(op, [other, value])
            else:
                value = reduce_sequence(op, [value, other])
            mask <<= 1
            rnd += 1
    else:
        rnd += pof2.bit_length() - 1
    # Expand phase: survivors hand the result back to folded-out ranks.
    if rank < 2 * rem:
        if rank % 2 == 1:
            yield from ep.co_coll_send(rank - 1, value, _round_tag(base, rnd))
        else:
            value = yield from ep.co_coll_recv(rank + 1, _round_tag(base, rnd))
    return value


def co_gather(ep, obj: Any, root: int = 0):
    """Linear gather; returns the list of contributions at root, else None."""
    size, rank = ep.coll_size, ep.coll_rank
    base = ep.coll_next_tag_block()
    if rank == root:
        out: list[Any] = [None] * size
        out[root] = obj
        for src in range(size):
            if src != root:
                out[src] = yield from ep.co_coll_recv(src, _round_tag(base, 0))
        return out
    yield from ep.co_coll_send(root, obj, _round_tag(base, 0))
    return None


def co_allgather(ep, obj: Any):
    """Allgather; returns the list of all contributions on every rank.

    Uses recursive doubling (butterfly) when the size is a power of two —
    matching the paper's description of the CG code — and a ring otherwise.
    """
    size, rank = ep.coll_size, ep.coll_rank
    base = ep.coll_next_tag_block()
    result: list[Any] = [None] * size
    result[rank] = obj
    if size == 1:
        return result
    if size & (size - 1) == 0:
        mask = 1
        rnd = 0
        while mask < size:
            partner = rank ^ mask
            # Send the block of entries I currently own.
            block_start = (rank // mask) * mask
            chunk = {
                i: result[i]
                for i in range(block_start, block_start + mask)
            }
            yield from ep.co_coll_send(partner, chunk, _round_tag(base, rnd))
            incoming = yield from ep.co_coll_recv(partner, _round_tag(base, rnd))
            for i, v in incoming.items():
                result[i] = v
            mask <<= 1
            rnd += 1
        return result
    # Ring algorithm for irregular sizes.
    right = (rank + 1) % size
    left = (rank - 1) % size
    send_idx = rank
    for rnd in range(size - 1):
        yield from ep.co_coll_send(
            right, (send_idx, result[send_idx]), _round_tag(base, rnd)
        )
        idx, val = yield from ep.co_coll_recv(left, _round_tag(base, rnd))
        result[idx] = val
        send_idx = idx
    return result


def co_scatter(ep, objs: list[Any] | None, root: int = 0):
    """Linear scatter from root; returns this rank's element."""
    size, rank = ep.coll_size, ep.coll_rank
    base = ep.coll_next_tag_block()
    if rank == root:
        if objs is None or len(objs) != size:
            raise SimMPIError(
                f"scatter at root needs a list of exactly {size} elements"
            )
        for dst in range(size):
            if dst != root:
                yield from ep.co_coll_send(dst, objs[dst], _round_tag(base, 0))
        return objs[root]
    return (yield from ep.co_coll_recv(root, _round_tag(base, 0)))


def co_alltoall(ep, objs: list[Any]):
    """Pairwise-exchange all-to-all; ``objs[d]`` goes to rank ``d``."""
    size, rank = ep.coll_size, ep.coll_rank
    base = ep.coll_next_tag_block()
    if len(objs) != size:
        raise SimMPIError(f"alltoall needs exactly {size} elements, got {len(objs)}")
    result: list[Any] = [None] * size
    result[rank] = objs[rank]
    # Exchange with partner rank ^ step when size is a power of two;
    # otherwise with (rank + step) % size / (rank - step) % size.
    if size & (size - 1) == 0:
        for step in range(1, size):
            partner = rank ^ step
            yield from ep.co_coll_send(
                partner, objs[partner], _round_tag(base, step % _TAG_STRIDE)
            )
            result[partner] = yield from ep.co_coll_recv(
                partner, _round_tag(base, step % _TAG_STRIDE)
            )
    else:
        for step in range(1, size):
            send_to = (rank + step) % size
            recv_from = (rank - step) % size
            yield from ep.co_coll_send(
                send_to, objs[send_to], _round_tag(base, step % _TAG_STRIDE)
            )
            result[recv_from] = yield from ep.co_coll_recv(
                recv_from, _round_tag(base, step % _TAG_STRIDE)
            )
    return result


def co_barrier(ep):
    """Dissemination barrier: ceil(log2(size)) rounds of token exchange."""
    size, rank = ep.coll_size, ep.coll_rank
    base = ep.coll_next_tag_block()
    if size == 1:
        return
    mask = 1
    rnd = 0
    while mask < size:
        dst = (rank + mask) % size
        src = (rank - mask) % size
        yield from ep.co_coll_send(dst, None, _round_tag(base, rnd))
        yield from ep.co_coll_recv(src, _round_tag(base, rnd))
        mask <<= 1
        rnd += 1


def co_scan(ep, obj: Any, op: Op):
    """Inclusive prefix scan (linear chain)."""
    size, rank = ep.coll_size, ep.coll_rank
    base = ep.coll_next_tag_block()
    value = obj
    if rank > 0:
        prefix = yield from ep.co_coll_recv(rank - 1, _round_tag(base, 0))
        value = reduce_sequence(op, [prefix, value])
    if rank + 1 < size:
        yield from ep.co_coll_send(rank + 1, value, _round_tag(base, 0))
    return value
