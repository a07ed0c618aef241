"""Point-to-point communication through the Comm interface."""

import numpy as np
import pytest

from repro.errors import DeadlockError, MatchError
from repro.simmpi import ANY_SOURCE, ANY_TAG, co_waitall, co_waitany, run_simple


def run(main, n=2, **kw):
    result = run_simple(main, nprocs=n, seed=5, **kw)
    assert result.completed
    return result.results


class TestBlocking:
    def test_send_recv(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.co_send({"k": [1, 2]}, dest=1, tag=9)
            elif ctx.rank == 1:
                return (yield from ctx.comm.co_recv(source=0, tag=9))

        assert run(main)[1] == {"k": [1, 2]}

    def test_numpy_payload(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.co_send(np.arange(10.0), dest=1)
            else:
                return float((yield from ctx.comm.co_recv(source=0)).sum())

        assert run(main)[1] == 45.0

    def test_status_populated(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.co_send(b"abc", dest=1, tag=3)
            else:
                payload = yield from ctx.comm.co_recv(source=ANY_SOURCE, tag=ANY_TAG)
                st = ctx.comm.last_status
                return (payload, st.source, st.tag)

        assert run(main)[1] == (b"abc", 0, 3)

    def test_tag_selectivity(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.co_send("one", dest=1, tag=1)
                yield from ctx.comm.co_send("two", dest=1, tag=2)
            else:
                second = yield from ctx.comm.co_recv(source=0, tag=2)
                first = yield from ctx.comm.co_recv(source=0, tag=1)
                return (first, second)

        assert run(main)[1] == ("one", "two")

    def test_same_tag_order_preserved(self):
        def main(ctx):
            if ctx.rank == 0:
                for i in range(20):
                    yield from ctx.comm.co_send(i, dest=1, tag=0)
            else:
                got = []
                for _ in range(20):
                    got.append((yield from ctx.comm.co_recv(source=0, tag=0)))
                return got

        assert run(main)[1] == list(range(20))

    def test_sendrecv(self):
        def main(ctx):
            partner = 1 - ctx.rank
            return (yield from ctx.comm.co_sendrecv(f"from{ctx.rank}", partner, partner, send_tag=4))

        assert run(main) == ["from1", "from0"]

    def test_bad_dest_raises(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.co_send("x", dest=99)

        with pytest.raises(MatchError):
            run(main)


class TestNonblocking:
    def test_isend_irecv_wait(self):
        def main(ctx):
            if ctx.rank == 0:
                req = ctx.comm.isend("hello", dest=1)
                yield from req.co_wait()
            else:
                req = ctx.comm.irecv(source=0)
                return (yield from req.co_wait())

        assert run(main)[1] == "hello"

    def test_irecv_test_polling(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.co_send("late", dest=1)
            else:
                req = ctx.comm.irecv(source=0)
                polls = 0
                while not req.test():
                    yield from ctx.co_yield_point()
                    polls += 1
                    assert polls < 10_000
                return (yield from req.co_wait())

        assert run(main)[1] == "late"

    def test_waitall(self):
        def main(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield from ctx.comm.co_send(i * 2, dest=1, tag=i)
            else:
                reqs = [ctx.comm.irecv(source=0, tag=i) for i in range(5)]
                return (yield from co_waitall(reqs))

        assert run(main)[1] == [0, 2, 4, 6, 8]

    def test_waitany(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.co_send("only-tag-3", dest=1, tag=3)
            else:
                reqs = [ctx.comm.irecv(source=0, tag=t) for t in range(5)]
                idx, payload = yield from co_waitany(reqs)
                for i, r in enumerate(reqs):
                    if i != idx:
                        r.cancel()
                return (idx, payload)

        assert run(main)[1] == (3, "only-tag-3")

    def test_posted_irecv_takes_priority_over_later_recv(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.co_send("m1", dest=1, tag=0)
                yield from ctx.comm.co_send("m2", dest=1, tag=0)
            else:
                early = ctx.comm.irecv(source=0, tag=0)
                later = yield from ctx.comm.co_recv(source=0, tag=0)
                return ((yield from early.co_wait()), later)

        assert run(main)[1] == ("m1", "m2")


class TestProbe:
    def test_iprobe_and_take(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.co_send(123, dest=1, tag=8)
            else:
                while ctx.comm.iprobe(source=0, tag=8) is None:
                    yield from ctx.co_yield_point()
                st = ctx.comm.iprobe(source=0, tag=8)
                value = yield from ctx.comm.co_recv(source=0, tag=8)
                return (st.source, st.tag, value)

        assert run(main)[1] == (0, 8, 123)


class TestDeadlock:
    def test_mutual_recv_detected(self):
        def main(ctx):
            yield from ctx.comm.co_recv(source=1 - ctx.rank, tag=0)

        with pytest.raises(DeadlockError):
            run(main)

    def test_deadlock_reports_blocked_ranks(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.co_recv(source=1, tag=77)

        with pytest.raises(DeadlockError, match="tag=77"):
            run(main)


class TestWtime:
    def test_wtime_monotone(self):
        def main(ctx):
            t0 = ctx.comm.wtime()
            ctx.compute(seconds=0.5)
            t1 = ctx.comm.wtime()
            return t1 - t0

        results = run(main, n=1)
        assert results[0] == pytest.approx(0.5, rel=1e-9)
