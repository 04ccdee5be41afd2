"""Point-to-point send/recv over the simulated MPI layer."""

import pytest

from repro.mpi import World, WorldAbortedError


class TestSendRecv:
    def test_simple_exchange(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"hello": 42}, dest=1)
                return None
            return comm.recv(source=0)

        result = World(2).run(fn)
        assert result.returns[1] == {"hello": 42}

    def test_message_order_preserved(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(10)]

        assert World(2).run(fn).returns[1] == list(range(10))

    def test_tags_separate_channels(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            # Receive in the opposite tag order.
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return first, second

        assert World(2).run(fn).returns[1] == ("a", "b")

    def test_ring_pattern(self):
        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank, dest=right)
            return comm.recv(source=left)

        result = World(4).run(fn)
        assert result.returns == [3, 0, 1, 2]

    def test_recv_charges_arrival_time(self):
        def fn(comm):
            if comm.rank == 0:
                comm.advance(5.0)
                comm.send(b"x" * 1000, dest=1)
                return comm.clock.time
            value = comm.recv(source=0)
            return comm.clock.time

        result = World(2).run(fn)
        # Receiver's clock advanced to at least the sender's send time.
        assert result.returns[1] >= 5.0

    def test_bytes_payload(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(b"\x00\xff" * 50, dest=1)
                return None
            return comm.recv(source=0)

        assert World(2).run(fn).returns[1] == b"\x00\xff" * 50

    def test_self_send_buffered(self):
        def fn(comm):
            comm.send("loop", dest=comm.rank, tag=7)
            return comm.recv(source=comm.rank, tag=7)

        assert World(2).run(fn).returns == ["loop", "loop"]

    def test_serial_self_send(self):
        assert World(1).run(
            lambda comm: (comm.send(3, 0), comm.recv(0))[1]).returns == [3]

    def test_invalid_dest(self):
        from repro.mpi import RankFailedError

        def fn(comm):
            comm.send(1, dest=9)

        with pytest.raises(RankFailedError):
            World(2).run(fn)

    def test_recv_unblocked_by_world_abort(self):
        from repro.mpi import RankFailedError

        def fn(comm):
            if comm.rank == 0:
                raise ValueError("dies before sending")
            return comm.recv(source=0)

        with pytest.raises(RankFailedError) as exc_info:
            World(2, join_timeout=30.0).run(fn)
        assert isinstance(exc_info.value.original, ValueError)

    def test_mixed_with_collectives(self):
        def fn(comm):
            total = comm.allsum(comm.rank)
            if comm.rank == 0:
                comm.send(total * 2, dest=comm.size - 1)
            comm.barrier()
            if comm.rank == comm.size - 1:
                return comm.recv(source=0)
            return total

        result = World(3).run(fn)
        assert result.returns[2] == 6
        assert result.returns[1] == 3

    def test_recv_timeout_names_waiting_rank_source_and_tag(self):
        from repro.mpi.engine import Mailbox

        mailbox = Mailbox(lambda: False)
        with pytest.raises(WorldAbortedError,
                           match=r"^rank 3: recv\(source=1, tag=7\) "
                                 r"timed out after 0\.1s$"):
            mailbox.take(1, 3, 7, timeout=0.1)
