"""TCP fabric behavior and agreement with the simulated transport."""

import queue
import socket
import struct
import threading
import time

from pbftkit.client import ClientSession
from pbftkit.crypto import CryptoMode
from pbftkit.pipeline import PipelineConfig, run_pipeline
from pbftkit.replica import Replica, ReplicaConfig
from pbftkit.simnet import SimConfig, World
from pbftkit.tcpnet import LoopbackFabric, TcpFabric, merge_inbound
from pbftkit.wire import encode


def frame(payload: bytes) -> bytes:
    """Length-prefix an opaque payload the way the codec frames traffic."""
    return struct.pack("<I", len(payload)) + payload


def free_ports(count):
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(count)]
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def addrs_for(n):
    return {i: ("127.0.0.1", p) for i, p in enumerate(free_ports(n))}


class TestFabric:
    def test_two_nodes_exchange_frames(self):
        addrs = addrs_for(2)
        a = TcpFabric(0, addrs)
        b = TcpFabric(1, addrs)
        try:
            assert a.wait_connected([1]) and b.wait_connected([0])
            a.send(1, frame(b"ping"))
            b.send(0, frame(b"pong"))
            assert b.receive_queues()[0].get(timeout=5) == frame(b"ping")
            assert a.receive_queues()[1].get(timeout=5) == frame(b"pong")
        finally:
            a.close()
            b.close()

    def test_client_reaches_every_node(self):
        addrs = addrs_for(3)
        nodes = [TcpFabric(i, addrs, client_ids=[9]) for i in range(3)]
        client = TcpFabric(9, addrs)
        try:
            assert client.wait_connected(list(addrs))
            for i in range(3):
                client.send(i, frame(b"hello-%d" % i))
                assert nodes[i].receive_queues()[9].get(timeout=5) == \
                    frame(b"hello-%d" % i)
                nodes[i].send(9, frame(b"reply-%d" % i))
                assert client.receive_queues()[i].get(timeout=5) == \
                    frame(b"reply-%d" % i)
        finally:
            client.close()
            for n in nodes:
                n.close()

    def test_silent_connector_does_not_stall_accepts(self):
        # Three connections that never send a hello are accepted first;
        # each may wait HELLO_TIMEOUT, but node 1 must not wait behind them.
        any_port = {0: ("127.0.0.1", 0), 1: ("127.0.0.1", 0)}
        a = TcpFabric(0, any_port)
        addrs = {**any_port, 0: ("127.0.0.1", a.bound_port)}
        silent = [socket.create_connection(addrs[0]) for _ in range(3)]
        b = None
        try:
            time.sleep(0.1)
            b = TcpFabric(1, addrs)
            assert a.wait_connected([1], timeout=1.0)
            b.send(0, frame(b"ping"))
            assert a.receive_queues()[1].get(timeout=5) == frame(b"ping")
        finally:
            for sock in silent:
                sock.close()
            a.close()
            if b is not None:
                b.close()

    def test_close_stops_accept_thread(self):
        before = set(threading.enumerate())
        fabric = TcpFabric(0, {0: ("127.0.0.1", 0)})
        [accept] = [t for t in threading.enumerate()
                    if t not in before and t.name == "tcp-accept-0"]
        time.sleep(0.3)  # let it block in accept()
        fabric.close()
        accept.join(timeout=1.0)
        assert not accept.is_alive()

    def test_hello_split_across_segments_registers(self):
        addrs = addrs_for(1)
        a = TcpFabric(0, addrs, client_ids=[9])
        peer = socket.create_connection(addrs[0])
        try:
            peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = struct.pack("<H", 9)
            peer.sendall(hello[:1])
            time.sleep(0.2)
            peer.sendall(hello[1:])
            assert a.wait_connected([9], timeout=5.0)
            peer.sendall(frame(b"ping"))
            assert a.receive_queues()[9].get(timeout=5) == frame(b"ping")
        finally:
            peer.close()
            a.close()

    def test_idle_connection_outlives_connect_timeout(self):
        addrs = addrs_for(2)
        a = TcpFabric(0, addrs)
        b = TcpFabric(1, addrs)
        try:
            assert a.wait_connected([1]) and b.wait_connected([0])
            dialed = b._conns[0]
            time.sleep(2.5)  # longer than the 2 s connect timeout
            assert b._conns.get(0) is dialed and not dialed.dead.is_set()
        finally:
            a.close()
            b.close()

    def test_send_to_unconnected_peer_is_dropped(self):
        addrs = addrs_for(2)
        a = TcpFabric(0, addrs)
        try:
            a.send(1, b"nobody-home")  # must not raise or block
        finally:
            a.close()


    def test_writer_failure_on_full_queue_frees_the_peer(self):
        # The writer's sendall fails while the outage queue is full: the
        # close it runs itself must still close the socket and deregister
        # the connection, or every later connection from that peer is
        # refused.
        fabric = TcpFabric(0, {0: ("127.0.0.1", 0)}, client_ids=[9],
                           queue_capacity=2)
        sock = FailingSocket()
        try:
            assert fabric._register(9, sock)
            conn = fabric._conns[9]
            fabric.send(9, b"a")  # the writer takes it, blocks in sendall
            assert until(lambda: conn.out.empty())
            fabric.send(9, b"b")
            fabric.send(9, b"c")
            assert conn.out.full()
            sock.fail.set()
            assert until(sock.closed.is_set, timeout=1.0)
            assert until(lambda: fabric._register(9, FailingSocket()),
                         timeout=1.0)
        finally:
            fabric.close()


class FailingSocket:
    """A socket whose sendall fails once ``fail`` is set and whose recv
    waits until it is closed."""

    def __init__(self):
        self.fail = threading.Event()
        self.closed = threading.Event()

    def setsockopt(self, *args):
        pass

    def recv(self, size):
        self.closed.wait()
        return b""

    def sendall(self, data):
        self.fail.wait()
        raise OSError("link down")

    def close(self):
        self.closed.set()


def until(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.005)
    return False


class TestLoopback:
    def test_hub_routes_by_id(self):
        hub = LoopbackFabric([0, 1, 2])
        try:
            hub.port(0).send(2, b"x")
            assert hub.port(2).receive_queues()[0].get(timeout=1) == b"x"
        finally:
            hub.close()

    def test_merge_inbound_collapses_queues(self):
        hub = LoopbackFabric([0, 1, 2])
        try:
            merged = merge_inbound(hub.port(0))
            hub.port(1).send(0, b"a")
            hub.port(2).send(0, b"b")
            got = {merged.get(timeout=1), merged.get(timeout=1)}
            assert got == {b"a", b"b"}
        finally:
            hub.close()
        addrs = addrs_for(2)
        a = TcpFabric(0, addrs, client_ids=[9])
        client = TcpFabric(9, addrs)
        b = TcpFabric(1, addrs, client_ids=[9])
        try:
            merged = merge_inbound(a)
            assert set(a.receive_queues()) == {1, 9}
            assert a.wait_connected([1, 9]) and client.wait_connected([0])
            b.send(0, frame(b"a"))
            client.send(0, frame(b"b"))
            got = {merged.get(timeout=5), merged.get(timeout=5)}
            assert got == {frame(b"a"), frame(b"b")}
        finally:
            for fabric in (a, b, client):
                fabric.close()


def run_tcp_cluster(total_requests=20):
    """Failure-free 4-node TCP deployment; returns per-node commit logs."""
    n, f, cid = 4, 1, 4
    addrs = addrs_for(n)
    commits = {i: [] for i in range(n)}
    fabrics, pipes = [], []
    client = None
    try:
        for i in range(n):
            fab = TcpFabric(i, addrs, client_ids=[cid])
            rep = Replica(ReplicaConfig(n=n, f=f, self_id=i, batch_size=1,
                                        view_change_timeout=30.0))
            pipe = run_pipeline(PipelineConfig(), fab, rep,
                                on_commit=lambda s, b, i=i:
                                commits[i].append((s, b)))
            fabrics.append(fab)
            pipes.append(pipe)
        client = TcpFabric(cid, addrs)
        assert client.wait_connected(list(addrs))
        for i in range(n):
            assert fabrics[i].wait_connected(
                [j for j in range(n) if j != i])

        sess = ClientSession(cid, n, f, CryptoMode.MAC_INTER_NODE)
        rx = client.receive_queues()
        for _ in range(total_requests):
            req, env, leader = sess.make_request(b"\x00" * 64,
                                                 time.monotonic())
            client.send(leader, encode(env))
            deadline = time.monotonic() + 10.0
            done = None
            while done is None and time.monotonic() < deadline:
                for src, q in rx.items():
                    try:
                        frame = q.get(timeout=0.02)
                    except queue.Empty:
                        continue
                    from pbftkit.wire import decode
                    done = sess.on_reply(decode(frame), time.monotonic())
                    if done is not None:
                        break
            assert done is not None, "request did not complete over TCP"
        # f+1 replies complete a request: wait for the other replicas too.
        until(lambda: all(sum(len(b) for _, b in log) >= total_requests
                          for log in commits.values()), timeout=10.0)
    finally:
        for p in pipes:
            p.stop()
        for fab in fabrics:
            fab.close()
        if client is not None:
            client.close()
    return commits


class TestInterchangeability:
    def test_tcp_and_sim_agree_on_commit_order(self):
        commits = run_tcp_cluster(total_requests=20)
        tcp_orders = {
            i: [(r.client_id, r.request_id) for _, batch in log
                for r in batch]
            for i, log in commits.items()}
        # every TCP node committed every request in one identical order
        assert all(order == tcp_orders[0] for order in tcp_orders.values())
        assert len(tcp_orders[0]) == 20

        world = World(SimConfig(requests_per_client=20, auth=False))
        world.run()
        sim_order = [(r.client_id, r.request_id)
                     for _, _, batch in world.committed[0] for r in batch]
        assert [rid for _, rid in sim_order] == [rid for _, rid
                                                 in tcp_orders[0]]
