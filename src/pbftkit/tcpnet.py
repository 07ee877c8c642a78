"""Real TCP fabric and an in-process loopback fabric, one interface.

Both expose the two methods the pipeline needs: ``receive_queues()``
returning one inbound frame queue per peer, and ``send(peer, frame)``.
A consumer may rebind entries of that dict (``merge_inbound`` points them
all at one inbox); both fabrics look the queue up for every frame.
Loss is acceptable by design; the protocol's own retransmission (client
resend, vote re-collection) covers it, so a down connection drops frames
rather than blocking the sender.

TCP wiring: every node listens; for a node pair the higher id dials the
lower, and clients dial every node, so each pair shares exactly one
socket. A dialer identifies itself with a 2-byte hello, which it must send
within HELLO_TIMEOUT. Reconnects retry on a fixed 200 ms backoff. One
reader and one writer thread per socket.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time

from .wire import FrameBuffer, WireError

RECONNECT_BACKOFF = 0.2
# How long an accepted socket may take to send its hello before it is
# dropped; without a bound one silent connector stalls every later accept.
HELLO_TIMEOUT = 3.0


def merge_inbound(transport, inbox=None):
    """Rebind every receive queue of ``transport`` to one inbox (a new
    unbounded queue unless given) and return it, so that one consumer
    blocks on a single read point."""
    inbox = queue.Queue() if inbox is None else inbox
    rx = transport.receive_queues()
    for peer in rx:
        rx[peer] = inbox
    return inbox


def _recv_hello(sock) -> bytes:
    """The 2-byte hello, which may arrive split across segments; fewer
    bytes if the peer closes first. Raises OSError (``socket.timeout``) if
    it is not complete within HELLO_TIMEOUT."""
    deadline = time.monotonic() + HELLO_TIMEOUT
    hello = b""
    while len(hello) < 2:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise socket.timeout("hello timed out")
        sock.settimeout(remaining)
        chunk = sock.recv(2 - len(hello))
        if not chunk:
            break
        hello += chunk
    sock.settimeout(None)
    return hello


class _Conn:
    """One live socket: a writer queue plus reader/writer threads."""

    def __init__(self, sock, peer_id, fabric):
        self.sock = sock
        self.peer_id = peer_id
        self.fabric = fabric
        self.out = queue.Queue(fabric.queue_capacity)
        self.dead = threading.Event()
        for target, name in ((self._read_loop, "rd"), (self._write_loop, "wr")):
            t = threading.Thread(target=target, daemon=True,
                                 name=f"tcp-{name}-{peer_id}")
            t.start()

    def _read_loop(self):
        buf = FrameBuffer()
        # The queue is looked up per frame: a consumer such as the pipeline
        # may rebind the fabric's receive queues after this socket connects.
        queues = self.fabric.receive_queues()
        try:
            while not self.dead.is_set():
                data = self.sock.recv(65536)
                if not data:
                    break
                for frame in buf.feed(data):
                    rx = queues.get(self.peer_id)
                    if rx is not None:
                        rx.put(frame)
        except (OSError, WireError):
            pass
        self.close()

    def _write_loop(self):
        try:
            while True:
                frame = self.out.get()
                if frame is None or self.dead.is_set():
                    break
                self.sock.sendall(frame)
        except OSError:
            pass
        self.close()

    def enqueue(self, frame: bytes) -> bool:
        if self.dead.is_set():
            return False
        try:
            self.out.put_nowait(frame)
            return True
        except queue.Full:
            return False  # bounded outage queue; drop beyond capacity

    def close(self):
        if not self.dead.is_set():
            self.dead.set()
            self.out.put(None)
            try:
                self.sock.close()
            except OSError:
                pass
            self.fabric._conn_closed(self.peer_id, self)


class TcpFabric:
    """Length-prefixed TCP message fabric for one principal.

    ``node_addrs`` maps node id to (host, port). ``client_ids`` lists the
    client principals a node should accept inbound frames from.
    """

    def __init__(self, self_id: int, node_addrs: dict, client_ids=(),
                 queue_capacity: int = 4096):
        self.self_id = self_id
        self.node_addrs = dict(node_addrs)
        self.queue_capacity = queue_capacity
        self.is_node = self_id in self.node_addrs
        self._stopping = threading.Event()
        peers = [i for i in self.node_addrs if i != self_id]
        if self.is_node:
            peers += [c for c in client_ids if c != self_id]
        self._rx = {p: queue.Queue(queue_capacity) for p in peers}
        self._conns = {}
        self._lock = threading.Lock()
        self._listener = None
        if self.is_node:
            host, port = self.node_addrs[self_id]
            srv = socket.create_server((host, port))
            self._listener = srv
            self.bound_port = srv.getsockname()[1]
            threading.Thread(target=self._accept_loop, daemon=True,
                             name=f"tcp-accept-{self_id}").start()
        # The higher id dials; clients dial every node.
        for dest in self.node_addrs:
            if dest != self_id and (not self.is_node or dest < self_id):
                threading.Thread(target=self._dial_loop, args=(dest,),
                                 daemon=True,
                                 name=f"tcp-dial-{self_id}-{dest}").start()

    def receive_queues(self) -> dict:
        return self._rx

    def send(self, dest: int, frame: bytes):
        with self._lock:
            conn = self._conns.get(dest)
        if conn is not None:
            conn.enqueue(frame)

    def connected(self, dest: int) -> bool:
        with self._lock:
            conn = self._conns.get(dest)
        return conn is not None and not conn.dead.is_set()

    def wait_connected(self, dests, timeout: float = 10.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(self.connected(d) for d in dests):
                return True
            time.sleep(0.01)
        return False

    def close(self):
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            conn.close()

    # -- internal ----------------------------------------------------------

    def _register(self, peer_id, sock) -> bool:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            if peer_id in self._conns or self._stopping.is_set():
                return False
            self._conns[peer_id] = _Conn(sock, peer_id, self)
        return True

    def _conn_closed(self, peer_id, conn):
        with self._lock:
            if self._conns.get(peer_id) is conn:
                del self._conns[peer_id]

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            try:
                hello = _recv_hello(sock)
            except OSError:  # includes the hello timeout
                sock.close()
                continue
            if len(hello) != 2:
                sock.close()
                continue
            (peer_id,) = struct.unpack("<H", hello)
            try:
                if not self._register(peer_id, sock):
                    sock.close()
            except OSError:
                sock.close()

    def _dial_loop(self, dest: int):
        while not self._stopping.is_set():
            if self.connected(dest):
                time.sleep(RECONNECT_BACKOFF)
                continue
            try:
                sock = socket.create_connection(self.node_addrs[dest],
                                                timeout=2.0)
                sock.sendall(struct.pack("<H", self.self_id))
                # The connect timeout would otherwise stay on the socket and
                # end an idle connection after 2 s of silence.
                sock.settimeout(None)
                if not self._register(dest, sock):
                    sock.close()
            except OSError:
                time.sleep(RECONNECT_BACKOFF)


class LoopbackFabric:
    """In-process fabric: a hub of queues, no sockets, no loss.

    Build one hub, then take one ``port(id)`` per principal. Useful for
    single-machine benchmarks where socket overhead would drown the
    signal, and for tests.
    """

    def __init__(self, ids, queue_capacity: int = 4096):
        self.ids = tuple(ids)
        self._ports = {i: _LoopbackPort(i, self, queue_capacity)
                       for i in self.ids}

    def port(self, pid: int) -> "_LoopbackPort":
        return self._ports[pid]

    def deliver(self, src: int, dest: int, frame: bytes):
        port = self._ports.get(dest)
        if port is None or port.closed.is_set():
            return
        rx = port._rx.get(src)
        if rx is not None:
            try:
                rx.put(frame, timeout=5.0)
            except queue.Full:
                pass

    def close(self):
        for port in self._ports.values():
            port.closed.set()


class _LoopbackPort:
    def __init__(self, pid: int, hub: LoopbackFabric, cap: int):
        self.pid = pid
        self.hub = hub
        self.closed = threading.Event()
        self._rx = {p: queue.Queue(cap) for p in hub.ids if p != pid}

    def receive_queues(self) -> dict:
        return self._rx

    def send(self, dest: int, frame: bytes):
        if not self.closed.is_set():
            self.hub.deliver(self.pid, dest, frame)
