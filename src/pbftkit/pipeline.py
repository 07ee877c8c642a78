"""The per-frame step shared by the simulator and the pipeline, and the
pipeline: one loop per replica around the single-threaded core.

:class:`Node` is the step: (2) hash and (3) verify, (4) decide
(``replica.on_envelope``), then for each outbound message (5) hash and (6)
sign or MAC. The pipeline (1) unmarshals each frame it takes from one
bounded inbox, to which every receive queue of the transport is rebound,
and (7) marshals and sends. The stages are accounting boundaries only:
StageMetrics records the thread CPU time of each. The step reads the mode
and keystore from its replica; a driver supplies only effects.

The authentication work is ``crypto``'s; the step only times it. Inbound,
the hash stage is ``crypto.hash_incoming`` (the envelope digest and, for
MAC links, the expected tag) and the verify stage ``crypto.verify_hashed``,
which only compares tags or checks a signature. That split is what makes
MAC verification almost free while hashing stays on the bill. A REQUEST
skips both: its client signature is checked by the core, so the leader's
one RSA verify per request falls in ``decide``. Outbound, a broadcast is
hashed, authenticated once (one signature, or one authenticator holding a
tag per recipient) and encoded once, and the same frame goes to every
recipient. A PK REPLY comes out of the core already signed, one signature
per committed batch, and so does a VIEW_CHANGE, signed once in ``decide``;
both are only marshalled.

Per-origin FIFO order holds by construction: a transport puts one origin's
frames on the inbox in arrival order and the loop handles one frame at a
time. The inbox holds frames only; the core's timers sit on a heap owned
by the loop, which waits on the inbox no longer than the next deadline.
Backpressure is the bounded inbox: while the core is busy, producers block
on ``put``. The pipeline never drops a frame it took from the inbox; the
only exits are delivery to the core or a counted rejection (undecodable
frame or failed authentication).
"""

from __future__ import annotations

import heapq
import queue
import threading
import time
from dataclasses import dataclass

from . import crypto
from .tcpnet import merge_inbound
from .wire import WireError, decode, encode

_STAGES = ("unmarshal", "hash_rx", "verify", "decide",
           "hash_tx", "sign", "marshal")

_STOP = object()


def _clock_overhead_ns(samples: int = 512) -> int:
    """Median cost of one thread-CPU clock read, for span correction.

    Every stage span pays roughly one full clock call of instrument
    overhead; subtracting it keeps sub-microsecond stages (a MAC compare
    is ~150 ns) from being swamped by the probe itself.
    """
    deltas = []
    prev = time.thread_time_ns()
    for _ in range(samples):
        now = time.thread_time_ns()
        deltas.append(now - prev)
        prev = now
    deltas.sort()
    return deltas[len(deltas) // 2]


@dataclass
class PipelineConfig:
    queue_capacity: int = 1024  # frames the inbox holds before put blocks

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be >= 1")


def _kind_name(kind) -> str:
    return getattr(kind, "name", None) or str(kind)


class StageMetrics:
    """Per (stage, kind) counters; safe for concurrent appends.

    Cells are keyed by the kind as recorded and named only when read, which
    keeps the enum name lookup off the per-message path.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._cells = {}

    def record(self, stage: str, kind, elapsed_ns: int, count: int = 1):
        key = (stage, kind)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                self._cells[key] = [count, elapsed_ns]
            else:
                cell[0] += count
                cell[1] += elapsed_ns

    def _named(self) -> dict:
        """{(stage, kind name): [count, total_ns]}"""
        with self._lock:
            cells = [(key, tuple(cell)) for key, cell in self._cells.items()]
        named = {}
        for (stage, kind), (count, total) in cells:
            cell = named.setdefault((stage, _kind_name(kind)), [0, 0])
            cell[0] += count
            cell[1] += total
        return named

    def table(self):
        """Rows of (stage, kind, count, total_ns, mean_ns)."""
        cells = self._named()
        rows = []
        for stage in _STAGES:
            for (s, kind), (count, total) in sorted(cells.items()):
                if s == stage:
                    rows.append((s, kind, count, total,
                                 total // count if count else 0))
        return rows

    def write_csv(self, path):
        write_stage_rows(path, self.table())

    def get(self, stage: str, kind) -> tuple:
        return tuple(self._named().get((stage, _kind_name(kind)), (0, 0)))


def write_stage_rows(path, rows):
    """Write ``StageMetrics.table()`` rows as CSV."""
    with open(path, "w") as fh:
        fh.write("stage,kind,count,total_ns,mean_ns\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class Node:
    """One replica's per-frame step. A driver provides the ``replica``, whose
    mode and keystore the step uses, and its effects: ``on_commit``,
    ``_send(dests, env)``, ``_arm(key, delay)`` and ``_disarm(key)``; it may
    meter each stage call in ``_meter``."""

    def deliver(self, env) -> bool:
        """hash_rx, verify and decide; False if ``env`` fails its check."""
        ks, kind = self.replica.keystore, env.kind
        if ks is not None and crypto.checked(env, ks):
            hashed = self._meter("hash_rx", kind, crypto.hash_incoming, env,
                                 self.replica.config.mode, ks)
            if not self._meter("verify", kind, crypto.verify_hashed, env,
                               hashed, ks):
                return False
        self._apply(self._meter("decide", kind, self.replica.on_envelope, env))
        return True

    def timeout(self, key):
        self._apply(self.replica.on_timeout(key))

    def _apply(self, out):
        """Commits, sealed sends, then timers: the golden traces need it."""
        if self.on_commit is not None:
            for seq, batch in out.commits:
                self.on_commit(seq, batch)
        for dests, env in out.outbound:
            ks, kind = self.replica.keystore, env.kind
            if ks is not None and crypto.sealable(env, ks):
                d = self._meter("hash_tx", kind, crypto.envelope_digest, env)
                env = env.with_auths(self._meter(
                    "sign", kind, crypto.authenticate, env, dests,
                    self.replica.config.mode, ks, d))
            self._send(dests, env)
        for key, delay in out.timer_starts:
            self._arm(key, delay)
        for key in out.timer_stops:
            self._disarm(key)

    def _meter(self, stage, kind, fn, *args):
        return fn(*args)


class Pipeline(Node):
    """Running handle; create via run_pipeline."""

    def __init__(self, config: PipelineConfig, transport, replica,
                 metrics=None, on_commit=None):
        self.config = config
        self.transport = transport
        self.replica = replica
        self.metrics = metrics if metrics is not None else StageMetrics()
        self.on_commit = on_commit
        self.rejected = 0
        self._clock_ovh = _clock_overhead_ns()
        self._inbox = merge_inbound(transport,
                                    queue.Queue(config.queue_capacity))
        self._heap = []  # (due, generation, key); stale entries are skipped
        self._gens = {}  # key -> generation of its live entry
        self._generation = 0
        self._stopping = False
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="pipeline")
        self._thread.start()

    def _meter(self, stage, kind, fn, *args):
        clock = time.thread_time_ns
        t0 = clock()
        result = fn(*args)
        self._rec(stage, kind, t0, clock())
        return result

    def _rec(self, stage, kind, t0, t1):
        self.metrics.record(stage, kind, max(0, t1 - t0 - self._clock_ovh))

    def _loop(self):
        inbox, heap = self._inbox, self._heap
        while not self._stopping:
            timeout = None
            if heap:
                timeout = max(0.0, heap[0][0] - time.monotonic())
            try:
                frame = inbox.get(timeout=timeout)
            except queue.Empty:
                frame = None
            if frame is _STOP:
                return
            if frame is not None:
                self._on_frame(frame)
            self._fire_due()

    # -- timers --------------------------------------------------------------

    def _arm(self, key, delay: float):
        self._generation += 1
        self._gens[key] = self._generation
        heapq.heappush(self._heap, (time.monotonic() + delay,
                                    self._generation, key))

    def _disarm(self, key):
        self._gens.pop(key, None)

    def _fire_due(self):
        heap, gens = self._heap, self._gens
        now = time.monotonic()
        while heap and heap[0][0] <= now:
            _, gen, key = heapq.heappop(heap)
            if gens.get(key) == gen:
                del gens[key]
                self.timeout(key)

    # -- frames: unmarshal, the step, marshal and send -----------------------

    def _on_frame(self, frame):
        t0 = time.thread_time_ns()
        try:
            env = decode(frame)
        except WireError:
            self.rejected += 1
            return
        self._rec("unmarshal", env.kind, t0, time.thread_time_ns())
        if not self.deliver(env):
            self.rejected += 1

    def _send(self, dests, env):
        frame = self._meter("marshal", env.kind, encode, env)
        send = self.transport.send
        for dest in dests:
            send(dest, frame)

    # -- lifecycle -----------------------------------------------------------

    def stop(self):
        if self._stopping:
            return
        self._stopping = True
        # A live loop frees a slot as soon as it takes its next item and
        # sees the flag; the timeout covers a loop that died on an error.
        try:
            self._inbox.put(_STOP, timeout=5.0)
        except queue.Full:
            pass
        self._thread.join(timeout=5.0)


def run_pipeline(config: PipelineConfig, transport, replica, mode=None,
                 keystore=None, metrics=None, on_commit=None) -> Pipeline:
    """Start the replica's loop; returns the running handle.

    The loop checks and seals by the replica's mode and keystore; a
    ``mode`` or ``keystore`` given here must be the replica's (ValueError).

    ``transport`` must expose ``receive_queues() -> {peer id: Queue}`` and
    ``send(peer id, frame bytes)``. Every entry of the receive-queue dict is
    rebound to the loop's inbox (``tcpnet.merge_inbound``), so the transport
    must look the queue up there for each frame it delivers.
    """
    if ((mode is not None and mode != replica.config.mode)
            or (keystore is not None and keystore is not replica.keystore)):
        raise ValueError("a given mode or keystore must be the replica's")
    return Pipeline(config, transport, replica, metrics=metrics,
                    on_commit=on_commit)
