"""The per-frame step shared by the simulator and the pipeline, and the
pipeline: one loop per replica around the single-threaded core.

:class:`Node` is the step: (2) hash and (3) verify, (4) decide
(``replica.on_envelope``), then for each outbound message (5) hash and (6)
sign or MAC. The pipeline (1) unmarshals each frame it takes from one
bounded inbox, to which every receive queue of the transport is rebound,
and (7) marshals and sends. The stages are accounting boundaries only:
StageMetrics, the stage table and its only CSV writer, records the thread
CPU time of each per message kind. The step reads the mode and keystore
from its replica; a driver supplies only effects.

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
by the loop, which waits on the inbox no longer than the next deadline;
the step skips an entry whose timer was stopped or started again. Such a
dead entry does not wait for its deadline: once the heap holds more than
twice the node's live timers plus ``_SHED_SLACK`` entries, ``shed`` drops
every dead one, so the heap stays in proportion to the live timers.
Backpressure is the bounded inbox: while the core is busy, producers block
on ``put``. The pipeline never drops a frame it took from the inbox; the
only exits are delivery to the core or a rejection counted in
``rejected`` (undecodable frame or failed authentication).
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
import time
from dataclasses import dataclass
from functools import cached_property

from . import crypto
from .tcpnet import merge_inbound
from .wire import WireError, decode, encode

_STAGES = ("unmarshal", "hash_rx", "verify", "decide",
           "hash_tx", "sign", "marshal")

_STOP = object()

# A pipeline's timer heap is shed once it holds more entries than twice its
# node's live timers plus this many.
_SHED_SLACK = 64


def shed(heap: list, live):
    """Keep only the entries of ``heap`` for which ``live(entry)`` holds,
    in place. Entries keep their keys, so where no two keys are equal the
    rest pop in the same order."""
    heap[:] = [entry for entry in heap if live(entry)]
    heapq.heapify(heap)


def _clock_overhead_ns() -> int:
    """Median cost of one thread-CPU clock read over 512 reads, for span
    correction.

    Every stage span pays roughly one full clock call of instrument
    overhead; subtracting it keeps sub-microsecond stages (a MAC compare
    is ~150 ns) from being swamped by the probe itself.
    """
    deltas = []
    prev = time.thread_time_ns()
    for _ in range(512):
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


class StageMetrics:
    """The stage table: per (stage, kind) counters, safe for concurrent
    appends, and the only writer of stage rows as CSV.

    Every recorded kind is an envelope's ``MessageKind``, so cells are keyed
    by it and named only when read, which keeps the enum name lookup off the
    per-message path.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._cells = {}

    def record(self, stage: str, kind, elapsed_ns: int):
        key = (stage, kind)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                self._cells[key] = [1, elapsed_ns]
            else:
                cell[0] += 1
                cell[1] += elapsed_ns

    def table(self):
        """Rows of (stage, kind name, count, total_ns, mean_ns), in stage
        order and then by kind name."""
        with self._lock:
            cells = [(stage, kind, *cell)
                     for (stage, kind), cell in self._cells.items()]
        cells.sort(key=lambda c: (_STAGES.index(c[0]), c[1].name))
        return [(stage, kind.name, count, total, total // count)
                for stage, kind, count, total in cells]

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("stage,kind,count,total_ns,mean_ns\n")
            for row in self.table():
                fh.write(",".join(str(v) for v in row) + "\n")

    def get(self, stage: str, kind) -> tuple:
        """(count, total_ns) of ``stage`` for ``kind``, a ``MessageKind``."""
        with self._lock:
            return tuple(self._cells.get((stage, kind), (0, 0)))


class Node:
    """One replica's per-frame step. A driver provides the ``replica``, whose
    mode and keystore the step uses, and its effects: ``on_commit(seq,
    batch)``, through which every commit reaches the driver in both the
    simulator and the pipeline, ``_send(dests, env)`` and ``_arm(key,
    delay, token)``, which schedules ``timeout(key, token)`` after ``delay``
    seconds. Each timer start gets a fresh token that replaces the key's
    earlier one, a stop drops it, and ``timeout`` runs the core's only for a
    live token. ``rejected`` counts the frames that failed the step's check;
    the core counts its own rejections in ``replica.counters["rejected"]``.

    The stage callables ``_hash_rx``, ``_verify``, ``_decide``, ``_hash_tx``
    and ``_sign`` are bound once per node: to the plain functions on first
    use, so they are the replica's as its driver left it by its first frame
    or timeout, or, in a driver that meters, to its wrappers
    (``_meter_stages``)."""

    _hash_rx = cached_property(lambda self: crypto.hash_incoming)
    _verify = cached_property(lambda self: crypto.verify_hashed)
    _decide = cached_property(lambda self: self.replica.on_envelope)
    _hash_tx = cached_property(lambda self: crypto.envelope_digest)
    _sign = cached_property(lambda self: crypto.authenticate)
    _live = cached_property(lambda self: {})  # key -> token of its live start
    _tokens = cached_property(lambda self: itertools.count())
    rejected = 0

    def _meter_stages(self, meter):
        """Bind each stage callable to ``meter(stage, get)``, a wrapper that
        takes the stage's function from ``get(self)`` on every call, so one
        replaced later (a span around it) is still the one run."""
        for stage in _STAGES[1:-1]:  # (un)marshal are the driver's
            attr = "_" + stage
            setattr(self, attr, meter(stage, getattr(Node, attr).func))

    def deliver(self, env):
        """hash_rx, verify and decide; an ``env`` that fails its check is
        counted in ``rejected`` and goes no further."""
        ks = self.replica.keystore
        if ks is not None and crypto.checked(env, ks):
            hashed = self._hash_rx(env, self.replica.config.mode, ks)
            if not self._verify(env, hashed, ks):
                self.rejected += 1
                return
        self._apply(self._decide(env))

    def is_live(self, key, token) -> bool:
        """Whether ``token`` is the live start of ``key``'s timer."""
        return self._live.get(key) == token

    def timeout(self, key, token):
        """Run the core's timeout for ``key`` if ``token`` is its live start."""
        if self.is_live(key, token):
            del self._live[key]
            self._apply(self.replica.on_timeout(key))

    def _apply(self, out):
        """Commits, sealed sends, then timers: the golden traces need it."""
        if self.on_commit is not None:
            for seq, batch in out.commits:
                self.on_commit(seq, batch)
        for dests, env in out.outbound:
            ks = self.replica.keystore
            if ks is not None and crypto.sealable(env, ks):
                d = self._hash_tx(env)
                env = env.with_auths(self._sign(
                    env, dests, self.replica.config.mode, ks, d))
            self._send(dests, env)
        live = self._live
        for key, delay in out.timer_starts:
            live[key] = token = next(self._tokens)
            self._arm(key, delay, token)
        for key in out.timer_stops:
            live.pop(key, None)


class Pipeline(Node):
    """Running handle; create via run_pipeline."""

    def __init__(self, config: PipelineConfig, transport, replica,
                 metrics=None, on_commit=None):
        self.config = config
        self.transport = transport
        self.replica = replica
        self.metrics = metrics if metrics is not None else StageMetrics()
        self.on_commit = on_commit
        self._clock_ovh = _clock_overhead_ns()
        self._inbox = merge_inbound(transport,
                                    queue.Queue(config.queue_capacity))
        self._heap = []  # (due, token, key)
        self._stopping = False
        self._meter_stages(self._metered)
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="pipeline")
        self._thread.start()

    def _metered(self, stage, get):
        """A stage callable that runs ``get(self)`` and records its thread
        CPU time under ``stage`` and the envelope's kind."""
        clock, rec = time.thread_time_ns, self._rec

        def run(*args):  # args[0] is the envelope
            fn, kind = get(self), args[0].kind  # outside the timed span
            t0 = clock()
            result = fn(*args)
            rec(stage, kind, t0, clock())
            return result
        return run

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

    def _arm(self, key, delay: float, token):
        heap = self._heap
        heapq.heappush(heap, (time.monotonic() + delay, token, key))
        if len(heap) > 2 * len(self._live) + _SHED_SLACK:
            shed(heap, lambda entry: self.is_live(entry[2], entry[1]))

    def _fire_due(self):
        heap = self._heap
        now = time.monotonic()
        while heap and heap[0][0] <= now:
            _, token, key = heapq.heappop(heap)
            self.timeout(key, token)

    # -- frames: unmarshal, the step, marshal and send -----------------------

    def _on_frame(self, frame):
        t0 = time.thread_time_ns()
        try:
            env = decode(frame)
        except WireError:
            self.rejected += 1
            return
        self._rec("unmarshal", env.kind, t0, time.thread_time_ns())
        self.deliver(env)

    def _send(self, dests, env):
        t0 = time.thread_time_ns()
        frame = encode(env)
        self._rec("marshal", env.kind, t0, time.thread_time_ns())
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
