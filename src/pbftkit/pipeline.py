"""One-loop message pipeline around the single-threaded replica core.

Each replica runs one thread. It reads one bounded inbox, to which every
receive queue of the transport is rebound, and makes the seven stage calls
in order for each frame: (1) unmarshal, (2) hash and (3) verify, (4) decide
(``replica.on_envelope``), then for each outbound message (5) hash, (6) sign
or MAC and (7) marshal and send. The stages are accounting
boundaries only: StageMetrics records the thread CPU time of each.

The authentication work is ``crypto``'s; the pipeline only times it.
Inbound, the hash stage is ``crypto.hash_incoming`` (the envelope digest
and, for MAC links, the expected tag) and the verify stage
``crypto.verify_hashed``, which only compares tags or checks a signature.
That split is what makes MAC verification almost free while hashing stays
on the bill. A REQUEST skips both: its client signature is checked by the
core, so the leader's one RSA verify per request falls in ``decide``.
Outbound, a broadcast is hashed, authenticated once (one signature, or one
authenticator holding a tag per recipient) and encoded once, and the same
frame goes to every recipient. A PK REPLY comes out of the core already
signed, one signature per committed batch, and so does a VIEW_CHANGE,
signed once in ``decide``; both are only marshalled.

Per-origin FIFO order holds by construction: a transport puts one origin's
frames on the inbox in arrival order and the loop handles one item at a
time. Timers sit on a heap owned by the loop, which waits on the inbox no
longer than the next deadline. Backpressure is the bounded inbox: while the
core is busy, producers block on ``put``. The pipeline never drops a frame
it took from the inbox; the only exits are delivery to the core or a
counted rejection (undecodable frame or failed authentication).
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


class _Timers:
    """Timer calls from any thread: each posts a control item to the loop."""

    def __init__(self, inbox):
        self._inbox = inbox

    def start(self, key, delay: float):
        self._inbox.put((key, time.monotonic() + delay))

    def stop(self, key):
        self._inbox.put((key, None))


class Pipeline:
    """Running handle; create via run_pipeline."""

    def __init__(self, config: PipelineConfig, transport, replica,
                 mode: crypto.CryptoMode, keystore=None, metrics=None,
                 on_commit=None):
        self.config = config
        self.transport = transport
        self.replica = replica
        self.mode = mode
        self.keystore = keystore
        self.metrics = metrics if metrics is not None else StageMetrics()
        self.on_commit = on_commit
        self.rejected = 0
        self._clock_ovh = _clock_overhead_ns()
        self._inbox = merge_inbound(transport,
                                    queue.Queue(config.queue_capacity))
        self.timers = _Timers(self._inbox)
        self._heap = []  # (due, generation, key); stale entries are skipped
        self._gens = {}  # key -> generation of its live entry
        self._generation = 0
        self._stopping = False
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="pipeline")
        self._thread.start()

    def _rec(self, stage, kind, t0, t1):
        self.metrics.record(stage, kind, max(0, t1 - t0 - self._clock_ovh))

    def _loop(self):
        inbox, heap = self._inbox, self._heap
        while not self._stopping:
            timeout = None
            if heap:
                timeout = max(0.0, heap[0][0] - time.monotonic())
            try:
                item = inbox.get(timeout=timeout)
            except queue.Empty:
                item = None
            if item is _STOP:
                return
            if type(item) is tuple:
                key, due = item
                if due is None:
                    self._gens.pop(key, None)
                else:
                    self._arm(key, due)
            elif item is not None:
                self._on_frame(item)
            self._fire_due()

    # -- timers --------------------------------------------------------------

    def _arm(self, key, due: float):
        self._generation += 1
        self._gens[key] = self._generation
        heapq.heappush(self._heap, (due, self._generation, key))

    def _fire_due(self):
        heap, gens = self._heap, self._gens
        now = time.monotonic()
        while heap and heap[0][0] <= now:
            _, gen, key = heapq.heappop(heap)
            if gens.get(key) == gen:
                del gens[key]
                self._apply(self.replica.on_timeout(key))

    # -- inbound: unmarshal, hash, verify, decide ----------------------------

    def _on_frame(self, frame):
        clock = time.thread_time_ns
        t0 = clock()
        try:
            env = decode(frame)
        except WireError:
            self.rejected += 1
            return
        kind = env.kind
        self._rec("unmarshal", kind, t0, clock())
        ks = self.keystore
        if crypto.checked(env, ks):
            t0 = clock()
            hashed = crypto.hash_incoming(env, self.mode, ks)
            t1 = clock()
            ok = crypto.verify_hashed(env, hashed, ks)
            t2 = clock()
            self._rec("hash_rx", kind, t0, t1)
            self._rec("verify", kind, t1, t2)
            if not ok:
                self.rejected += 1
                return
        t0 = clock()
        out = self.replica.on_envelope(env)
        self._rec("decide", kind, t0, clock())
        self._apply(out)

    def _apply(self, out):
        now = time.monotonic()
        for key, delay in out.timer_starts:
            self._arm(key, now + delay)
        for key in out.timer_stops:
            self._gens.pop(key, None)
        if self.on_commit is not None:
            for seq, batch in out.commits:
                self.on_commit(seq, batch)
        for dests, env in out.outbound:
            self._send(dests, env)

    # -- outbound: hash, sign or MAC, marshal, send --------------------------

    def _send(self, dests, env):
        clock = time.thread_time_ns
        ks, kind = self.keystore, env.kind
        if crypto.sealable(env, ks):
            t0 = clock()
            d = crypto.envelope_digest(env)
            t1 = clock()
            env = env.with_auths(crypto.authenticate(env, dests, self.mode,
                                                     ks, d))
            t2 = clock()
            self._rec("hash_tx", kind, t0, t1)
            self._rec("sign", kind, t1, t2)
        t0 = clock()
        frame = encode(env)
        self._rec("marshal", kind, t0, clock())
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


def run_pipeline(config: PipelineConfig, transport, replica,
                 mode=crypto.CryptoMode.MAC_INTER_NODE, keystore=None,
                 metrics=None, on_commit=None) -> Pipeline:
    """Start the replica's loop; returns the running handle.

    ``transport`` must expose ``receive_queues() -> {peer id: Queue}`` and
    ``send(peer id, frame bytes)``. Every entry of the receive-queue dict is
    rebound to the loop's inbox (``tcpnet.merge_inbound``), so the transport
    must look the queue up there for each frame it delivers.
    """
    return Pipeline(config, transport, replica, mode, keystore,
                    metrics=metrics, on_commit=on_commit)
