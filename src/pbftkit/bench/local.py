"""In-process cluster and the closed-loop client driver.

One cluster hosts n replica pipelines over the loopback fabric in a single
process. Clients run real ClientSessions on their own threads: each keeps a
fixed number of requests outstanding, signs every request, and completes on
f+1 matching replies, so the measured path exercises the same codec, auth,
and pipeline code as a socket deployment without socket noise. The same
driver runs over a ``TcpFabric`` in ``pbftkit loadgen``.
"""

from __future__ import annotations

import queue
import statistics
import threading
import time
from dataclasses import dataclass, field

from .. import crypto
from ..client import ClientSession, RequestFailed
from ..pipeline import PipelineConfig, StageMetrics, run_pipeline
from ..replica import Replica, ReplicaConfig
from ..simnet import build_keystores
from ..tcpnet import LoopbackFabric, merge_inbound
from ..wire import MessageKind, WireError, decode, encode


@dataclass
class BenchConfig:
    mode: crypto.CryptoMode = crypto.CryptoMode.DOMAIN_OPTIMIZED
    n: int = 4
    f: int = 1
    value_size: int = 512
    clients: int = 4
    outstanding: int = 8  # concurrent requests per client
    batch_size: int = 8
    duration: float = 30.0
    warmup: float = 10.0
    output_dir: str = "bench-out"

    def __post_init__(self):
        if self.value_size < 1:
            raise ValueError("value size must be >= 1")
        if self.duration <= self.warmup:
            raise ValueError("duration must exceed warmup")


@dataclass
class RunReport:
    throughput: float = 0.0  # committed requests per second
    latency_mean: float = 0.0
    latency_median: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    cdf: list = field(default_factory=list)  # (latency_us, cum_fraction)
    goodput_gbps: float = 0.0
    stage_rows: list = field(default_factory=list)
    rejected: int = 0
    view_changes: int = 0
    pre_prepares: int = 0
    completed: int = 0
    failed: int = 0

    def write_csv(self, outdir):
        from pathlib import Path
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "summary.csv", "w") as fh:
            fh.write("throughput_ops,latency_mean_us,latency_median_us,"
                     "latency_p95_us,latency_p99_us,goodput_gbps,"
                     "completed,failed,rejected,view_changes\n")
            fh.write(f"{self.throughput:.3f},{self.latency_mean * 1e6:.1f},"
                     f"{self.latency_median * 1e6:.1f},"
                     f"{self.latency_p95 * 1e6:.1f},"
                     f"{self.latency_p99 * 1e6:.1f},"
                     f"{self.goodput_gbps:.6f},{self.completed},"
                     f"{self.failed},{self.rejected},{self.view_changes}\n")
        with open(outdir / "latency_cdf.csv", "w") as fh:
            fh.write("latency_us,cumulative_fraction\n")
            for us, frac in self.cdf:
                fh.write(f"{us:.1f},{frac:.6f}\n")
        with open(outdir / "stages.csv", "w") as fh:
            fh.write("stage,kind,count,total_ns,mean_ns\n")
            for row in self.stage_rows:
                fh.write(",".join(str(v) for v in row) + "\n")

    def add_latencies(self, lat: list, window: float, value_size: int):
        """Fill the throughput and latency fields from the latencies of the
        requests completed in a measured window of ``window`` seconds."""
        if not lat:
            return
        lat.sort()
        self.throughput = len(lat) / max(window, 1e-9)
        self.latency_mean = statistics.fmean(lat)
        self.latency_median = percentile(lat, 0.50)
        self.latency_p95 = percentile(lat, 0.95)
        self.latency_p99 = percentile(lat, 0.99)
        self.cdf = build_cdf(lat)
        self.goodput_gbps = self.throughput * value_size * 8 / 1e9


def percentile(sorted_vals, frac):
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(frac * len(sorted_vals)))
    return sorted_vals[idx]


def build_cdf(sorted_latencies, points: int = 200):
    """Monotone CDF samples ending at fraction 1.0."""
    total = len(sorted_latencies)
    if total == 0:
        return []
    out = []
    step = max(1, total // points)
    for i in range(step - 1, total, step):
        out.append((sorted_latencies[i] * 1e6, (i + 1) / total))
    if out[-1][1] < 1.0:
        out.append((sorted_latencies[-1] * 1e6, 1.0))
    return out


class LocalCluster:
    """n replica pipelines plus client ports on one loopback hub."""

    def __init__(self, n: int, f: int, mode: crypto.CryptoMode,
                 num_clients: int = 1, batch_size: int = 1,
                 batch_timeout: float = 0.002, checkpoint_interval: int = 500,
                 log_capacity: int = 10_000, view_change_timeout: float = 5.0,
                 auth: bool = True, pipeline_config: PipelineConfig = None):
        self.n, self.f, self.mode = n, f, mode
        self.client_ids = list(range(n, n + num_clients))
        self.hub = LoopbackFabric(list(range(n)) + self.client_ids)
        self.keystores = (build_keystores(n, self.client_ids)
                          if auth else {i: None for i in
                                        range(n + num_clients)})
        self.metrics = {}
        self.pipelines = {}
        self.replicas = {}
        self.commit_counts = {i: 0 for i in range(n)}
        self._commit_lock = threading.Lock()
        for i in range(n):
            cfg = ReplicaConfig(n=n, f=f, self_id=i, mode=mode,
                                batch_size=batch_size,
                                batch_timeout=batch_timeout,
                                checkpoint_interval=checkpoint_interval,
                                log_capacity=log_capacity,
                                view_change_timeout=view_change_timeout)
            replica = Replica(cfg, keystore=self.keystores[i])
            metrics = StageMetrics()
            pconf = pipeline_config or PipelineConfig()
            pipe = run_pipeline(pconf, self.hub.port(i), replica, mode=mode,
                                keystore=self.keystores[i], metrics=metrics,
                                on_commit=self._make_commit_cb(i))
            self.metrics[i] = metrics
            self.pipelines[i] = pipe
            self.replicas[i] = replica

    def _make_commit_cb(self, node):
        def cb(seq, batch):
            with self._commit_lock:
                self.commit_counts[node] += len(batch)
        return cb

    def client_port(self, cid: int):
        return self.hub.port(cid)

    def stop(self):
        for pipe in self.pipelines.values():
            pipe.stop()
        self.hub.close()

    def view_changes(self) -> int:
        """View changes the busiest replica started (one per new view)."""
        return max(r.counters["view_changes"] for r in self.replicas.values())

    def pre_prepare_count(self) -> int:
        total = 0
        for m in self.metrics.values():
            count, _ = m.get("decide", MessageKind.PRE_PREPARE)
            total += count
        return total


class ClientDriver:
    """One thread keeping ``outstanding`` requests of a session in flight
    over ``port``, any transport with ``receive_queues`` and ``send``."""

    def __init__(self, session: ClientSession, port, value_size: int,
                 outstanding: int = 1, request_timeout: float = 5.0):
        self.session = session
        self.port = port
        self.value_size = value_size
        self.outstanding = outstanding
        self.request_timeout = request_timeout
        self._inbox = merge_inbound(port)
        self.latencies = []
        self.failed = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._inbox.put(None)
        self._thread.join(timeout=10.0)

    def _send(self, env, dests):
        frame = encode(env)
        for d in dests:
            self.port.send(d, frame)

    def _run(self):
        # deadline per in-flight request id, for retransmission
        deadlines = {}
        now = time.monotonic
        while not self._stop.is_set():
            while (len(self.session.pending) < self.outstanding
                   and not self._stop.is_set()):
                req, env, leader = self.session.make_request(
                    bytes(self.value_size), now())
                deadlines[req.request_id] = now() + self.request_timeout
                self._send(env, (leader,))
            try:
                frame = self._inbox.get(timeout=0.05)
            except queue.Empty:
                frame = None
            if frame is not None:
                try:
                    done = self.session.on_reply(decode(frame), now())
                except WireError:
                    done = None
                if done is not None:
                    deadlines.pop(done.request_id, None)
                    self.latencies.append(done.latency)
            t = now()
            for rid, due in list(deadlines.items()):
                if t >= due:
                    if rid not in self.session.pending:
                        del deadlines[rid]
                        continue
                    try:
                        dests, env = self.session.on_timeout(rid)
                        deadlines[rid] = t + self.request_timeout
                        self._send(env, dests)
                    except RequestFailed:
                        del deadlines[rid]
                        self.failed += 1


def run_drivers(drivers, warmup: float, duration: float) -> tuple:
    """Run the drivers for ``duration`` seconds and stop them; returns the
    latencies of the requests completed after ``warmup`` and the length of
    that measured window in seconds."""
    for d in drivers:
        d.start()
    time.sleep(warmup)
    # Snapshot at window start; measure only what completes inside it.
    start_counts = [len(d.latencies) for d in drivers]
    t0 = time.monotonic()
    time.sleep(max(0.0, duration - warmup))
    window = time.monotonic() - t0
    lat = []
    for d, skip in zip(drivers, start_counts):
        lat.extend(d.latencies[skip:])
    for d in drivers:
        d.stop()
    return lat, window


def run_benchmark(config: BenchConfig,
                  pipeline_config: PipelineConfig = None,
                  auth: bool = True) -> RunReport:
    """Closed-loop measured run on a local cluster; returns the report."""
    cluster = LocalCluster(config.n, config.f, config.mode,
                           num_clients=config.clients,
                           batch_size=config.batch_size,
                           auth=auth, pipeline_config=pipeline_config)
    drivers = [ClientDriver(ClientSession(cid, config.n, config.f,
                                          config.mode,
                                          keystore=cluster.keystores[cid]),
                            cluster.client_port(cid), config.value_size,
                            outstanding=config.outstanding)
               for cid in cluster.client_ids]
    try:
        lat, window = run_drivers(drivers, config.warmup, config.duration)
        report = RunReport(
            completed=len(lat), failed=sum(d.failed for d in drivers),
            view_changes=cluster.view_changes(),
            pre_prepares=cluster.pre_prepare_count(),
            rejected=sum(p.rejected for p in cluster.pipelines.values()),
            stage_rows=cluster.metrics[0].table())
    finally:
        cluster.stop()
    report.add_latencies(lat, window, config.value_size)
    return report
