"""In-process cluster and the closed-loop client driver.

One cluster hosts n replica pipelines over the loopback fabric in a single
process. One closed loop on the calling thread drives every client's
ClientSession: each keeps a fixed number of requests outstanding, signs
every request, and completes on f+1 matching replies, so the measured path
exercises the same codec, auth, and pipeline code as a socket deployment
without socket noise. The same loop runs over ``TcpFabric`` ports in
``pbftkit loadgen``.
"""

from __future__ import annotations

import math
import queue
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .. import crypto
from ..client import ClientSession, RequestFailed
from ..pipeline import PipelineConfig, run_pipeline
from ..replica import Replica, ReplicaConfig
from ..simnet import build_keystores
from ..tcpnet import LoopbackFabric, merge_inbound
from ..wire import ReplyBody, WireError, decode, encode


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
    completed: int = 0
    failed: int = 0

    def write_csv(self, outdir):
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
    """Nearest rank: the smallest value with at least ``frac`` of the
    values at or below it."""
    if not sorted_vals:
        return 0.0
    n = len(sorted_vals)
    return sorted_vals[min(n - 1, max(0, math.ceil(frac * n) - 1))]


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
                 num_clients: int = 1, batch_size: int = 1):
        self.n, self.f, self.mode = n, f, mode
        self.client_ids = list(range(n, n + num_clients))
        self.hub = LoopbackFabric(list(range(n)) + self.client_ids)
        self.keystores = build_keystores(n, self.client_ids)
        self.pipelines = {}
        for i in range(n):
            cfg = ReplicaConfig(n=n, f=f, self_id=i, mode=mode,
                                batch_size=batch_size, batch_timeout=0.002,
                                view_change_timeout=5.0)
            self.pipelines[i] = run_pipeline(
                PipelineConfig(), self.hub.port(i),
                Replica(cfg, keystore=self.keystores[i]))

    def stop(self):
        for pipe in self.pipelines.values():
            pipe.stop()
        self.hub.close()

    def view_changes(self) -> int:
        """View changes the busiest replica started (one per new view)."""
        return max(p.replica.counters["view_changes"]
                   for p in self.pipelines.values())


@dataclass
class LoadClient:
    """One client of the load loop: its session, the port it sends on (any
    transport with ``receive_queues`` and ``send``) and its failed count."""
    session: ClientSession
    port: object
    failed: int = 0


def run_clients(clients, value_size: int, outstanding: int, warmup: float,
                duration: float, request_timeout: float = 5.0) -> tuple:
    """Closed loop on the calling thread for ``duration`` seconds: keep
    ``outstanding`` requests of every client in flight, and send a request
    to every replica again each ``request_timeout`` it waits for a reply
    quorum. Returns the latencies of the requests completed after
    ``warmup`` and the length of that measured window in seconds."""
    inbox = queue.Queue()
    by_id = {}
    for c in clients:
        merge_inbound(c.port, inbox)
        by_id[c.session.client_id] = c
    payload = bytes(value_size)
    clock = time.monotonic
    start = clock()
    measured_from, end = start + warmup, start + duration
    lat = []
    while (now := clock()) < end:
        for c in clients:
            while len(c.session.pending) < outstanding:
                _, env, leader = c.session.make_request(payload, clock())
                c.port.send(leader, encode(env))
        try:
            env = decode(inbox.get(timeout=min(0.05, end - now)))
            owner = by_id.get(ReplyBody.decode(env.payload).client_id)
        except (queue.Empty, WireError):
            owner = None
        now = clock()
        if owner is not None:
            done = owner.session.on_reply(env, now)
            if done is not None and now >= measured_from:
                lat.append(done.latency)
        for c in clients:
            for rid, pend in list(c.session.pending.items()):
                due = pend.sent_at + (pend.retransmits + 1) * request_timeout
                if now < due:
                    continue
                try:
                    dests, env = c.session.on_timeout(rid)
                except RequestFailed:
                    c.failed += 1
                    continue
                frame = encode(env)
                for d in dests:
                    c.port.send(d, frame)
    return lat, clock() - measured_from


def run_benchmark(config: BenchConfig) -> RunReport:
    """Closed-loop measured run on a local cluster; returns the report."""
    cluster = LocalCluster(config.n, config.f, config.mode,
                           num_clients=config.clients,
                           batch_size=config.batch_size)
    clients = [LoadClient(ClientSession(cid, config.n, config.f, config.mode,
                                        keystore=cluster.keystores[cid]),
                          cluster.hub.port(cid))
               for cid in cluster.client_ids]
    try:
        lat, window = run_clients(clients, config.value_size,
                                  config.outstanding, config.warmup,
                                  config.duration)
        report = RunReport(
            completed=len(lat), failed=sum(c.failed for c in clients),
            view_changes=cluster.view_changes(),
            rejected=sum(p.rejected for p in cluster.pipelines.values()),
            stage_rows=cluster.pipelines[0].metrics.table())
    finally:
        cluster.stop()
    report.add_latencies(lat, window, config.value_size)
    return report
