"""Four replica pipelines on one loopback fabric: ``pipeline-domain-b8``.

Each replica runs the seven-stage ``run_pipeline`` over its own
``LoopbackFabric`` port. The main thread is the only load thread: it
drives both client sessions, sends pre-signed requests to the believed
leader, reads every reply from one shared inbox and retransmits a request
whose reply quorum has not arrived within REQUEST_TIMEOUT.
"""

from __future__ import annotations

import gc
import queue
import random
import threading
import time
from collections import Counter

from pbftkit import crypto, wire
from pbftkit.client import ClientSession, RequestFailed
from pbftkit.pipeline import PipelineConfig, StageMetrics, run_pipeline
from pbftkit.replica import Replica, ReplicaConfig
from pbftkit.tcpnet import LoopbackFabric

from common import (F, N, SETUP_REPEATS, Commits, Pool, Result, Window,
                    check_outputs, make_keystores, median, presign, stall_s,
                    timed)
from spans import STAGES, install

MODE = crypto.CryptoMode.DOMAIN_OPTIMIZED
CLIENTS = 2
OUTSTANDING = 8
BATCH = 8
# The simulator's default. In this closed loop the leader then waits for a
# full batch of 8, so the work per request does not depend on how the
# threads happen to be scheduled; at 2 ms, batch sizes followed thread
# timing and the run-to-run spread of every metric doubled.
BATCH_TIMEOUT = 0.05
WARMUP_S = 1.0
REQUEST_TIMEOUT = 5.0
DRAIN_S = 12.0
# Highest request rate the pre-signed pool covers: about 1.3 times the
# fastest rate the pipeline reached on a 2-vCPU host when the benchmark was
# defined (1530 ops/s).
RATE_CAP = 2000


class ThreadedCluster:
    def __init__(self, seed: int):
        self.client_ids = list(range(N, N + CLIENTS))
        self.keystores = make_keystores(N, self.client_ids,
                                        random.Random(seed))
        self.hub = LoopbackFabric(list(range(N)) + self.client_ids)
        # One inbox for both client ports, so one thread can block on it.
        self.inbox = queue.Queue()
        for c in self.client_ids:
            rx = self.hub.port(c).receive_queues()
            for peer in rx:
                rx[peer] = self.inbox
        self.replicas, self.metrics, self.pipes = [], [], []
        self.commits = Commits(range(N))
        for i in range(N):
            rep = Replica(ReplicaConfig(n=N, f=F, self_id=i, mode=MODE,
                                        batch_size=BATCH,
                                        batch_timeout=BATCH_TIMEOUT,
                                        view_change_timeout=5.0),
                          keystore=self.keystores[i])
            metrics = StageMetrics()
            self.pipes.append(run_pipeline(
                PipelineConfig(), self.hub.port(i), rep, mode=MODE,
                keystore=self.keystores[i], metrics=metrics,
                on_commit=lambda seq, batch, node=i:
                    self.commits.add(node, seq, batch)))
            self.replicas.append(rep)
            self.metrics.append(metrics)
        self.sessions = {c: ClientSession(c, N, F, MODE,
                                          keystore=self.keystores[c])
                         for c in self.client_ids}
        self.pools = {}
        self.in_flight = {c: {} for c in self.client_ids}  # rid -> deadline
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()

    def presign(self, seed: int, per_client: int):
        self.pools = presign(self.sessions, self.keystores, MODE, seed,
                             per_client)

    def stop(self):
        for pipe in self.pipes:
            pipe.stop()
        self.hub.close()

    # -- load ----------------------------------------------------------------

    def _send_request(self, c: int, now: float):
        rid, frame = self.pools[c].take()
        sess = self.sessions[c]
        sess.pending[rid].sent_at = now
        self.in_flight[c][rid] = now + REQUEST_TIMEOUT
        self.attempted += 1
        self.hub.port(c).send(sess.believed_leader, frame)

    def _retransmit_due(self, now: float):
        for c, flights in self.in_flight.items():
            for rid, due in list(flights.items()):
                if now < due:
                    continue
                try:
                    dests, env = self.sessions[c].on_timeout(rid)
                except RequestFailed:
                    del flights[rid]
                    self.failed += 1
                    continue
                flights[rid] = now + REQUEST_TIMEOUT
                frame = wire.encode(env)
                for d in dests:
                    self.hub.port(c).send(d, frame)

    def _receive(self, timeout: float):
        """Handle one reply; returns the completing client id or None."""
        try:
            frame = self.inbox.get(timeout=timeout)
        except queue.Empty:
            return None, None
        env = wire.decode(frame)
        cid = wire.ReplyBody.decode(env.payload).client_id
        done = self.sessions[cid].on_reply(env, time.perf_counter())
        if done is None:
            return None, None
        self.in_flight[cid].pop(done.request_id, None)
        return cid, done

    def snapshot(self) -> dict:
        stage_ns = Counter()
        checked = 0
        for m in self.metrics:
            for stage, _, count, total, _ in m.table():
                stage_ns[stage] += total
                if stage == "verify":
                    checked += count
        return {"stage_ns": stage_ns, "checked": checked,
                "rejected": sum(p.rejected for p in self.pipes),
                "replica_rejected": sum(r.counters["rejected"]
                                        for r in self.replicas),
                "view_changes": [r.counters["view_changes"]
                                 for r in self.replicas]}

    def drive(self, phases) -> list:
        """Run the closed loop through ``phases``, a list of
        ``(seconds, on_start)``, then stop sending and drain. Returns one
        Window and one starting snapshot per phase, plus a final snapshot."""
        clock = time.perf_counter
        windows, snaps = [], []
        for c in self.client_ids:
            while len(self.in_flight[c]) < OUTSTANDING:
                self._send_request(c, clock())
        next_check = clock() + 0.1
        for seconds, on_start in phases:
            if on_start is not None:
                on_start()
            snaps.append(self.snapshot())
            window = Window()
            window.open(clock())
            deadline = window.start + seconds
            while True:
                now = clock()
                if now >= deadline:
                    break
                if now >= next_check:
                    self._retransmit_due(now)
                    next_check = now + 0.1
                try:
                    c, done = self._receive(min(0.05, deadline - now))
                except Exception as exc:  # a layer raised: count, go on
                    self.errors[type(exc).__name__] += 1
                    continue
                if c is None:
                    continue
                window.done(done.latency, clock())
                self._send_request(c, clock())
            window.close(clock())
            windows.append(window)
        snaps.append(self.snapshot())
        drain_end = clock() + DRAIN_S
        while any(self.in_flight.values()) and clock() < drain_end:
            self._retransmit_due(clock())
            try:
                self._receive(0.05)
            except Exception as exc:
                self.errors[type(exc).__name__] += 1
        self.failed += sum(len(f) for f in self.in_flight.values())
        return windows, snaps

    def problems(self) -> list:
        return check_outputs(self.commits, self.sessions.values(), F)


def setup(seed: int, seconds: float):
    builds = []
    for _ in range(SETUP_REPEATS):
        if builds:
            builds[-1][1].stop()
        builds.append(timed(ThreadedCluster, seed))
    cluster = builds[-1][1]
    per_client = Pool.size(RATE_CAP, seconds + WARMUP_S, CLIENTS)
    presign_s, _ = timed(cluster.presign, seed, per_client)
    return cluster, median(t for t, _ in builds) + presign_s, {
        "setup_samples": len(builds),
        "setup_build_s": [round(t, 4) for t, _ in builds],
        "setup_presign_s": round(presign_s, 4),
        "pool_per_client": per_client,
    }


def _thread_errors(errors: Counter):
    """Count exceptions that end a pipeline thread, then report as usual."""
    default = threading.excepthook

    def hook(args):
        errors[args.exc_type.__name__] += 1
        default(args)
    return hook


def run(seed: int, seconds: float, tracer=None) -> Result:
    cluster, setup_s, ctx = setup(seed, seconds)
    previous_hook = threading.excepthook
    threading.excepthook = _thread_errors(cluster.errors)
    gc.collect()
    gc.freeze()  # keep the pre-signed pool out of the collector's scans
    try:
        if tracer is None:
            windows, snaps = cluster.drive([(WARMUP_S, None),
                                            (seconds, None)])
        else:
            windows, snaps = cluster.drive([
                (WARMUP_S, None), (seconds / 2, None),
                (seconds / 2, lambda: install(
                    tracer, port_class=type(cluster.hub.port(0))))])
    finally:
        if tracer is not None:
            tracer.uninstall()
        cluster.stop()
        threading.excepthook = previous_hook
    window = windows[1]
    traced = windows[2] if tracer is not None else None
    if tracer is not None:
        a, b = snaps[1], snaps[2]  # the untraced window of this run
        per = max(window.completed, 1)
        ctx["stage_us_per_op"] = {
            s: (b["stage_ns"][s] - a["stage_ns"][s]) / 1e3 / per
            for s in STAGES}
        ctx["cpu_per_wall"] = window.cpu_s / window.wall_s
        a, b = snaps[2], snaps[3]  # the traced window
        ctx["pipeline_checked"] = b["checked"] - a["checked"]
        ctx["pipeline_rejected"] = b["rejected"] - a["rejected"]
        ctx["replica_rejected"] = b["replica_rejected"] - a["replica_rejected"]
        ctx["view_changes"] = max(
            y - x for x, y in zip(a["view_changes"], b["view_changes"]))
    ctx.update({
        "warmup_s": WARMUP_S,
        "presign_shortfall": sum(p.shortfall for p in cluster.pools.values()),
        "layer_exceptions": dict(cluster.errors),
    })
    return Result(window=window, setup_s=setup_s,
                  outage_s=stall_s(window),
                  attempted=cluster.attempted, failed=cluster.failed,
                  problems=cluster.problems(), ctx=ctx, traced=traced)
