"""Single-threaded delivery loop over the replica core, with instant
delivery: ``inline-domain-b1`` and ``inline-pk-b8``.

Every hop pays the real codec (one ``wire.encode`` per outbound message,
one ``wire.decode`` per delivery) and the real authenticators
(``crypto.authenticate``/``attach`` on send, ``crypto.verify_incoming`` on
receipt), so the time measured is processor time of the codec, the core and
the crypto. Client requests keep the client's own signature; the replica
core re-checks it where the protocol says so.

Timers: a replica's batch timer fires when no message is in flight. If the
loop goes quiet with requests outstanding and no batch pending, the clients
time out and retransmit; a request past its retransmit budget fails.
"""

from __future__ import annotations

import gc
import random
import time
from collections import Counter, deque

from pbftkit import crypto, wire
from pbftkit.client import ClientSession, RequestFailed
from pbftkit.replica import Replica, ReplicaConfig

from common import (F, N, SETUP_REPEATS, Commits, Pool, Result, Window,
                    check_outputs, make_keystores, median, presign, stall_s,
                    timed)
from spans import install

CLIENTS = 2
OUTSTANDING = 8
WARMUP_OPS = 300
# Highest request rate the pre-signed pool covers, by batch size: about
# twice the fastest rate this loop reached on a 2-vCPU host when the
# benchmark was defined (810 and 400 ops/s).
RATE_CAP = {1: 1800, 8: 800}


class InlineCluster:
    def __init__(self, mode, batch_size: int, seed: int):
        self.mode = mode
        self.client_ids = list(range(N, N + CLIENTS))
        self.keystores = make_keystores(N, self.client_ids,
                                        random.Random(seed))
        self.replicas = [
            Replica(ReplicaConfig(n=N, f=F, self_id=i, mode=mode,
                                  batch_size=batch_size, batch_timeout=0.002,
                                  view_change_timeout=30.0),
                    keystore=self.keystores[i])
            for i in range(N)]
        self.sessions = {c: ClientSession(c, N, F, mode,
                                          keystore=self.keystores[c])
                         for c in self.client_ids}
        self.pools = {}
        self.commits = Commits(range(N))
        self.batch_armed = [False] * N
        self.in_flight = {c: set() for c in self.client_ids}
        self.queue = deque()  # (dest, frame)
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()

    def presign(self, seed: int, per_client: int):
        self.pools = presign(self.sessions, self.keystores, self.mode, seed,
                             per_client)

    # -- the delivery loop -------------------------------------------------

    def _send_request(self, c: int, now: float):
        rid, frame = self.pools[c].take()
        sess = self.sessions[c]
        sess.pending[rid].sent_at = now
        self.in_flight[c].add(rid)
        self.attempted += 1
        self.queue.append((sess.believed_leader, frame))

    def _emit(self, src: int, out):
        for key, _ in out.timer_starts:
            if key[0] == "batch":
                self.batch_armed[src] = True
        for key in out.timer_stops:
            if key[0] == "batch":
                self.batch_armed[src] = False
        for seq, batch in out.commits:
            self.commits.add(src, seq, batch)
        for dests, env in out.outbound:
            if not env.auths and env.kind != wire.MessageKind.REQUEST:
                env = crypto.attach(env, crypto.authenticate(
                    env, dests, self.mode, self.keystores[src]))
            frame = wire.encode(env)
            self.queue.extend((d, frame) for d in dests)

    def _deliver(self, dest: int, frame: bytes, window: Window, clock):
        env = wire.decode(frame)
        if dest < N:
            if (env.kind != wire.MessageKind.REQUEST
                    and not crypto.verify_incoming(env, self.mode,
                                                   self.keystores[dest])):
                return
            self._emit(dest, self.replicas[dest].on_envelope(env))
            return
        done = self.sessions[dest].on_reply(env, clock())
        if done is not None:
            self.in_flight[dest].discard(done.request_id)
            if window is not None:
                window.done(done.latency, clock())
            return dest
        return None

    def _quiet(self) -> bool:
        """Fire what a timer would fire once nothing is in flight; False
        when nothing is left to fire."""
        for i in range(N):
            if self.batch_armed[i]:
                self.batch_armed[i] = False
                self._emit(i, self.replicas[i].on_timeout(("batch",)))
                return True
        fired = False
        for c, sess in self.sessions.items():
            for rid in sorted(self.in_flight[c]):
                try:
                    action = sess.on_timeout(rid)
                except RequestFailed:
                    self.in_flight[c].discard(rid)
                    self.failed += 1
                    continue
                fired = True
                dests, env = action
                frame = wire.encode(env)
                self.queue.extend((d, frame) for d in dests)
        return fired

    def drive(self, until_ops: int = None, seconds: float = None,
              record: bool = False) -> Window:
        """Closed loop: each client keeps OUTSTANDING requests in flight
        until ``until_ops`` completions or ``seconds`` pass, then stops
        sending and lets what is in flight finish."""
        clock = time.perf_counter
        window = Window() if record else None
        done_count = 0
        sending = True
        for c in self.client_ids:
            while len(self.in_flight[c]) < OUTSTANDING:
                self._send_request(c, clock())
        t0 = clock()
        if window is not None:
            window.open(t0)
        deadline = t0 + seconds if seconds is not None else None
        while True:
            if not self.queue:
                if not any(self.in_flight.values()) or not self._quiet():
                    break
                continue
            dest, frame = self.queue.popleft()
            try:
                c = self._deliver(dest, frame, window if sending else None,
                                  clock)
            except Exception as exc:  # a layer raised: count, keep running
                self.errors[type(exc).__name__] += 1
                continue
            if c is None or not sending:
                continue
            done_count += 1
            if ((until_ops is not None and done_count >= until_ops)
                    or (deadline is not None and clock() >= deadline)):
                sending = False
                if window is not None:
                    window.close(clock())
                continue
            self._send_request(c, clock())
        if sending and window is not None:  # the loop stalled early
            window.close(clock())
        self.failed += sum(len(s) for s in self.in_flight.values())
        for s in self.in_flight.values():
            s.clear()
        return window

    # -- results -----------------------------------------------------------

    def problems(self) -> list:
        return check_outputs(self.commits, self.sessions.values(), F)

    def counters(self, key: str) -> list:
        return [r.counters[key] for r in self.replicas]


def setup(mode, batch_size: int, seed: int, seconds: float):
    """Build the cluster SETUP_REPEATS times and keep the last one; the
    pool is signed once. Returns (cluster, setup seconds, context)."""
    builds = [timed(InlineCluster, mode, batch_size, seed)
              for _ in range(SETUP_REPEATS)]
    cluster = builds[-1][1]
    per_client = Pool.size(RATE_CAP[batch_size], seconds, CLIENTS) \
        + WARMUP_OPS
    presign_s, _ = timed(cluster.presign, seed, per_client)
    return cluster, median(t for t, _ in builds) + presign_s, {
        "setup_samples": len(builds),
        "setup_build_s": [round(t, 4) for t, _ in builds],
        "setup_presign_s": round(presign_s, 4),
        "pool_per_client": per_client,
    }


def run(mode_name: str, batch_size: int, seed: int, seconds: float,
        tracer=None) -> Result:
    mode = crypto.CryptoMode[mode_name]
    cluster, setup_s, ctx = setup(mode, batch_size, seed, seconds)
    gc.collect()
    gc.freeze()  # keep the pre-signed pool out of the collector's scans
    cluster.drive(until_ops=WARMUP_OPS)
    traced = None
    if tracer is None:
        window = cluster.drive(seconds=seconds, record=True)
    else:
        window = cluster.drive(seconds=seconds / 2, record=True)
        rejected = sum(cluster.counters("rejected"))
        views = cluster.counters("view_changes")
        install(tracer)
        try:
            traced = cluster.drive(seconds=seconds / 2, record=True)
        finally:
            tracer.uninstall()
        ctx["replica_rejected"] = sum(cluster.counters("rejected")) - rejected
        ctx["view_changes"] = max(
            b - a for a, b in zip(views, cluster.counters("view_changes")))
    ctx.update({
        "warmup_ops": WARMUP_OPS,
        "presign_shortfall": sum(p.shortfall for p in cluster.pools.values()),
        "layer_exceptions": dict(cluster.errors),
    })
    return Result(window=window, setup_s=setup_s,
                  outage_s=stall_s(window),
                  attempted=cluster.attempted, failed=cluster.failed,
                  problems=cluster.problems(), ctx=ctx, traced=traced)
