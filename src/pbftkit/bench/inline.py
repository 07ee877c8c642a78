"""Single-threaded in-process cluster for crypto-sensitive benchmarks.

Runs n replicas and their clients in one event loop with immediate
in-memory delivery. Every hop still pays the real codec and the real
authenticators, so the measured differences between crypto modes reflect
signing and verification work rather than thread scheduling noise. The
client workload is pre-signed before the measured window, the way an
external load generator would arrive over the wire already signed.
"""

from __future__ import annotations

import time
from collections import deque

from .. import crypto
from ..client import ClientSession
from ..replica import Replica, ReplicaConfig
from ..simnet import build_keystores
from ..wire import MessageKind, decode, encode


class InlineCluster:
    def __init__(self, n: int, f: int, mode: crypto.CryptoMode,
                 batch_size: int = 1, num_clients: int = 2,
                 batch_timeout: float = 0.002, auth: bool = True):
        self.n, self.f, self.mode = n, f, mode
        self.client_ids = list(range(n, n + num_clients))
        self.keystores = (build_keystores(n, self.client_ids) if auth
                          else {i: None
                                for i in range(n + num_clients)})
        self.replicas = {}
        for i in range(n):
            cfg = ReplicaConfig(n=n, f=f, self_id=i, mode=mode,
                                batch_size=batch_size,
                                batch_timeout=batch_timeout,
                                view_change_timeout=30.0)
            self.replicas[i] = Replica(cfg, keystore=self.keystores[i])
        self.pre_prepares_sent = 0
        self.commit_counts = {i: 0 for i in range(n)}

    def deliver(self, dest: int, frame: bytes):
        """Hand one frame to replica ``dest``; its output, or None when the
        frame fails the transport check."""
        env = decode(frame)
        if not crypto.verify_incoming(env, self.mode, self.keystores[dest]):
            return None
        return self.replicas[dest].on_envelope(env)

    def run_closed_loop(self, total_requests: int, value_size: int = 512,
                        outstanding: int = 8):
        """Commit ``total_requests`` end to end; returns a result dict."""
        sessions = {c: ClientSession(c, self.n, self.f, self.mode,
                                     keystore=self.keystores[c])
                    for c in self.client_ids}
        # Pre-sign the full workload outside the measured window.
        per_client = total_requests // len(self.client_ids)
        pools = {}
        for c, sess in sessions.items():
            pool = deque()
            for _ in range(per_client):
                req, env, _ = sess.make_request(bytes(value_size), 0.0)
                pool.append((req.request_id, encode(env)))
            pools[c] = pool
        target = per_client * len(self.client_ids)

        wire = deque()  # (dest, src, frame)
        batch_timer_armed = {i: False for i in range(self.n)}
        inflight = {c: 0 for c in self.client_ids}
        latencies = []
        now = time.perf_counter

        def feed(c):
            while inflight[c] < outstanding and pools[c]:
                rid, frame = pools[c].popleft()
                inflight[c] += 1
                sessions[c].pending[rid].sent_at = now()
                wire.append((sessions[c].believed_leader, c, frame))

        def emit(src, out):
            for key, _ in out.timer_starts:
                if key[0] == "batch":
                    batch_timer_armed[src] = True
            for key in out.timer_stops:
                if key == ("batch",):
                    batch_timer_armed[src] = False
            for seq, batch in out.commits:
                self.commit_counts[src] += len(batch)
            for dests, env in out.outbound:
                if env.kind == MessageKind.PRE_PREPARE:
                    self.pre_prepares_sent += 1
                frame = crypto.seal(env, dests, self.mode, self.keystores[src])
                wire.extend((d, src, frame) for d in dests)

        completed = 0
        t0 = now()
        for c in self.client_ids:
            feed(c)
        while completed < target:
            if not wire:
                # Quiescent with work outstanding: flush partial batches.
                fired = False
                for i, armed in batch_timer_armed.items():
                    if armed:
                        batch_timer_armed[i] = False
                        emit(i, self.replicas[i].on_timeout(("batch",)))
                        fired = True
                if not fired:
                    break  # nothing can make progress
                continue
            dest, src, frame = wire.popleft()
            if dest < self.n:
                out = self.deliver(dest, frame)
                if out is not None:
                    emit(dest, out)
            else:
                sess = sessions[dest]
                done = sess.on_reply(decode(frame), now())
                if done is not None:
                    completed += 1
                    inflight[dest] -= 1
                    latencies.append(done.latency)
                    feed(dest)
        elapsed = now() - t0
        latencies.sort()
        return {
            "completed": completed,
            "elapsed": elapsed,
            "throughput": completed / elapsed if elapsed > 0 else 0.0,
            "latencies": latencies,
            "pre_prepares": self.pre_prepares_sent,
            "view_changes": max(r.counters["view_changes"]
                                for r in self.replicas.values()),
        }


def compare_modes(n: int = 4, f: int = 1, value_size: int = 512,
                  total_requests: int = 2000, batch_size: int = 1,
                  num_clients: int = 2, outstanding: int = 8) -> dict:
    """Identical workload under the three modes; returns per-mode results."""
    results = {}
    for mode in (crypto.CryptoMode.DOMAIN_OPTIMIZED,
                 crypto.CryptoMode.MAC_INTER_NODE,
                 crypto.CryptoMode.PK_ONLY):
        cluster = InlineCluster(n, f, mode, batch_size=batch_size,
                                num_clients=num_clients)
        results[mode.name] = cluster.run_closed_loop(
            total_requests, value_size=value_size, outstanding=outstanding)
    return results
