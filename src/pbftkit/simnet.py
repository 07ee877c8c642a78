"""Deterministic discrete-event simulation of a replica group plus clients.

Everything runs on virtual time in one thread: message latency and drops
come from a seeded RNG, replica timers are injected clock events, and all
events pop in a total (time, tiebreak) order, so a given (config, workload)
always produces the identical trace. Fault adapters script the Byzantine
behaviors the protocol must survive: crashing, going mute, an
equivocating leader that shows different batches to different followers,
and a replica whose VIEW_CHANGEs claim batches nobody proposed.

Every message still crosses the real codec and, with ``auth`` on, the real
authenticators of ``crypto``, but once per send rather than once per
recipient: a broadcast is sealed (``crypto.seal``: one signature, or one
tag per recipient in one authenticator) and the frame decoded at its first
destination that passes the partition and drop checks, and every
recipient's ``deliver`` event carries that one decoded envelope, which the
recipient checks with ``crypto.verify_incoming``. Client signatures inside
REQUESTs are checked by the replica core.

A ``deliver`` or replica timer that would land at or after its node's
``CRASH_AT`` time is not scheduled at all; the link's drop and delay are
still drawn, so the RNG sequence and every trace stay the same.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field

from . import crypto, wire
from .client import ClientSession, RequestFailed
from .replica import Mode, Replica, ReplicaConfig
from .wire import (MessageKind, PrePrepareBody, Request, ViewChangeBody,
                   WireEnvelope)


class NonQuiescent(Exception):
    """The run hit the max-event safety valve before going idle."""


CRASH_AT = "crash_at"
MUTE = "mute"
EQUIVOCATE = "equivocate"
FORGE_VC = "forge_vc"
# No client has this id: a committed batch that names it is a forgery.
FORGED_CLIENT = 0xFFFF


@dataclass
class SimConfig:
    n: int = 4
    f: int = 1
    seed: int = 0
    mode: crypto.CryptoMode = crypto.CryptoMode.MAC_INTER_NODE
    latency: tuple = (0.001, 0.005)  # uniform per-link delay bounds [s]
    drop_prob: float = 0.0
    partitions: tuple = ()  # ((start, end, frozenset of isolated nodes), ...)
    faults: dict = field(default_factory=dict)  # node -> (kind, *args)
    auth: bool = True  # real inter-node authenticators on the fabric
    client_auth: bool = True  # RSA-signed client requests
    num_clients: int = 1
    requests_per_client: int = 10
    payload_size: int = 32
    client_timeout: float = 4.0
    batch_size: int = 1
    batch_timeout: float = 0.05
    checkpoint_interval: int = 500
    log_capacity: int = 10_000
    view_change_timeout: float = 1.0
    max_events: int = 5_000_000


# RSA key generation dominates small-run setup cost, so keypairs are pooled
# and reused across worlds; secrecy is irrelevant inside a simulation.
_KEY_POOL: list = []


def _pooled_keys(count: int):
    while len(_KEY_POOL) < count:
        _KEY_POOL.append(crypto.generate_keypair())
    return _KEY_POOL[:count]


def build_keystores(n: int, client_ids, seed: int = 0):
    """In-memory KeyStores for n nodes plus the given clients."""
    ids = list(range(n)) + list(client_ids)
    keys = dict(zip(ids, _pooled_keys(len(ids))))
    pubs = {i: k.public_key() for i, k in keys.items()}
    rng = random.Random(seed ^ 0x5EC4E7)
    secrets = {}
    for a in range(n):
        for b in ids:
            if b > a:
                secrets[(a, b)] = rng.randbytes(crypto.MAC_KEY_LEN)
    stores = {}
    for i in ids:
        macs = {}
        for (a, b), s in secrets.items():
            if a == i:
                macs[b] = s
            elif b == i:
                macs[a] = s
        stores[i] = crypto.KeyStore(i, keys[i], dict(pubs), macs)
    return stores


class _SimNode:
    __slots__ = ("replica", "fault", "crash_at", "_world")

    def __init__(self, replica: Replica, fault: tuple, crash_at: float,
                 world: "World"):
        self.replica = replica
        self.fault = fault
        self.crash_at = crash_at
        self._world = world

    @property
    def crashed(self) -> bool:
        """True once virtual time reaches the node's CRASH_AT time."""
        return self._world.now >= self.crash_at


@dataclass
class _SimClient:
    session: ClientSession
    remaining: int
    failed: int = 0


class World:
    def __init__(self, config: SimConfig):
        self.config = config
        self.now = 0.0
        self.rng = random.Random(config.seed)
        self._tiebreak = itertools.count()
        self._events: list = []
        # (owner, key) -> id of that timer's one live event in _events; a
        # stopped or superseded timer's event stays queued and is skipped.
        self._timers: dict = {}
        self._timer_ids = itertools.count()
        self.trace: list = []
        self.committed: dict = {i: [] for i in range(config.n)}
        self.client_ids = [config.n + k for k in range(config.num_clients)]

        if config.auth or config.client_auth:
            self.keystores = build_keystores(config.n, self.client_ids,
                                             config.seed)
        else:
            self.keystores = None

        # Per principal id: the virtual time from which nothing reaches it.
        self._crash_at = [math.inf] * (config.n + config.num_clients)
        for i, fault in config.faults.items():
            if fault[0] == CRASH_AT:
                self._crash_at[i] = fault[1]

        self.nodes = {}
        for i in range(config.n):
            rc = ReplicaConfig(
                n=config.n, f=config.f, self_id=i, mode=config.mode,
                batch_size=config.batch_size,
                batch_timeout=config.batch_timeout,
                checkpoint_interval=config.checkpoint_interval,
                log_capacity=config.log_capacity,
                view_change_timeout=config.view_change_timeout)
            ks = self.keystores[i] if self.keystores else None
            verifier = None if config.client_auth else (lambda req: True)
            vc_verifier = None if config.auth else (lambda env: True)
            rep = Replica(rc, keystore=ks, request_verifier=verifier,
                          vc_verifier=vc_verifier, tracer=self._node_trace)
            self.nodes[i] = _SimNode(rep, config.faults.get(i),
                                     self._crash_at[i], self)

        self.clients = {}
        for cid in self.client_ids:
            ks = self.keystores[cid] if (self.keystores and config.client_auth) \
                else None
            sess = ClientSession(cid, config.n, config.f, config.mode,
                                 keystore=ks)
            self.clients[cid] = _SimClient(sess, config.requests_per_client)
            self._push(0.0, ("client_submit", cid))

    # -- event plumbing ----------------------------------------------------

    def _push(self, at: float, item):
        heapq.heappush(self._events, (at, next(self._tiebreak), item))

    def _arm(self, at: float, kind: str, owner: int, key):
        """Queue the timer event (kind, owner, key, id), superseding any
        event still queued for (owner, key)."""
        timer_id = next(self._timer_ids)
        self._timers[(owner, key)] = timer_id
        self._push(at, (kind, owner, key, timer_id))

    def _take_timer(self, item) -> bool:
        """Consume a popped timer event; False when it is stale."""
        timer = (item[1], item[2])
        if self._timers.get(timer) != item[3]:
            return False
        del self._timers[timer]
        return True

    def _node_trace(self, record):
        record["t"] = round(self.now, 9)
        self.trace.append(record)
        if record["event"] == "committed":
            node = record["node"]
            rep = self.nodes[node].replica
            seq = record["seq"]
            entry = rep.log.get(seq)
            self.committed[node].append((seq, entry.digest, entry.body.batch))

    def _partitioned(self, a: int, b: int) -> bool:
        for start, end, isolated in self.config.partitions:
            if start <= self.now < end and ((a in isolated) != (b in isolated)):
                return True
        return False

    def _transmit(self, src: int, dests, env: WireEnvelope):
        """Schedule ``env``'s delivery to each of ``dests``. Links draw their
        drop and delay in destination order; sealing and the codec run only
        once a link needs the envelope, even one to a crashed node."""
        cfg = self.config
        random_ = self.rng.random
        lo, hi = cfg.latency
        now = self.now
        crash_at = self._crash_at
        received = None
        for dest in dests:
            if cfg.partitions and self._partitioned(src, dest):
                continue
            if cfg.drop_prob > 0 and random_() < cfg.drop_prob:
                continue
            # random.uniform's own formula, so the draw is the same.
            at = now + (lo + (hi - lo) * random_())
            if received is None:
                ks = self.keystores[src] if cfg.auth else None
                received = wire.decode(crypto.seal(env, dests, cfg.mode, ks))
            if at < crash_at[dest]:
                heapq.heappush(self._events, (at, next(self._tiebreak),
                                              ("deliver", src, dest,
                                               received)))

    # -- replica output dispatch -------------------------------------------

    def _dispatch(self, node_id: int, out):
        node = self.nodes[node_id]
        outbound = out.outbound
        if node.fault and node.fault[0] in _REWRITES:
            outbound = _REWRITES[node.fault[0]](outbound)
        for dests, env in outbound:
            self._transmit(node_id, dests, env)
        for key, delay in out.timer_starts:
            at = self.now + delay
            if at < node.crash_at:
                self._arm(at, "node_timer", node_id, key)
            else:
                self._timers.pop((node_id, key), None)
        for key in out.timer_stops:
            self._timers.pop((node_id, key), None)

    # -- event handlers ----------------------------------------------------

    def _handle(self, item):
        kind = item[0]
        if kind == "deliver":
            _, src, dest, env = item
            node = self.nodes.get(dest)
            if node is None:
                self._client_deliver(dest, env)
                return
            if self.now >= node.crash_at:
                return
            if self.config.auth and not crypto.verify_incoming(
                    env, self.config.mode, self.keystores[dest]):
                node.replica.counters["rejected"] += 1
                return
            self._dispatch(dest, node.replica.on_envelope(env))
        elif kind == "node_timer":
            if not self._take_timer(item):
                return
            _, node_id, key, _ = item
            node = self.nodes[node_id]
            if self.now < node.crash_at:
                self._dispatch(node_id, node.replica.on_timeout(key))
        elif kind == "client_submit":
            self._client_submit(item[1])
        elif kind == "client_timer":
            if self._take_timer(item):
                self._client_timeout(item[1], item[2])

    def _client_submit(self, cid: int):
        cl = self.clients[cid]
        if cl.remaining <= 0:
            return
        cl.remaining -= 1
        payload = self.rng.randbytes(self.config.payload_size)
        req, env, leader = cl.session.make_request(payload, self.now)
        self._transmit(cid, (leader % self.config.n,), env)
        self._arm(self.now + self.config.client_timeout, "client_timer", cid,
                  req.request_id)

    def _client_timeout(self, cid: int, rid: int):
        cl = self.clients[cid]
        try:
            action = cl.session.on_timeout(rid)
        except RequestFailed:
            cl.failed += 1
            self._push(self.now, ("client_submit", cid))
            return
        if action is None:
            return
        dests, env = action
        self._transmit(cid, dests, env)
        self._arm(self.now + self.config.client_timeout, "client_timer", cid,
                  rid)

    def _client_deliver(self, cid: int, env: WireEnvelope):
        cl = self.clients[cid]
        done = cl.session.on_reply(env, self.now)
        if done is not None:
            self._timers.pop((cid, done.request_id), None)
            self.trace.append({"node": cid, "event": "client_done",
                               "view": env.view, "rid": done.request_id,
                               "t": round(self.now, 9)})
            self._push(self.now, ("client_submit", cid))

    # -- running and checking ----------------------------------------------

    def run(self, until: float = None) -> list:
        """Drain events until quiescent, or until the next event lies past
        ``until``; that event stays queued, so a run in time slices takes
        the same course as one call. Returns the trace."""
        processed = 0
        events = self._events
        pop, handle = heapq.heappop, self._handle
        max_events = self.config.max_events
        while events:
            if until is not None and events[0][0] > until:
                break
            at, _, item = pop(events)
            self.now = at
            handle(item)
            processed += 1
            if processed > max_events:
                raise NonQuiescent(f"exceeded {max_events} events")
        return self.trace

    def correct_nodes(self):
        return [i for i in range(self.config.n)
                if i not in self.config.faults]

    def check_agreement(self):
        """No two correct replicas commit different digests at one seq."""
        by_seq = {}
        for i in self.correct_nodes():
            for seq, digest, batch in self.committed[i]:
                by_seq.setdefault(seq, {})[i] = digest
        for seq, digests in sorted(by_seq.items()):
            if len(set(digests.values())) > 1:
                raise AssertionError(
                    f"agreement violation at seq {seq}: {digests}")
        return by_seq

    def check_validity(self):
        """Every committed non-NOOP batch carries valid client signatures."""
        if not self.config.client_auth:
            return
        ks = self.keystores[0]
        for i in self.correct_nodes():
            for seq, digest, batch in self.committed[i]:
                for req in batch:
                    if not crypto.verify_request(req, ks):
                        raise AssertionError(
                            f"validity violation at node {i} seq {seq}")

    def check_total_order(self):
        """Committed logs of correct replicas are prefix-consistent."""
        logs = {i: {seq: d for seq, d, _ in self.committed[i]}
                for i in self.correct_nodes()}
        ids = list(logs)
        for a in ids:
            for b in ids:
                if a >= b:
                    continue
                for seq in logs[a].keys() & logs[b].keys():
                    if logs[a][seq] != logs[b][seq]:
                        raise AssertionError(
                            f"order violation seq {seq} nodes {a},{b}")

    def committed_count(self, node: int) -> int:
        return len(self.committed[node])

    def total_requests_committed(self, node: int) -> int:
        return sum(len(batch) for _, _, batch in self.committed[node])

    def max_view(self) -> int:
        return max(n.replica.view for n in self.nodes.values()
                   if not n.crashed)


def _equivocate(outbound):
    """Scripted conflicting proposals: odd-id recipients get a batch with
    a duplicated (still validly signed) request, so its digest differs."""
    result = []
    for dests, env in outbound:
        if env.kind == MessageKind.PRE_PREPARE:
            batch = PrePrepareBody.decode(env.payload).batch
            alt = PrePrepareBody.for_batch((batch[0],) + batch)
            result.append((tuple(d for d in dests if d % 2 == 0), env))
            dests = tuple(d for d in dests if d % 2)
            env = WireEnvelope(env.kind, env.view, env.seq, env.sender,
                               alt.encode())
        result.append((dests, env))
    return result


def _forge_view_changes(outbound):
    """Lying VIEW_CHANGEs: each seq from h+1 up to the highest the sender
    reports claims a batch of FORGED_CLIENT, prepared and pre-prepared in
    the view just below the new one. Receivers' structural checks pass
    them; only the decision rule can refuse them."""
    result = []
    for dests, env in outbound:
        if env.kind == MessageKind.VIEW_CHANGE:
            vc = ViewChangeBody.decode(env.payload)
            h, view = vc.last_stable_seq, vc.new_view - 1
            top = max([e[0] for e in vc.prepared + vc.pre_prepared],
                      default=h + 1)
            p = [(seq, view, PrePrepareBody.for_batch(
                (Request(FORGED_CLIENT, seq, b"forged"),)))
                for seq in range(h + 1, top + 1)]
            env = WireEnvelope(env.kind, env.view, env.seq, env.sender,
                               ViewChangeBody(
                                   vc.new_view, h, vc.checkpoints, tuple(p),
                                   tuple((seq, b.digest, view)
                                         for seq, view, b in p)).encode())
        result.append((dests, env))
    return result


# Fault kind -> pure rewrite of the faulty node's outbound messages.
_REWRITES = {MUTE: lambda outbound: [], EQUIVOCATE: _equivocate,
             FORGE_VC: _forge_view_changes}


def trace_lines(trace) -> list:
    """Canonical text rendering of a trace, for determinism comparisons."""
    lines = []
    for rec in trace:
        items = sorted((k, v) for k, v in rec.items())
        lines.append(" ".join(f"{k}={v}" for k, v in items))
    return lines
