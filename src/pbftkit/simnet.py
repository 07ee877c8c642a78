"""Deterministic discrete-event simulation of a replica group plus clients.

Everything runs on virtual time in one thread: message latency and drops
come from a seeded RNG, replica timers are injected clock events, and all
events pop in a total (time, tiebreak) order, so a given (config, workload)
always produces the identical trace. Fault adapters script the Byzantine
behaviors the protocol must survive: crashing, going mute, an
equivocating leader that shows different batches to different followers,
and a replica whose VIEW_CHANGEs claim batches nobody proposed.

Each replica runs the pipeline's per-frame step (``pipeline.Node``), so
with ``SimConfig.auth`` (a keystore for every principal) it checks what it
is delivered and authenticates each send once, whatever the number of
recipients; a faulty node's rewrite comes before that. A frame crosses the
real codec once, at its first link that passes the partition and drop
checks, and every recipient's ``deliver`` event carries that one decoded
envelope. Client signatures inside REQUESTs are checked by the replica
core. With ``auth`` off nothing is signed or checked.

A world keeps its history compact. Each node's commits reach the world
through the step's ``on_commit``, as the pipeline's do, and
``World.committed`` holds one record per seq: the first correct replica to
commit a seq appends a ``(seq, digest, batch)`` tuple whose digest the
world computes itself, and a later commit of an equal batch there appends
that same tuple, so each seq's batch is hashed once; any other batch gets
a record of its own. So a world holds each committed request once, not
once per replica. ``World.trace`` keeps its records in two flat arrays,
one of ints (each record's shape id, node, view and field values) and one
of times, behind a table of the record shapes it has seen, so a ``{seq,
batch}`` record costs about 50 B; it gives back a fresh dict per record
when iterated.

A ``deliver`` or replica timer that would land at or after its node's
``CRASH_AT`` time is not scheduled at all; the link's drop and delay are
still drawn, so the RNG sequence and every trace stay the same.

A stopped or superseded timer's event is dead: the node's step would skip
a replica timer whose token is no longer live, and a client session would
ignore the timer of a request no longer pending. Once ``World._events``
holds more than twice its length after the last shedding plus
``_SHED_SLACK`` events, ``pipeline.shed`` drops every dead one. The rest
keep their (time, tiebreak) keys and pop in the same order, so the trace
is the same; only a run's end time can come earlier, when its last events
were dead timers that were shed.

Each client takes its requests from ``requests``, which draws a payload
and signs it only when the client submits. With ``latency=(0.0, 0.0)`` a
world is also the crypto-mode benchmark (``pbftkit.bench.cli.timed_run``):
it materialises every client's requests first, so client signing stays out
of the wall-clock window, and ``run()`` then times replica work alone.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import crypto, wire
from .client import ClientSession, RequestFailed
from .pipeline import Node, shed
from .replica import Replica, ReplicaConfig
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
# The event queue is shed once it holds more than twice its length after
# the last shedding plus this many events.
_SHED_SLACK = 4096


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
    auth: bool = True  # keystores for every principal: all messages signed
    client_auth: bool = None  # only ever equal to auth; None means auth
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

    def __post_init__(self):
        for i in self.faults:
            if not 0 <= i < self.n:
                raise ValueError(f"'fault' names node {i}, not a replica "
                                 f"0..{self.n - 1}")
        lo, hi = self.latency
        if not 0 <= lo <= hi:
            raise ValueError(f"'latency' {self.latency} is not 0 <= lo <= hi")
        for key in ("payload_size", "num_clients", "requests_per_client"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key!r} {getattr(self, key)} is negative")
        if not 0 <= self.drop_prob <= 1:
            raise ValueError(f"'drop_prob' {self.drop_prob} is not in [0, 1]")
        if not self.client_timeout > 0:
            raise ValueError(f"'client_timeout' {self.client_timeout} is not "
                             f"positive")
        if self.client_auth is None:
            self.client_auth = self.auth
        elif self.client_auth != self.auth:
            raise ValueError("client_auth must equal auth")


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


class _SimNode(Node):
    """A replica whose commits become the world's records, sends link
    events and timers clock events; the step reads the mode and keystore
    from the replica."""

    __slots__ = ("id", "replica", "_world")

    def __init__(self, node_id: int, replica: Replica, world: "World"):
        self.id = node_id
        self.replica = replica
        self._world = world

    @property
    def crashed(self) -> bool:
        """True once virtual time reaches the node's CRASH_AT time."""
        return self._world.now >= self._world._crash_at[self.id]

    def on_commit(self, seq: int, batch: tuple):
        self._world._record(self.id, seq, batch)

    def _send(self, dests, env):
        self._world._transmit(self.id, dests, env)

    def _arm(self, key, delay: float, token):
        at = self._world.now + delay
        if at < self._world._crash_at[self.id]:
            self._world._push(at, ("node_timer", self.id, key, token))


class _FaultyNode(_SimNode):
    """A node whose fault rewrites its every output before it is sealed."""

    def _apply(self, out):
        fault = self._world.config.faults[self.id]
        out.outbound = _REWRITES[fault[0]](out.outbound)
        super()._apply(out)


class Trace:
    """A world's trace records in order, in two flat arrays: per record its
    shape id, node, view and field values in ``_ints``, and its time in
    ``_times``. A shape is an (event, field names) pair; the shape table
    keeps its event name and key tuple, so no record keeps a name or a
    dict. Iterating gives a fresh dict per record. Every field value is an
    int (a bool would come back as 1), and a time is a float."""

    __slots__ = ("_ints", "_times", "_shapes", "_ids")

    def __init__(self):
        self._ints = array("q")
        self._times = array("d")
        self._shapes: list = []  # shape id -> (key tuple, event, field count)
        self._ids: dict = {}  # (event, *field names) -> shape id

    def append(self, node: int, event: str, view: int, fields: dict,
               t: float):
        """Add the record ``{node, event, view, **fields, t}``."""
        shape = (event, *fields)
        sid = self._ids.get(shape)
        if sid is None:
            sid = self._ids[shape] = len(self._shapes)
            self._shapes.append((("node", "event", "view", *fields, "t"),
                                 event, len(fields)))
        self._ints.fromlist([sid, node, view, *fields.values()])
        self._times.append(t)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self):
        ints, shapes = iter(self._ints), self._shapes
        for t in self._times:
            keys, event, width = shapes[next(ints)]
            # node, event, view, the fields and t, in the keys' order
            yield dict(zip(keys, (next(ints), event, next(ints),
                                  *itertools.islice(ints, width), t)))


@dataclass
class _SimClient:
    session: ClientSession
    remaining: int
    requests: Iterator  # (request, envelope, leader) from make_request
    failed: int = 0


class World:
    def __init__(self, config: SimConfig):
        self.config = config
        self.now = 0.0
        self.rng = random.Random(config.seed)
        self._tiebreak = itertools.count()
        self._events: list = []
        self._shed_at = _SHED_SLACK  # queue length that triggers shedding
        self.trace = Trace()
        # Per replica, (seq, digest, batch) in commit order; the records of
        # one seq with equal batches are one tuple.
        self.committed: dict = {i: [] for i in range(config.n)}
        self._records: dict = {}  # seq -> record of the first correct commit
        self.client_ids = [config.n + k for k in range(config.num_clients)]

        self.keystores = (build_keystores(config.n, self.client_ids,
                                          config.seed)
                          if config.auth else None)

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
            rep = Replica(rc, keystore=ks, tracer=self._node_trace)
            faulty = config.faults.get(i, (None,))[0] in _REWRITES
            self.nodes[i] = (_FaultyNode if faulty else _SimNode)(i, rep, self)

        self.clients = {}
        for cid in self.client_ids:
            ks = self.keystores[cid] if self.keystores else None
            sess = ClientSession(cid, config.n, config.f, config.mode,
                                 keystore=ks)
            self.clients[cid] = _SimClient(sess, config.requests_per_client,
                                           self._requests(sess))
            self._push(0.0, ("client_submit", cid))

    def _requests(self, session: ClientSession):
        """``session``'s requests, each drawn and signed when taken."""
        for _ in range(self.config.requests_per_client):
            yield session.make_request(
                self.rng.randbytes(self.config.payload_size), 0.0)

    # -- event plumbing ----------------------------------------------------

    def _push(self, at: float, item):
        events = self._events
        heapq.heappush(events, (at, next(self._tiebreak), item))
        if len(events) > self._shed_at:
            shed(events, self._live_event)
            self._shed_at = 2 * len(events) + _SHED_SLACK

    def _live_event(self, event) -> bool:
        """False for a timer whose node or client would ignore it."""
        item = event[2]
        if item[0] == "node_timer":
            return self.nodes[item[1]].is_live(item[2], item[3])
        if item[0] == "client_timer":
            return item[2] in self.clients[item[1]].session.pending
        return True

    def _node_trace(self, node: int, event: str, view: int, fields: dict):
        self.trace.append(node, event, view, fields, round(self.now, 9))

    def _record(self, node: int, seq: int, batch: tuple):
        """Append ``node``'s commit record ``(seq, digest, batch)``, with the
        world's own ``wire.batch_digest`` of ``batch``. The first correct
        replica to commit a seq appends its own; a later commit of an equal
        batch appends that same tuple, so each seq's batch is hashed once,
        and any other batch gets its own."""
        shared = self._records.get(seq)
        if shared is not None and shared[2] == batch:
            record = shared
        else:
            record = (seq, wire.batch_digest(batch), batch)
            if shared is None and node not in self.config.faults:
                self._records[seq] = record
        self.committed[node].append(record)

    def _partitioned(self, a: int, b: int) -> bool:
        for start, end, isolated in self.config.partitions:
            if start <= self.now < end and ((a in isolated) != (b in isolated)):
                return True
        return False

    def _transmit(self, src: int, dests, env: WireEnvelope):
        """Schedule ``env``'s delivery to each of ``dests``. Links draw their
        drop and delay in destination order; the codec runs only once a
        link needs the envelope, even one to a crashed node."""
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
                received = wire.decode(wire.encode(env))
            if at < crash_at[dest]:
                heapq.heappush(self._events, (at, next(self._tiebreak),
                                              ("deliver", src, dest,
                                               received)))

    # -- event handlers ----------------------------------------------------

    def _handle(self, item):
        kind = item[0]
        if kind == "deliver":
            _, src, dest, env = item
            node = self.nodes.get(dest)
            if node is None:
                self._client_deliver(dest, env)
            else:
                node.deliver(env)
        elif kind == "node_timer":
            self.nodes[item[1]].timeout(item[2], item[3])
        elif kind == "client_submit":
            self._client_submit(item[1])
        elif kind == "client_timer":
            self._client_timeout(item[1], item[2])

    def _client_submit(self, cid: int):
        cl = self.clients[cid]
        if cl.remaining <= 0:
            return
        cl.remaining -= 1
        req, env, _ = next(cl.requests)
        cl.session.pending[req.request_id].sent_at = self.now
        self._transmit(cid, (cl.session.believed_leader % self.config.n,),
                       env)
        self._push(self.now + self.config.client_timeout,
                   ("client_timer", cid, req.request_id))

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
        self._push(self.now + self.config.client_timeout,
                   ("client_timer", cid, rid))

    def _client_deliver(self, cid: int, env: WireEnvelope):
        cl = self.clients[cid]
        done = cl.session.on_reply(env, self.now)
        if done is not None:
            self.trace.append(cid, "client_done", env.view,
                              {"rid": done.request_id}, round(self.now, 9))
            self._push(self.now, ("client_submit", cid))

    # -- running and checking ----------------------------------------------

    def run(self, until: float = None) -> Trace:
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
        """Every committed non-NOOP batch carries valid client signatures;
        a batch object that several records share is verified once."""
        if not self.keystores:
            return
        ks = self.keystores[0]
        seen = set()
        for i in self.correct_nodes():
            for seq, digest, batch in self.committed[i]:
                if id(batch) in seen:
                    continue
                seen.add(id(batch))
                for req in batch:
                    if not crypto.verify_request(req, ks):
                        raise AssertionError(
                            f"validity violation at node {i} seq {seq}")

    def check_total_order(self):
        """Each correct replica commits seqs 1, 2, 3, ... in that order,
        with no gap and no repeat; with agreement, the committed logs of
        correct replicas are prefix-consistent."""
        for i in self.correct_nodes():
            for want, (seq, _, _) in enumerate(self.committed[i], 1):
                if seq != want:
                    raise AssertionError(f"order violation at node {i}: "
                                         f"seq {seq} where {want} is due")

    def check_exactly_once(self):
        """No correct replica commits one (client, request id) twice."""
        for i in self.correct_nodes():
            ran = set()
            for seq, _, batch in self.committed[i]:
                for req in batch:
                    key = (req.client_id, req.request_id)
                    if key in ran:
                        raise AssertionError(f"request {key} run twice at "
                                             f"node {i}, again at seq {seq}")
                    ran.add(key)

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
            alt = PrePrepareBody((batch[0],) + batch)
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
            h, view = vc.last_stable_seq, env.view - 1
            top = max([e[0] for e in vc.prepared + vc.pre_prepared],
                      default=h + 1)
            p = [(seq, view, PrePrepareBody(
                (Request(FORGED_CLIENT, seq, b"forged"),)))
                for seq in range(h + 1, top + 1)]
            env = WireEnvelope(env.kind, env.view, env.seq, env.sender,
                               ViewChangeBody(
                                   h, vc.checkpoints, tuple(p),
                                   tuple((seq, b.digest, view)
                                         for seq, view, b in p)).encode())
        result.append((dests, env))
    return result


# Fault kind -> pure rewrite of the faulty node's outbound messages.
_REWRITES = {MUTE: lambda outbound: [], EQUIVOCATE: _equivocate,
             FORGE_VC: _forge_view_changes}


def trace_line(rec: dict) -> str:
    """Canonical text rendering of one trace record."""
    return " ".join(f"{k}={v}" for k, v in sorted(rec.items()))


def trace_lines(trace) -> list:
    """Canonical text rendering of a trace, for determinism comparisons."""
    return [trace_line(rec) for rec in trace]
