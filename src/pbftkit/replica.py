"""The replica protocol state machine.

A deterministic core: one logical owner thread feeds it verified messages
and timer events, and it returns a :class:`ProtocolOutput` describing every
effect (outbound messages, newly committed batches, timer actions). It
never touches the network or the clock itself, which is what lets the
discrete-event simulator replay it bit-for-bit.

Quorum rules: an entry is *prepared* with 2f+1 matching votes counting the
leader's PRE_PREPARE as its prepare vote, and *committed* with 2f+1 COMMIT
votes once every lower sequence has committed. A vote is kept as its
sender's bit in a per-digest bitmask, nothing more. The in-memory log is a bounded window above the last
stable checkpoint; collecting 2f+1 matching CHECKPOINT messages advances
the watermark and evicts older entries.

View changes follow Castro & Liskov (ACM TOCS 20(4), 2002, §4.4-4.5).
Each log entry keeps, across views, its P entry (the latest view in which
it prepared, with the batch) and its Q entries (each digest pre-prepared,
with the latest view). A VIEW_CHANGE reports C (the checkpoints held), P
and Q; only its own signature vouches for it. The new leader and every
follower run one pure decision over the set S of 2f+1 to n VIEW_CHANGEs:
the checkpoint is the highest seq that f+1 hold in C with one digest and
at or above 2f+1 stable checkpoints. Above it, seq n gets digest d from a
P entry (n, d, v) when 2f+1 messages with a stable checkpoint below n
report no contradicting P entry for n (each has none, a lower view, or v
with d) and f+1 report (n, d) pre-prepared in view v or later; else the
NOOP if 2f+1 of them have no P entry for n; else the leader waits for
more VIEW_CHANGEs. Replicas vote on every re-proposed seq, also one they
committed (and do not run again), so one that missed COMMITs catches up.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import itemgetter

from . import crypto, wire
from .wire import (NOOP_BODY_DIGEST, MessageKind, NewViewBody,
                   PrePrepareBody, ReplyBody, Request, ViewChangeBody,
                   WireEnvelope, batch_digest, request_envelope,
                   request_from_envelope)

DEFAULT_CHECKPOINT_INTERVAL = 500
DEFAULT_LOG_CAPACITY = 10_000
# A batch's reply digests travel in one auth entry, whose length is a u16.
MAX_BATCH_SIZE = 0xFFFF // crypto.DIGEST_LEN


@dataclass
class ReplicaConfig:
    n: int
    f: int
    self_id: int
    mode: crypto.CryptoMode = crypto.CryptoMode.DOMAIN_OPTIMIZED
    batch_size: int = 1
    batch_timeout: float = 0.01
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL
    log_capacity: int = DEFAULT_LOG_CAPACITY
    view_change_timeout: float = 1.0
    # 2f+1, fixed at construction: the vote path reads it on every vote.
    quorum: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 3 * self.f + 1:
            raise ValueError(f"n={self.n} < 3f+1 with f={self.f}")
        if self.checkpoint_interval >= self.log_capacity:
            raise ValueError("checkpoint_interval must be < log_capacity")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ValueError(f"batch_size {self.batch_size} > "
                             f"{MAX_BATCH_SIZE}")
        self.quorum = 2 * self.f + 1


def primary(view: int, n: int) -> int:
    return view % n


class Status(Enum):
    PRE_PREPARED = "pre_prepared"
    PREPARED = "prepared"
    COMMITTED = "committed"


class Mode(Enum):
    NORMAL = "normal"
    VIEW_CHANGING = "view_changing"


# Module-level aliases for the per-request paths: an enum member read off
# its class costs a slow attribute lookup. Compared by identity.
_PRE_PREPARED = Status.PRE_PREPARED
_PREPARED = Status.PREPARED
_COMMITTED = Status.COMMITTED
_NORMAL = Mode.NORMAL
_VIEW_CHANGING = Mode.VIEW_CHANGING
_PRE_PREPARE = MessageKind.PRE_PREPARE
_PREPARE = MessageKind.PREPARE
_COMMIT = MessageKind.COMMIT
_REPLY = MessageKind.REPLY
_NOOP = PrePrepareBody((), NOOP_BODY_DIGEST)


@dataclass
class LogEntry:
    """One seq's state. ``view``, ``body``, ``status`` and the votes belong
    to the current view; ``prepared`` (P) and ``pre_prepared`` (Q) outlive
    views and are what this replica reports in its VIEW_CHANGEs."""

    seq: int
    view: int = 0
    body: PrePrepareBody = None
    status: Status = None
    # digest -> the set of senders as a bitmask of their ids (an int is no
    # object for the cyclic GC to walk); votes may arrive before the body
    prepare_votes: dict = field(default_factory=dict)
    commit_votes: dict = field(default_factory=dict)
    prepared: tuple = None  # (view, body): the latest view it prepared in
    pre_prepared: dict = field(default_factory=dict)  # digest -> latest view

    @property
    def digest(self):
        return self.body.digest if self.body is not None else None

    def pre_prepare(self, view: int, body: PrePrepareBody, *voters):
        """Accept ``body`` in ``view``; ``voters`` count as its PREPAREs."""
        self.view, self.body, self.status = view, body, _PRE_PREPARED
        self.pre_prepared[body.digest] = view
        for sender in voters:
            _add_vote(self.prepare_votes, body.digest, sender)

    def start_view(self, view: int):
        """Drop the per-view state; P and Q stay."""
        self.view, self.body, self.status = view, None, None
        self.prepare_votes, self.commit_votes = {}, {}


@dataclass(slots=True)
class ProtocolOutput:
    outbound: list = field(default_factory=list)  # (dest id tuple, envelope)
    commits: list = field(default_factory=list)  # (seq, batch tuple)
    timer_starts: list = field(default_factory=list)  # (key, delay seconds)
    timer_stops: list = field(default_factory=list)  # key
    block_signatures: list = field(default_factory=list)  # (seq, signature)


class Replica:
    """One node's protocol engine. Not thread-safe; single owner only.

    Each public entry point returns a fresh :class:`ProtocolOutput`; the
    internal handlers all append their effects to that one accumulator.
    """

    def __init__(self, config: ReplicaConfig, keystore=None,
                 request_verifier=None, vc_verifier=None, tracer=None):
        self.config = config
        self.keystore = keystore
        self.tracer = tracer
        self._verify_request = request_verifier or (
            lambda req: crypto.verify_request(req, self.keystore))
        self._verify_vc_envelope = vc_verifier or (
            lambda env: crypto.verify_incoming(env, self.config.mode,
                                               self.keystore))

        self.view = 0
        self.mode = Mode.NORMAL
        self.h = 0  # last stable checkpoint seq
        self.next_seq = 1  # leader only
        self.committed_seq = 0  # highest contiguously committed seq
        self.log: dict[int, LogEntry] = {}
        self.chain_digest = b"\x00" * 32  # running digest over committed batches
        self._chain_at: dict[int, bytes] = {0: self.chain_digest}
        # seq -> {sender: state digest}; kept from h up, so C names h too
        self.checkpoints: dict[int, dict] = {}
        self.checkpoint_sent: set = set()
        self.reply_cache: dict[int, tuple] = {}  # client -> (rid, REPLY env)
        self.pending_batch: list[Request] = []
        self.deferred: list[Request] = []  # backpressured beyond the window
        self.deferred_keys: set = set()
        self.assigned: dict = {}  # (client, rid) -> seq, or -1 while batched
        self.watching: set = set()  # follower-side requests with a live timer
        self.vc_messages: dict[int, dict] = {}  # view -> {sender: (body, env)}
        self.vc_attempts = 0
        self._pending_view = 0
        self.future: dict[int, list] = {}  # view -> buffered envelopes
        self.counters = {"equivocations": 0, "rejected": 0, "view_changes": 0,
                         "pre_prepares": 0}

    # -- helpers -----------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return primary(self.view, self.config.n) == self.config.self_id

    @cached_property
    def _peers(self) -> tuple:
        return tuple(i for i in range(self.config.n) if i != self.config.self_id)

    def _entry(self, seq: int) -> LogEntry:
        e = self.log.get(seq)
        if e is None:
            e = self.log[seq] = LogEntry(seq)
        return e

    def _trace(self, event: str, **fields):
        if self.tracer is not None:
            self.tracer({"node": self.config.self_id, "event": event,
                         "view": self.view, **fields})

    def _in_window(self, seq: int) -> bool:
        return self.h < seq <= self.h + self.config.log_capacity

    def _env(self, kind, payload, seq=0, view=None):
        return WireEnvelope(kind, self.view if view is None else view, seq,
                            self.config.self_id, payload)

    # -- event entry points ------------------------------------------------

    def on_envelope(self, env: WireEnvelope) -> ProtocolOutput:
        """Dispatch one verified envelope."""
        out = ProtocolOutput()
        self._dispatch(env, out)
        return out

    def _dispatch(self, env: WireEnvelope, out: ProtocolOutput):
        handler = _HANDLERS.get(env.kind)
        if handler is None:
            self.counters["rejected"] += 1
        else:
            handler(self, env, out)

    def on_timeout(self, key) -> ProtocolOutput:
        out = ProtocolOutput()
        if key[0] == "batch":
            self._flush_batch(out)
        elif key[0] == "request":
            _, client, rid = key
            self.watching.discard((client, rid))
            # Escalation while a view change is already in flight is the
            # new_view timer's job, not the per-request timers'.
            if (self.mode == Mode.NORMAL
                    and not self._is_committed_request(client, rid)):
                self._start_view_change(out)
        elif key[0] == "new_view":
            # NEW_VIEW for the pending view never arrived; try the next one.
            if self.mode == Mode.VIEW_CHANGING and key[1] == self._pending_view:
                self._start_view_change(out)
        return out

    # -- client requests ---------------------------------------------------

    def _is_committed_request(self, client, rid) -> bool:
        cached = self.reply_cache.get(client)
        return cached is not None and cached[0] >= rid

    def _on_request_envelope(self, env: WireEnvelope, out: ProtocolOutput):
        try:
            req = request_from_envelope(env)
        except Exception:
            req = None
        # The client signature is checked once, on intake: the leader
        # batches and a follower forwards or watches only verified requests.
        if req is None or not self._verify_request(req):
            self.counters["rejected"] += 1
            return
        self._on_request(req, out)

    def on_request(self, req: Request) -> ProtocolOutput:
        return self.on_envelope(request_envelope(req))

    def _on_request(self, req: Request, out: ProtocolOutput):
        key = (req.client_id, req.request_id)
        cached = self.reply_cache.get(req.client_id)
        if cached is not None and cached[0] == req.request_id:
            # Already committed: re-emit the cached reply only. It names the
            # current view, from which the client learns the leader; a reply
            # signed in this view goes out again without a new signature.
            reply = cached[1]
            if reply.view != self.view or not reply.auths:
                (reply,) = crypto.seal_replies(
                    [self._env(_REPLY, reply.payload, seq=reply.seq)],
                    self.config.mode, self.keystore)
                self.reply_cache[req.client_id] = (req.request_id, reply)
            out.outbound.append(((req.client_id,), reply))
            return
        if cached is not None and cached[0] > req.request_id:
            return  # stale duplicate
        if self.mode is _VIEW_CHANGING:
            if key not in self.deferred_keys:
                self.deferred_keys.add(key)
                self.deferred.append(req)
            return
        if not self.is_leader:
            out.outbound.append(((primary(self.view, self.config.n),),
                                 request_envelope(req)))
            if key not in self.watching:
                self.watching.add(key)
                out.timer_starts.append((("request", req.client_id, req.request_id),
                                         self.config.view_change_timeout))
            return
        if key in self.assigned or key in self.deferred_keys:
            return
        self.assigned[key] = -1
        self.pending_batch.append(req)
        if len(self.pending_batch) >= self.config.batch_size:
            self._flush_batch(out)
        elif len(self.pending_batch) == 1:
            out.timer_starts.append((("batch",), self.config.batch_timeout))

    def _flush_batch(self, out: ProtocolOutput):
        if not self.pending_batch or self.mode is not _NORMAL:
            return
        out.timer_stops.append(("batch",))
        if not self._in_window(self.next_seq):
            # Window full: defer until a checkpoint frees sequence space.
            for req in self.pending_batch:
                key = (req.client_id, req.request_id)
                self.assigned.pop(key, None)
                self.deferred_keys.add(key)
                self.deferred.append(req)
            self.pending_batch = []
            return
        batch = tuple(self.pending_batch[:self.config.batch_size])
        self.pending_batch = self.pending_batch[self.config.batch_size:]
        seq = self.next_seq
        self.next_seq += 1
        body = PrePrepareBody.for_batch(batch)
        env = self._env(_PRE_PREPARE, body.encode(), seq=seq)
        self._entry(seq).pre_prepare(self.view, body, self.config.self_id)
        self.counters["pre_prepares"] += 1
        self._trace("pre_prepare", seq=seq, batch=len(batch))
        out.outbound.append((self._peers, env))
        for req in batch:
            self.assigned[(req.client_id, req.request_id)] = seq
            out.timer_starts.append((("request", req.client_id, req.request_id),
                                     self.config.view_change_timeout))
        if self.pending_batch:
            out.timer_starts.append((("batch",), self.config.batch_timeout))
        self._check_progress(seq, out)

    # -- normal case -------------------------------------------------------

    def _on_pre_prepare(self, env: WireEnvelope, out: ProtocolOutput):
        if env.view != self.view or self.mode is not _NORMAL:
            if env.view > self.view:
                self.future.setdefault(env.view, []).append(env)
            else:
                self.counters["rejected"] += 1
            return
        if env.sender != primary(self.view, self.config.n):
            self.counters["rejected"] += 1
            return
        if not self._in_window(env.seq):
            self.counters["rejected"] += 1
            return
        try:
            body = PrePrepareBody.decode(env.payload)
        except Exception:
            self.counters["rejected"] += 1
            return
        if (not body.batch or body.digest != batch_digest(body.batch)
                or _repeats_request(body.batch)):
            self.counters["rejected"] += 1
            return
        entry = self._entry(env.seq)
        if entry.body is not None:
            if entry.digest != body.digest:
                # Conflicting proposal at an assigned sequence number:
                # keep the accepted entry frozen and count it.
                self.counters["equivocations"] += 1
                self._trace("equivocation", seq=env.seq)
            return
        if not all(self._verify_request(r) for r in body.batch):
            self.counters["rejected"] += 1
            return
        entry.pre_prepare(env.view, body, env.sender, self.config.self_id)
        for req in body.batch:
            key = (req.client_id, req.request_id)
            self.assigned[key] = env.seq
            if key not in self.watching:
                self.watching.add(key)
                out.timer_starts.append((("request", req.client_id,
                                          req.request_id),
                                         self.config.view_change_timeout))
        out.outbound.append((self._peers,
                             self._env(_PREPARE, body.digest, seq=env.seq)))
        self._trace("accept_pre_prepare", seq=env.seq)
        self._check_progress(env.seq, out)

    def _on_vote(self, env: WireEnvelope, out: ProtocolOutput):
        """A PREPARE or COMMIT vote; the payload is the voted digest."""
        view = env.view
        if view != self.view or self.mode is not _NORMAL:
            if view > self.view:
                self.future.setdefault(view, []).append(env)
            else:
                self.counters["rejected"] += 1
            return
        seq = env.seq
        h = self.h
        if (not h < seq <= h + self.config.log_capacity
                or len(env.payload) != 32):
            self.counters["rejected"] += 1
            return
        entry = self.log.get(seq)
        if entry is None:
            entry = self.log[seq] = LogEntry(seq)
        votes = (entry.commit_votes if env.kind is _COMMIT
                 else entry.prepare_votes)
        votes[env.payload] = votes.get(env.payload, 0) | 1 << env.sender
        self._check_progress(seq, out)

    def _check_progress(self, seq: int, out: ProtocolOutput):
        """Drive an entry through prepared -> committed as quorums complete."""
        entry = self.log.get(seq)
        if entry is None or entry.body is None:
            return
        status = entry.status
        if status is _COMMITTED:
            return
        q = self.config.quorum
        digest = entry.body.digest
        if status is _PREPARED:
            if entry.commit_votes.get(digest, 0).bit_count() >= q:
                self._try_commit(out)
            return
        if (status is _PRE_PREPARED
                and entry.prepare_votes.get(digest, 0).bit_count() >= q):
            entry.status = _PREPARED
            entry.prepared = (entry.view, entry.body)
            _add_vote(entry.commit_votes, digest, self.config.self_id)
            out.outbound.append((self._peers, self._env(
                _COMMIT, digest, seq=seq, view=entry.view)))
            self._trace("prepared", seq=seq)
            if entry.commit_votes[digest].bit_count() >= q:
                self._try_commit(out)

    def _try_commit(self, out: ProtocolOutput):
        """Commit eligible entries strictly in sequence order."""
        q = self.config.quorum
        log = self.log
        while True:
            seq = self.committed_seq + 1
            entry = log.get(seq)
            # A PREPARED entry always has its body.
            if (entry is None or entry.status is not _PREPARED
                    or entry.commit_votes.get(entry.body.digest, 0).bit_count()
                    < q):
                break
            entry.status = _COMMITTED
            self.committed_seq = seq
            batch = entry.body.batch
            self.chain_digest = hashlib.sha256(
                self.chain_digest + entry.body.digest).digest()
            self._chain_at[seq] = self.chain_digest
            out.commits.append((seq, batch))
            replies = [self._env(_REPLY, ReplyBody(
                req.client_id, req.request_id, seq,
                crypto.digest(req.canonical_bytes())).encode(), seq=seq)
                for req in batch]
            replies = crypto.seal_replies(replies, self.config.mode,
                                          self.keystore)
            for req, reply in zip(batch, replies):
                self.reply_cache[req.client_id] = (req.request_id, reply)
                self.watching.discard((req.client_id, req.request_id))
                out.outbound.append(((req.client_id,), reply))
                out.timer_stops.append(("request", req.client_id,
                                        req.request_id))
            self._trace("committed", seq=seq, batch=len(batch))
            self._maybe_checkpoint(out)

    # -- checkpointing -----------------------------------------------------

    def _state_digest(self, seq: int) -> bytes:
        chain = self._chain_at[seq]
        h = hashlib.sha256(chain)
        for client in sorted(self.reply_cache):
            h.update(self.reply_cache[client][1].payload)
        return h.digest()

    def _maybe_checkpoint(self, out: ProtocolOutput):
        seq = self.committed_seq
        if seq % self.config.checkpoint_interval != 0 or seq == 0:
            return
        if seq in self.checkpoint_sent:
            return
        self.checkpoint_sent.add(seq)
        sd = self._state_digest(seq)
        env = self._env(MessageKind.CHECKPOINT, sd, seq=seq)
        self.checkpoints.setdefault(seq, {})[self.config.self_id] = sd
        out.outbound.append((self._peers, env))
        self._trace("checkpoint", seq=seq)
        # Periodic PK block signature over the checkpointed range, where the
        # mode takes one, so third parties can audit the log coarsely.
        sig = crypto.block_signature(sd, self.config.mode, self.keystore)
        if sig is not None:
            out.block_signatures.append((seq, sig))
        self._advance_watermark(seq, out)

    def _on_checkpoint(self, env: WireEnvelope, out: ProtocolOutput):
        if len(env.payload) != 32 or env.seq <= self.h:
            return
        # Votes are kept only where a checkpoint can fall, so a peer cannot
        # grow ``checkpoints`` past log_capacity / checkpoint_interval seqs.
        if (env.seq % self.config.checkpoint_interval != 0
                or env.seq > self.h + self.config.log_capacity):
            self.counters["rejected"] += 1
            return
        self.checkpoints.setdefault(env.seq, {})[env.sender] = env.payload
        self._advance_watermark(env.seq, out)

    def _advance_watermark(self, seq: int, out: ProtocolOutput):
        if seq <= self.h or self.committed_seq < seq:
            return
        tally = Counter(self.checkpoints.get(seq, {}).values())
        if max(tally.values(), default=0) < self.config.quorum:
            return
        self.h = seq
        for s in [s for s in self.log if s <= seq]:
            del self.log[s]
        for s in [s for s in self.checkpoints if s < seq]:
            del self.checkpoints[s]
        for s in [s for s in self._chain_at if s < seq]:
            del self._chain_at[s]
        for k in [k for k, s in self.assigned.items() if 0 <= s <= seq]:
            del self.assigned[k]
        self.checkpoint_sent = {s for s in self.checkpoint_sent if s > seq}
        self._trace("stable_checkpoint", seq=seq)
        self._retry_deferred(out)

    def _retry_deferred(self, out: ProtocolOutput):
        if self.mode != Mode.NORMAL:
            return
        deferred, self.deferred = self.deferred, []
        self.deferred_keys.clear()
        for req in deferred:
            self._on_request(req, out)

    # -- view change -------------------------------------------------------

    def start_view_change(self) -> ProtocolOutput:
        out = ProtocolOutput()
        self._start_view_change(out)
        return out

    def _start_view_change(self, out: ProtocolOutput):
        self._enter_view_change(self.view + 1 if self.mode == Mode.NORMAL
                                else self._pending_view + 1, out)

    def _view_change_body(self, target: int) -> ViewChangeBody:
        """VIEW_CHANGE(target, h, C, P, Q) from this replica's log."""
        me = self.config.self_id
        log = [(seq, self.log[seq]) for seq in sorted(self.log)]
        return ViewChangeBody(
            target, self.h,
            tuple((seq, votes[me]) for seq, votes
                  in sorted(self.checkpoints.items()) if me in votes),
            tuple((seq, *e.prepared) for seq, e in log if e.prepared),
            tuple((seq, d, view) for seq, e in log
                  for d, view in e.pre_prepared.items()))

    def _enter_view_change(self, target: int, out: ProtocolOutput):
        if self.mode == Mode.VIEW_CHANGING and target <= self._pending_view:
            return
        if self.mode == Mode.NORMAL:
            self.vc_attempts = 0
        self.mode = Mode.VIEW_CHANGING
        self._pending_view = target
        self.counters["view_changes"] += 1
        body = self._view_change_body(target)
        env = self._env(MessageKind.VIEW_CHANGE, body.encode(), view=target)
        out.outbound.append((self._peers, env))
        # Exponent cap keeps a lone stalled replica's backoff finite; without
        # state transfer it cannot rejoin anyway and must not overflow time.
        delay = self.config.view_change_timeout * (2 ** min(self.vc_attempts, 24))
        self.vc_attempts += 1
        out.timer_starts.append((("new_view", target), delay))
        self._trace("view_change", target=target)
        # Count our own VIEW_CHANGE; if we lead the target view we may
        # already hold a quorum from earlier arrivals.
        self.vc_messages.setdefault(target, {})[self.config.self_id] = \
            (body, env)
        self._maybe_new_view(target, out)

    def _on_view_change(self, env: WireEnvelope, out: ProtocolOutput):
        target = env.view
        if target <= self.view:
            return
        try:
            body = ViewChangeBody.decode(env.payload)
        except wire.WireError:
            self.counters["rejected"] += 1
            return
        if body.new_view != target or not self._valid_view_change(body):
            self.counters["rejected"] += 1
            return
        self.vc_messages.setdefault(target, {})[env.sender] = (body, env)
        # Liveness: join the view change once f+1 others are attempting it.
        current_target = self._pending_view if self.mode == Mode.VIEW_CHANGING \
            else self.view
        if target > current_target:
            others = [s for s in self.vc_messages.get(target, {})
                      if s != self.config.self_id]
            if len(others) >= self.config.f + 1:
                self._enter_view_change(target, out)
                return
        self._maybe_new_view(target, out)

    def _valid_view_change(self, body: ViewChangeBody) -> bool:
        """Structural checks only: every entry lies in the sender's window
        and names an earlier view, each P body matches its digest and
        repeats no request, and P has one entry per seq. What the entries
        claim is weighed by :meth:`_decide`, never trusted here."""
        low = body.last_stable_seq
        high = low + self.config.log_capacity
        return (len({e[0] for e in body.prepared}) == len(body.prepared)
                and all(low <= seq <= high for seq, _ in body.checkpoints)
                and all(low < seq <= high and view < body.new_view
                        for seq, _, view in body.pre_prepared)
                and all(low < seq <= high and view < body.new_view
                        and b.digest == batch_digest(b.batch)
                        and not _repeats_request(b.batch)
                        for seq, view, b in body.prepared))

    def _maybe_new_view(self, target: int, out: ProtocolOutput):
        if primary(target, self.config.n) != self.config.self_id:
            return
        if self.mode != Mode.VIEW_CHANGING or self._pending_view != target:
            return
        msgs = self.vc_messages.get(target, {})
        if len(msgs) < self.config.quorum:
            return
        senders = sorted(msgs)
        chosen = self._decide([msgs[s][0] for s in senders])
        if chosen is None:
            return  # some seq is undecided: wait for more VIEW_CHANGEs
        # Own VIEW_CHANGE must carry its signature in the proof.
        frames = tuple(
            crypto.seal(msgs[s][1], (), self.config.mode, self.keystore)
            if s == self.config.self_id else wire.encode(msgs[s][1])
            for s in senders)
        nv_body = NewViewBody(target, frames,
                              tuple((seq, b.digest) for seq, b in chosen))
        nv_env = self._env(MessageKind.NEW_VIEW, nv_body.encode(), view=target)
        out.outbound.append((self._peers, nv_env))
        self._install_view(target, chosen, True, out)
        self._trace("new_view", target=target, entries=len(chosen))

    def _decide(self, vcs):
        """The set O decided over the VIEW_CHANGEs ``vcs`` of distinct
        senders: ((seq, body), ...) in seq order, or None while a seq is
        undecided or a chosen batch has no body this replica can accept."""
        f, q = self.config.f, self.config.quorum
        held = Counter(c for vc in vcs for c in set(vc.checkpoints))
        base = max((seq for (seq, _), k in held.items() if k > f and sum(
            vc.last_stable_seq <= seq for vc in vcs) >= q), default=0)
        prepared = [{seq: (view, b) for seq, view, b in vc.prepared}
                    for vc in vcs]
        # Per message: (seq, digest) -> the latest view it pre-prepared in.
        pre_prepared = [{(seq, d): view for seq, d, view
                         in sorted(vc.pre_prepared, key=itemgetter(2))}
                        for vc in vcs]
        high = base + self.config.log_capacity  # O stays in base's window
        top = max((seq for p in prepared for seq in p if base < seq <= high),
                  default=base)
        chosen = []
        for seq in range(base + 1, top + 1):
            # P entries at seq of the messages whose window covers it.
            live = [p.get(seq) for vc, p in zip(vcs, prepared)
                    if vc.last_stable_seq < seq]
            claims = sorted({(e[0], e[1].digest) for p in prepared
                             for e in [p.get(seq)] if e}, reverse=True)
            d = next((d for view, d in claims if sum(
                e is None or e[0] < view or (e[0], e[1].digest) == (view, d)
                for e in live) >= q and sum(
                    p.get((seq, d), -1) >= view for p in pre_prepared) > f),
                None)
            if d is not None:
                body = self._body_for(seq, d, prepared)
            else:
                body = _NOOP if sum(e is None for e in live) >= q else None
            if body is None:
                return None
            chosen.append((seq, body))
        while chosen and chosen[-1][1] is _NOOP:
            chosen.pop()  # nothing prepared above: the seqs stay free
        return chosen

    def _body_for(self, seq: int, d: bytes, prepared):
        """The batch with digest ``d`` for ``seq``: the one this replica
        accepted, or else a P body whose client signatures check out."""
        entry = self.log.get(seq)
        if entry is not None:
            for b in (entry.body, entry.prepared and entry.prepared[1]):
                if b and b.digest == d:
                    return b
        for p in prepared:
            _, b = p.get(seq, (None, None))
            if b and b.digest == d and all(map(self._verify_request, b.batch)):
                return b
        return None

    def _on_new_view(self, env: WireEnvelope, out: ProtocolOutput):
        target = env.view
        if target <= self.view or env.sender != primary(target, self.config.n):
            return
        try:
            body = NewViewBody.decode(env.payload)
        except wire.WireError:
            self.counters["rejected"] += 1
            return
        chosen = self._check_new_view(body)
        if chosen is None:
            self.counters["rejected"] += 1
            # A provably bad NEW_VIEW from the new leader: move past it.
            self._enter_view_change(target + 1, out)
            return
        self._install_view(target, chosen, False, out)
        self._trace("adopt_new_view", target=target)

    def _check_new_view(self, body: NewViewBody):
        """Re-decide O over the embedded VIEW_CHANGEs (2f+1 to n verified,
        distinct senders); the chosen bodies, or None unless the leader's O
        matches."""
        if not self.config.quorum <= len(body.view_changes) <= self.config.n:
            return None
        senders = set()
        vcs = []
        for frame in body.view_changes:
            try:
                env = wire.decode(frame)
                vc = ViewChangeBody.decode(env.payload)
            except wire.WireError:
                return None
            if (env.kind != MessageKind.VIEW_CHANGE or env.view != body.view
                    or vc.new_view != body.view or env.sender in senders
                    or not self._valid_view_change(vc)
                    or not self._verify_vc_envelope(env)):
                return None
            senders.add(env.sender)
            vcs.append(vc)
        chosen = self._decide(vcs)
        if chosen is None or tuple(
                (seq, b.digest) for seq, b in chosen) != body.reproposals:
            return None
        return chosen

    def _install_view(self, target: int, chosen, leader: bool,
                      out: ProtocolOutput):
        self.view = target
        self.mode = Mode.NORMAL
        self.vc_attempts = 0
        out.timer_stops.append(("new_view", target))
        new_leader = primary(target, self.config.n)
        # Anything uncommitted that O does not carry over is abandoned; its
        # sequence numbers will be reassigned in the new view. P and Q stay.
        repro = dict(chosen)
        for seq in [s for s in self.log if s not in repro]:
            entry = self.log[seq]
            if seq <= self.committed_seq:
                entry.status = _COMMITTED
            elif entry.pre_prepared:
                entry.start_view(target)
            else:
                del self.log[seq]
        for k in [k for k, s in self.assigned.items()
                  if s == -1 or (s > self.committed_seq and s not in repro)]:
            del self.assigned[k]
        self.pending_batch = []
        # Every replica votes on every seq in O, also one it has already
        # committed: a peer that missed the COMMITs needs those votes.
        for seq, body in chosen:
            entry = self._entry(seq)
            entry.start_view(target)
            entry.pre_prepare(target, body, new_leader, self.config.self_id)
            for req in body.batch:
                self.assigned[(req.client_id, req.request_id)] = seq
            if not leader:
                out.outbound.append((self._peers, self._env(
                    MessageKind.PREPARE, body.digest, seq=seq)))
        self.next_seq = max(chosen[-1][0] if chosen else 0,
                            self.committed_seq, self.h) + 1
        # Drop stale per-view bookkeeping and replay buffered future traffic.
        for v in [v for v in self.vc_messages if v <= target]:
            del self.vc_messages[v]
        for seq, body in chosen:
            self._check_progress(seq, out)
        buffered = self.future.pop(target, [])
        self.future = {v: envs for v, envs in self.future.items() if v > target}
        for env in buffered:
            self._dispatch(env, out)
        # Requests parked during the view change re-enter the protocol.
        self._retry_deferred(out)


def _add_vote(votes: dict, digest: bytes, sender: int):
    votes[digest] = votes.get(digest, 0) | 1 << sender


def _repeats_request(batch) -> bool:
    """A request repeated within one batch would execute twice."""
    return len({(r.client_id, r.request_id) for r in batch}) != len(batch)


# Message kind -> handler(replica, envelope, output); REPLY has none.
_HANDLERS = {
    MessageKind.REQUEST: Replica._on_request_envelope,
    MessageKind.PRE_PREPARE: Replica._on_pre_prepare,
    MessageKind.PREPARE: Replica._on_vote,
    MessageKind.COMMIT: Replica._on_vote,
    MessageKind.CHECKPOINT: Replica._on_checkpoint,
    MessageKind.VIEW_CHANGE: Replica._on_view_change,
    MessageKind.NEW_VIEW: Replica._on_new_view,
}

