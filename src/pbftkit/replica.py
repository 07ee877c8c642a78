"""The replica protocol state machine.

A deterministic core: one logical owner thread feeds it verified messages
and timer events, and it returns a :class:`ProtocolOutput` describing every
effect (outbound messages, newly committed batches, timer actions). It
never touches the network or the clock itself, which is what lets the
discrete-event simulator replay it bit-for-bit.

Quorum rules: an entry is *prepared* with 2f+1 matching votes counting the
leader's PRE_PREPARE as its prepare vote, and *committed* with 2f+1 COMMIT
votes once every lower sequence has committed. The in-memory log is a
bounded window above the last stable checkpoint; collecting 2f+1 matching
CHECKPOINT messages advances the watermark and evicts older entries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from . import crypto, wire
from .wire import (Certificate, MessageKind, NewViewBody, PrePrepareBody,
                   ReplyBody, Request, ViewChangeBody, WireEnvelope,
                   batch_digest, request_envelope, request_from_envelope)

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


@dataclass
class LogEntry:
    seq: int
    view: int = 0
    body: PrePrepareBody = None
    pre_prepare_frame: bytes = None
    status: Status = None
    # digest -> {sender: frame}; votes may arrive before the body does
    prepare_votes: dict = field(default_factory=dict)
    commit_votes: dict = field(default_factory=dict)
    prepare_sent: bool = False
    commit_sent: bool = False

    @property
    def digest(self):
        return self.body.digest if self.body is not None else None

    def prepare_cert(self) -> Certificate:
        votes = self.prepare_votes.get(self.digest, {})
        return Certificate(self.view, self.seq, self.digest,
                           tuple(sorted(votes.items())))


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
        self.checkpoints: dict[int, dict] = {}  # seq -> {sender: (digest, frame)}
        self.checkpoint_sent: set = set()
        self.stable_proof = Certificate(0, 0, b"\x00" * 32, ())
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
        self.equivocation: list = []
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
        entry = self._entry(seq)
        entry.view, entry.body, entry.status = self.view, body, _PRE_PREPARED
        frame = env.signing_bytes()
        entry.pre_prepare_frame = frame
        entry.prepare_votes.setdefault(body.digest, {})[self.config.self_id] = frame
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
        if not body.batch or body.digest != batch_digest(body.batch):
            self.counters["rejected"] += 1
            return
        # A request repeated within one batch would execute twice.
        if len({(r.client_id, r.request_id) for r in body.batch}) \
                != len(body.batch):
            self.counters["rejected"] += 1
            return
        entry = self._entry(env.seq)
        if entry.body is not None:
            if entry.digest != body.digest:
                # Conflicting proposal at an assigned sequence number:
                # keep the accepted entry frozen and record the evidence.
                self.counters["equivocations"] += 1
                self.equivocation.append((env.view, env.seq, entry.digest,
                                          body.digest, env.signing_bytes()))
                self._trace("equivocation", seq=env.seq)
            return
        if not all(self._verify_request(r) for r in body.batch):
            self.counters["rejected"] += 1
            return
        entry.view, entry.body, entry.status = env.view, body, _PRE_PREPARED
        entry.pre_prepare_frame = env.signing_bytes()
        entry.prepare_votes.setdefault(body.digest, {})[env.sender] = \
            entry.pre_prepare_frame
        for req in body.batch:
            key = (req.client_id, req.request_id)
            self.assigned[key] = env.seq
            if key not in self.watching:
                self.watching.add(key)
                out.timer_starts.append((("request", req.client_id,
                                          req.request_id),
                                         self.config.view_change_timeout))
        prep = self._env(_PREPARE, body.digest, seq=env.seq)
        entry.prepare_votes[body.digest][self.config.self_id] = prep.signing_bytes()
        entry.prepare_sent = True
        out.outbound.append((self._peers, prep))
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
                 else entry.prepare_votes).setdefault(env.payload, {})
        if env.sender not in votes:
            votes[env.sender] = env.signing_bytes()
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
            if len(entry.commit_votes.get(digest, ())) >= q:
                self._try_commit(out)
            return
        if (status is _PRE_PREPARED and not entry.commit_sent
                and len(entry.prepare_votes.get(digest, ())) >= q):
            entry.status = _PREPARED
            entry.commit_sent = True
            com = self._env(_COMMIT, digest, seq=seq,
                            view=entry.view)
            entry.commit_votes.setdefault(digest, {})[self.config.self_id] = \
                com.signing_bytes()
            out.outbound.append((self._peers, com))
            self._trace("prepared", seq=seq)
            if len(entry.commit_votes[digest]) >= q:
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
                    or len(entry.commit_votes.get(entry.body.digest, ())) < q):
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
        self.checkpoints.setdefault(seq, {})[self.config.self_id] = \
            (sd, env.signing_bytes())
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
        self.checkpoints.setdefault(env.seq, {})[env.sender] = \
            (env.payload, env.signing_bytes())
        self._advance_watermark(env.seq, out)

    def _advance_watermark(self, seq: int, out: ProtocolOutput):
        votes = self.checkpoints.get(seq, {})
        if seq <= self.h or self.committed_seq < seq:
            return
        by_digest = {}
        for sender, (d, frame) in votes.items():
            by_digest.setdefault(d, []).append((sender, frame))
        for d, senders in by_digest.items():
            if len(senders) >= self.config.quorum:
                self.stable_proof = Certificate(0, seq, d, tuple(sorted(senders)))
                self.h = seq
                for s in [s for s in self.log if s <= seq]:
                    del self.log[s]
                for s in [s for s in self.checkpoints if s <= seq]:
                    del self.checkpoints[s]
                for s in [s for s in self._chain_at if s < seq]:
                    del self._chain_at[s]
                for k in [k for k, s in self.assigned.items()
                          if 0 <= s <= seq]:
                    del self.assigned[k]
                self.checkpoint_sent = {s for s in self.checkpoint_sent
                                        if s > seq}
                self._trace("stable_checkpoint", seq=seq)
                self._retry_deferred(out)
                break

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

    def _prepared_set(self):
        entries = []
        for seq in sorted(self.log):
            entry = self.log[seq]
            if entry.body is None or entry.status is None:
                continue
            if entry.status in (Status.PREPARED, Status.COMMITTED) and seq > self.h:
                entries.append((seq, entry.view, entry.digest,
                                entry.prepare_cert()))
        return tuple(entries)

    def _enter_view_change(self, target: int, out: ProtocolOutput):
        if self.mode == Mode.VIEW_CHANGING and target <= self._pending_view:
            return
        if self.mode == Mode.NORMAL:
            self.vc_attempts = 0
        self.mode = Mode.VIEW_CHANGING
        self._pending_view = target
        self.counters["view_changes"] += 1
        body = ViewChangeBody(target, self.h, self.stable_proof,
                              self._prepared_set())
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
        except Exception:
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
        q = self.config.quorum
        proof = body.checkpoint_proof
        if body.last_stable_seq > 0:
            if proof.seq != body.last_stable_seq or len(proof.senders()) < q:
                return False
        for seq, view, d, cert in body.prepared_set:
            if seq <= body.last_stable_seq:
                return False
            if cert.seq != seq or cert.digest != d or len(cert.senders()) < q:
                return False
        return True

    def _maybe_new_view(self, target: int, out: ProtocolOutput):
        if primary(target, self.config.n) != self.config.self_id:
            return
        if self.mode != Mode.VIEW_CHANGING or self._pending_view != target:
            return
        msgs = self.vc_messages.get(target, {})
        if len(msgs) < self.config.quorum:
            return
        senders = sorted(msgs)[:self.config.quorum]
        vcs = [msgs[s][0] for s in senders]
        reproposals = self._compute_reproposals(vcs)
        frames = []
        for s in senders:
            env = msgs[s][1]
            # Own VIEW_CHANGE must carry its signature in the proof.
            frames.append(crypto.seal(env, (), self.config.mode, self.keystore)
                          if s == self.config.self_id else wire.encode(env))
        nv_body = NewViewBody(target, tuple(frames), reproposals)
        nv_env = self._env(MessageKind.NEW_VIEW, nv_body.encode(), view=target)
        out.outbound.append((self._peers, nv_env))
        self._install_view(target, reproposals, True, out)
        self._trace("new_view", target=target, entries=len(reproposals))

    def _compute_reproposals(self, vcs):
        """The set O: for every seq above the highest stable checkpoint up
        to the highest prepared seq, the highest-view prepared batch, or the
        NOOP filler when no certificate covers the gap."""
        base = max(vc.last_stable_seq for vc in vcs)
        best = {}
        top = base
        for vc in vcs:
            for seq, view, d, cert in vc.prepared_set:
                if seq <= base:
                    continue
                top = max(top, seq)
                cur = best.get(seq)
                if cur is None or view > cur[0]:
                    body = self._batch_from_cert(cert)
                    if body is not None:
                        best[seq] = (view, body)
        repro = []
        for seq in range(base + 1, top + 1):
            if seq in best:
                repro.append((seq, best[seq][1]))
            else:
                repro.append((seq, PrePrepareBody((), batch_digest(()))))
        return tuple(repro)

    def _batch_from_cert(self, cert: Certificate):
        """Recover the proposed batch from the PRE_PREPARE vote inside a
        prepare certificate; reject certificates whose batch fails client
        signature checks or does not match the certified digest."""
        for sender, frame in cert.votes:
            try:
                env = _decode_signing_frame(frame)
            except Exception:
                continue
            if env.kind != MessageKind.PRE_PREPARE:
                continue
            try:
                body = PrePrepareBody.decode(env.payload)
            except Exception:
                return None
            if body.digest != cert.digest or body.digest != batch_digest(body.batch):
                return None
            if not all(self._verify_request(r) for r in body.batch):
                return None
            return body
        return None

    def _on_new_view(self, env: WireEnvelope, out: ProtocolOutput):
        target = env.view
        if target <= self.view or env.sender != primary(target, self.config.n):
            return
        try:
            body = NewViewBody.decode(env.payload)
        except Exception:
            self.counters["rejected"] += 1
            return
        check = self._check_new_view(body)
        if check is None:
            self.counters["rejected"] += 1
            # A provably bad NEW_VIEW from the new leader: move past it.
            self._enter_view_change(target + 1, out)
            return
        self._install_view(target, body.reproposals, False, out)
        self._trace("adopt_new_view", target=target)

    def _check_new_view(self, body: NewViewBody):
        """Recompute O from the embedded proof and compare with the leader's."""
        q = self.config.quorum
        if len(body.view_change_proof) != q:
            return None
        senders = set()
        vcs = []
        for frame in body.view_change_proof:
            try:
                env = wire.decode(frame)
                vc = ViewChangeBody.decode(env.payload)
            except Exception:
                return None
            if env.kind != MessageKind.VIEW_CHANGE or env.view != body.view:
                return None
            if vc.new_view != body.view or not self._valid_view_change(vc):
                return None
            if not self._verify_vc_envelope(env):
                return None
            if env.sender in senders:
                return None
            senders.add(env.sender)
            vcs.append(vc)
        expect = self._compute_reproposals(vcs)
        got = tuple((seq, b.digest) for seq, b in body.reproposals)
        want = tuple((seq, b.digest) for seq, b in expect)
        if got != want:
            return None
        for seq, b in body.reproposals:
            if b.digest != batch_digest(b.batch):
                return None
            if b.batch and not all(self._verify_request(r) for r in b.batch):
                return None
        return body.reproposals

    def _install_view(self, target: int, reproposals, leader: bool,
                      out: ProtocolOutput):
        self.view = target
        self.mode = Mode.NORMAL
        self.vc_attempts = 0
        out.timer_stops.append(("new_view", target))
        new_leader = primary(target, self.config.n)
        # Anything uncommitted that O does not carry over is abandoned; its
        # sequence numbers will be reassigned in the new view.
        repro_seqs = {seq for seq, _ in reproposals}
        for seq in [s for s in self.log if s > self.committed_seq
                    and s not in repro_seqs]:
            del self.log[seq]
        for k in [k for k, s in self.assigned.items()
                  if s == -1 or (s > self.committed_seq and s not in repro_seqs)]:
            del self.assigned[k]
        self.pending_batch = []
        max_seq = self.h
        for seq, body in reproposals:
            max_seq = max(max_seq, seq)
            if seq <= self.committed_seq:
                continue  # already executed locally; keep the committed entry
            entry = self.log[seq] = LogEntry(seq)
            entry.view, entry.body, entry.status = target, body, Status.PRE_PREPARED
            entry.prepare_sent = False
            entry.commit_sent = False
            env = WireEnvelope(MessageKind.PRE_PREPARE, target, seq, new_leader,
                               body.encode())
            entry.pre_prepare_frame = env.signing_bytes()
            entry.prepare_votes.setdefault(body.digest, {})[new_leader] = \
                entry.pre_prepare_frame
            for req in body.batch:
                self.assigned[(req.client_id, req.request_id)] = seq
            if not leader:
                prep = self._env(MessageKind.PREPARE, body.digest, seq=seq,
                                 view=target)
                entry.prepare_votes[body.digest][self.config.self_id] = \
                    prep.signing_bytes()
                entry.prepare_sent = True
                out.outbound.append((self._peers, prep))
        self.next_seq = max(max_seq, self.committed_seq, self.h) + 1
        # Drop stale per-view bookkeeping and replay buffered future traffic.
        for v in [v for v in self.vc_messages if v <= target]:
            del self.vc_messages[v]
        for seq, body in reproposals:
            self._check_progress(seq, out)
        buffered = self.future.pop(target, [])
        self.future = {v: envs for v, envs in self.future.items() if v > target}
        for env in buffered:
            self._dispatch(env, out)
        # Requests parked during the view change re-enter the protocol.
        self._retry_deferred(out)


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


def _decode_signing_frame(frame: bytes):
    """Decode either a full wire frame or bare signing bytes into an envelope.

    Certificates store the signing-bytes form for votes counted locally and
    the framed form for votes received off the wire; both decode here.
    """
    import struct as _struct
    if len(frame) >= 4:
        (prefix,) = _struct.unpack_from("<I", frame)
        if prefix == len(frame) - 4:
            return wire.decode(frame)
    # signing-bytes layout: head + payload, no auth section
    kind, view, seq, sender, plen = wire._HEAD.unpack_from(frame)
    if wire._HEAD.size + plen != len(frame):
        raise wire.Malformed("bad signing frame")
    return WireEnvelope(MessageKind(kind), view, seq, sender,
                        frame[wire._HEAD.size:])
