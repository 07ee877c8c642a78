"""Client-side request submission and reply collection.

A session signs each opaque payload with the client's PK key (every mode
requires that), sends it to the believed leader, and accepts a result only
once f+1 distinct replicas returned matching reply digests. On timeout it
retransmits to every replica and marks the leader suspect. The session is
transport-agnostic: callers pull outbound envelopes from the returned
actions and feed replies back in.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .wire import (MessageKind, ReplyBody, Request, WireEnvelope, WireError,
                   request_envelope)


class RequestFailed(Exception):
    """Retransmit budget exhausted without a reply quorum."""


@dataclass(slots=True)
class PendingRequest:
    """One outstanding request. Its reply dicts are made at the first
    verified reply; until then both are the empty tuple."""

    request: Request
    sent_at: float
    replies: dict | tuple = ()  # replica id -> result digest
    reply_views: dict | tuple = ()  # replica id -> view
    retransmits: int = 0


@dataclass(slots=True)
class Completion:
    request_id: int
    result_digest: bytes
    latency: float


class ClientSession:
    """Single-owner session for one client id."""

    def __init__(self, client_id: int, n: int, f: int,
                 mode: crypto.CryptoMode, keystore=None,
                 retransmit_limit: int = 10):
        self.client_id = client_id
        self.n = n
        self.f = f
        self.mode = mode
        self.keystore = keystore
        self.retransmit_limit = retransmit_limit
        self.next_request_id = 0
        self.believed_leader = 0
        self.pending: dict[int, PendingRequest] = {}
        self.completions: list[Completion] = []

    @property
    def reply_quorum(self) -> int:
        return self.f + 1

    def make_request(self, payload: bytes, now: float) -> tuple:
        """Sign a new request; returns (request, envelope, leader id)."""
        rid = self.next_request_id
        self.next_request_id += 1
        req = Request(self.client_id, rid, payload)
        if self.keystore is not None:
            req = crypto.sign_request(req, self.keystore)
        self.pending[rid] = PendingRequest(req, now)
        return req, request_envelope(req), self.believed_leader

    def verify_reply(self, env: WireEnvelope) -> bool:
        """Policy check for an incoming REPLY; rejects never raise."""
        return (env.kind == MessageKind.REPLY and 0 <= env.sender < self.n
                and crypto.verify_incoming(env, self.mode, self.keystore))

    def on_reply(self, env: WireEnvelope, now: float):
        """Count one verified reply; returns a Completion on quorum."""
        try:
            body = ReplyBody.decode(env.payload)
        except WireError:
            return None
        if body.client_id != self.client_id:
            return None
        pend = self.pending.get(body.request_id)
        if pend is None or env.sender in pend.replies:
            # Surplus replies past quorum and duplicates are dropped before
            # any signature work is spent on them.
            return None
        if not self.verify_reply(env):
            return None
        if not pend.replies:
            pend.replies, pend.reply_views = {}, {}
        pend.replies[env.sender] = body.result_digest
        pend.reply_views[env.sender] = env.view
        votes = sum(1 for d in pend.replies.values()
                    if d == body.result_digest)
        if votes >= self.reply_quorum:
            del self.pending[body.request_id]
            # Follow the (f+1)-th highest view replied: at least one correct
            # replica is in it or later, so no f replicas can move the
            # client to a leader of their choosing.
            views = sorted(pend.reply_views.values(), reverse=True)
            self.believed_leader = views[self.f] % self.n
            done = Completion(body.request_id, body.result_digest,
                              now - pend.sent_at)
            self.completions.append(done)
            return done
        return None

    def on_timeout(self, request_id: int):
        """Retransmit to all replicas; raises RequestFailed past the budget."""
        pend = self.pending.get(request_id)
        if pend is None:
            return None
        pend.retransmits += 1
        if pend.retransmits > self.retransmit_limit:
            del self.pending[request_id]
            raise RequestFailed(f"request {request_id} exhausted retransmits")
        self.believed_leader = (self.believed_leader + 1) % self.n
        return tuple(range(self.n)), request_envelope(pend.request)
