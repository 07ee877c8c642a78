"""Protocol core: quorum arithmetic, batching, checkpoints, view changes."""

from collections import deque

import pytest

from pbftkit import wire
from pbftkit.client import ClientSession
from pbftkit.crypto import CryptoMode, KeyStore
from pbftkit.replica import (Mode, Replica, ReplicaConfig, Status, primary)
from pbftkit.simnet import build_keystores
from pbftkit.wire import (MessageKind, NewViewBody, PrePrepareBody, ReplyBody,
                          Request, ViewChangeBody, WireEnvelope, batch_digest,
                          request_envelope)


def make_replica(self_id=1, n=4, f=1, **kw):
    kw.setdefault("batch_size", 1)
    return Replica(ReplicaConfig(n=n, f=f, self_id=self_id, **kw))


def pre_prepare(seq, batch, view=0, sender=None, n=4):
    sender = primary(view, n) if sender is None else sender
    body = PrePrepareBody.for_batch(tuple(batch))
    return WireEnvelope(MessageKind.PRE_PREPARE, view, seq, sender,
                        body.encode()), body.digest


def vote(kind, seq, digest, sender, view=0):
    return WireEnvelope(kind, view, seq, sender, digest)


def sent(out, kind):
    return [env for _, env in out.outbound if env.kind == kind]


def view_change_to(rep, target):
    """Drive ``rep`` through view changes up to ``target``; the VIEW_CHANGE
    it sends for ``target``."""
    while True:
        for env in sent(rep.start_view_change(), MessageKind.VIEW_CHANGE):
            if env.view == target:
                return env


class Bus:
    """Delivers every replica's outbound traffic until quiescent."""

    def __init__(self, n=4, f=1, drop=(), **kw):
        self.replicas = {i: make_replica(i, n=n, f=f, **kw)
                         for i in range(n)}
        self.drop = set(drop)  # senders whose traffic vanishes
        self.queue = deque()
        self.commits = {i: [] for i in range(n)}

    def absorb(self, src, out):
        self.commits[src].extend(out.commits)
        if src in self.drop:
            return
        for dests, env in out.outbound:
            for d in dests:
                if d in self.replicas:
                    self.queue.append((d, env))

    def run(self):
        while self.queue:
            dest, env = self.queue.popleft()
            self.absorb(dest, self.replicas[dest].on_envelope(env))

    def submit(self, req: Request, to=0):
        self.absorb(to, self.replicas[to].on_request(req))
        self.run()

    def timeout(self, node, key):
        self.absorb(node, self.replicas[node].on_timeout(key))
        self.run()


class TestConfig:
    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3), (13, 4),
                                     (15, 4)])
    def test_quorum_size(self, n, f):
        cfg = ReplicaConfig(n=n, f=f, self_id=0)
        assert cfg.quorum == 2 * f + 1

    @pytest.mark.parametrize("n,f", [(3, 1), (6, 2), (9, 3)])
    def test_rejects_insufficient_n(self, n, f):
        with pytest.raises(ValueError):
            ReplicaConfig(n=n, f=f, self_id=0)

    def test_rejects_interval_at_capacity(self):
        with pytest.raises(ValueError):
            ReplicaConfig(n=4, f=1, self_id=0, checkpoint_interval=100,
                          log_capacity=100)

    def test_primary_rotation(self):
        assert [primary(v, 4) for v in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_batch_size_bounded_by_reply_digest_entry(self):
        # A batch's reply digests share one auth entry of at most 65535 B.
        assert ReplicaConfig(n=4, f=1, self_id=0,
                             batch_size=2047).batch_size == 2047
        with pytest.raises(ValueError):
            ReplicaConfig(n=4, f=1, self_id=0, batch_size=2048)


class TestQuorumBoundaries:
    """Prepared at exactly 2f+1 prepare votes, committed at exactly 2f+1
    commit votes, never one vote earlier."""

    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3), (13, 4),
                                     (15, 4)])
    def test_prepare_threshold_exact(self, n, f):
        rep = make_replica(self_id=1, n=n, f=f)
        env, digest = pre_prepare(1, [Request(100, 0, b"v")], n=n)
        out = rep.on_envelope(env)
        # own vote + the leader's pre-prepare counts as its prepare
        assert rep.log[1].status == Status.PRE_PREPARED
        assert not any(e.kind == MessageKind.COMMIT
                       for _, e in out.outbound)
        # third-party votes up to one below the threshold
        for sender in range(2, 2 * f):
            out = rep.on_envelope(vote(MessageKind.PREPARE, 1, digest,
                                       sender))
            assert rep.log[1].status == Status.PRE_PREPARED
        out = rep.on_envelope(vote(MessageKind.PREPARE, 1, digest, 2 * f))
        assert rep.log[1].status == Status.PREPARED
        assert any(e.kind == MessageKind.COMMIT for _, e in out.outbound)

    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3), (13, 4),
                                     (15, 4)])
    def test_commit_threshold_exact(self, n, f):
        rep = make_replica(self_id=1, n=n, f=f)
        env, digest = pre_prepare(1, [Request(100, 0, b"v")], n=n)
        rep.on_envelope(env)
        for sender in range(2, 2 * f + 1):
            rep.on_envelope(vote(MessageKind.PREPARE, 1, digest, sender))
        assert rep.log[1].status == Status.PREPARED
        # own commit vote exists; feed 2f-1 more: still one short of 2f+1
        for sender in range(2, 2 * f + 1):
            out = rep.on_envelope(vote(MessageKind.COMMIT, 1, digest, sender))
        assert rep.log[1].status == Status.PREPARED
        out = rep.on_envelope(vote(MessageKind.COMMIT, 1, digest, 0))
        assert rep.log[1].status == Status.COMMITTED
        assert any(e.kind == MessageKind.REPLY for _, e in out.outbound)

    def test_mismatched_digest_votes_do_not_count(self):
        rep = make_replica()
        env, digest = pre_prepare(1, [Request(100, 0, b"v")])
        rep.on_envelope(env)
        rep.on_envelope(vote(MessageKind.PREPARE, 1, b"\x00" * 32, 2))
        rep.on_envelope(vote(MessageKind.PREPARE, 1, b"\x00" * 32, 3))
        assert rep.log[1].status == Status.PRE_PREPARED

    def test_duplicate_votes_do_not_count_twice(self):
        rep = make_replica(n=7, f=2)
        env, digest = pre_prepare(1, [Request(100, 0, b"v")], n=7)
        rep.on_envelope(env)
        for _ in range(5):
            rep.on_envelope(vote(MessageKind.PREPARE, 1, digest, 2))
        assert rep.log[1].status == Status.PRE_PREPARED


class TestCommitOrdering:
    def test_out_of_order_quorums_commit_in_sequence(self):
        rep = make_replica()
        envs = {}
        for seq in (1, 2, 3):
            env, digest = pre_prepare(seq, [Request(100, seq, b"v")])
            rep.on_envelope(env)
            envs[seq] = digest
        # complete seq 3 and 2 first; nothing may commit yet
        for seq in (3, 2):
            for s in (2, 3):
                rep.on_envelope(vote(MessageKind.PREPARE, seq, envs[seq], s))
            for s in (0, 2):
                rep.on_envelope(vote(MessageKind.COMMIT, seq, envs[seq], s))
        assert rep.committed_seq == 0
        for s in (2, 3):
            rep.on_envelope(vote(MessageKind.PREPARE, 1, envs[1], s))
        for s in (0, 2):
            rep.on_envelope(vote(MessageKind.COMMIT, 1, envs[1], s))
        assert rep.committed_seq == 3  # 1 unblocked 2 and 3


class TestBatching:
    def test_leader_fills_batch(self):
        rep = make_replica(self_id=0, batch_size=3)
        out = rep.on_request(Request(100, 0, b"a"))
        out = rep.on_request(Request(100, 1, b"b"))
        assert not any(e.kind == MessageKind.PRE_PREPARE
                       for _, e in out.outbound)
        out = rep.on_request(Request(101, 0, b"c"))
        pps = [e for _, e in out.outbound
               if e.kind == MessageKind.PRE_PREPARE]
        assert len(pps) == 1
        body = PrePrepareBody.decode(pps[0].payload)
        assert len(body.batch) == 3

    def test_partial_batch_flushes_on_timer(self):
        rep = make_replica(self_id=0, batch_size=8)
        out = rep.on_request(Request(100, 0, b"a"))
        assert (("batch",), rep.config.batch_timeout) in out.timer_starts
        out = rep.on_timeout(("batch",))
        pps = [e for _, e in out.outbound
               if e.kind == MessageKind.PRE_PREPARE]
        assert len(pps) == 1
        assert len(PrePrepareBody.decode(pps[0].payload).batch) == 1

    def test_duplicate_request_not_reassigned(self):
        rep = make_replica(self_id=0)
        rep.on_request(Request(100, 0, b"a"))
        out = rep.on_request(Request(100, 0, b"a"))
        assert not any(e.kind == MessageKind.PRE_PREPARE
                       for _, e in out.outbound)

    def test_batch_repeating_a_request_rejected(self):
        rep = make_replica()
        env, _ = pre_prepare(1, [Request(4, 0, b"a"), Request(4, 0, b"a")])
        out = rep.on_envelope(env)
        assert not any(e.kind == MessageKind.PREPARE
                       for _, e in out.outbound)
        assert rep.counters["rejected"] == 1

    def test_follower_forwards_to_leader(self):
        rep = make_replica(self_id=2)
        out = rep.on_request(Request(100, 0, b"a"))
        assert any(dests == (0,) and e.kind == MessageKind.REQUEST
                   for dests, e in out.outbound)
        assert any(k[0] == "request" for k, _ in out.timer_starts)


class TestEquivocationEvidence:
    def test_conflicting_pre_prepare_recorded_not_adopted(self):
        rep = make_replica()
        env_a, dig_a = pre_prepare(1, [Request(100, 0, b"a")])
        env_b, dig_b = pre_prepare(1, [Request(100, 1, b"b")])
        rep.on_envelope(env_a)
        out = rep.on_envelope(env_b)
        assert rep.log[1].digest == dig_a  # first accepted entry frozen
        assert rep.counters["equivocations"] == 1
        assert not any(e.kind == MessageKind.PREPARE
                       for _, e in out.outbound)


class TestWindow:
    def test_rejects_sequence_beyond_window(self):
        rep = make_replica(log_capacity=100, checkpoint_interval=10)
        env, _ = pre_prepare(101, [Request(100, 0, b"v")])
        rep.on_envelope(env)
        assert 101 not in rep.log

    def test_leader_defers_beyond_window(self):
        rep = make_replica(self_id=0, log_capacity=10, checkpoint_interval=2)
        for rid in range(12):
            rep.on_request(Request(100, rid, b"v"))
        assert rep.next_seq <= 11
        assert rep.deferred  # overflow parked, not dropped


def run_cluster(n=4, f=1, requests=10, **kw):
    bus = Bus(n=n, f=f, **kw)
    for rid in range(requests):
        bus.submit(Request(100, rid, b"v%d" % rid))
    return bus


class TestClusterEndToEnd:
    def test_all_replicas_commit_everything(self):
        bus = run_cluster(requests=10)
        for i in range(4):
            assert [seq for seq, _ in bus.commits[i]] == list(range(1, 11))

    def test_commit_batches_identical(self):
        bus = run_cluster(requests=10)
        logs = [bus.commits[i] for i in range(4)]
        assert all(log == logs[0] for log in logs)


class TestCheckpointGC:
    def test_watermark_advances_and_log_prunes(self):
        bus = Bus(checkpoint_interval=5, log_capacity=20)
        for rid in range(17):
            bus.submit(Request(100, rid, b"v"))
        for i, rep in bus.replicas.items():
            assert rep.h == 15
            assert all(seq > 15 for seq in rep.log)
            assert rep.committed_seq == 17

    def test_stable_checkpoint_chosen_from_c_sets(self):
        # Each VIEW_CHANGE names the stable checkpoint in C. One that claims
        # a later checkpoint nobody else holds moves nothing: the leader
        # needs f+1 holders and 2f+1 senders at or below it, so it waits
        # for replica 0 and re-proposes only seq 6, above checkpoint 5.
        bus = Bus(checkpoint_interval=5, log_capacity=20, drop={3})
        for rid in range(6):
            bus.submit(Request(100, rid, b"v"))
        reps = bus.replicas
        assert all(r.h == 5 for r in reps.values())
        liar = ViewChangeBody(1, 10, ((10, b"\x01" * 32),), (), ())
        reps[1].on_envelope(WireEnvelope(MessageKind.VIEW_CHANGE, 1, 0, 3,
                                         liar.encode()))
        out = reps[1].start_view_change()
        (own,) = sent(out, MessageKind.VIEW_CHANGE)
        own = ViewChangeBody.decode(own.payload)
        assert own.last_stable_seq == 5
        assert own.checkpoints == ((5, reps[1].checkpoints[5][1]),)
        assert [seq for seq, _, _ in own.prepared] == [6]
        bus.absorb(1, out)
        out = reps[2].start_view_change()
        (vc2,) = sent(out, MessageKind.VIEW_CHANGE)
        assert not sent(reps[1].on_envelope(vc2), MessageKind.NEW_VIEW)
        bus.absorb(2, out)
        bus.run()
        assert [r.view for r in reps.values()] == [1, 1, 1, 1]
        assert [seq for seq, _ in bus.commits[1]] == list(range(1, 7))

    def test_checkpoint_votes_off_the_grid_rejected(self):
        rep = make_replica(checkpoint_interval=5, log_capacity=20)
        for i in range(5_000):
            # One seq between checkpoint seqs, one on the grid past the window.
            for seq in (5 * i + 1, 25 + 5 * i):
                rep.on_envelope(WireEnvelope(MessageKind.CHECKPOINT, 0, seq,
                                             2, b"\x00" * 32))
        assert len(rep.checkpoints) == 0
        assert rep.counters["rejected"] == 10_000
        # A vote on the grid inside the window is still kept.
        rep.on_envelope(WireEnvelope(MessageKind.CHECKPOINT, 0, 20, 2,
                                     b"\x00" * 32))
        assert list(rep.checkpoints) == [20]


class TestViewChange:
    def crash_leader_cluster(self, requests=3):
        bus = Bus(drop={0})
        for rid in range(requests):
            bus.submit(Request(100, rid, b"v"))  # leader silent: no progress
        return bus

    def test_view_change_elects_next_primary(self):
        # Two suspects suffice: the third joins under the f+1 rule.
        bus = self.crash_leader_cluster()
        for i in (1, 2):
            bus.timeout(i, ("request", 100, 0))
        for i in (1, 2, 3):
            assert bus.replicas[i].view == 1
            assert bus.replicas[i].mode == Mode.NORMAL

    def test_requests_recommitted_after_view_change(self):
        bus = self.crash_leader_cluster(requests=2)
        for i in (1, 2):
            bus.timeout(i, ("request", 100, 0))
        # retransmit both requests to the new leader
        for rid in range(2):
            bus.submit(Request(100, rid, b"v"), to=1)
        for i in (1, 2, 3):
            committed = [r.request_id for _, batch in bus.commits[i]
                         for r in batch if r.client_id == 100]
            assert sorted(set(committed)) == [0, 1]

    def test_lone_view_change_does_not_move_others(self):
        bus = Bus()
        bus.timeout(3, ("request", 100, 0))
        # ...but nothing was pending at node 3, so no view change at all
        assert all(r.view == 0 for r in bus.replicas.values())

    def test_single_suspect_insufficient_without_f_plus_1(self):
        bus = Bus(drop={0})
        bus.submit(Request(100, 0, b"v"))
        bus.timeout(3, ("request", 100, 0))
        assert bus.replicas[3].mode == Mode.VIEW_CHANGING
        assert bus.replicas[1].mode == Mode.NORMAL  # one voice is not f+1

    def test_new_view_carries_prepared_request(self):
        # Nodes prepare seq 1 but never exchange commits; the next view
        # must re-propose the prepared batch.
        bus = Bus(drop={0})
        env, digest = pre_prepare(1, [Request(100, 0, b"v")])
        for i in (1, 2, 3):
            bus.replicas[i].on_envelope(env)  # outputs deliberately dropped
            for s in (1, 2, 3):
                if s != i:
                    bus.replicas[i].on_envelope(
                        vote(MessageKind.PREPARE, 1, digest, s))
            assert bus.replicas[i].log[1].status == Status.PREPARED
        for i in (1, 2):
            bus.timeout(i, ("request", 100, 0))
        for i in (1, 2, 3):
            rep = bus.replicas[i]
            assert rep.view == 1
            committed = [r.request_id for _, batch in bus.commits[i]
                         for r in batch]
            assert committed == [0]


class TestNewViewValidation:
    def test_forged_new_view_rejected(self):
        rep = make_replica(self_id=2)
        body = NewViewBody(1, (), ())
        env = WireEnvelope(MessageKind.NEW_VIEW, 1, 0, 1, body.encode())
        rep.on_envelope(env)
        assert rep.view == 0  # no quorum proof inside

    def test_new_view_with_wrong_reproposals_rejected(self):
        bus = Bus(drop={0})
        bus.submit(Request(100, 0, b"v"))
        for i in (1, 2, 3):
            out = bus.replicas[i].start_view_change()
            # capture the VIEW_CHANGE without delivering to node 1 yet
            bus.absorb(i, out)
        bus.run()
        assert bus.replicas[1].view == 1


class TestForgedViewChange:
    """One Byzantine replica lies in its VIEW_CHANGE (ROADMAP item 1's
    recipe). Leader 0 pre-prepares A at seq 1; replicas 0, 1 and 2 prepare
    it and only 0 collects the COMMITs, so A is committed at 0 alone."""

    @pytest.fixture
    def bus(self):
        bus = Bus(drop={3})
        reps = bus.replicas
        (pp,) = sent(reps[0].on_request(Request(100, 0, b"A")),
                     MessageKind.PRE_PREPARE)
        for i in (1, 2):
            reps[i].on_envelope(pp)
        digest = PrePrepareBody.decode(pp.payload).digest
        for i in (0, 1, 2):
            for s in (1, 2):
                if s != i:
                    reps[i].on_envelope(vote(MessageKind.PREPARE, 1, digest, s))
        for s in (1, 2):
            reps[0].on_envelope(vote(MessageKind.COMMIT, 1, digest, s))
        assert reps[0].committed_seq == 1
        assert [reps[i].log[1].status for i in (1, 2)] == [Status.PREPARED] * 2
        bus.digest_a = digest
        return bus

    @staticmethod
    def forged(target, claimed_view):
        b = PrePrepareBody.for_batch((Request(101, 0, b"B"),))
        body = ViewChangeBody(target, 0, (), ((1, claimed_view, b),),
                              ((1, b.digest, claimed_view),))
        return WireEnvelope(MessageKind.VIEW_CHANGE, target, 0, 3,
                            body.encode())

    def test_forged_prepared_claim_never_proposed(self, bus):
        # Replica 3 claims seq 1 prepared in view 7 with batch B. Replica 1
        # leads view 9; with 1, 2 and the liar no batch has 2f+1 messages
        # that do not contradict it, so it waits for replica 0 and then
        # re-proposes A. All three correct replicas commit A at seq 1.
        reps = bus.replicas
        vc1 = view_change_to(reps[1], 9)
        for env in (view_change_to(reps[2], 9), self.forged(9, 7)):
            assert not sent(reps[1].on_envelope(env), MessageKind.NEW_VIEW)
        out = reps[1].on_envelope(view_change_to(reps[0], 9))
        (nv,) = sent(out, MessageKind.NEW_VIEW)
        assert NewViewBody.decode(nv.payload).reproposals == (
            (1, bus.digest_a),)
        assert vc1 in [wire.decode(f) for f in
                       NewViewBody.decode(nv.payload).view_changes]
        bus.absorb(1, out)
        bus.run()
        for i in (1, 2):
            assert [(seq, [r.payload for r in batch])
                    for seq, batch in bus.commits[i]] == [(1, [b"A"])]
        # Replica 0 voted on seq 1 again but did not run it twice.
        assert reps[0].log[1].status == Status.PREPARED
        assert bus.commits[0] == [] and reps[0].committed_seq == 1

    def test_claim_past_every_window_ignored(self, bus):
        # A sender may put its stable checkpoint anywhere; a P entry above
        # the chosen checkpoint's window neither widens O nor stalls it.
        reps = bus.replicas
        b = PrePrepareBody.for_batch((Request(101, 0, b"B"),))
        far = 2**60
        lie = ViewChangeBody(1, far, (), ((far + 1, 0, b),),
                             ((far + 1, b.digest, 0),))
        reps[1].on_envelope(WireEnvelope(MessageKind.VIEW_CHANGE, 1, 0, 3,
                                         lie.encode()))
        reps[1].on_envelope(view_change_to(reps[2], 1))
        assert reps[1].mode == Mode.VIEW_CHANGING  # joined under f+1
        (nv,) = sent(reps[1].on_envelope(view_change_to(reps[0], 1)),
                     MessageKind.NEW_VIEW)
        assert NewViewBody.decode(nv.payload).reproposals == (
            (1, bus.digest_a),)

    def test_claim_from_a_later_view_rejected(self, bus):
        # The recipe as first written, a claim for view 7 in a VIEW_CHANGE
        # for view 1, fails the structural check outright.
        rep = bus.replicas[1]
        rep.on_envelope(self.forged(1, 7))
        assert rep.counters["rejected"] == 1
        assert rep.vc_messages == {}


class TestNoReverification:
    def test_adopting_a_new_view_reverifies_no_accepted_batch(self):
        # Replica 2 pre-prepared seq 1 in view 0 (one client signature
        # check); adopting the NEW_VIEW that re-proposes it checks none.
        calls = []
        bus = Bus(drop={0})
        bus.replicas[2] = Replica(
            ReplicaConfig(n=4, f=1, self_id=2, batch_size=1),
            request_verifier=lambda req: calls.append(req) or True)
        env, digest = pre_prepare(1, [Request(100, 0, b"v")])
        for i in (1, 2, 3):
            bus.replicas[i].on_envelope(env)  # outputs deliberately dropped
        for i in (1, 3):
            for s in (1, 2, 3):
                if s != i:
                    bus.replicas[i].on_envelope(
                        vote(MessageKind.PREPARE, 1, digest, s))
        assert bus.replicas[2].log[1].status == Status.PRE_PREPARED
        assert len(calls) == 1
        for i in (1, 2):
            bus.timeout(i, ("request", 100, 0))
        assert bus.replicas[2].view == 1
        assert [seq for seq, _ in bus.commits[2]] == [1]
        assert len(calls) == 1


class CountingKeyStore(KeyStore):
    signs = 0
    verifies = 0

    def sign(self, data):
        self.signs += 1
        return super().sign(data)

    def verify(self, sender, sig, data):
        self.verifies += 1
        return super().verify(sender, sig, data)


def counting(ks):
    return CountingKeyStore(ks.own_id, ks.signing_key, ks.verify_keys,
                            ks.mac_keys)


class TestSignedReplies:
    """PK replies: one signature per committed batch, kept for re-sending."""

    @pytest.fixture
    def committed(self):
        stores = build_keystores(4, [4, 5])
        ks = counting(stores[1])
        rep = Replica(ReplicaConfig(n=4, f=1, self_id=1,
                                    mode=CryptoMode.PK_ONLY, batch_size=8),
                      keystore=ks)
        sessions = {c: ClientSession(c, 4, 1, CryptoMode.PK_ONLY,
                                     keystore=counting(stores[c]))
                    for c in (4, 5)}
        batch = [sessions[4 + k % 2].make_request(bytes([k]), 0.0)[0]
                 for k in range(8)]
        env, digest = pre_prepare(1, batch)
        outs = [rep.on_envelope(env),
                rep.on_envelope(vote(MessageKind.PREPARE, 1, digest, 2))]
        outs += [rep.on_envelope(vote(MessageKind.COMMIT, 1, digest, s))
                 for s in (0, 2)]
        assert rep.log[1].status == Status.COMMITTED
        replies = [(dests, e) for out in outs for dests, e in out.outbound
                   if e.kind == MessageKind.REPLY]
        return rep, ks, sessions, batch, replies

    def test_one_signature_per_committed_batch(self, committed):
        rep, ks, sessions, batch, replies = committed
        assert ks.signs == 1
        assert len(replies) == 8
        assert len({e.auths for _, e in replies}) == 1
        for (dests, env), req in zip(replies, batch):
            assert dests == (req.client_id,)
            assert ReplyBody.decode(env.payload).request_id == req.request_id
            assert sessions[req.client_id].verify_reply(env)

    def test_client_verifies_the_batch_signature_once(self, committed):
        rep, ks, sessions, batch, replies = committed
        for dests, env in replies:
            sess = sessions[dests[0]]
            assert sess.on_reply(env, 1.0) is None  # one replica: no quorum
            assert env.sender in sess.pending[
                ReplyBody.decode(env.payload).request_id].replies
        # Four replies each, all under replica 1's one batch signature.
        assert [sessions[c].keystore.verifies for c in (4, 5)] == [1, 1]

    def test_resent_request_reuses_the_signed_reply(self, committed):
        rep, ks, sessions, batch, replies = committed
        last = batch[-1]
        out = rep.on_envelope(request_envelope(last))
        assert out.outbound == [replies[-1]]
        assert ks.signs == 1
        assert sessions[last.client_id].verify_reply(out.outbound[0][1])


class TestForgedRequest:
    """A REQUEST whose client signature fails is rejected on intake, at the
    leader and at a follower alike."""

    @pytest.fixture(scope="class")
    def stores(self):
        return build_keystores(4, [4, 5])

    def replica(self, stores, self_id):
        return Replica(ReplicaConfig(n=4, f=1, self_id=self_id,
                                     mode=CryptoMode.MAC_INTER_NODE),
                       keystore=stores[self_id])

    def forged(self, stores):
        # Client 5 signs a request in client 4's name.
        req = ClientSession(5, 4, 1, CryptoMode.MAC_INTER_NODE,
                            keystore=stores[5]).make_request(b"x", 0.0)[0]
        return request_envelope(Request(4, 0, req.payload, req.signature))

    def test_leader_rejects_without_pre_prepare(self, stores):
        leader = self.replica(stores, 0)
        out = leader.on_envelope(self.forged(stores))
        assert out.outbound == [] and out.timer_starts == []
        assert leader.counters["rejected"] == 1
        assert leader.pending_batch == [] and leader.assigned == {}
        genuine = ClientSession(4, 4, 1, CryptoMode.MAC_INTER_NODE,
                                keystore=stores[4]).make_request(b"x", 0.0)[1]
        out = leader.on_envelope(genuine)
        assert [e.kind for _, e in out.outbound] == [MessageKind.PRE_PREPARE]

    def test_follower_neither_forwards_nor_watches(self, stores):
        follower = self.replica(stores, 2)
        out = follower.on_envelope(self.forged(stores))
        assert out.outbound == [] and out.timer_starts == []
        assert follower.counters["rejected"] == 1
        assert follower.watching == set()
