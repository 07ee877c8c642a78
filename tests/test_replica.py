"""Protocol core: quorum arithmetic, batching, checkpoints, view changes."""

from collections import deque

import pytest

from pbftkit import crypto, wire
from pbftkit.client import ClientSession
from pbftkit.crypto import CryptoMode, KeyStore
from pbftkit.replica import Replica, ReplicaConfig, Status, primary
from pbftkit.simnet import CRASH_AT, SimConfig, World, build_keystores
from pbftkit.wire import (MessageKind, NewViewBody, PrePrepareBody, ReplyBody,
                          Request, ViewChangeBody, WireEnvelope,
                          request_envelope)


def make_replica(self_id=1, n=4, f=1, **kw):
    kw.setdefault("batch_size", 1)
    return Replica(ReplicaConfig(n=n, f=f, self_id=self_id, **kw))


def pre_prepare(seq, batch, view=0, sender=None, n=4):
    sender = primary(view, n) if sender is None else sender
    body = PrePrepareBody(tuple(batch))
    return WireEnvelope(MessageKind.PRE_PREPARE, view, seq, sender,
                        body.encode()), body.digest


def vote(kind, seq, digest, sender, view=0):
    return WireEnvelope(kind, view, seq, sender, digest)


def sent(out, kind):
    return [env for _, env in out.outbound if env.kind == kind]


def armed(out):
    """The timers a driver leaves armed after ``out``: starts, then stops."""
    return {key for key, _ in out.timer_starts} - set(out.timer_stops)


def batches(out):
    """The request ids of each batch that ``out`` pre-prepares."""
    return [[r.request_id for r in PrePrepareBody.decode(env.payload).batch]
            for env in sent(out, MessageKind.PRE_PREPARE)]


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

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("key", ["batch_size", "checkpoint_interval",
                                     "view_change_timeout"])
    def test_rejects_non_positive(self, key, value):
        # A batch of 0 was proposed empty and rejected by every follower;
        # an interval of 0 raised ZeroDivisionError at the first commit; a
        # view-change timeout of 0 kept a simulated world from finishing.
        with pytest.raises(ValueError, match=repr(key)):
            ReplicaConfig(n=4, f=1, self_id=0, **{key: value})

    @pytest.mark.parametrize("make, key, value", [
        (ReplicaConfig, "batch_timeout", -1.0),
        (SimConfig, "client_timeout", 0.0),
        (SimConfig, "client_timeout", -1.0),
        (SimConfig, "drop_prob", 1.5),
        (SimConfig, "drop_prob", -0.5),
        (SimConfig, "requests_per_client", -3),
        (ReplicaConfig, "f", -1),
        (ReplicaConfig, "self_id", -1),
        (ReplicaConfig, "self_id", 4),
        (ReplicaConfig, "self_id", 7)])
    def test_rejects_values_that_break_the_clock(self, make, key, value):
        # At the parent a negative client or batch timeout ran virtual time
        # backwards, a zero client timeout failed every request, and a drop
        # probability outside [0, 1] or a negative request count was taken
        # silently. An f of -1 would make the quorum -1, so that a leader
        # commits its own PRE_PREPARE with no vote; a self_id of -1 would
        # raise on the first vote, and one past n-1 vote as an extra replica.
        kw = dict(n=4, f=1, self_id=0) if make is ReplicaConfig else {}
        with pytest.raises(ValueError, match=repr(key)):
            make(**{**kw, key: value})

    def test_zero_batch_timeout_is_valid(self):
        # A partial batch goes out without waiting.
        assert ReplicaConfig(n=4, f=1, self_id=0,
                             batch_timeout=0).batch_timeout == 0


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


class TestExactlyOnce:
    def test_request_reproposed_at_a_new_seq_runs_once(self):
        """A leader that proposes an executed request again at a later seq
        gets that seq committed, but the request does not run again; the
        batch's other member does (TOCS §4.1)."""
        rep = make_replica()
        first, other = Request(100, 0, b"v"), Request(101, 0, b"w")
        outs = []
        for seq, batch in ((1, [first]), (2, [first, other])):
            env, digest = pre_prepare(seq, batch)
            outs.append(rep.on_envelope(env))
            for s in (2, 3):
                outs.append(rep.on_envelope(vote(MessageKind.PREPARE, seq,
                                                 digest, s)))
            for s in (0, 2):
                outs.append(rep.on_envelope(vote(MessageKind.COMMIT, seq,
                                                 digest, s)))
        assert rep.committed_seq == 2
        assert [(seq, [(r.client_id, r.request_id) for r in batch])
                for out in outs for seq, batch in out.commits] == [
            (1, [(100, 0)]), (2, [(101, 0)])]
        assert [dests for out in outs for dests, env in out.outbound
                if env.kind == MessageKind.REPLY] == [(100,), (101,)]
        assert rep.counters["rejected"] == 0


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
        assert rep.queued  # overflow parked, not dropped


class TestRequestQueue:
    """Every verified request that waits for a seq sits in ``queued``, in
    arrival order: while a batch fills, the window is full or a view
    change runs. The batch timer is never stopped."""

    def test_old_leader_forwards_its_queue(self):
        # Leader 0 holds three requests of a batch of 8 when view 1 starts;
        # it forwards them to leader 1, whose batch timer proposes them.
        bus = Bus(batch_size=8)
        for rid in range(3):
            bus.submit(Request(100, rid, b"v"))
        assert list(bus.replicas[0].queued) == [(100, 0), (100, 1), (100, 2)]
        for i in (1, 2, 3):
            bus.absorb(i, bus.replicas[i].start_view_change())
        bus.run()
        assert all(r.view == 1 == r.pending_view
                   for r in bus.replicas.values())
        assert bus.replicas[0].queued == {}
        assert list(bus.replicas[1].queued) == [(100, 0), (100, 1), (100, 2)]
        bus.timeout(1, ("batch",))
        for i in range(4):
            assert [[r.request_id for r in batch]
                    for _, batch in bus.commits[i]] == [[0, 1, 2]]

    def test_install_arms_the_timer_of_a_partial_batch(self):
        # Leader 1 of view 1 takes five requests during the view change.
        # Installing the view proposes four; the fifth keeps a live timer.
        reps = {i: make_replica(i, batch_size=4) for i in (1, 2, 3)}
        leader = reps[1]
        leader.start_view_change()
        for rid in range(5):
            assert leader.on_request(Request(100, rid, b"v")).outbound == []
        leader.on_envelope(view_change_to(reps[2], 1))
        out = leader.on_envelope(view_change_to(reps[3], 1))
        assert leader.view == 1 and batches(out) == [[0, 1, 2, 3]]
        assert list(leader.queued) == [(100, 4)]
        assert ("batch",) in armed(out)
        assert batches(leader.on_timeout(("batch",))) == [[4]]

    def test_full_window_proposes_in_arrival_order(self):
        # A window of 4 seqs at batch 2: requests 0-7 fill it and 8-12
        # wait, in arrival order, until the checkpoint at seq 4 frees seqs
        # 5-8; then they all go out.
        rep = make_replica(self_id=0, batch_size=2, log_capacity=4,
                           checkpoint_interval=2)
        outs = [rep.on_request(Request(100, rid, b"v")) for rid in range(13)]
        assert [b for out in outs for b in batches(out)] == [
            [0, 1], [2, 3], [4, 5], [6, 7]]
        assert list(rep.queued) == [(100, rid) for rid in range(8, 13)]
        for seq in range(1, 5):
            digest = rep.log[seq].digest
            for kind in (MessageKind.PREPARE, MessageKind.COMMIT):
                for s in (1, 2):
                    outs.append(rep.on_envelope(vote(kind, seq, digest, s)))
        assert rep.committed_seq == 4 and rep.next_seq == 5
        state = rep.checkpoints[4][0]
        for s in (1, 2):
            outs.append(rep.on_envelope(
                WireEnvelope(MessageKind.CHECKPOINT, 0, 4, s, state)))
        assert rep.h == 4 and batches(outs[-1]) == [[8, 9], [10, 11], [12]]
        assert rep.queued == {}
        assert not any(("batch",) in out.timer_stops for out in outs)


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
        liar = ViewChangeBody(10, ((10, b"\x01" * 32),), (), ())
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
        # One on the grid inside the window whose digest is 31 bytes.
        rep.on_envelope(WireEnvelope(MessageKind.CHECKPOINT, 0, 20, 2,
                                     b"\x00" * 31))
        assert len(rep.checkpoints) == 0
        assert rep.counters["rejected"] == 10_001
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
            assert bus.replicas[i].pending_view == bus.replicas[i].view

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
        assert bus.replicas[3].pending_view > bus.replicas[3].view
        # one voice is not f+1
        assert bus.replicas[1].pending_view == bus.replicas[1].view

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

    def test_join_stops_the_superseded_new_view_timer(self):
        # Replica 1 waits for view 1 when replicas 2 and 3 ask for view 2;
        # it joins them, and its one view-change timer is view 2's.
        reps = {i: make_replica(i) for i in (1, 2, 3)}
        timers = Timers(reps[1])
        timers.apply(reps[1].start_view_change())
        vc3 = view_change_to(reps[3], 2)
        timers.apply(reps[1].on_envelope(vc3))
        join = timers.apply(reps[1].on_envelope(view_change_to(reps[2], 2)))
        assert reps[1].pending_view > reps[1].view
        (due,) = [key for key in timers.due if key[0] == "new_view"]
        (vc1,) = sent(join, MessageKind.VIEW_CHANGE)
        # Firing it escalates from view 2, so no timer of view 1 was left.
        fired = reps[1].on_timeout(due)
        assert [env.view for env in sent(fired, MessageKind.VIEW_CHANGE)] \
            == [3]
        timers.apply(fired)
        reps[2].on_envelope(vc3)
        (nv,) = sent(reps[2].on_envelope(vc1), MessageKind.NEW_VIEW)
        timers.apply(reps[1].on_envelope(nv))
        assert reps[1].view == 2 == reps[1].pending_view
        assert not [key for key in timers.due if key[0] == "new_view"]

    def test_adopting_a_lower_view_stops_the_pending_view_timer(self):
        # Replica 3's timer for view 1 fires, so it waits for view 2; then
        # replica 1 installs view 1 and replica 3 adopts that NEW_VIEW.
        reps = {i: make_replica(i) for i in (1, 2, 3)}
        timers = Timers(reps[3])
        (vc3,) = sent(timers.apply(reps[3].start_view_change()),
                      MessageKind.VIEW_CHANGE)
        timers.advance(10.0)
        assert len([key for key in timers.due if key[0] == "new_view"]) == 1
        reps[1].on_envelope(vc3)
        # With f+1 peers asking, replica 1 joins view 1 and leads it.
        (nv,) = sent(reps[1].on_envelope(view_change_to(reps[2], 1)),
                     MessageKind.NEW_VIEW)
        timers.apply(reps[3].on_envelope(nv))
        assert reps[3].view == 1 == reps[3].pending_view
        assert not [key for key in timers.due if key[0] == "new_view"]


class Timers:
    """One replica's timers as a driver keeps them: key -> due time. A start
    supersedes the key's earlier one; stops apply after starts."""

    def __init__(self, rep):
        self.rep, self.now, self.due = rep, 0.0, {}

    def apply(self, out):
        for key, delay in out.timer_starts:
            self.due[key] = self.now + delay
        for key in out.timer_stops:
            self.due.pop(key, None)
        return out

    def advance(self, now):
        """Fire, in due order, every timer due by ``now``."""
        self.now = now
        for key, due in sorted(self.due.items(), key=lambda kv: kv[1]):
            if due <= now and self.due.get(key) == due:
                del self.due[key]
                self.apply(self.rep.on_timeout(key))


class TestWatchedRequests:
    """A request a follower watches waits until it executes (Castro &
    Liskov, TOCS 2002, §4.5.2): the next leader proposes it, and its timer
    restarts in the next view. Leader 0 is silent throughout."""

    @staticmethod
    def prepared(*reqs):
        """Replicas 1-3 with ``reqs[k]`` prepared at seq k+1 in view 0 and
        no COMMIT sent; the batch digests and replica 2's timers."""
        reps = {i: make_replica(i) for i in (1, 2, 3)}
        timers = Timers(reps[2])
        digests = []
        for seq, req in enumerate(reqs, 1):
            env, digest = pre_prepare(seq, [req])
            digests.append(digest)
            for i, rep in reps.items():
                out = rep.on_envelope(env)
                if i == 2:
                    timers.apply(out)
                for s in (1, 2, 3):
                    if s != i:
                        rep.on_envelope(vote(MessageKind.PREPARE, seq,
                                             digest, s))
                assert rep.log[seq].status is Status.PREPARED
        return reps, digests, timers

    @staticmethod
    def new_view(reps):
        """Replica 1 leads view 1 over the VIEW_CHANGEs of 1, 3 and 2; the
        output that installs it there."""
        view_change_to(reps[1], 1)
        reps[1].on_envelope(view_change_to(reps[3], 1))
        return reps[1].on_envelope(view_change_to(reps[2], 1))

    def test_follower_whose_timer_fired_proposes_the_request(self):
        # Follower 1 gets a client's retransmission, forwards it to the
        # silent leader and watches it. Its timer fires; it then leads
        # view 1, and installing the view proposes the request.
        reps = {i: make_replica(i) for i in (1, 2, 3)}
        leader = reps[1]
        key = ("request", 100, 0)
        out = leader.on_request(Request(100, 0, b"v"))
        assert [d for d, _ in out.outbound] == [(0,)] and key in armed(out)
        leader.on_timeout(key)
        assert leader.pending_view > leader.view
        leader.on_envelope(view_change_to(reps[2], 1))
        out = leader.on_envelope(view_change_to(reps[3], 1))
        assert leader.view == 1 and batches(out) == [[0]]
        assert key in armed(out)

    def test_reproposed_request_gets_a_fresh_timer(self):
        # Replica 2 watches the request from t=0, so its view-0 timer is
        # due at 1.0. View 1 is installed at 0.5 and re-proposes it; the
        # timer is then due at 1.5, and 1.0 passes without a view change.
        reps, (digest,), timers = self.prepared(Request(100, 0, b"v"))
        key = ("request", 100, 0)
        assert timers.due == {key: 1.0}
        timers.now = 0.5
        (nv,) = sent(self.new_view(reps), MessageKind.NEW_VIEW)
        timers.apply(reps[2].on_envelope(nv))
        assert reps[2].view == 1 and timers.due == {key: 1.5}
        timers.advance(1.0)
        assert reps[2].pending_view == reps[2].view
        assert reps[2].counters["view_changes"] == 1
        for kind, s in ((MessageKind.PREPARE, 3), (MessageKind.COMMIT, 1),
                        (MessageKind.COMMIT, 3)):
            timers.apply(reps[2].on_envelope(vote(kind, 1, digest, s, 1)))
        assert reps[2].committed_seq == 1 and timers.due == {}

    def test_request_under_a_noop_is_proposed_again(self):
        # Only replica 1 pre-prepared request 0, at seq 1; seq 2 prepared
        # everywhere. View 1 fills seq 1 with a NOOP, so its leader,
        # replica 1, proposes request 0 again, at seq 3.
        reps = {i: make_replica(i) for i in (1, 2, 3)}
        reps[1].on_envelope(pre_prepare(1, [Request(100, 0, b"v")])[0])
        env, digest = pre_prepare(2, [Request(101, 0, b"v")])
        for i, rep in reps.items():
            rep.on_envelope(env)
            for s in (1, 2, 3):
                if s != i:
                    rep.on_envelope(vote(MessageKind.PREPARE, 2, digest, s))
        out = self.new_view(reps)
        (nv,) = sent(out, MessageKind.NEW_VIEW)
        assert NewViewBody.decode(nv.payload).reproposals[0] == (
            1, wire.batch_digest(()))
        (pp,) = sent(out, MessageKind.PRE_PREPARE)
        assert pp.seq == 3 and batches(out) == [[0]]

    def test_install_never_starts_and_stops_one_request_timer(self):
        # Replica 2 holds view 1's votes for seq 1 before the NEW_VIEW, so
        # installing the view commits request 0 there; request 1 at seq 2
        # stays open. A start would lose to the stop of the same key.
        reps, (d1, _), timers = self.prepared(Request(100, 0, b"v"),
                                              Request(101, 0, b"v"))
        (nv,) = sent(self.new_view(reps), MessageKind.NEW_VIEW)
        for kind, s in ((MessageKind.PREPARE, 3), (MessageKind.COMMIT, 1),
                        (MessageKind.COMMIT, 3)):
            reps[2].on_envelope(vote(kind, 1, d1, s, 1))  # buffered
        out = reps[2].on_envelope(nv)
        assert reps[2].view == 1 and reps[2].committed_seq == 1
        started = {k for k, _ in out.timer_starts if k[0] == "request"}
        assert started == {("request", 101, 0)}
        assert set(out.timer_stops) & started == set()
        assert ("request", 100, 0) in out.timer_stops


class TestNewViewValidation:
    def test_forged_new_view_rejected(self):
        rep = make_replica(self_id=2)
        body = NewViewBody((), ())
        env = WireEnvelope(MessageKind.NEW_VIEW, 1, 0, 1, body.encode())
        rep.on_envelope(env)
        assert rep.view == 0  # no quorum proof inside

    def test_new_view_from_another_than_its_leader_rejected(self):
        rep = make_replica(self_id=2)
        body = NewViewBody((), ())
        out = rep.on_envelope(WireEnvelope(MessageKind.NEW_VIEW, 1, 0, 3,
                                           body.encode()))
        assert rep.counters["rejected"] == 1
        assert rep.view == 0 == rep.pending_view
        assert not out.outbound

    def test_new_view_built_on_another_views_view_changes_rejected(self):
        # Three genuine VIEW_CHANGEs for view 1 prove nothing about view 5:
        # view 5's leader may not install it with them (TOCS §4.4).
        frames = tuple(wire.encode(env) for i in (1, 2, 3)
                       for env in sent(make_replica(i).start_view_change(),
                                       MessageKind.VIEW_CHANGE))
        assert [wire.decode(f).view for f in frames] == [1, 1, 1]
        rep = make_replica(self_id=0)
        rep.on_envelope(WireEnvelope(MessageKind.NEW_VIEW, 5, 0,
                                     primary(5, 4),
                                     NewViewBody(frames, ()).encode()))
        assert rep.counters["rejected"] == 1
        assert rep.view == 0 and rep.pending_view == 6

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
        b = PrePrepareBody((Request(101, 0, b"B"),))
        body = ViewChangeBody(0, (), ((1, claimed_view, b),),
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
        b = PrePrepareBody((Request(101, 0, b"B"),))
        far = 2**60
        lie = ViewChangeBody(far, (), ((far + 1, 0, b),),
                             ((far + 1, b.digest, 0),))
        reps[1].on_envelope(WireEnvelope(MessageKind.VIEW_CHANGE, 1, 0, 3,
                                         lie.encode()))
        reps[1].on_envelope(view_change_to(reps[2], 1))
        assert reps[1].pending_view > reps[1].view  # joined under f+1
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
    def test_adopting_a_new_view_reverifies_no_accepted_batch(
            self, monkeypatch):
        # Replica 2 pre-prepared seq 1 in view 0 (one client signature
        # check); adopting the NEW_VIEW that re-proposes it checks none.
        stores = build_keystores(4, [100])
        calls = []
        check = crypto.verify_request

        def counted(req, ks):
            if ks is stores[2]:
                calls.append(req)
            return check(req, ks)

        monkeypatch.setattr(crypto, "verify_request", counted)
        bus = Bus(drop={0})
        bus.replicas = {i: Replica(ReplicaConfig(n=4, f=1, self_id=i,
                                                 batch_size=1),
                                   keystore=stores[i]) for i in range(4)}
        req = crypto.sign_request(Request(100, 0, b"v"), stores[100])
        env, digest = pre_prepare(1, [req])
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


class TestSignedViewChange:
    def test_own_view_change_signed_once(self):
        # Before its first checkpoint a DOMAIN_OPTIMIZED replica signs only
        # its VIEW_CHANGEs and NEW_VIEWs. The new leader's own VIEW_CHANGE
        # goes out and into its NEW_VIEW under one signature.
        world = World(SimConfig(mode=CryptoMode.DOMAIN_OPTIMIZED,
                                faults={0: (CRASH_AT, 0.0)},
                                requests_per_client=2, client_timeout=1.0))
        for i, node in world.nodes.items():
            ks = world.keystores[i] = counting(world.keystores[i])
            node.replica.keystore = ks
        world.run()
        assert world.total_requests_committed(1) == 2
        for i in (1, 2, 3):
            rep = world.nodes[i].replica
            assert rep.view == 1 and rep.counters["view_changes"] == 1
            assert rep.keystore.signs == 1 + rep.is_leader


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
        assert leader.queued == {} and leader.assigned == {}
        genuine = ClientSession(4, 4, 1, CryptoMode.MAC_INTER_NODE,
                                keystore=stores[4]).make_request(b"x", 0.0)[1]
        out = leader.on_envelope(genuine)
        assert [e.kind for _, e in out.outbound] == [MessageKind.PRE_PREPARE]

    def test_follower_neither_forwards_nor_watches(self, stores):
        follower = self.replica(stores, 2)
        out = follower.on_envelope(self.forged(stores))
        assert out.outbound == [] and out.timer_starts == []
        assert follower.counters["rejected"] == 1
        assert not follower.watching


class TestNonReplicaSenders:
    """Only replicas vote. A client's keystore authenticates a frame it
    seals in its own name, so the core must refuse to count a PREPARE,
    COMMIT, CHECKPOINT or VIEW_CHANGE whose sender is not a replica id."""

    def test_votes_never_prepare_or_commit(self):
        rep = make_replica(self_id=1)
        env, digest = pre_prepare(1, [Request(100, 0, b"v")])
        rep.on_envelope(env)
        rep.on_envelope(vote(MessageKind.PREPARE, 1, digest, 5))
        assert rep.log[1].status is Status.PRE_PREPARED
        rep.on_envelope(vote(MessageKind.PREPARE, 1, digest, 2))
        assert rep.log[1].status is Status.PREPARED
        for sender in (6, 7):
            out = rep.on_envelope(vote(MessageKind.COMMIT, 1, digest, sender))
            assert out.commits == []
        assert rep.log[1].status is Status.PREPARED
        assert rep.counters["rejected"] == 3

    def test_checkpoints_never_advance_the_watermark(self):
        rep = make_replica(self_id=1, checkpoint_interval=5, log_capacity=20)
        for seq in range(1, 6):
            env, digest = pre_prepare(seq, [Request(100, seq, b"v")])
            rep.on_envelope(env)
            rep.on_envelope(vote(MessageKind.PREPARE, seq, digest, 2))
            for sender in (0, 2):
                rep.on_envelope(vote(MessageKind.COMMIT, seq, digest, sender))
        assert rep.committed_seq == 5
        state = rep.checkpoints[5][1]
        for sender in (5, 6):
            rep.on_envelope(WireEnvelope(MessageKind.CHECKPOINT, 0, 5, sender,
                                         state))
        assert rep.h == 0
        for sender in (2, 3):
            rep.on_envelope(WireEnvelope(MessageKind.CHECKPOINT, 0, 5, sender,
                                         state))
        assert rep.h == 5

    @staticmethod
    def empty_view_change(sender, target=1):
        return WireEnvelope(MessageKind.VIEW_CHANGE, target, 0, sender,
                            ViewChangeBody(0, (), (), ()).encode())

    def test_view_changes_never_make_a_replica_join(self):
        rep = make_replica(self_id=2)
        for sender in (4, 5):
            assert rep.on_envelope(self.empty_view_change(sender)).outbound \
                == []
        assert rep.pending_view == rep.view
        assert rep.counters["rejected"] == 2
        for sender in (1, 3):
            rep.on_envelope(self.empty_view_change(sender))
        assert rep.pending_view > rep.view

    def test_new_view_embedding_one_is_rejected(self):
        def new_view(senders):
            frames = tuple(wire.encode(self.empty_view_change(s))
                           for s in senders)
            return WireEnvelope(MessageKind.NEW_VIEW, 1, 0, 1,
                                NewViewBody(frames, ()).encode())

        rep = make_replica(self_id=2)
        rep.on_envelope(new_view((1, 3, 5)))
        assert rep.view == 0 and rep.counters["rejected"] == 1
        rep = make_replica(self_id=2)
        rep.on_envelope(new_view((1, 3, 0)))
        assert rep.view == 1


# Inputs for TestRejections, each to a fresh replica 2.
REQ, DIGEST = Request(4, 0, b"x"), b"\x11" * 32


def keyed_replica(stores):
    return Replica(ReplicaConfig(n=4, f=1, self_id=2,
                                 mode=CryptoMode.MAC_INTER_NODE),
                   keystore=stores[2])


def forged_request(stores):
    """A request in client 4's name, signed by client 5."""
    req = ClientSession(5, 4, 1, CryptoMode.MAC_INTER_NODE,
                        keystore=stores[5]).make_request(b"x", 0.0)[0]
    return Request(4, 0, req.payload, req.signature)


def in_view_1():
    bus = Bus()
    for i in (1, 2, 3):
        bus.absorb(i, bus.replicas[i].start_view_change())
    bus.run()
    assert bus.replicas[2].view == 1 == bus.replicas[2].pending_view
    return bus.replicas[2]


def changing_view():
    rep = make_replica(self_id=2)
    rep.start_view_change()
    return rep


def fresh(env):
    return make_replica(self_id=2), env


# Case -> stores -> (replica, the envelope it rejects).
REJECTED = {
    "unknown_kind": lambda stores: fresh(
        WireEnvelope(MessageKind.REPLY, 0, 1, 0, b"")),
    "vote_from_a_client": lambda stores: fresh(
        vote(MessageKind.PREPARE, 1, DIGEST, 5)),
    "undecodable_request": lambda stores: fresh(
        WireEnvelope(MessageKind.REQUEST, 0, 0, 4, b"short")),
    "request_with_a_bad_signature": lambda stores: (
        keyed_replica(stores), request_envelope(forged_request(stores))),
    "pre_prepare_for_an_earlier_view": lambda stores: (
        in_view_1(), pre_prepare(1, [REQ])[0]),
    "pre_prepare_while_a_change_is_pending": lambda stores: (
        changing_view(), pre_prepare(1, [REQ])[0]),
    "pre_prepare_from_a_follower": lambda stores: fresh(
        pre_prepare(1, [REQ], sender=3)[0]),
    "pre_prepare_outside_the_window": lambda stores: fresh(
        pre_prepare(10_001, [REQ])[0]),
    "undecodable_pre_prepare": lambda stores: fresh(
        WireEnvelope(MessageKind.PRE_PREPARE, 0, 1, 0, b"junk")),
    "empty_batch": lambda stores: fresh(pre_prepare(1, [])[0]),
    "batch_repeating_a_request": lambda stores: fresh(
        pre_prepare(1, [REQ, REQ])[0]),
    "batch_with_a_bad_client_signature": lambda stores: (
        keyed_replica(stores), pre_prepare(1, [forged_request(stores)])[0]),
    "vote_for_an_earlier_view": lambda stores: (
        in_view_1(), vote(MessageKind.PREPARE, 1, DIGEST, 3)),
    "vote_while_a_change_is_pending": lambda stores: (
        changing_view(), vote(MessageKind.COMMIT, 1, DIGEST, 3)),
    "vote_outside_the_window": lambda stores: fresh(
        vote(MessageKind.PREPARE, 10_001, DIGEST, 3)),
    "vote_with_a_short_digest": lambda stores: fresh(
        vote(MessageKind.COMMIT, 1, DIGEST[:31], 3)),
    "checkpoint_off_the_grid": lambda stores: fresh(
        WireEnvelope(MessageKind.CHECKPOINT, 0, 7, 3, DIGEST)),
    "undecodable_view_change": lambda stores: fresh(
        WireEnvelope(MessageKind.VIEW_CHANGE, 1, 0, 3, b"junk")),
    "view_change_claiming_its_own_view": lambda stores: fresh(
        WireEnvelope(MessageKind.VIEW_CHANGE, 1, 0, 3, ViewChangeBody(
            0, (), ((1, 1, PrePrepareBody((REQ,))),), ()).encode())),
    "new_view_from_a_follower": lambda stores: fresh(
        WireEnvelope(MessageKind.NEW_VIEW, 1, 0, 3,
                     NewViewBody((), ()).encode())),
    "undecodable_new_view": lambda stores: fresh(
        WireEnvelope(MessageKind.NEW_VIEW, 1, 0, 1, b"junk")),
    "new_view_without_a_quorum": lambda stores: fresh(
        WireEnvelope(MessageKind.NEW_VIEW, 1, 0, 1,
                     NewViewBody((), ()).encode())),
}


class TestRejections:
    """One input behind each rejection the core counts: each is counted
    exactly once. A PRE_PREPARE or vote for a later view is no rejection;
    it waits in ``future`` for that view."""

    @pytest.fixture(scope="class")
    def stores(self):
        return build_keystores(4, [4, 5])

    @pytest.mark.parametrize("case", REJECTED)
    def test_counted_once(self, stores, case):
        rep, env = REJECTED[case](stores)
        before = rep.counters["rejected"]
        rep.on_envelope(env)
        assert rep.counters["rejected"] == before + 1
        assert rep.future == {}

    @pytest.mark.parametrize("env", [
        pre_prepare(1, [REQ], view=1)[0],
        vote(MessageKind.PREPARE, 1, DIGEST, 3, view=1)],
        ids=["pre_prepare", "vote"])
    def test_later_view_waits_uncounted(self, env):
        rep = make_replica(self_id=2)
        rep.on_envelope(env)
        assert rep.counters["rejected"] == 0
        assert rep.future == {1: [env]}
