"""Discrete-event simulator: determinism, faults, and safety checks."""

import hashlib
import tracemalloc
from collections import Counter

import pytest

from pbftkit import crypto, simnet, wire
from pbftkit.client import ClientSession
from pbftkit.crypto import CryptoMode
from pbftkit.simnet import (CRASH_AT, EQUIVOCATE, FORGE_VC, FORGED_CLIENT,
                            MUTE, NonQuiescent, SimConfig, World, trace_lines)
from pbftkit.wire import (MessageKind, PrePrepareBody, ReplyBody, Request,
                          ViewChangeBody, WireEnvelope, request_envelope)

FAST = dict(auth=False)


def run_world(**kw):
    kw = {**FAST, **kw}
    until = kw.pop("until", None)
    world = World(SimConfig(**kw))
    world.run(until=until)
    return world


class TestDeterminism:
    def test_same_seed_same_trace(self):
        cfg = dict(seed=11, drop_prob=0.05, requests_per_client=20,
                   num_clients=2)
        a = run_world(**cfg)
        b = run_world(**cfg)
        assert trace_lines(a.trace) == trace_lines(b.trace)
        assert a.committed == b.committed

    def test_sliced_run_matches_single_run(self):
        cfg = SimConfig(seed=3, num_clients=2, requests_per_client=50, **FAST)
        whole = World(cfg)
        whole.run()
        sliced = World(cfg)
        horizon = 0.0
        while sliced._events:
            horizon += 0.05
            sliced.run(until=horizon)
        assert trace_lines(sliced.trace) == trace_lines(whole.trace)
        assert sliced.committed == whole.committed

    def test_different_seed_different_trace(self):
        a = run_world(seed=1, drop_prob=0.05, requests_per_client=20)
        b = run_world(seed=2, drop_prob=0.05, requests_per_client=20)
        assert trace_lines(a.trace) != trace_lines(b.trace)


class TestFailureFree:
    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3)])
    def test_all_requests_commit_everywhere(self, n, f):
        world = run_world(n=n, f=f, requests_per_client=15, num_clients=2)
        for i in range(n):
            assert world.total_requests_committed(i) == 30
        assert world.max_view() == 0
        world.check_agreement()
        world.check_total_order()

    def test_client_sees_all_completions(self):
        world = run_world(requests_per_client=25)
        sess = world.clients[4].session
        assert [c.request_id for c in sess.completions] == list(range(25))

    def test_validity_checks_real_signatures(self):
        world = World(SimConfig(requests_per_client=3))
        world.run()
        world.check_validity()
        # forge one committed request and expect the oracle to object
        seq, digest, batch = world.committed[0][0]
        bad = batch[0].__class__(batch[0].client_id, batch[0].request_id,
                                 b"forged", batch[0].signature)
        world.committed[0][0] = (seq, digest, (bad,))
        with pytest.raises(AssertionError):
            world.check_validity()

    def test_validity_verifies_each_committed_request_once(self,
                                                           monkeypatch):
        world = World(SimConfig(requests_per_client=3))
        world.run()
        verify, checked = crypto.verify_request, []

        def counting(req, ks):
            checked.append(req)
            return verify(req, ks)
        monkeypatch.setattr(crypto, "verify_request", counting)
        world.check_validity()
        assert len(checked) == world.total_requests_committed(1) == 3


class TestCommittedRecords:
    """``World.committed`` keeps one batch object per seq."""

    def test_replicas_share_each_seqs_batch(self):
        world = run_world(num_clients=2, requests_per_client=10)
        ids = {}
        for i in world.correct_nodes():
            for seq, _, batch in world.committed[i]:
                ids.setdefault(seq, set()).add(id(batch))
        assert len(ids) == 20
        assert all(len(objs) == 1 for objs in ids.values())

    def test_batch_shared_only_when_equal(self):
        # Node 0 is faulty, so node 1 is the first correct one to record
        # seq 1; node 3's batch differs in content and stays its own. Each
        # record's digest is the world's own digest of its batch.
        world = World(SimConfig(auth=False, faults={0: (CRASH_AT, 9.0)}))
        batches = [(Request(4, 0, b"x"),) for _ in range(3)]
        other = (Request(4, 0, b"y"),)
        for node, batch in enumerate(batches + [other]):
            world._record(node, 1, batch)
        records = [world.committed[i][0] for i in range(4)]
        assert records[0][2] is batches[0]
        assert records[1] is records[2]
        assert records[1][2] is batches[1]
        assert records[3][2] is other
        assert [digest for _, digest, _ in records] == [
            wire.batch_digest(batches[0])] * 3 + [wire.batch_digest(other)]

    @pytest.mark.parametrize("seqs", [(1, 3), (1, 1), (2,)],
                             ids=["gap", "repeat", "not_from_one"])
    def test_total_order_requires_seqs_from_one_in_turn(self, seqs):
        # Every correct replica records the same batch at each of ``seqs``:
        # they agree on each seq, but none committed 1, 2, 3, ... in turn.
        world = World(SimConfig(auth=False))
        batch = (Request(4, 0, b"x"),)
        for node in world.correct_nodes():
            for seq in seqs:
                world._record(node, seq, batch)
        world.check_agreement()
        with pytest.raises(AssertionError, match="order violation at node 0"):
            world.check_total_order()



def _show_both_batches(outbound):
    """An equivocating leader that sends each PRE_PREPARE as is, and also
    sends odd-id followers one for the same seq whose requests carry
    another payload. Unlike EQUIVOCATE's own batch, which repeats a request
    and is rejected on sight, either one can be accepted, and the second to
    arrive is traced as an equivocation."""
    result = list(outbound)
    for dests, env in outbound:
        if env.kind == MessageKind.PRE_PREPARE:
            alt = PrePrepareBody(tuple(
                Request(r.client_id, r.request_id, r.payload + b"'")
                for r in PrePrepareBody.decode(env.payload).batch))
            result.append((tuple(d for d in dests if d % 2), WireEnvelope(
                env.kind, env.view, env.seq, env.sender, alt.encode())))
    return result


class TestCompactHistory:
    """A world keeps its trace in two flat arrays, one of ints (each
    record's shape id, node, view and field values) and one of times,
    behind a table of record shapes; and one commit record per seq for its
    correct replicas."""

    class Recorded(simnet.Trace):
        """A trace that also keeps a copy of what it is handed."""

        def __init__(self):
            super().__init__()
            self.handed = []

        def append(self, node, event, view, fields, t):
            self.handed.append((node, event, view, dict(fields), t))
            super().append(node, event, view, fields, t)

    def test_trace_gives_back_what_it_was_handed(self, monkeypatch):
        # One world that traces every event kind: the equivocating leader
        # is voted out, and checkpoints fall every 4 seqs.
        monkeypatch.setitem(simnet._REWRITES, EQUIVOCATE, _show_both_batches)
        world = World(SimConfig(auth=False, num_clients=2,
                                requests_per_client=10,
                                faults={0: (EQUIVOCATE,)},
                                view_change_timeout=0.5, client_timeout=2.0,
                                checkpoint_interval=4, log_capacity=16))
        world.trace = trace = self.Recorded()
        world.run()
        world.check_agreement()
        assert {event for _, event, _, _, _ in trace.handed} == {
            "pre_prepare", "accept_pre_prepare", "prepared", "committed",
            "checkpoint", "stable_checkpoint", "view_change", "new_view",
            "adopt_new_view", "equivocation", "client_done"}
        expected = [{"node": node, "event": event, "view": view, **fields,
                     "t": t} for node, event, view, fields, t in trace.handed]
        got = list(trace)
        assert got == expected
        assert [list(r) for r in got] == [list(r) for r in expected]
        assert all(type(v) is int for _, _, _, fields, _ in trace.handed
                   for v in fields.values())

    def test_memory_per_record_bounded(self):
        # tracemalloc bytes per {seq, batch} record on CPython 3.11.7:
        # about 50 B in two flat arrays, 160 B as a tuple of boxed values
        # per record. Seqs above 256 are not cached small ints.
        trace = simnet.Trace()
        count = 100_000
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for seq in range(1000, 1000 + count):
                trace.append(1, "committed", 0, {"seq": seq, "batch": 1},
                             round(seq * 1e-3, 9))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == count
        assert (after - before) / count <= 64

    def test_trace_iterates_fresh_equal_dicts(self):
        world = World(SimConfig(num_clients=2, requests_per_client=5, **FAST))
        assert world.run() is world.trace
        first, second = list(world.trace), list(world.trace)
        assert first == second
        assert len(world.trace) == len(first) > 0
        first[0]["event"] = "edited"
        del first[1]["t"]
        assert list(world.trace) == second
        assert {"node", "event", "view", "t"} <= second[0].keys()

    def test_each_key_set_gets_its_own_keys(self):
        # One event name traced with two field sets keeps each set's keys.
        trace = simnet.Trace()
        trace.append(0, "e", 1, {"seq": 5}, 0.5)
        trace.append(2, "e", 3, {"target": 4, "entries": 0}, 0.75)
        trace.append(1, "f", 1, {"seq": 6}, 1.0)
        assert list(trace) == [
            {"node": 0, "event": "e", "view": 1, "seq": 5, "t": 0.5},
            {"node": 2, "event": "e", "view": 3, "target": 4, "entries": 0,
             "t": 0.75},
            {"node": 1, "event": "f", "view": 1, "seq": 6, "t": 1.0}]

    def test_correct_replicas_share_each_seqs_record(self):
        world = run_world(num_clients=2, requests_per_client=10,
                          faults={3: (MUTE,)})
        records = {}
        for i in world.correct_nodes():
            for record in world.committed[i]:
                records.setdefault(record[0], set()).add(id(record))
        assert len(records) == 20
        assert all(len(ids) == 1 for ids in records.values())

    def test_record_with_another_digest_keeps_its_own(self):
        # Node 2 commits another batch at seq 1, so its record has another
        # digest and is its own.
        world = World(SimConfig(auth=False))
        batches = [(Request(4, 0, b"x"),), (Request(4, 0, b"x"),),
                   (Request(4, 0, b"z"),)]
        for node, batch in enumerate(batches):
            world._record(node, 1, batch)
        records = [world.committed[i][0] for i in range(3)]
        assert records[1] is records[0]
        assert records[2] is not records[0]
        assert records[2] == (1, wire.batch_digest(batches[2]), batches[2])
        assert records[2][1] != records[0][1]
        with pytest.raises(AssertionError, match="agreement violation"):
            world.check_agreement()


class TestLossyLinks:
    def test_drops_do_not_break_safety(self):
        for seed in range(5):
            world = run_world(seed=seed, drop_prob=0.15,
                              requests_per_client=10, until=60.0)
            world.check_agreement()
            world.check_total_order()

    def test_total_loss_commits_nothing(self):
        world = run_world(drop_prob=1.0, requests_per_client=5, until=30.0)
        assert all(len(world.committed[i]) == 0 for i in range(4))


class TestFaults:
    def test_crash_at_stops_participation(self):
        world = run_world(faults={2: (CRASH_AT, 0.0)},
                          requests_per_client=10)
        assert world.nodes[2].crashed
        assert len(world.committed[2]) == 0
        for i in (0, 1, 3):
            assert world.total_requests_committed(i) == 10

    def test_nothing_scheduled_for_a_crashed_node(self):
        world = World(SimConfig(seed=7, num_clients=2, requests_per_client=30,
                                faults={0: (CRASH_AT, 0.25)},
                                view_change_timeout=0.5, **FAST))
        horizon = 0.0
        while world._events:
            horizon += 0.05
            world.run(until=horizon)
            for at, _, item in world._events:
                if item[0] == "deliver":
                    assert item[2] != 0 or at < 0.25, item
                elif item[0] == "node_timer":
                    assert item[1] != 0 or at < 0.25, item
        assert world.nodes[0].crashed
        assert world.max_view() == 1

    def test_crashed_without_traffic_after_the_crash(self):
        # Node 2 is cut off for the whole run, so no event ever reaches it.
        world = run_world(faults={2: (CRASH_AT, 0.1)},
                          partitions=((0.0, 1e9, frozenset({2})),),
                          requests_per_client=30)
        assert world.now > 0.1
        assert world.nodes[2].crashed
        assert not world.nodes[1].crashed

    def test_leader_crash_triggers_view_change(self):
        world = run_world(seed=7, num_clients=2, faults={0: (CRASH_AT, 0.25)},
                          requests_per_client=50, view_change_timeout=0.5)
        assert world.max_view() == 1
        for i in (1, 2, 3):
            assert world.total_requests_committed(i) == 100
        world.check_agreement()

    def test_mute_follower_harmless(self):
        world = run_world(faults={3: (MUTE,)}, requests_per_client=10)
        for i in (0, 1, 2):
            assert world.total_requests_committed(i) == 10
        world.check_agreement()

    def test_equivocating_leader_never_splits_commits(self):
        world = run_world(seed=3, faults={0: (EQUIVOCATE,)},
                          requests_per_client=10, view_change_timeout=0.5,
                          client_timeout=2.0, until=120.0)
        world.check_agreement()
        world.check_total_order()

    def test_equivocating_leader_cannot_repeat_a_request(self):
        kw, _ = GOLDEN["equivocate"]
        world = World(SimConfig(**kw))
        world.run()
        for node, log in world.committed.items():
            keys = [(r.client_id, r.request_id) for _, _, batch in log
                    for r in batch]
            assert len(keys) == len(set(keys)), node

    def test_forged_view_changes_commit_nothing_forged(self):
        # The leader crashes and replica 3 lies in every VIEW_CHANGE.
        world = run_world(n=7, f=2, seed=7, num_clients=2,
                          faults={0: (CRASH_AT, 0.25), 3: (FORGE_VC,)},
                          requests_per_client=50, view_change_timeout=0.5)
        assert world.max_view() >= 1
        assert world.nodes[3].replica.counters["view_changes"] >= 1
        world.check_agreement()
        for i in world.correct_nodes():
            assert world.total_requests_committed(i) == 100
            assert not any(r.client_id == FORGED_CLIENT
                           for _, _, batch in world.committed[i]
                           for r in batch)

    @staticmethod
    def sent_by(world, src) -> list:
        """Collects each envelope ``src`` hands to the links."""
        sent, transmit = [], world._transmit

        def spy(origin, dests, env):
            if origin == src:
                sent.append(env)
            transmit(origin, dests, env)
        world._transmit = spy
        return sent

    def test_mute_node_sends_nothing(self):
        world = World(SimConfig(faults={3: (MUTE,)}, requests_per_client=10,
                                **FAST))
        sent = self.sent_by(world, 3)
        world.run()
        assert world.total_requests_committed(3) == 10
        assert sent == []

    def test_forged_view_changes_leave_the_node(self):
        # Replica 3's view-change timer makes VIEW_CHANGEs; each that goes
        # out claims FORGED_CLIENT batches.
        world = World(SimConfig(n=7, f=2, seed=7, num_clients=2,
                                faults={0: (CRASH_AT, 0.25), 3: (FORGE_VC,)},
                                requests_per_client=50,
                                view_change_timeout=0.5, **FAST))
        sent = self.sent_by(world, 3)
        replica, from_timers = world.nodes[3].replica, []
        on_timeout = replica.on_timeout

        def timed(key):
            out = on_timeout(key)
            from_timers.extend(env for _, env in out.outbound
                               if env.kind == MessageKind.VIEW_CHANGE)
            return out
        replica.on_timeout = timed
        world.run()
        sent = [ViewChangeBody.decode(env.payload) for env in sent
                if env.kind == MessageKind.VIEW_CHANGE]
        assert from_timers and len(sent) >= len(from_timers)
        for vc in sent:
            assert vc.prepared and all(
                r.client_id == FORGED_CLIENT
                for _, _, body in vc.prepared for r in body.batch)

    def test_two_crashes_at_f_two(self):
        world = run_world(n=7, f=2, seed=7,
                          faults={0: (CRASH_AT, 0.25), 1: (CRASH_AT, 0.25)},
                          requests_per_client=10, view_change_timeout=0.5)
        assert world.max_view() <= 2
        for i in range(2, 7):
            assert world.total_requests_committed(i) == 10
        world.check_agreement()


class TestPartitions:
    def test_minority_partition_heals(self):
        world = run_world(partitions=((0.0, 2.0, frozenset({3})),),
                          requests_per_client=10, until=60.0)
        world.check_agreement()
        world.check_total_order()
        assert world.total_requests_committed(0) == 10

    def test_laggards_catch_up_after_a_view_change(self):
        # Replicas 1 and 3 miss COMMITs in this world. Every replica votes
        # on the re-proposed seqs of the next view, also those it already
        # committed, so the two commit them too.
        world = World(SimConfig(**GOLDEN["drops_and_partition"][0]))
        world.run()
        world.check_agreement()
        assert [n.replica.committed_seq for n in world.nodes.values()] == \
            [40] * 4


class TestSafetyValve:
    def test_non_quiescent_run_raises(self):
        with pytest.raises(NonQuiescent):
            run_world(max_events=50, requests_per_client=100)


class TestAuthSwitch:
    """``SimConfig.auth`` is the one switch: it gives every principal a
    keystore or none."""

    @pytest.mark.parametrize("auth", [True, False])
    def test_client_auth_other_than_auth_rejected(self, auth):
        with pytest.raises(ValueError):
            SimConfig(auth=auth, client_auth=not auth)

    def test_auth_off_gives_no_keystore(self):
        world = World(SimConfig(auth=False, num_clients=2))
        assert world.keystores is None
        assert all(node.replica.keystore is None
                   for node in world.nodes.values())
        assert all(cl.session.keystore is None
                   for cl in world.clients.values())


class TestAuthenticatedPath:
    def test_forged_inter_node_traffic_rejected(self):
        # With auth on, a frame whose tag fails verification is counted
        # by the node's step and never reaches the replica core.
        world = World(SimConfig(requests_per_client=2, drop_prob=0.0))
        from pbftkit import wire
        from pbftkit.wire import MessageKind, WireEnvelope
        env = WireEnvelope(MessageKind.PREPARE, 0, 1, 2, b"\x00" * 32,
                           auths=((1, b"\x00" * 32),))
        world._push(0.001, ("deliver", 2, 1, wire.decode(wire.encode(env))))
        world.run()
        assert world.nodes[1].rejected == 1
        assert world.nodes[1].replica.counters["rejected"] == 0
        world.check_agreement()
        assert world.total_requests_committed(0) == 2

    def test_forged_request_does_not_stall_its_batch(self):
        # Before client 4's first request reaches the leader, a REQUEST in
        # its name signed with client 5's key does. The leader rejects it on
        # intake, so no batch carries it and no view change is needed.
        world = World(SimConfig(seed=1, num_clients=2, requests_per_client=5,
                                batch_size=2))
        forger = ClientSession(5, 4, 1, world.config.mode,
                               keystore=world.keystores[5])
        req = forger.make_request(b"forged", 0.0)[0]
        env = request_envelope(Request(4, 0, req.payload, req.signature))
        world._push(0.0, ("deliver", 5, 0, wire.decode(wire.encode(env))))
        world.run()
        assert max(node.replica.counters["view_changes"]
                   for node in world.nodes.values()) == 0
        assert world.nodes[0].replica.counters["rejected"] == 1
        for cl in world.clients.values():
            assert cl.failed == 0
            assert len(cl.session.completions) == 5
        world.check_agreement()
        world.check_validity()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_pk_replies_resent_after_commit(self, seed):
        # Lost replies and slow commits make clients retransmit requests
        # that replicas have already committed; each such replica answers
        # from its reply cache with the batch-signed reply it stored. Every
        # first reply to each client's request 0 is lost, so that happens
        # in every world, not only where loss and timing happen to cause it.
        world = World(SimConfig(seed=seed, mode=CryptoMode.PK_ONLY,
                                drop_prob=0.05, num_clients=2,
                                requests_per_client=10, client_timeout=1.0))
        sent = Counter()
        transmit = world._transmit

        def counting(src, dests, env):
            if env.kind == MessageKind.REPLY:
                body = ReplyBody.decode(env.payload)
                key = src, body.client_id, body.request_id
                sent[key] += 1
                if body.request_id == 0 and sent[key] == 1:
                    return
            transmit(src, dests, env)

        world._transmit = counting
        world.run(until=30.0)
        world.check_agreement()
        assert any(count > 1 for count in sent.values())
        for cl in world.clients.values():
            assert cl.failed == 0
            assert len(cl.session.completions) == 10


class TestPreMadeRequests:
    def test_materialised_requests_sign_nothing_in_run(self, monkeypatch):
        # A timed world materialises each client's requests before run(),
        # so that client signing stays out of the measured window. A lazy
        # world signs each request when its client submits it.
        signers = []
        sign = crypto.KeyStore.sign

        def counting(ks, data):
            signers.append(ks.own_id)
            return sign(ks, data)

        for materialise, signs_in_run in ((True, 0), (False, 6)):
            world = World(SimConfig(seed=1, num_clients=2,
                                    requests_per_client=3))
            if materialise:
                for cl in world.clients.values():
                    cl.requests = iter(list(cl.requests))
            signers.clear()
            monkeypatch.setattr(crypto.KeyStore, "sign", counting)
            world.run()
            monkeypatch.undo()
            assert sum(i in world.clients for i in signers) == signs_in_run
            for cl in world.clients.values():
                assert len(cl.session.completions) == 3
            world.check_agreement()
            world.check_validity()


def fingerprint(world) -> str:
    """SHA-256 over the canonical trace and every replica's committed log.

    Request signatures are left out: RSA keys are drawn fresh per process,
    so they differ between runs while everything they sign stays fixed.
    """
    h = hashlib.sha256()
    for line in trace_lines(world.trace):
        h.update(line.encode() + b"\n")
    for node in sorted(world.committed):
        for seq, digest, batch in world.committed[node]:
            h.update(repr((node, seq, digest, [
                (r.client_id, r.request_id, r.payload) for r in batch
            ])).encode())
    return h.hexdigest()


GOLDEN = {
    "mac_auth": (
        dict(seed=21, num_clients=2, requests_per_client=5),
        "872cfb88d0d629a2a59623441dab03faf5d8691f4dccfcdca89a487bf4cb1a40"),
    "domain_auth_crash_checkpoints": (
        dict(seed=4, mode=CryptoMode.DOMAIN_OPTIMIZED, num_clients=2,
             requests_per_client=12, checkpoint_interval=4, log_capacity=16,
             faults={0: (CRASH_AT, 0.03)}, view_change_timeout=0.5,
             client_timeout=2.0),
        "fb65d24a38cebf43217dc7b82a65460d65850ee5c997cbb2b85d7b5f656e4791"),
    "drops_and_partition": (
        dict(FAST, seed=5, drop_prob=0.05, num_clients=2,
             requests_per_client=20,
             partitions=((0.0, 1.5, frozenset({2})),)),
        "de4056c3ea15db2ab70f132c913141c5bf1efe5408afa6c6c735bbdcdcbf5f4c"),
    "leader_crash": (
        dict(FAST, seed=7, num_clients=2, requests_per_client=30,
             faults={0: (CRASH_AT, 0.25)}, view_change_timeout=0.5,
             checkpoint_interval=10, log_capacity=40),
        "f522ea4fda44e8210c859983e758c3214c12f4496c368d7d9829bdc359bdc7c1"),
    "equivocate": (
        dict(FAST, seed=3, faults={0: (EQUIVOCATE,)}, requests_per_client=10,
             view_change_timeout=0.5, client_timeout=2.0),
        "c448333c022ff6861baf034563885232eea84e2fc6f4a41f1b746f6af17911ee"),
    "batch4": (
        dict(FAST, seed=9, batch_size=4, num_clients=4,
             requests_per_client=15, checkpoint_interval=5, log_capacity=20),
        "b69611c8bdbc9d47570a04c196e72ed58e55461dd4836872bb6d8f2e7f8b6a2b"),
    # A small copy of the sim-leader-crash benchmark world: it crosses the
    # same codec, event and vote paths, plus one view change.
    "benchmark_shape": (
        dict(FAST, seed=2, num_clients=8, requests_per_client=100,
             latency=(0.0005, 0.002), payload_size=512,
             faults={0: (CRASH_AT, 0.2)}, checkpoint_interval=50),
        "babf2e4efb18e8b2ec26593db7b29cd165fa1ed5e00ce487f379699d1e57ea42"),
}


class TestGoldenTrace:
    """The simulator replays these seeded worlds bit for bit; a change to
    the codec path, the event order or the replica core that alters any
    trace record or committed batch shows up as a different digest."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_trace_digest_unchanged(self, name):
        kw, expected = GOLDEN[name]
        world = World(SimConfig(**kw))
        world.run()
        world.check_agreement()
        assert fingerprint(world) == expected


class TestDeadTimers:
    """Dead timer events leave the queue without changing the world."""

    class Watched(World):
        peak = 0  # queued events, the one being handled included

        def _handle(self, item):
            self.peak = max(self.peak, len(self._events) + 1)
            super()._handle(item)

    # Criterion 10a's shape at 2,000 requests: every request's client and
    # replica timers are dead long before their deadlines.
    SHAPE = dict(auth=False, seed=1, num_clients=8, requests_per_client=250,
                 latency=(0.0001, 0.0005), client_timeout=30.0,
                 view_change_timeout=120.0)

    def test_peak_queued_events_bounded(self):
        # 4,266 queued events at the peak when dead ones are shed, 10,018
        # when each waits for its deadline.
        world = self.Watched(SimConfig(**self.SHAPE))
        world.run()
        assert world.total_requests_committed(0) == 2000
        assert world.peak < 6000

    def test_shedding_leaves_the_trace_unchanged(self, monkeypatch):
        shed = self.Watched(SimConfig(**self.SHAPE))
        shed.run()
        monkeypatch.setattr(simnet, "_SHED_SLACK", 10**9)
        kept = self.Watched(SimConfig(**self.SHAPE))
        kept.run()
        assert shed.peak < kept.peak
        assert trace_lines(shed.trace) == trace_lines(kept.trace)
        assert shed.committed == kept.committed


def test_world_memory_per_committed_request_bounded():
    # Bytes the benchmark_shape world still holds after run(), traced from
    # before it is built, per request committed. On CPython 3.11, run alone:
    # about 2,140 B with the trace in two flat arrays, 3,198 B with a tuple
    # per trace record, both with one commit record per seq, and 4,901 B
    # with a dict per trace record and a record tuple per replica. After
    # other tests in the same process each reads a few hundred bytes less.
    kw, _ = GOLDEN["benchmark_shape"]
    tracemalloc.start()
    try:
        world = World(SimConfig(**kw))
        world.run()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    committed = world.total_requests_committed(1)
    assert committed == 800
    assert retained / committed < 4000
