"""Discrete-event simulator: determinism, faults, and safety checks."""

import hashlib
from collections import Counter

import pytest

from pbftkit import simnet, wire
from pbftkit.client import ClientSession
from pbftkit.crypto import CryptoMode
from pbftkit.simnet import (CRASH_AT, EQUIVOCATE, FORGE_VC, FORGED_CLIENT,
                            MUTE, NonQuiescent, SimConfig, World, trace_lines)
from pbftkit.wire import MessageKind, ReplyBody, Request, request_envelope

FAST = dict(auth=False, client_auth=False)


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


class TestLossyLinks:
    def test_drops_do_not_break_safety(self):
        for seed in range(5):
            world = run_world(seed=seed, drop_prob=0.15,
                              requests_per_client=10, until=60.0)
            world.check_agreement()
            world.check_total_order()

    def test_total_loss_commits_nothing(self):
        world = run_world(drop_prob=1.0, requests_per_client=5, until=30.0)
        assert all(world.committed_count(i) == 0 for i in range(4))


class TestFaults:
    def test_crash_at_stops_participation(self):
        world = run_world(faults={2: (CRASH_AT, 0.0)},
                          requests_per_client=10)
        assert world.nodes[2].crashed
        assert world.committed_count(2) == 0
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


class TestAuthenticatedPath:
    def test_forged_inter_node_traffic_rejected(self):
        # With auth on, a frame whose tag fails verification is counted
        # as rejected and never reaches the replica core.
        world = World(SimConfig(requests_per_client=2, drop_prob=0.0))
        from pbftkit import wire
        from pbftkit.wire import MessageKind, WireEnvelope
        env = WireEnvelope(MessageKind.PREPARE, 0, 1, 2, b"\x00" * 32,
                           auths=((1, b"\x00" * 32),))
        world._push(0.001, ("deliver", 2, 1, wire.decode(wire.encode(env))))
        world.run()
        assert world.nodes[1].replica.counters["rejected"] >= 1
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
        "bf558a1ecfb42e4af1c94f6210cb532f7e0f99a11a75f2ab747259d1ef9f36f7"),
    "drops_and_partition": (
        dict(FAST, seed=5, drop_prob=0.05, num_clients=2,
             requests_per_client=20,
             partitions=((0.0, 1.5, frozenset({2})),)),
        "cdaf205aff195f3a39957c7625c8682f1411bbbfb8f4180e67c6103324344ef9"),
    "leader_crash": (
        dict(FAST, seed=7, num_clients=2, requests_per_client=30,
             faults={0: (CRASH_AT, 0.25)}, view_change_timeout=0.5,
             checkpoint_interval=10, log_capacity=40),
        "6a81137bbab0acb01c5db43fa1695d425d019a1264dd9ddf06b3912e149a34ae"),
    "equivocate": (
        dict(FAST, seed=3, faults={0: (EQUIVOCATE,)}, requests_per_client=10,
             view_change_timeout=0.5, client_timeout=2.0),
        "03ae998aefdeac656e890dbe39f375fc9adf53b5f26f889877282602c7949714"),
    "batch4": (
        dict(FAST, seed=9, batch_size=4, num_clients=4,
             requests_per_client=15, checkpoint_interval=5, log_capacity=20),
        "b69611c8bdbc9d47570a04c196e72ed58e55461dd4836872bb6d8f2e7f8b6a2b"),
    # A small copy of the sim-leader-crash benchmark world: it crosses the
    # same codec, event and vote paths, plus three view changes.
    "benchmark_shape": (
        dict(FAST, seed=2, num_clients=8, requests_per_client=100,
             latency=(0.0005, 0.002), payload_size=512,
             faults={0: (CRASH_AT, 0.2)}, checkpoint_interval=50),
        "6d7d397cd3e4d94e305969c1395f701e0515a7e0c6c01ccc336804af37077737"),
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
