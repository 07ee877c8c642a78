"""Pipeline loop: ordering, conservation, fan-out, and flow control."""

import queue
import random
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from pbftkit import crypto
from pbftkit.crypto import CryptoMode
from pbftkit.pipeline import (Pipeline, PipelineConfig, StageMetrics,
                              run_pipeline)
from pbftkit.replica import ProtocolOutput, Replica, ReplicaConfig
from pbftkit.simnet import build_keystores
from pbftkit.wire import MessageKind, WireEnvelope, decode, encode


class FakeTransport:
    def __init__(self, origins=(0,)):
        self.rx = {o: queue.Queue() for o in origins}
        self.sent = []
        self._lock = threading.Lock()

    def receive_queues(self):
        return self.rx

    def send(self, dest, frame):
        with self._lock:
            self.sent.append((dest, frame))


class StubReplica:
    """Records inbound envelopes; on_envelope output is programmable. Its
    config mode and keystore are what the pipeline checks and seals by."""

    def __init__(self, respond=None, mode=CryptoMode.MAC_INTER_NODE,
                 keystore=None):
        self.seen = []
        self.timeouts = []
        self.respond = respond or (lambda env: ProtocolOutput())
        self.config = SimpleNamespace(mode=mode)
        self.keystore = keystore

    def on_envelope(self, env):
        self.seen.append(env)
        return self.respond(env)

    def on_timeout(self, key):
        self.timeouts.append(key)
        return ProtocolOutput()


def env_for(seq, sender=2, payload=b"\x00" * 32, kind=MessageKind.PREPARE):
    return WireEnvelope(kind, 0, seq, sender, payload)


def start(transport, replica, metrics=None, **cfg):
    return Pipeline(PipelineConfig(**cfg), transport, replica,
                    metrics=metrics)


def wait_for(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.005)
    return False


class TestOrdering:
    def test_per_origin_fifo_under_mixed_load(self):
        # Each origin's payload carries its own counter; the decision
        # stage must observe every counter strictly increasing.
        transport = FakeTransport(origins=(0, 1, 2, 3))
        replica = StubReplica()
        pipe = start(transport, replica)
        rng = random.Random(5)
        counters = {o: 0 for o in transport.rx}
        try:
            for _ in range(800):
                o = rng.choice(list(transport.rx))
                counters[o] += 1
                env = env_for(counters[o], sender=o)
                transport.rx[o].put(encode(env))
            assert wait_for(lambda: len(replica.seen) == 800)
        finally:
            pipe.stop()
        last = {}
        for env in replica.seen:
            assert env.seq > last.get(env.sender, 0)
            last[env.sender] = env.seq

    def test_per_origin_fifo_with_concurrent_producers(self):
        # One producer thread per origin, more threads than cores, and a
        # short switch interval so the producers interleave on the inbox.
        transport = FakeTransport(origins=(0, 1, 2, 3))
        replica = StubReplica()
        pipe = start(transport, replica, queue_capacity=8)
        per_origin = 200

        def produce(origin):
            for seq in range(1, per_origin + 1):
                transport.rx[origin].put(encode(env_for(seq, sender=origin)))

        producers = [threading.Thread(target=produce, args=(o,), daemon=True)
                     for o in transport.rx]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in producers:
                t.start()
            assert wait_for(lambda: len(replica.seen) == 4 * per_origin)
            for t in producers:
                t.join(timeout=5.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
            pipe.stop()
        assert pipe.rejected == 0
        for origin in transport.rx:
            seqs = [e.seq for e in replica.seen if e.sender == origin]
            assert seqs == list(range(1, per_origin + 1))

    @staticmethod
    def timer_output(starts=(), stops=()):
        """A core that answers a PREPARE with the given timer changes."""
        def respond(env):
            out = ProtocolOutput()
            out.timer_starts.extend(starts)
            out.timer_stops.extend(stops)
            return out
        return respond

    def test_timer_feeds_decision_stage(self):
        transport = FakeTransport(origins=(2,))
        replica = StubReplica(self.timer_output(starts=[(("batch",), 0.02)]))
        pipe = start(transport, replica)
        try:
            transport.rx[2].put(encode(env_for(1)))
            assert wait_for(lambda: replica.timeouts == [("batch",)])
        finally:
            pipe.stop()

    def test_cancelled_timer_never_fires(self):
        transport = FakeTransport(origins=(2,))
        replica = StubReplica(self.timer_output(
            starts=[(("batch",), 0.05)], stops=[("batch",)]))
        pipe = start(transport, replica)
        try:
            transport.rx[2].put(encode(env_for(1)))
            assert wait_for(lambda: len(replica.seen) == 1)
            time.sleep(0.15)
            assert replica.timeouts == []
        finally:
            pipe.stop()


@pytest.fixture(scope="module")
def stores():
    return build_keystores(4, [])


class TestConservation:
    def test_accepted_equals_delivered_plus_rejected(self, stores):
        transport = FakeTransport(origins=(2,))
        replica = StubReplica(keystore=stores[0])
        pipe = start(transport, replica)
        good, bad = 60, 40
        try:
            for i in range(good):
                env = env_for(i + 1)
                d = crypto.envelope_digest(env)
                env = env.with_auths(((0, stores[2].mac(0, d)),))
                transport.rx[2].put(encode(env))
            for i in range(bad):
                env = env_for(1000 + i).with_auths(((0, b"\x00" * 32),))
                transport.rx[2].put(encode(env))
            assert wait_for(lambda: len(replica.seen) + pipe.rejected
                            == good + bad)
        finally:
            pipe.stop()
        assert len(replica.seen) == good
        assert pipe.rejected == bad

    def test_forged_frames_never_reach_the_core(self, stores):
        transport = FakeTransport(origins=(2,))
        replica = StubReplica(keystore=stores[0])
        pipe = start(transport, replica)
        try:
            env = env_for(1).with_auths(((0, b"\xff" * 32),))
            transport.rx[2].put(encode(env))
            assert wait_for(lambda: pipe.rejected == 1)
        finally:
            pipe.stop()
        assert replica.seen == []

    def test_replica_keystore_checks_inbound(self, stores):
        """A pipeline given no keystore of its own checks by its replica's:
        a frame with a bad MAC is a counted rejection, not a vote."""
        transport = FakeTransport(origins=(2,))
        replica = Replica(ReplicaConfig(n=4, f=1, self_id=0,
                                        mode=CryptoMode.MAC_INTER_NODE),
                          keystore=stores[0])
        pipe = run_pipeline(PipelineConfig(), transport, replica)
        try:
            env = env_for(1).with_auths(((0, b"\x00" * 32),))
            transport.rx[2].put(encode(env))
            assert wait_for(lambda: pipe.rejected == 1)
        finally:
            pipe.stop()
        assert replica.log == {}

    def test_garbage_frames_dropped_in_unmarshal(self):
        transport = FakeTransport(origins=(2,))
        replica = StubReplica()
        pipe = start(transport, replica)
        try:
            transport.rx[2].put(b"\x05\x00\x00\x00garbage")
            transport.rx[2].put(encode(env_for(1)))
            assert wait_for(lambda: len(replica.seen) == 1)
        finally:
            pipe.stop()
        # accepted = delivered + rejected holds for undecodable frames too
        assert pipe.rejected == 1


class TestSettings:
    def test_mode_and_keystore_must_be_the_replicas(self, stores):
        replica = StubReplica(mode=CryptoMode.MAC_INTER_NODE,
                              keystore=stores[0])
        for rep, kw in ((replica, {"mode": CryptoMode.PK_ONLY}),
                        (replica, {"keystore": stores[1]}),
                        (StubReplica(), {"keystore": stores[0]})):
            with pytest.raises(ValueError):
                run_pipeline(PipelineConfig(), FakeTransport(), rep, **kw)
        pipe = run_pipeline(PipelineConfig(), FakeTransport(), replica,
                            mode=CryptoMode.MAC_INTER_NODE,
                            keystore=stores[0])
        pipe.stop()


class TestFanOut:
    DESTS = (1, 2, 3)

    @pytest.mark.parametrize("mode", list(CryptoMode), ids=lambda m: m.name)
    def test_broadcast_sealed_once(self, stores, mode):
        """Feed one authenticated PREPARE to replica 0, whose core answers
        with a COMMIT to DESTS: the COMMIT is hashed, authenticated and
        encoded once, and every recipient verifies the one frame with its
        own key."""
        transport = FakeTransport(origins=(2,))

        def respond(env):
            out = ProtocolOutput()
            out.outbound.append((self.DESTS, env_for(env.seq, sender=0,
                                                     kind=MessageKind.COMMIT)))
            return out

        metrics = StageMetrics()
        pipe = start(transport, StubReplica(respond, mode, stores[0]),
                     metrics=metrics)
        try:
            transport.rx[2].put(crypto.seal(env_for(1), (0,), mode, stores[2]))
            assert wait_for(lambda: len(transport.sent) == len(self.DESTS))
        finally:
            pipe.stop()
        for stage in ("hash_tx", "sign", "marshal"):
            assert metrics.get(stage, MessageKind.COMMIT)[0] == 1
        assert sorted(dest for dest, _ in transport.sent) == list(self.DESTS)
        assert len({frame for _, frame in transport.sent}) == 1
        for dest, frame in transport.sent:
            out = decode(frame)
            assert out.kind == MessageKind.COMMIT
            assert crypto.verify_incoming(out, mode, stores[dest])


class TestLoop:
    def test_one_thread_per_pipeline(self):
        before = set(threading.enumerate())
        pipe = start(FakeTransport(origins=(1, 2, 3)), StubReplica())
        try:
            started = set(threading.enumerate()) - before
        finally:
            pipe.stop()
        assert len(started) == 1
        assert not started.pop().is_alive()


class TestMetrics:
    def test_idle_pipeline_records_nothing(self):
        transport = FakeTransport()
        metrics = StageMetrics()
        pipe = start(transport, StubReplica(), metrics=metrics)
        time.sleep(0.05)
        pipe.stop()
        assert metrics.table() == []

    def test_csv_schema(self, tmp_path):
        metrics = StageMetrics()
        metrics.record("decide", MessageKind.PREPARE, 1500)
        metrics.record("decide", MessageKind.PREPARE, 500)
        path = tmp_path / "stages.csv"
        metrics.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "stage,kind,count,total_ns,mean_ns"
        assert lines[1] == "decide,PREPARE,2,2000,1000"


class TestBackpressure:
    def test_blocked_core_stalls_intake_without_loss(self):
        transport = FakeTransport(origins=(2,))
        gate = threading.Event()

        def respond(env):
            gate.wait()
            return ProtocolOutput()

        replica = StubReplica(respond)
        pipe = start(transport, replica, queue_capacity=4)
        total = 50

        def produce():
            for i in range(total):
                transport.rx[2].put(encode(env_for(i + 1)))

        producer = threading.Thread(target=produce, daemon=True)
        try:
            producer.start()
            time.sleep(0.2)
            # the core is blocked; the bounded inbox holds the rest and
            # the producer waits on it
            assert len(replica.seen) <= 2
            assert producer.is_alive()
            gate.set()
            assert wait_for(lambda: len(replica.seen) == total)
            producer.join(timeout=5.0)
            assert not producer.is_alive()
        finally:
            gate.set()
            pipe.stop()
        seqs = [e.seq for e in replica.seen]
        assert seqs == sorted(seqs)  # nothing lost, nothing reordered
