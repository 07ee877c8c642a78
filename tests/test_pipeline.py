"""Pipeline loop: ordering, conservation, fan-out, and flow control."""

import queue
import random
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from pbftkit import crypto, pipeline
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

    def test_restarted_timer_fires_once_at_its_later_deadline(self):
        # Each PREPARE restarts the timer. The first start's deadline passes
        # while the second start is live, and only the second one fires.
        transport = FakeTransport(origins=(2,))
        replica = StubReplica(self.timer_output(starts=[(("batch",), 0.2)]))
        pipe = start(transport, replica)
        try:
            transport.rx[2].put(encode(env_for(1)))
            assert wait_for(lambda: len(replica.seen) == 1)
            time.sleep(0.05)
            restarted = time.monotonic()
            transport.rx[2].put(encode(env_for(2)))
            assert wait_for(lambda: replica.timeouts == [("batch",)])
            fired = time.monotonic()
            time.sleep(0.2)
            assert replica.timeouts == [("batch",)]
        finally:
            pipe.stop()
        assert len(replica.seen) == 2
        assert fired - restarted >= 0.2

    def test_dead_timers_are_shed(self):
        # Frame k starts request timer k and stops timer k-1, as a replica
        # does for requests that execute one after another. Whenever a
        # timer is armed, the heap holds at most twice the live timers plus
        # the slack; the last timer, still live, fires.
        class Watched(Pipeline):
            excess = 0

            def _arm(self, key, delay, token):
                super()._arm(key, delay, token)
                self.excess = max(self.excess,
                                  len(self._heap) - 2 * len(self._live))

        frames = 3000

        def respond(env):
            out = ProtocolOutput()
            delay = 0.05 if env.seq == frames else 60.0
            out.timer_starts.append((("request", env.seq), delay))
            out.timer_stops.append(("request", env.seq - 1))
            return out
        transport = FakeTransport(origins=(2,))
        replica = StubReplica(respond)
        pipe = Watched(PipelineConfig(), transport, replica)
        try:
            for seq in range(1, frames + 1):
                transport.rx[2].put(encode(env_for(seq)))
            assert wait_for(lambda: replica.timeouts == [("request", frames)],
                            timeout=30.0)
        finally:
            pipe.stop()
        assert len(replica.seen) == frames
        assert pipe.excess <= pipeline._SHED_SLACK


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
            transport.rx[2].put(
                encode(crypto.sealed(env_for(1), (0,), mode, stores[2])))
            assert wait_for(lambda: len(transport.sent) == len(self.DESTS))
        finally:
            pipe.stop()
        counts = {(stage, kind): count
                  for stage, kind, count, _, _ in metrics.table()}
        for stage in ("hash_tx", "sign", "marshal"):
            assert counts[stage, "COMMIT"] == 1
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

    def test_csv_schema(self, stores, tmp_path):
        """Two PREPAREs, each answered with one COMMIT: the CSV is the
        header and then the table's rows, and each row's total is its one
        timed call (the first) scaled to its two calls."""
        transport, metrics = FakeTransport(origins=(2,)), StageMetrics()
        self.feed(start(transport, self.answering(
            stores, lambda env: MessageKind.COMMIT), metrics=metrics),
            transport, self.sealed([env_for(1), env_for(2)], stores))
        path = tmp_path / "stages.csv"
        metrics.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "stage,kind,count,total_ns,mean_ns"
        rows = metrics.table()
        assert lines[1:] == [",".join(str(v) for v in row) for row in rows]
        assert [row[:3] for row in rows] == [
            (stage, "PREPARE" if stage in pipeline._STAGES[:4] else "COMMIT",
             2) for stage in pipeline._STAGES]
        for _, _, _, total, mean in rows:
            assert total == 2 * mean

    DESTS = (1, 2, 3)

    def answering(self, stores, answer):
        """A stub replica 0 with keys whose core answers each frame with one
        envelope of kind ``answer(env)`` to DESTS."""
        def respond(env):
            out = ProtocolOutput()
            out.outbound.append((self.DESTS, env_for(env.seq, sender=0,
                                                     kind=answer(env))))
            return out
        return StubReplica(respond, keystore=stores[0])

    def feed(self, pipe, transport, frames):
        """Put ``frames`` on replica 2's link and stop ``pipe`` once every
        answer is sent."""
        try:
            for frame in frames:
                transport.rx[2].put(frame)
            assert wait_for(lambda: len(transport.sent)
                            == len(frames) * len(self.DESTS))
        finally:
            pipe.stop()

    @staticmethod
    def sealed(envs, stores):
        return [encode(crypto.sealed(env, (0,), CryptoMode.MAC_INTER_NODE,
                                     stores[2])) for env in envs]

    def test_counts_are_exact_under_sampling(self, stores):
        """37 PREPAREs and 5 COMMITs, neither a multiple of the calls in
        which one is timed, each answered with one envelope of its kind:
        every row counts every frame, and the kind seen fewer than 16 times
        still has a timed total."""
        kinds = [MessageKind.PREPARE] * 37 + [MessageKind.COMMIT] * 5
        random.Random(1).shuffle(kinds)
        frames = self.sealed([env_for(seq, kind=kind) for seq, kind
                              in enumerate(kinds, start=1)], stores)
        transport, metrics = FakeTransport(origins=(2,)), StageMetrics()
        self.feed(start(transport, self.answering(stores, lambda e: e.kind),
                        metrics=metrics), transport, frames)
        rows = metrics.table()
        assert [(stage, kind) for stage, kind, *_ in rows] == [
            (stage, kind) for stage in pipeline._STAGES
            for kind in ("COMMIT", "PREPARE")]
        for stage, kind, count, total, mean in rows:
            assert count == kinds.count(MessageKind[kind]), (stage, kind)
            assert mean == total // count
            # A MAC compare can cost less than the clock-read correction.
            assert total > 0 or stage == "verify", (stage, kind)

    def test_stage_replaced_mid_run_is_the_one_run(self, stores,
                                                   monkeypatch):
        """A stage function replaced after the first frame, as a tracer
        installs its spans mid-run, runs for every later frame, whether
        the frame's span is timed or not: ``crypto.hash_incoming`` on the
        way in and ``pipeline.encode`` on the way out."""
        transport = FakeTransport(origins=(2,))
        replica = self.answering(stores, lambda env: MessageKind.COMMIT)
        pipe = start(transport, replica)
        seen = {}

        def counting(module, name):
            fn = getattr(module, name)

            def run(env, *args):
                seen.setdefault(name, []).append(env.seq)
                return fn(env, *args)
            monkeypatch.setattr(module, name, run)
        frames = self.sealed([env_for(seq) for seq in range(1, 42)], stores)
        try:
            transport.rx[2].put(frames[0])
            assert wait_for(lambda: len(transport.sent) == len(self.DESTS))
            counting(crypto, "hash_incoming")
            counting(pipeline, "encode")
            for frame in frames[1:]:
                transport.rx[2].put(frame)
            assert wait_for(lambda: len(transport.sent)
                            == len(frames) * len(self.DESTS))
        finally:
            pipe.stop()
        assert len(replica.seen) == len(frames)
        assert seen == {"hash_incoming": list(range(2, 42)),
                        "encode": list(range(2, 42))}

    def test_table_read_while_running(self, stores):
        """A table read mid-run, as perfbench's snapshot does, while the
        loop counts and creates cells: 300 PREPAREs and then 300 COMMITs,
        each answered with one envelope of its kind, with ``table()`` read
        in a loop from this thread. No read raises, no count goes down,
        and the final counts equal the frames."""
        kinds = [MessageKind.PREPARE] * 300 + [MessageKind.COMMIT] * 300
        frames = self.sealed([env_for(seq, kind=kind) for seq, kind
                              in enumerate(kinds, start=1)], stores)
        transport, metrics = FakeTransport(origins=(2,)), StageMetrics()
        pipe = start(transport, self.answering(stores, lambda e: e.kind),
                     metrics=metrics)
        want, last, reads = len(frames) * len(self.DESTS), {}, 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-read too
        try:
            for frame in frames:
                transport.rx[2].put(frame)
            deadline = time.monotonic() + 10.0
            while len(transport.sent) < want and time.monotonic() < deadline:
                for stage, kind, count, total, mean in metrics.table():
                    assert count >= last.get((stage, kind), 0)
                    assert mean == total // count
                    last[stage, kind] = count
                reads += 1
                time.sleep(0.001)  # let the loop hold the interpreter
        finally:
            sys.setswitchinterval(interval)
            pipe.stop()
        assert len(transport.sent) == want
        assert reads > 1, reads
        assert [(stage, kind, count) for stage, kind, count, _, _
                in metrics.table()] == [
            (stage, kind, 300) for stage in pipeline._STAGES
            for kind in ("COMMIT", "PREPARE")]

    def test_clock_reads_are_sampled(self, stores, monkeypatch):
        """Pins metering's cost: 160 PREPAREs, each answered with one
        COMMIT to three peers, make at most 2 thread-CPU clock reads per
        frame once the pipeline is built. Timing all seven spans of every
        frame made 14."""
        frames = self.sealed([env_for(seq) for seq in range(1, 161)], stores)
        reads, clock = [0], time.thread_time_ns

        def counted():
            reads[0] += 1
            return clock()
        monkeypatch.setattr(pipeline.time, "thread_time_ns", counted)
        transport = FakeTransport(origins=(2,))
        pipe = start(transport, self.answering(
            stores, lambda env: MessageKind.COMMIT))
        built = reads[0]  # the constructor calibrates on 513 reads
        self.feed(pipe, transport, frames)
        per_frame = (reads[0] - built) / len(frames)
        assert per_frame <= 2.0, per_frame


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
