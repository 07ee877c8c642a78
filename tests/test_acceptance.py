"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with the measured numbers so a full
run doubles as a results table. Throughput-sensitive criteria run on the
single-threaded in-process cluster: every hop still pays the real codec
and real authenticators, but thread scheduling noise is out of the
measurement, which matters on small machines.
"""

import random
import time
from pathlib import Path

import pytest

from pbftkit import crypto, wire
from pbftkit.bench import cli
from pbftkit.bench.inline import InlineCluster, compare_modes
from pbftkit.bench.local import BenchConfig, run_benchmark
from pbftkit.client import ClientSession
from pbftkit.crypto import AuthScheme, CryptoMode, MessageClass, required_auth
from pbftkit.replica import Replica, ReplicaConfig, Status
from pbftkit.simnet import (CRASH_AT, EQUIVOCATE, FORGE_VC, FORGED_CLIENT,
                            MUTE, SimConfig, World)
from pbftkit.wire import (MessageKind, PrePrepareBody, Request, WireEnvelope,
                          decode, encode, request_envelope)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "pbftkit" / \
    "scenarios"

FAULT_CYCLE = [(CRASH_AT, 0.25), (MUTE,), (EQUIVOCATE,)]


def check_safety(world):
    world.check_agreement()
    world.check_validity()
    world.check_total_order()


class TestCriterion1SafetyUnderFaults:
    def test_thousand_seeded_runs_no_safety_violation(self):
        t0 = time.monotonic()
        runs = 0
        for n, f, seeds in ((4, 1, range(500)), (7, 2, range(500, 1000))):
            for seed in seeds:
                fault = {seed % n: FAULT_CYCLE[seed % 3]}
                world = World(SimConfig(
                    n=n, f=f, seed=seed, drop_prob=0.02, faults=fault,
                    auth=False, client_auth=False, requests_per_client=10,
                    view_change_timeout=0.5))
                world.run(until=60.0)
                check_safety(world)
                runs += 1
        wall = time.monotonic() - t0
        assert runs == 1000
        assert wall < 300.0
        print(f"\nPASS criterion 1: 1000 fault-injected runs "
              f"(500 at n=4, 500 at n=7), zero safety violations, "
              f"{wall:.1f}s wall")


class TestLossAndForgedViewChangeSweep:
    """Worlds that change view under message loss alone, and with one
    replica whose VIEW_CHANGEs claim batches nobody proposed (FORGE_VC)."""

    @staticmethod
    def world(seed, drop, faults=None):
        world = World(SimConfig(
            seed=seed, drop_prob=drop, faults=faults or {}, auth=False,
            client_auth=False, num_clients=2, requests_per_client=10,
            client_timeout=1.0))
        world.run(until=30.0)
        check_safety(world)
        return world

    def test_loss_sweep(self):
        t0 = time.monotonic()
        runs = 0
        for drop in (0.02, 0.05, 0.1, 0.2):
            for seed in range(200):
                self.world(seed, drop)
                runs += 1
        wall = time.monotonic() - t0
        assert runs == 800
        assert wall < 150.0
        print(f"\nPASS loss sweep: {runs} worlds at drops 0.02-0.2, zero "
              f"safety violations, {wall:.1f}s wall")

    def test_forged_view_change_sweep(self):
        t0 = time.monotonic()
        view_changes = 0
        for seed in range(200):
            world = self.world(seed, 0.1, {seed % 4: (FORGE_VC,)})
            for i in world.correct_nodes():
                assert not any(r.client_id == FORGED_CLIENT
                               for _, _, batch in world.committed[i]
                               for r in batch)
            view_changes += world.nodes[seed % 4].replica.counters[
                "view_changes"]
        wall = time.monotonic() - t0
        assert view_changes > 0  # the forger did send VIEW_CHANGEs
        assert wall < 75.0
        print(f"\nPASS FORGE_VC sweep: 200 worlds, {view_changes} forged "
              f"VIEW_CHANGEs, no forged batch committed, {wall:.1f}s wall")


class TestCriterion2ScriptedViewChanges:
    def test_bundled_fault_scenarios(self):
        t0 = time.monotonic()
        cfg, expect = cli.parse_scenario(SCENARIO_DIR / "leader_crash.scn")
        world = World(cfg)
        world.run()
        assert cli.evaluate_scenario(world, expect) == []
        live = [i for i in range(cfg.n) if not world.nodes[i].crashed]
        assert all(world.total_requests_committed(i) == 100 for i in live)
        assert {world.nodes[i].replica.view for i in live} == {1}

        cfg2, expect2 = cli.parse_scenario(SCENARIO_DIR / "two_failures.scn")
        world2 = World(cfg2)
        world2.run()
        assert cli.evaluate_scenario(world2, expect2) == []
        assert world2.max_view() <= 2
        live2 = [i for i in range(cfg2.n) if not world2.nodes[i].crashed]
        assert all(world2.total_requests_committed(i) == 100 for i in live2)
        wall = time.monotonic() - t0
        assert wall < 10.0
        print(f"\nPASS criterion 2: leader crash -> 100/100 after exactly "
              f"one view change; double crash at f=2 -> committed by view "
              f"{world2.max_view()}; {wall:.1f}s wall")


class TestCriterion3QuorumExactness:
    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3), (13, 4),
                                     (15, 4)])
    def test_transitions_at_exact_thresholds(self, n, f):
        rep = Replica(ReplicaConfig(n=n, f=f, self_id=1, batch_size=1))
        body = PrePrepareBody.for_batch((Request(100, 0, b"v"),))
        rep.on_envelope(WireEnvelope(MessageKind.PRE_PREPARE, 0, 1, 0,
                                     body.encode()))
        # prepare: own vote + leader's; 2f votes never suffice, 2f+1 do
        for s in range(2, 2 * f):
            rep.on_envelope(WireEnvelope(MessageKind.PREPARE, 0, 1, s,
                                         body.digest))
        assert rep.log[1].status == Status.PRE_PREPARED
        rep.on_envelope(WireEnvelope(MessageKind.PREPARE, 0, 1, 2 * f,
                                     body.digest))
        assert rep.log[1].status == Status.PREPARED
        # commit: own vote plus 2f-1 others is one short; 2f others commit
        for s in range(2, 2 * f + 1):
            rep.on_envelope(WireEnvelope(MessageKind.COMMIT, 0, 1, s,
                                         body.digest))
        assert rep.log[1].status == Status.PREPARED
        rep.on_envelope(WireEnvelope(MessageKind.COMMIT, 0, 1, 0,
                                     body.digest))
        assert rep.log[1].status == Status.COMMITTED

    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3), (13, 4),
                                     (15, 4)])
    def test_client_completes_at_exactly_f_plus_1(self, n, f):
        from pbftkit.wire import ReplyBody
        sess = ClientSession(n, n, f, CryptoMode.DOMAIN_OPTIMIZED)
        sess.make_request(b"x", 0.0)
        body = ReplyBody(n, 0, 1, b"\x07" * 32).encode()
        for s in range(f):
            env = WireEnvelope(MessageKind.REPLY, 0, 1, s, body)
            assert sess.on_reply(env, 1.0) is None
        env = WireEnvelope(MessageKind.REPLY, 0, 1, f, body)
        assert sess.on_reply(env, 1.0) is not None

    def test_report(self):
        print("\nPASS criterion 3: prepared/committed flip at exactly 2f+1 "
              "votes and client completion at exactly f+1 replies for "
              "n in {4,7,10,13,15}")


class TestCriterion4PolicyMatrix:
    def test_all_fifteen_entries(self):
        P, M, N = AuthScheme.PK, AuthScheme.MAC, AuthScheme.NONE
        table = {
            CryptoMode.PK_ONLY: (P, P, P, P, N),
            CryptoMode.MAC_INTER_NODE: (P, M, P, P, N),
            CryptoMode.DOMAIN_OPTIMIZED: (P, M, M, P, P),
        }
        classes = (MessageClass.CLIENT_REQUEST, MessageClass.INTER_NODE,
                   MessageClass.CLIENT_REPLY, MessageClass.VIEW_CHANGE_CLASS,
                   MessageClass.CHECKPOINT_BLOCK_SIG)
        checked = 0
        for mode, row in table.items():
            for cls, want in zip(classes, row):
                assert required_auth(mode, cls) == want, (mode, cls)
                checked += 1
        assert checked == 15
        print("\nPASS criterion 4: all 15 (mode x class) policy entries "
              "exact")


class TestCriterion5Codec:
    def test_golden_round_trip_and_fuzz(self):
        from test_wire import GOLDEN_PREPARE, GOLDEN_REQUEST_EMPTY
        assert encode(request_envelope(Request(7, 1, b""))) == \
            GOLDEN_REQUEST_EMPTY
        env = WireEnvelope(MessageKind.PREPARE, 3, 42, 2, b"\xaa" * 32,
                           auths=((1, b"\x01" * 32), (3, b"\x02" * 32)))
        assert encode(env) == GOLDEN_PREPARE

        rng = random.Random(2024)
        kinds = list(MessageKind)
        for _ in range(10_000):
            env = WireEnvelope(
                rng.choice(kinds), rng.getrandbits(64), rng.getrandbits(64),
                rng.getrandbits(16), rng.randbytes(rng.randrange(0, 256)),
                tuple((rng.getrandbits(16),
                       rng.randbytes(rng.randrange(0, 64)))
                      for _ in range(rng.randrange(0, 4))))
            assert decode(encode(env)) == env

        crashes = 0
        base = bytearray(GOLDEN_PREPARE)
        for i in range(10_000):
            if i % 2:
                blob = bytes(rng.randbytes(rng.randrange(0, 128)))
            else:
                blob = bytearray(base)
                for _ in range(rng.randrange(1, 5)):
                    blob[rng.randrange(len(blob))] = rng.randrange(256)
                blob = bytes(blob)
            try:
                decode(blob)
            except wire.WireError:
                pass
            except Exception:
                crashes += 1
        assert crashes == 0
        print("\nPASS criterion 5: golden frames byte-identical, 10^4 "
              "round trips, 10^4 fuzz decodes with zero crashes")


class TestCriterion6ModeThroughputOrdering:
    def test_domain_twice_mac_twice_pk(self):
        res = compare_modes(n=4, f=1, value_size=512, total_requests=2000,
                            batch_size=1)
        d = res["DOMAIN_OPTIMIZED"]["throughput"]
        m = res["MAC_INTER_NODE"]["throughput"]
        p = res["PK_ONLY"]["throughput"]
        assert d > m > p
        assert d / m >= 2.0
        assert m / p >= 2.0
        print(f"\nPASS criterion 6: {d:.0f} > {m:.0f} > {p:.0f} ops/s; "
              f"measured ratios domain/mac={d / m:.2f} mac/pk={m / p:.2f} "
              f"(reference hardware showed about 5.9x and 3.5x)")


class TestCriterion7CostBreakdownShape:
    def test_leader_verify_dwarfed_by_hashing(self):
        cfg = BenchConfig(mode=CryptoMode.DOMAIN_OPTIMIZED, n=4, f=1,
                          value_size=4096, clients=2, outstanding=4,
                          batch_size=4, duration=6.0, warmup=2.0)
        report = run_benchmark(cfg)
        assert report.completed > 200
        rows = {(r[0], r[1]): r for r in report.stage_rows}
        ratios = {}
        for kind in ("PREPARE", "COMMIT"):
            hash_mean = rows[("hash_rx", kind)][4]
            verify_mean = rows[("verify", kind)][4]
            ratios[kind] = hash_mean / max(verify_mean, 1)
            assert ratios[kind] >= 10.0, (kind, hash_mean, verify_mean)
        framing = sum(r[3] for r in report.stage_rows
                      if r[0] in ("unmarshal", "marshal", "hash_rx",
                                  "hash_tx"))
        signing = sum(r[3] for r in report.stage_rows if r[0] == "sign")
        assert framing > signing
        print(f"\nPASS criterion 7: leader hash/verify per-message ratio "
              f"PREPARE={ratios['PREPARE']:.1f}x COMMIT="
              f"{ratios['COMMIT']:.1f}x (>=10x); framing+hash "
              f"{framing / 1e6:.0f}ms CPU vs sign {signing / 1e6:.0f}ms")


class TestCriterion8Batching:
    def test_throughput_and_exact_pre_prepare_count(self):
        total = 1000
        r1 = InlineCluster(4, 1, CryptoMode.DOMAIN_OPTIMIZED,
                           batch_size=1).run_closed_loop(total)
        r8 = InlineCluster(4, 1, CryptoMode.DOMAIN_OPTIMIZED,
                           batch_size=8).run_closed_loop(total)
        assert r1["completed"] == r8["completed"] == total
        ratio = r8["throughput"] / r1["throughput"]
        assert ratio >= 1.5
        assert abs(r1["pre_prepares"] - total) <= 1
        assert abs(r8["pre_prepares"] - total // 8) <= 1
        # goodput is throughput times the value size: consistency check
        goodput8 = r8["throughput"] * 512 * 8 / 1e9
        assert goodput8 == pytest.approx(
            r8["completed"] * 512 * 8 / r8["elapsed"] / 1e9, rel=1e-6)
        print(f"\nPASS criterion 8: batch 8 vs 1 throughput x{ratio:.2f} "
              f"(>=1.5); PRE_PREPAREs {r1['pre_prepares']} vs "
              f"{r8['pre_prepares']} (1/8 exact, tolerance 1); goodput "
              f"column consistent")


class TestCriterion9ScalingTrend:
    def test_throughput_non_increasing_in_n(self):
        thr = {}
        for n, f in ((4, 1), (7, 2), (10, 3)):
            r = InlineCluster(n, f, CryptoMode.MAC_INTER_NODE,
                              batch_size=1).run_closed_loop(600)
            assert r["completed"] == 600
            thr[n] = r["throughput"]
        assert thr[4] >= thr[7] >= thr[10]
        print(f"\nPASS criterion 9: throughput {thr[4]:.0f} >= "
              f"{thr[7]:.0f} >= {thr[10]:.0f} ops/s for n=4,7,10")


class TestCriterion10CheckpointGC:
    def test_50k_run_bounded_log_and_watermark(self):
        world = World(SimConfig(
            n=4, f=1, seed=1, auth=False, client_auth=False,
            num_clients=8, requests_per_client=6250,
            checkpoint_interval=500, log_capacity=10_000,
            latency=(0.0001, 0.0005), client_timeout=30.0,
            view_change_timeout=120.0, max_events=30_000_000))
        # run in slices so the log bound is observed during the run too
        max_log = 0
        watermarks = {0}
        horizon = 0.0
        while world._events:
            horizon += 2.0
            world.run(until=horizon)
            for node in world.nodes.values():
                max_log = max(max_log, len(node.replica.log))
                assert len(node.replica.log) <= 10_000
                watermarks.add(node.replica.h)
        assert world.total_requests_committed(0) == 50_000
        final_h = world.nodes[0].replica.h
        advances = final_h // 500
        assert final_h == 50_000
        assert advances >= 99
        check_safety(world)
        print(f"\nPASS criterion 10a: 50k requests, watermark advanced "
              f"{advances} times to {final_h}, peak log size {max_log} "
              f"(bound 10000)")

    def test_view_change_preserves_post_checkpoint_batches(self):
        world = World(SimConfig(
            n=4, f=1, seed=5, auth=False, client_auth=False,
            num_clients=2, requests_per_client=300,
            checkpoint_interval=100, log_capacity=2000,
            faults={0: (CRASH_AT, 1.0)}, view_change_timeout=0.5,
            client_timeout=2.0))
        world.run()
        live = (1, 2, 3)
        assert world.max_view() >= 1
        for i in live:
            assert world.total_requests_committed(i) == 600
            assert world.nodes[i].replica.h >= 100  # checkpoints happened
        check_safety(world)
        print("\nPASS criterion 10b: view change after stable checkpoints "
              "lost no committed batch; all 600 requests served")


class TestCriterion11LatencyDistribution:
    def test_cdf_shape_under_saturation(self):
        cfg = BenchConfig(mode=CryptoMode.DOMAIN_OPTIMIZED, n=4, f=1,
                          value_size=512, clients=4, outstanding=8,
                          batch_size=8, duration=6.0, warmup=2.0)
        report = run_benchmark(cfg)
        assert report.completed > 200
        fracs = [f for _, f in report.cdf]
        lats = [l for l, _ in report.cdf]
        assert fracs == sorted(fracs)
        assert lats == sorted(lats)
        assert fracs[-1] == 1.0
        assert report.latency_p99 >= report.latency_p95 >= \
            report.latency_median > 0
        tail = report.latency_p99 / report.latency_median
        print(f"\nPASS criterion 11: CDF monotone and complete; "
              f"p99={report.latency_p99 * 1e3:.1f}ms >= "
              f"p95={report.latency_p95 * 1e3:.1f}ms >= "
              f"median={report.latency_median * 1e3:.1f}ms; saturated "
              f"p99/median={tail:.1f}")
